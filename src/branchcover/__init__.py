"""Permutation certificates for indecomposable branched coverings.

Realizes branch data of odd degree over the projective plane (and the
[d-2,1,1] family over the sphere) by explicit generator images, verifies
every certificate independently, and ships brute-force oracles that
certify the constructions at desk scale.
"""

from .errors import (
    BranchCoverError,
    InadmissibleError,
    ParseError,
    VerificationError,
)
from .perm import (
    Partition,
    PermError,
    Permutation,
    canonical_in_class,
    compose,
    conjugate,
    conjugator_matching,
    embed,
    format_cycles,
    from_cycles,
    identity,
    parse_cycles,
    project,
    sqrt_odd_cycle,
)
from .groups import (
    BlockSystem,
    GroupError,
    is_primitive,
    is_transitive,
    primitivity_fast_path,
)
from .eks import (
    EksError,
    eks_merge,
    factor_two_full_cycles,
    product_defect_exact,
    product_defect_reduced,
)
from .construct import (
    AppendixRow,
    BranchDatum,
    admissible,
    full_cycle_datum_construct,
    fundamental_construct,
    load_appendix_table,
    parse_datum,
    reduce_collection,
    single_branch_verdict,
    two_datum_construct,
)
from .realize import (
    HurwitzCertificate,
    VerificationReport,
    certificate_from_text,
    certificate_to_text,
    euler_characteristic,
    realize_rp2,
    realize_sphere,
    verify_certificate,
)

__version__ = "0.1.0"
