"""Permutation certificates for indecomposable branched coverings.

Realizes branch data of odd degree over the projective plane (and the
[d-2,1,1] family over the sphere) by explicit generator images, verifies
every certificate independently, and ships brute-force oracles that
certify the constructions at desk scale.

The package namespace is lazy: `import branchcover` loads no submodule,
and each public name loads its home module on first use (PEP 562), so a
caller pays only for what it reads.  `branchcover.load_appendix_table()`
loads the builder and not the verifier; `branchcover.verify_certificate`
loads the verifier and no builder.
"""

from importlib import import_module

# public name -> home module
_HOMES = {
    **dict.fromkeys(
        (
            "BranchCoverError",
            "EksError",
            "InadmissibleError",
            "ParseError",
            "VerificationError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "BranchDatum",
            "Partition",
            "PermError",
            "Permutation",
            "canonical_in_class",
            "compose",
            "conjugate",
            "conjugator_matching",
            "embed",
            "format_cycles",
            "from_cycles",
            "identity",
            "parse_cycles",
            "parse_datum",
            "project",
            "sqrt_odd_cycle",
        ),
        "perm",
    ),
    **dict.fromkeys(
        (
            "BlockSystem",
            "GroupError",
            "is_primitive",
            "is_transitive",
            "primitivity_fast_path",
        ),
        "groups",
    ),
    **dict.fromkeys(
        (
            "eks_merge",
            "factor_two_full_cycles",
            "product_defect_exact",
            "product_defect_reduced",
        ),
        "eks",
    ),
    **dict.fromkeys(
        (
            "AppendixRow",
            "admissible",
            "full_cycle_datum_construct",
            "fundamental_construct",
            "load_appendix_table",
            "reduce_collection",
            "single_branch_verdict",
            "two_datum_construct",
        ),
        "construct",
    ),
    **dict.fromkeys(
        (
            "HurwitzCertificate",
            "VerificationReport",
            "certificate_from_text",
            "certificate_to_text",
            "euler_characteristic",
            "verify_certificate",
        ),
        "verify",
    ),
    **dict.fromkeys(("realize_rp2", "realize_sphere"), "realize"),
}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
