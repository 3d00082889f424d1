"""Shared exception types with CLI-relevant distinctions."""


class BranchCoverError(Exception):
    """Base for library errors."""


class InadmissibleError(BranchCoverError):
    """Input fails an admissibility gate or is out of this library's scope."""


class VerificationError(BranchCoverError):
    """A built certificate failed its own independent verification."""


class ParseError(BranchCoverError):
    """Malformed datum, cycle, or certificate text."""


class EksError(ValueError):
    """Precondition violation or exhausted internal search."""
