"""Semantic exception hierarchy shared by all erfs modules."""


class ErfsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ErfsError):
    """An argument lies outside the mathematical domain of an operation."""


class ContradictoryEvidence(ErfsError):
    """Two pieces of evidence are fully conflicting (degree of conflict 1).

    The normalized combination does not exist in this case; callers must
    decide how to proceed (typically: report and drop one source).
    """


class NotPositiveDefinite(ErfsError):
    """A matrix required to be symmetric positive definite is not."""


class SingularBlock(ErfsError):
    """A projection's block split is outside ``(0, p)``, or its trailing block is ill-conditioned."""


class PracticalRejection(ErfsError):
    """A rejection sampler's acceptance probability is too small to be usable."""
