"""Error and warning types shared across the package."""


class LinEvidenceError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(LinEvidenceError):
    """Array shapes or parameter counts are inconsistent."""


class RankDeficient(LinEvidenceError):
    """The design matrix does not have full column rank."""


class SingularPrior(LinEvidenceError):
    """A prior covariance is not positive definite."""


class DegenerateDof(LinEvidenceError):
    """An operation needs N > M residual degrees of freedom and has none."""


class MixedKinds(LinEvidenceError):
    """Scores of different kinds (proper vs fake evidence) were compared."""


class AllDegenerate(LinEvidenceError):
    """Every candidate score is -inf, so no comparison is possible."""


class EmptyFeasibleGrid(LinEvidenceError):
    """Constraints exclude every point of a search grid."""


class DimensionTooLarge(LinEvidenceError):
    """A brute-force oracle was asked for more dimensions than it supports."""


class ConsistencyError(LinEvidenceError):
    """Two algebraically equivalent routes disagreed beyond tolerance.

    Raised by internal dual-route checks (posterior forms, quadratic-form
    identities, log-evidence routes).  Seeing this means the numerics broke
    down, not that the caller passed bad input.
    """


class DegenerateFitWarning(UserWarning):
    """The residual is (numerically) zero; a boundary estimate was returned."""


class NonFiniteMassWarning(UserWarning):
    """Posterior mass concentrates on a grid boundary; the underlying
    hyperparameter integral may not be finite."""
