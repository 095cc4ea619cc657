"""Exception types shared across the package."""


class OrthonetError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OrthonetError):
    """Syntax or name error while parsing an expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(OrthonetError):
    """Evaluation left the domain of a sub-expression (log of a nonpositive
    number, division by zero, fractional power of a negative base, ...)."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message}: {subexpr}")
        self.subexpr = subexpr


class NotSPDError(OrthonetError):
    """A matrix that must be symmetric positive definite is not."""


class DegenerateFrameError(OrthonetError):
    """A frame that must be linearly independent is numerically degenerate."""


class CoalescenceError(OrthonetError):
    """Eigenvalues do not split into exactly two clusters with the
    required gap."""


class NotApplicableError(OrthonetError):
    """A residual's preconditions fail at the query point, so the quantity
    is reported as not applicable rather than as a number."""


class ConstraintError(OrthonetError):
    """Structural constraint violation (spec kind, positivity, block layout)."""


class InconsistencyError(OrthonetError):
    """Quantities that are analytically forced to agree disagree numerically.
    Signals a bug or a violated hypothesis, never silently ignored."""


class PathInconsistencyError(InconsistencyError):
    """The line integrals of d log(rho_i / rho_0) along the axis-parallel
    paths to a box corner (differences of log(rho_i / rho_0) at the paths'
    vertices) depend on the order of the axes beyond tolerance, so the twist
    logs are not (numerically) gradient-consistent."""


class NotCodazziError(ConstraintError):
    """The symmetric tensor field fails the Codazzi equation on the samples."""


class ManifestError(OrthonetError):
    """Manifest file is malformed; carries a JSON-pointer-style path."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer


class ConditionNumberWarning(UserWarning):
    """Metric condition number is large enough to erode residual accuracy."""
