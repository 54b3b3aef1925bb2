"""Exception types shared across the package."""


class FelError(Exception):
    """Base class for all library errors."""


class ConditionViolation(FelError):
    """A nested-fractal structural condition failed validation.

    ``condition`` is the number of the violated condition:
    1 = at least two essential fixed points, 3 = nesting,
    4 = connectivity of the level-1 graph, 5 = symmetry.
    """

    def __init__(self, condition: int, message: str = ""):
        self.condition = condition
        super().__init__(f"condition {condition} violated" + (f": {message}" if message else ""))


class PointCapExceeded(FelError):
    """Requested enumeration level would exceed the configured point cap."""


class SingularInterior(FelError):
    """Interior block of the Laplacian is not positive definite.

    Signals an interior component of the level-1 graph that does not
    touch the boundary vertex set.
    """


class NoConvergence(FelError):
    """Renormalization fixed-point iteration did not converge."""

    def __init__(self, message: str, trace=None):
        self.trace = trace or []
        super().__init__(message)


class ResolutionTooCoarse(FelError):
    """Counting-measure level is too coarse for the requested cutoff."""


class DegenerateStructure(FelError):
    """A solved harmonic structure has rho <= 1 (solver failure)."""


class InvariantViolation(FelError):
    """An internal consistency check failed: the code or its input tables
    broke an invariant that a valid nested fractal guarantees."""


class UnsupportedDimension(FelError):
    """Operation only defined for planar (N = 2) systems."""
