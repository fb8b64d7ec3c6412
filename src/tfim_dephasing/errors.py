"""Exception types shared across the package."""


class DegenerateModeError(ValueError):
    """A momentum mode sits on (or underflows into) the gapless point."""


class QuadratureConvergenceError(RuntimeError):
    """Numerical integration failed to converge or disagrees with the closed form."""


class BranchTrackingError(RuntimeError):
    """Per-mode log branch cannot be followed (overlap magnitude hit zero)."""
