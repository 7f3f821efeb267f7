"""Exception types shared across the package.

Guard violations (grids or boxes too small, resource budgets exceeded, a
fixed-point iteration that does not contract) map to CLI exit code 1; plain
usage errors map to exit code 2.
"""


class BoxTooSmallError(ValueError):
    """Coefficient box cannot hold the requested frequency support."""


class GridTooCoarseError(ValueError):
    """Sampling grid cannot resolve the requested band or profile."""


class BudgetExceededError(RuntimeError):
    """Requested computation exceeds the configured cell budget."""


class NonContractionError(RuntimeError):
    """Fixed-point iteration failed to contract; data too large or horizon too long."""
