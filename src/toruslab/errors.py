"""Exception types shared across the package.

Guard violations (grids or boxes too small, resource budgets exceeded, a
fixed-point iteration that does not contract, a solve that does not stay
finite) map to CLI exit code 1; plain
usage errors map to exit code 2.
"""


class BoxTooSmallError(ValueError):
    """Coefficient box cannot hold the requested frequency support."""


class GridTooCoarseError(ValueError):
    """Sampling grid cannot resolve the requested band or profile."""


class BudgetExceededError(RuntimeError):
    """Requested computation exceeds the configured cell budget."""


class NonContractionError(RuntimeError):
    """A solve failed: the fixed-point iteration does not contract, or the solution does
    not stay finite; data too large or horizon too long."""
