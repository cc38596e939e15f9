"""Exception types shared across the package."""


class DpchromaError(Exception):
    """Base class for all package-specific errors."""


class InvalidThetaSpec(DpchromaError, ValueError):
    """Path-length list does not describe a simple generalized Theta graph."""


class InvalidCenter(DpchromaError, ValueError):
    """Removing the star at the requested center does not leave a forest."""


class InexactDivision(DpchromaError, ArithmeticError):
    """Polynomial division left a nonzero remainder.

    In this package every division written into a closed form is exact, so
    hitting this usually means a formula was transcribed wrong.
    """


class GraphTooLarge(DpchromaError, ValueError):
    """Instance exceeds the configured exact-computation size limit."""


class BadPathIndex(DpchromaError, ValueError):
    """Path index outside 1..k."""


class BadEdge(DpchromaError, ValueError):
    """Named edge is not an edge of the graph."""


class CoverMismatch(DpchromaError, ValueError):
    """Cover does not belong to the graph it is used with, or a twist is
    not a permutation of the fold."""


class FoldTooSmall(DpchromaError, ValueError):
    """Cover fold m is smaller than the number of shift classes."""


class AssumptionViolated(DpchromaError, ValueError):
    """Instance violates a standing assumption of the requested analysis."""


class OutOfScope(DpchromaError, ValueError):
    """Instance lies outside the family the requested formula covers."""


class OutOfRange(DpchromaError, ValueError):
    """Numeric argument outside the range where the quantity is defined."""


class SearchBudgetExceeded(DpchromaError, RuntimeError):
    """Exhaustive search would examine more candidates than the budget allows."""
