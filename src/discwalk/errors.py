"""Exception hierarchy shared by all discwalk modules.

Two families cover every expected failure: :class:`ConfigError` (the input
or configuration cannot be used) and :class:`BudgetExceeded` (a resource
budget ran out).  The CLI maps each family to one exit code.
"""

from contextlib import contextmanager


class DiscwalkError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DiscwalkError, ValueError):
    """The input or configuration cannot be used."""


class BudgetExceeded(DiscwalkError):
    """A resource budget (time, window, height range) was exceeded."""


@contextmanager
def allocating(what: str, size: int):
    """numpy's refusal of an array (MemoryError, or its ValueError for too large
    a size or dimension) as BudgetExceeded; a negative size keeps its error."""
    try:
        yield
    except (MemoryError, ValueError):
        if size < 0:
            raise
        raise BudgetExceeded(f"{what} do not fit in memory") from None


class UnknownPreset(ConfigError):
    pass


class FiniteCF(ConfigError):
    """A custom continued fraction terminated before reaching full precision.

    A finite CF denotes a rational number; every result used here requires an
    irrational angle, so resolution refuses to proceed.
    """


class UnboundedQuotients(ConfigError):
    """A custom CF contains a partial quotient above its declared bound."""


class HeightOverflow(BudgetExceeded):
    """Walk height left the 64-bit range (unreachable at supported horizons)."""


class InsufficientSamples(ConfigError):
    pass


class WindowExceeded(BudgetExceeded):
    """A symbol-window shift left the materialized window.

    ``height`` carries the offending offset so the caller can re-run with a
    larger budget.
    """

    def __init__(self, message, height=None):
        super().__init__(message)
        self.height = height


class PaperModeNotQueryable(ConfigError):
    """Pointwise membership is not available for log-space schedules."""


class OverlappingIntervals(ConfigError):
    pass


class BadOrder(ConfigError):
    pass


class EmptyAfterFilter(ConfigError):
    pass


class MissingEntries(ConfigError):
    pass
