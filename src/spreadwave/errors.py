"""Exception taxonomy, process exit codes, the shared parameter checks and
the row-block grid.

Every module imports this one, so what they all share lives here: it loads
only numpy, and a process that fits or simulates without a CSV file never
loads the I/O layer for it.
"""

import numbers

import numpy as np

# Stable CLI exit-code contract.
EXIT_OK = 0
EXIT_IO = 2
EXIT_INVALID_INPUT = 3
EXIT_NUMERICAL = 4

# Rows per block of the simulator stream, the amplitude kernel, the table
# reader and the columnar CSV writers: their working memory is bounded by
# this, not by the row count.
_BLOCK_ROWS = 2048


def row_blocks(n: int):
    """Slices of ``_BLOCK_ROWS`` consecutive rows covering range(n)."""
    return (slice(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


class SpreadwaveError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SpreadwaveError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NoSolutionError(DomainError):
    """The requested inversion has no solution (e.g. spread below its minimum)."""


class InsufficientDataError(SpreadwaveError):
    """A statistical operation received fewer samples than it needs."""


class InputFormatError(SpreadwaveError):
    """A data file or config is malformed, has wrong columns, or fails validation."""


class FitConvergenceError(SpreadwaveError):
    """A fit failed to converge; carries the best-so-far result for diagnostics."""

    def __init__(self, message: str, best_so_far=None):
        super().__init__(message)
        self.best_so_far = best_so_far


def check_finite(name: str, value, *, above: float | None = None,
                 at_least: float | None = None) -> None:
    """Reject a non-finite parameter, or one outside its lower bound.

    ``value`` may be a number or an array, which must hold in every element.
    ``above`` is a strict lower bound and ``at_least`` an inclusive one; NaN
    and infinities always fail, so a bad value cannot slip past a plain
    ``value < bound`` comparison.
    """
    values = np.asarray(value, dtype=float)
    ok = np.isfinite(values)
    bound = ""
    if above is not None:
        ok, bound = ok & (values > above), f" and > {above!r}"
    elif at_least is not None:
        ok, bound = ok & (values >= at_least), f" and >= {at_least!r}"
    if not ok.all():
        bad = float(values[~ok][0]) if values.ndim else value
        raise DomainError(f"{name} must be finite{bound}, got {bad!r}")


def check_count(name: str, value) -> None:
    """Reject a count that is not an integer >= 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
