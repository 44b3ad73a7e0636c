"""Time-horizon and volume scaling of spreads and high-low bars.

A spread quoted for one holding horizon can be rescaled to another: the
initial bar contributes a floor that does not grow with time, while the
volatility part accumulates diffusively.  For large horizon ratios the
classical square-root law is recovered.  Both horizon laws broadcast over
every argument, so a table over many horizons is one call.  The bar law as a
function of both volume and horizon gives the spread surface; it is
evaluated by the array kernel ``spread_models.bar_spread_model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite
from .spread_models import bar_spread_model

# Cells per row block of ``spread_surface``: 64 kB per float temporary.
_BLOCK_CELLS = 8192


class PiecewiseConstantTable:
    """Piecewise-constant lookup over (T, V) buckets with edge clamping.

    The edges are finite and strictly ascending, and the values are risk
    multipliers: finite and > 0, as in ``SpreadSurfaceParams``.
    """

    def __init__(self, t_edges, v_edges, values) -> None:
        self.t_edges = np.asarray(t_edges, dtype=float)
        self.v_edges = np.asarray(v_edges, dtype=float)
        self.values = np.asarray(values, dtype=float)
        expected = (len(self.t_edges) - 1, len(self.v_edges) - 1)
        if self.values.shape != expected:
            raise DomainError(
                f"values shape {self.values.shape} does not match bucket grid {expected}"
            )
        check_finite("t_edges", self.t_edges)
        check_finite("v_edges", self.v_edges)
        check_finite("values", self.values, above=0.0)
        if np.any(np.diff(self.t_edges) <= 0) or np.any(np.diff(self.v_edges) <= 0):
            raise DomainError("bucket edges must be strictly ascending")

    def value(self, T, V):
        """Bucket value at (T, V); broadcasts over array arguments."""
        i = np.clip(np.searchsorted(self.t_edges, T, side="right") - 1,
                    0, len(self.t_edges) - 2)
        j = np.clip(np.searchsorted(self.v_edges, V, side="right") - 1,
                    0, len(self.v_edges) - 2)
        return self.values[i, j]


@dataclass(frozen=True)
class SpreadSurfaceParams:
    """Parameters of the volume-and-horizon bar law.

    ``sigma_tau`` is the per-transaction-time volatility (dimensionless log
    scale per sqrt of reference time); the horizon volatility is derived as
    sigma_T = sigma_tau * sqrt(T).  The risk multipliers may optionally vary
    over (T, V) buckets via piecewise-constant tables.
    """

    lambda_risk: float
    rho_risk: float
    sigma_tau: float
    n: float
    tau0: float
    lambda_table: PiecewiseConstantTable | None = None
    rho_table: PiecewiseConstantTable | None = None

    def __post_init__(self) -> None:
        for name in ("lambda_risk", "rho_risk", "sigma_tau", "n", "tau0"):
            check_finite(name, getattr(self, name), above=0.0)

    def lambda_at(self, T, V):
        return self.lambda_risk if self.lambda_table is None else self.lambda_table.value(T, V)

    def rho_at(self, T, V):
        return self.rho_risk if self.rho_table is None else self.rho_table.value(T, V)


# --------------------------------------------------------------------------
# horizon scaling
# --------------------------------------------------------------------------

def scale_spread_time(spread_T1, eta_T1, lambda_risk, T1, T2):
    """Rescale a spread from horizon T1 to a longer horizon T2.

    Delta_T2 = Delta_T1 * sqrt(1 + lambda^2 (eta_T1^2 / Delta_T1^2)
    (T2/T1 - 1)).  The floor contributed by the initial bar does not scale;
    only the volatility part accumulates with the horizon.  Broadcasts over
    every argument; each T2 must be >= its T1.
    """
    check_finite("spread_T1", spread_T1, above=0.0)
    check_finite("eta_T1", eta_T1, at_least=0.0)
    check_finite("lambda_risk", lambda_risk, at_least=0.0)
    check_finite("T1", T1, above=0.0)
    check_finite("T2", T2, at_least=T1)
    ratio = lambda_risk * eta_T1 / spread_T1
    return spread_T1 * np.sqrt(1.0 + ratio * ratio * (T2 / T1 - 1.0))


def classical_scale(spread_T1, T1, T2):
    """Classical square-root-of-time baseline: sqrt(T2/T1) * spread; broadcasts."""
    check_finite("spread_T1", spread_T1, at_least=0.0)
    check_finite("T1", T1, above=0.0)
    check_finite("T2", T2, above=0.0)
    return np.sqrt(T2 / T1) * spread_T1


# --------------------------------------------------------------------------
# volume-inclusive bar law
# --------------------------------------------------------------------------

def bar_spread_with_volume(params: SpreadSurfaceParams, s: float, V, T):
    """High-low bar size at horizon T and volume V; broadcasts over V and T.

    Delta_T(V) = s * sqrt(lambda^2 sigma_T^2 + rho^2 (pi tau0 / n)^2 V^2
    + rho^2 (pi tau0)^2 T V^3 / n^3), with sigma_T = sigma_tau * sqrt(T).
    Unlike the bid-ask law this starts at a positive floor at V = 0 and is
    strictly increasing in volume.
    """
    check_finite("s", s, above=0.0)
    check_finite("T", T, above=0.0)
    check_finite("V", V, at_least=0.0)
    shape = np.broadcast_shapes(np.shape(V), np.shape(T))
    # A point is evaluated as a one-element array, like a grid: on numpy
    # scalars ``x ** 2`` calls C pow, which rounds differently from the
    # array square, so a point would not equal its cell of the surface.
    V = np.atleast_1d(np.asarray(V, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    delta = s * bar_spread_model(
        V, params.lambda_at(T, V), params.rho_at(T, V),
        params.sigma_tau * np.sqrt(T), params.n, params.tau0, T)
    return delta.reshape(shape)[()]


def bar_spread_dimensionless(v, T, params: SpreadSurfaceParams):
    """Dimensionless bar law delta_T(v) matching the dimensional form.

    delta_T(v) = sqrt(lambda^2 sigma_T^2 + v^2 / 2 + T v^3 / (2^(3/2) rho
    pi tau0)), with v = V / V0 and V0 = n / (sqrt(2) rho pi tau0): the bar
    law at s = 1 and V = v * V0.
    """
    v0 = params.n / (math.sqrt(2.0) * params.rho_risk * math.pi * params.tau0)
    return bar_spread_with_volume(params, 1.0, v * v0, T)


def spread_surface(
    params: SpreadSurfaceParams,
    s: float,
    v_grid,
    T_grid,
) -> np.ndarray:
    """Bar-size surface over a (horizon, volume) grid.

    Returns a (len(T_grid), len(v_grid)) matrix with horizons along rows;
    serialization iterates horizons in the outer loop.  Each cell equals
    ``bar_spread_with_volume`` at that (V, T) bit for bit.  The law is
    evaluated a block of whole rows at a time, into the result, so its
    temporaries are the size of a block (about ``_BLOCK_CELLS`` cells), not
    of the surface.
    """
    v_grid = np.asarray(v_grid, dtype=float)
    T_grid = np.asarray(T_grid, dtype=float)
    if v_grid.size == 0 or T_grid.size == 0:
        raise DomainError("surface grids must be non-empty")
    if not (np.all(np.diff(v_grid) > 0) and np.all(np.diff(T_grid) > 0)):
        raise DomainError("surface grids must be strictly ascending")
    surface = np.empty((T_grid.size, v_grid.size))
    rows = max(1, _BLOCK_CELLS // v_grid.size)
    for lo in range(0, T_grid.size, rows):
        surface[lo:lo + rows] = bar_spread_with_volume(params, s, v_grid[None, :],
                                                       T_grid[lo:lo + rows, None])
    return surface


def default_surface_grids(
    v_lo: float, v_hi: float, T_lo: float, T_hi: float,
    n_v: int = 50, n_T: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Default log-spaced surface grids (50 volumes x 20 horizons)."""
    for name, lo, hi in (("v", v_lo, v_hi), ("T", T_lo, T_hi)):
        check_finite(f"{name}_lo", lo, above=0.0)
        check_finite(f"{name}_hi", hi, above=lo)
    return (np.geomspace(v_lo, v_hi, n_v), np.geomspace(T_lo, T_hi, n_T))
