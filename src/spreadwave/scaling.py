"""Time-horizon and volume scaling of spreads and high-low bars.

A spread quoted for one holding horizon can be rescaled to another: the
initial bar contributes a floor that does not grow with time, while the
volatility part accumulates diffusively.  For large horizon ratios the
classical square-root law is recovered.  The bar law as a function of both
volume and horizon gives the spread surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite


class PiecewiseConstantTable:
    """Piecewise-constant lookup over (T, V) buckets with edge clamping."""

    def __init__(self, t_edges, v_edges, values) -> None:
        self.t_edges = np.asarray(t_edges, dtype=float)
        self.v_edges = np.asarray(v_edges, dtype=float)
        self.values = np.asarray(values, dtype=float)
        expected = (len(self.t_edges) - 1, len(self.v_edges) - 1)
        if self.values.shape != expected:
            raise DomainError(
                f"values shape {self.values.shape} does not match bucket grid {expected}"
            )
        if np.any(np.diff(self.t_edges) <= 0) or np.any(np.diff(self.v_edges) <= 0):
            raise DomainError("bucket edges must be strictly ascending")

    def value(self, T: float, V: float) -> float:
        i = int(np.clip(np.searchsorted(self.t_edges, T, side="right") - 1,
                        0, len(self.t_edges) - 2))
        j = int(np.clip(np.searchsorted(self.v_edges, V, side="right") - 1,
                        0, len(self.v_edges) - 2))
        return float(self.values[i, j])


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

    def lambda_at(self, T: float, V: float) -> float:
        if self.lambda_table is None:
            return self.lambda_risk
        return self.lambda_table.value(T, V)

    def rho_at(self, T: float, V: float) -> float:
        if self.rho_table is None:
            return self.rho_risk
        return self.rho_table.value(T, V)


# --------------------------------------------------------------------------
# horizon scaling
# --------------------------------------------------------------------------

def scale_spread_time(
    spread_T1: float,
    eta_T1: float,
    lambda_risk: float,
    T1: float,
    T2: float,
) -> float:
    """Rescale a spread from horizon T1 to a longer horizon T2.

    Delta_T2 = Delta_T1 * sqrt(1 + lambda^2 (eta_T1^2 / Delta_T1^2)
    (T2/T1 - 1)).  The floor contributed by the initial bar does not scale;
    only the volatility part accumulates with the horizon.
    """
    if not (T1 > 0.0) or T2 < T1:
        raise DomainError(f"need T2 >= T1 > 0, got T1={T1!r}, T2={T2!r}")
    if not (spread_T1 > 0.0):
        raise DomainError(f"spread_T1 must be > 0, got {spread_T1!r}")
    if eta_T1 < 0.0 or lambda_risk < 0.0:
        raise DomainError("eta_T1 and lambda_risk must be >= 0")
    ratio = lambda_risk * eta_T1 / spread_T1
    return spread_T1 * math.sqrt(1.0 + ratio * ratio * (T2 / T1 - 1.0))


def classical_scale(spread_T1: float, T1: float, T2: float) -> float:
    """Classical square-root-of-time baseline: sqrt(T2/T1) * spread."""
    if not (T1 > 0.0 and T2 > 0.0):
        raise DomainError(f"horizons must be > 0, got T1={T1!r}, T2={T2!r}")
    if spread_T1 < 0.0:
        raise DomainError(f"spread_T1 must be >= 0, got {spread_T1!r}")
    return math.sqrt(T2 / T1) * spread_T1


# --------------------------------------------------------------------------
# volume-inclusive bar law
# --------------------------------------------------------------------------

def bar_spread_with_volume(
    params: SpreadSurfaceParams,
    s: float,
    V: float,
    T: float,
) -> float:
    """High-low bar size at horizon T and volume V.

    Delta_T(V) = s * sqrt(lambda^2 sigma_T^2 + rho^2 (pi tau0 / n)^2 V^2
    + rho^2 (pi tau0)^2 T V^3 / n^3), with sigma_T = sigma_tau * sqrt(T).
    Unlike the bid-ask law this starts at a positive floor at V = 0 and is
    strictly increasing in volume.
    """
    if not (s > 0.0):
        raise DomainError(f"s must be > 0, got {s!r}")
    if not (T > 0.0):
        raise DomainError(f"T must be > 0, got {T!r}")
    if V < 0.0:
        raise DomainError(f"V must be >= 0, got {V!r}")
    lam = params.lambda_at(T, V)
    rho = params.rho_at(T, V)
    sigma_T_sq = params.sigma_tau ** 2 * T
    pi_tau0 = math.pi * params.tau0
    term_floor = lam * lam * sigma_T_sq
    term_v2 = (rho * pi_tau0 / params.n) ** 2 * V * V
    term_v3 = (rho * pi_tau0) ** 2 * T * V ** 3 / params.n ** 3
    return s * math.sqrt(term_floor + term_v2 + term_v3)


def bar_spread_dimensionless(v: float, T: float, params: SpreadSurfaceParams) -> float:
    """Dimensionless bar law delta_T(v) matching the dimensional form.

    delta_T(v) = sqrt(lambda^2 sigma_T^2 + v^2 / 2 + T v^3 / (2^(3/2) rho
    pi tau0)), with v = V / V0 and V0 = n / (sqrt(2) rho pi tau0).
    """
    if not (T > 0.0):
        raise DomainError(f"T must be > 0, got {T!r}")
    if v < 0.0:
        raise DomainError(f"v must be >= 0, got {v!r}")
    v0 = params.n / (math.sqrt(2.0) * params.rho_risk * math.pi * params.tau0)
    V = v * v0
    lam = params.lambda_at(T, V)
    rho = params.rho_at(T, V)
    sigma_T_sq = params.sigma_tau ** 2 * T
    term_v3 = T * v ** 3 / (2.0 ** 1.5 * rho * math.pi * params.tau0)
    return math.sqrt(lam * lam * sigma_T_sq + 0.5 * v * v + term_v3)


def spread_surface(
    params: SpreadSurfaceParams,
    s: float,
    v_grid,
    T_grid,
) -> np.ndarray:
    """Bar-size surface over a (horizon, volume) grid.

    Returns a (len(T_grid), len(v_grid)) matrix with horizons along rows;
    serialization iterates horizons in the outer loop.
    """
    v_grid = np.asarray(v_grid, dtype=float)
    T_grid = np.asarray(T_grid, dtype=float)
    if v_grid.size == 0 or T_grid.size == 0:
        raise DomainError("surface grids must be non-empty")
    if np.any(np.diff(v_grid) <= 0) or np.any(np.diff(T_grid) <= 0):
        raise DomainError("surface grids must be strictly ascending")
    out = np.empty((T_grid.size, v_grid.size))
    for i, T in enumerate(T_grid):
        for j, V in enumerate(v_grid):
            out[i, j] = bar_spread_with_volume(params, s, float(V), float(T))
    return out


def default_surface_grids(
    v_lo: float, v_hi: float, T_lo: float, T_hi: float,
    n_v: int = 50, n_T: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Default log-spaced surface grids (50 volumes x 20 horizons)."""
    if not (0.0 < v_lo < v_hi and 0.0 < T_lo < T_hi):
        raise DomainError("need 0 < lo < hi for both grid ranges")
    return (np.geomspace(v_lo, v_hi, n_v), np.geomspace(T_lo, T_hi, n_T))
