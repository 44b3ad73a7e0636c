"""Market maker operating-spread optimization.

The market maker controls one risk-aversion knob: scaling it widens the
quoted spread linearly but lowers the probability of execution, which decays
as a Gaussian in the control level.  Spread P&L per period is
0.5 * r * v * (delta - alpha) (bought and sold once per round trip, alpha
is the round-trip commission in spread units).  The optimum balances wider
margins against lost turnover; when no spread level earns more than the
commission, quoting should halt.  For the linear family the optimum has a
closed form (as under the exponential fill law of Avellaneda & Stoikov,
2008); other laws are optimized numerically, every volume point at once: a
lambda grid, then a bisection on the stationarity condition or a bounded
golden-section search, all in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calibration import (
    CalibrationResult,
    CurveSource,
    FlowStats,
    bar_spread_model,
    bidask_spread_model,
)
from .errors import DomainError, check_finite

# Reference quoting level as a fraction of the execution scale.  The market
# curve is a high-percentile envelope of observed spreads, so the matching
# control level sits well below the execution scale: at 0.4 the fill
# probability of quoting right at the curve is exp(-0.16) ~ 0.85.
DEFAULT_LAMBDA_REF_FRACTION = 0.4

_GRID_POINTS = 4001
_GRID_SPAN = (1e-6, 50.0)       # in units of lambda0
_BLOCK_POINTS = 32              # volume points per grid block: ~1 MB per float array
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps that shrink a two-cell grid bracket to about one ulp.
_GOLDEN_STEPS = math.ceil(
    math.log(((_GRID_SPAN[1] / _GRID_SPAN[0]) ** (2.0 / (_GRID_POINTS - 1)) - 1.0)
             / np.finfo(float).eps) / -math.log(_INV_PHI))


@dataclass(frozen=True)
class ExecutionModel:
    """Gaussian-survival execution model with scale lambda0."""

    lambda0: float

    def __post_init__(self) -> None:
        check_finite("lambda0", self.lambda0, above=0.0)


def execution_rate(model: ExecutionModel, lam: float) -> float:
    """Probability that a quote at control level lam executes.

    r(lam) = exp(-(lam / lambda0)^2): 1 at zero premium, strictly
    decreasing, e^-1 at lam = lambda0.
    """
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam!r}")
    x = lam / model.lambda0
    return math.exp(-x * x)


def execution_density(model: ExecutionModel, lam: float) -> float:
    """Density whose upper tail is the execution rate: 2 lam / lambda0^2 * r(lam)."""
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam!r}")
    return 2.0 * lam / model.lambda0 ** 2 * execution_rate(model, lam)


class LinearSpreadLaw:
    """One-control spread family: delta(lam; v) = (lam / lambda_ref) * delta_ref(v).

    ``delta_ref`` is the market spread curve (calibrated or analytic), which
    must accept arrays, and ``lambda_ref`` the control level it is anchored
    at; both risk multipliers are assumed to scale together, leaving a
    single control parameter.
    """

    def __init__(self, delta_ref: Callable[[float], float], lambda_ref: float):
        check_finite("lambda_ref", lambda_ref, above=0.0)
        self.delta_ref = delta_ref
        self.lambda_ref = lambda_ref

    def delta(self, lam, v):
        return (lam / self.lambda_ref) * self.delta_ref(v)

    def ddelta_dlam(self, lam, v):
        return self.delta_ref(v) / self.lambda_ref

    def optimal_lambda(self, v, alpha, lambda0):
        """P&L-maximizing control level at volumes ``v``, in closed form.

        lam* = (alpha + sqrt(alpha^2 + 2 c^2 lambda0^2)) / (2 c) with
        c = delta_ref(v) / lambda_ref; NaN where c <= 0 (no closed form).
        """
        c = np.broadcast_to(np.divide(self.delta_ref(v), self.lambda_ref), np.shape(v))
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = (alpha + np.hypot(alpha, math.sqrt(2.0) * c * lambda0)) / (2.0 * c)
        return np.where(c > 0.0, lam, np.nan)[()]


def dimensionless_law(a: float, lambda_ref: float) -> LinearSpreadLaw:
    """Linear family anchored on the dimensionless curve sqrt(a/v + v^2)."""
    from .spread_models import general_spread_dimensionless

    return LinearSpreadLaw(
        delta_ref=lambda v: general_spread_dimensionless(a, v),
        lambda_ref=lambda_ref,
    )


def calibrated_law(
    result: CalibrationResult,
    flow: FlowStats,
    source: CurveSource,
    lambda_ref: float,
    horizon_T: float | None = None,
) -> LinearSpreadLaw:
    """Linear family anchored on a calibrated spread curve (dimensionless)."""
    fit = (result.lambda_hat, result.rho_hat, flow.sigma, flow.n, result.tau0_hat)
    if source is not CurveSource.BAR:
        return LinearSpreadLaw(lambda V: bidask_spread_model(V, *fit), lambda_ref)
    if horizon_T is None:
        raise DomainError("horizon_T is required for a bar-based law")
    return LinearSpreadLaw(lambda V: bar_spread_model(V, *fit, horizon_T), lambda_ref)


@dataclass(frozen=True)
class PnLParams:
    """Inputs of the per-volume P&L objective.

    ``commission_alpha`` is the round-trip cost in the same dimensionless
    spread units as the law's delta; conversion from money per share is the
    caller's job via the price scale.
    """

    commission_alpha: float
    volume_v: float
    spread_law: LinearSpreadLaw

    def __post_init__(self) -> None:
        check_finite("commission_alpha", self.commission_alpha, at_least=0.0)
        check_finite("volume_v", self.volume_v, above=0.0)


@dataclass(frozen=True)
class OptimizeResult:
    lambda_opt: float
    spread_opt: float
    exec_rate: float
    pnl_opt: float
    halt: bool
    stationarity_residual: float


@dataclass
class QuotePolicy:
    """Per-volume optimal quoting policy with the naive baseline."""

    v: np.ndarray
    lambda_opt: np.ndarray
    spread_opt: np.ndarray
    exec_rate: np.ndarray
    pnl_opt: np.ndarray
    pnl_naive: np.ndarray
    halt: np.ndarray
    failures: tuple[int, ...] = ()


def spread_pnl(params: PnLParams, model: ExecutionModel, lam: float) -> float:
    """Spread revenue per period: 0.5 * r(lam) * v * (delta(lam; v) - alpha)."""
    if not (lam > 0.0):
        raise DomainError(f"lam must be > 0, got {lam!r}")
    delta = params.spread_law.delta(lam, params.volume_v)
    r = execution_rate(model, lam)
    return 0.5 * r * params.volume_v * (delta - params.commission_alpha)


def _ddelta(law: LinearSpreadLaw, lam, v):
    fn = getattr(law, "ddelta_dlam", None)
    if fn is not None:
        return fn(lam, v)
    step = 1e-6 * np.maximum(lam, 1.0)
    return (law.delta(lam + step, v) - law.delta(lam - step, v)) / (2.0 * step)


def stationarity_residual(
    params: PnLParams, model: ExecutionModel, lam: float,
) -> float:
    """First-order condition in spread form: delta - alpha + r * ddelta/dr.

    With r a monotone function of lam, ddelta/dr = delta'(lam) / r'(lam) and
    r / r'(lam) = -lambda0^2 / (2 lam), so the residual is
    delta - alpha - delta'(lam) * lambda0^2 / (2 lam).
    """
    delta = float(params.spread_law.delta(lam, params.volume_v))
    dd = float(_ddelta(params.spread_law, lam, params.volume_v))
    return delta - params.commission_alpha \
        - dd * model.lambda0 ** 2 / (2.0 * lam)


def _bisect(fn, lo, hi, v):
    """Root of fn(., v) in each [lo, hi] with fn(lo) > 0 > fn(hi), to the
    bracket's ulp (until lo and hi are adjacent floats)."""
    while True:
        mid = lo + 0.5 * (hi - lo)
        live = np.flatnonzero((lo < mid) & (mid < hi))
        if live.size == 0:
            return mid
        rising = fn(mid[live], v[live]) > 0.0
        lo[live[rising]] = mid[live[rising]]
        hi[live[~rising]] = mid[live[~rising]]


def _golden_max(fn, lo, hi, v):
    """Golden-section maximum of fn(., v) on each [lo, hi]: the best probe."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1, v), fn(x2, v)
    for _ in range(_GOLDEN_STEPS):
        left = f1 >= f2             # the maximum lies in [lo, x2]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        probe = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        f_probe = fn(probe, v)
        x1, x2 = np.where(left, probe, x2), np.where(left, x1, probe)
        f1, f2 = np.where(left, f_probe, f2), np.where(left, f1, f_probe)
    return np.where(f1 >= f2, x1, x2)


def _numeric_optimum(law, v: np.ndarray, alpha: float, lam0: float) -> np.ndarray:
    """P&L-maximizing control level at every volume in ``v``, numerically.

    A geometric lambda grid locates each maximum.  Where the P&L slope
    changes sign across the two cells around it, a bisection on the
    stationarity condition refines it; elsewhere (a maximum on a grid
    corner, or no sign change) a golden-section search over those cells
    does, and the grid point is kept if refinement lost.  The grid is
    evaluated in blocks of points so the working set stays near 1 MB.
    """
    def pnl(lam, vv):
        return 0.5 * np.exp(-((lam / lam0) ** 2)) * vv * (law.delta(lam, vv) - alpha)

    def slope(lam, vv):
        # d(P/L)/dlam up to the positive factor 0.5 * v * r(lam).
        return _ddelta(law, lam, vv) - 2.0 * lam / lam0 ** 2 * (law.delta(lam, vv) - alpha)

    lams = lam0 * np.geomspace(_GRID_SPAN[0], _GRID_SPAN[1], _GRID_POINTS)
    rates = np.exp(-((lams / lam0) ** 2))
    k = np.empty(v.size, dtype=np.intp)
    for start in range(0, v.size, _BLOCK_POINTS):
        rows = slice(start, start + _BLOCK_POINTS)
        # The P&L up to the positive factor 0.5 * v; one lambda row serves
        # the block, so a law separable in (lambda, v) works per row, not cell.
        score = law.delta(lams[None, :], v[rows, None]) - alpha
        score *= rates
        k[rows] = np.argmax(score, axis=1)

    lam = lams[k]
    lo = lams[np.maximum(k - 1, 0)]
    hi = lams[np.minimum(k + 1, lams.size - 1)]
    root = np.flatnonzero((0 < k) & (k < lams.size - 1))
    root = root[(slope(lo[root], v[root]) > 0.0) & (slope(hi[root], v[root]) < 0.0)]
    rest = np.setdiff1d(np.arange(v.size), root)
    if root.size:
        lam[root] = _bisect(slope, lo[root], hi[root], v[root])
    if rest.size:
        refined = _golden_max(pnl, lo[rest], hi[rest], v[rest])
        lost = pnl(refined, v[rest]) < pnl(lam[rest], v[rest])
        lam[rest] = np.where(lost, lam[rest], refined)
    return lam


def _optimal_lambdas(law, v: np.ndarray, alpha: float, lam0: float) -> np.ndarray:
    """Closed form where the law has ``optimal_lambda`` and it is finite,
    numeric search at every other volume."""
    optimal = getattr(law, "optimal_lambda", None)
    lam = np.full(v.size, np.nan) if optimal is None \
        else np.array(optimal(v, alpha, lam0), dtype=float)
    pending = ~np.isfinite(lam)
    if pending.any():
        lam[pending] = _numeric_optimum(law, v[pending], alpha, lam0)
    return lam


def optimize_spread(
    params: PnLParams, model: ExecutionModel,
) -> OptimizeResult:
    """P&L-maximizing control level for one volume point: closed form for a
    law with ``optimal_lambda`` (the linear family), else a numeric search."""
    law = params.spread_law
    v = params.volume_v
    lam_opt = float(_optimal_lambdas(law, np.array([v]), params.commission_alpha,
                                     model.lambda0)[0])
    pnl_opt = spread_pnl(params, model, lam_opt)
    return OptimizeResult(
        lambda_opt=lam_opt,
        spread_opt=float(law.delta(lam_opt, v)),
        exec_rate=execution_rate(model, lam_opt),
        pnl_opt=pnl_opt,
        halt=pnl_opt <= 0.0,
        stationarity_residual=stationarity_residual(params, model, lam_opt),
    )


def policy_curve(
    volume_grid: Sequence[float],
    model: ExecutionModel,
    law: LinearSpreadLaw,
    commission_alpha: float,
) -> QuotePolicy:
    """Optimal policy over a volume grid, with the quote-at-market baseline.

    The naive column quotes at the law's reference level (the market curve
    itself).  For the linear family lambda_opt is closed form and every
    column comes from one array pass; with delta_ref(v) > 0,
    c lam* - alpha = (sqrt(alpha^2 + 2 c^2 lambda0^2) - alpha) / 2 > 0, so
    those points do not halt (unless the fill rate underflows to 0).  Other
    laws, and points with delta_ref(v) <= 0, go through one numeric search
    over all of them; a point where no grid level has a finite P&L is left
    as a NaN row that halts, listed in ``failures``.
    """
    v_arr = np.asarray(list(volume_grid), dtype=float)
    if v_arr.size == 0:
        raise DomainError("volume grid must be non-empty")
    if np.any(np.diff(v_arr) <= 0.0):
        raise DomainError("volume grid must be strictly ascending")
    check_finite("volume_v", v_arr, above=0.0)
    check_finite("commission_alpha", commission_alpha, at_least=0.0)

    lam = _optimal_lambdas(law, v_arr, commission_alpha, model.lambda0)
    with np.errstate(over="ignore"):  # a fill rate of exactly 0 is right
        rate = np.exp(-(lam / model.lambda0) ** 2)
    spread = law.delta(lam, v_arr)
    pnl = 0.5 * rate * v_arr * (spread - commission_alpha)
    pnl_naive = 0.5 * execution_rate(model, law.lambda_ref) * v_arr \
        * (law.delta(law.lambda_ref, v_arr) - commission_alpha)
    failed = ~np.isfinite(lam)
    return QuotePolicy(
        v=v_arr, lambda_opt=lam, spread_opt=spread, exec_rate=rate, pnl_opt=pnl,
        pnl_naive=pnl_naive, halt=(pnl <= 0.0) | failed,
        failures=tuple(np.flatnonzero(failed).tolist()),
    )
