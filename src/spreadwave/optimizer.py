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

The fill rate, the P&L and its slope in lambda are each written once, as
array kernels (``_rate``, ``_pnl``, ``_slope``).  The search, the policy
columns and the scalar functions (``execution_rate``, ``spread_pnl``,
``stationarity_residual``) all evaluate them; ``optimize_spread`` is
``policy_curve`` at one volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .calibration import CalibrationResult, CurveSource, FlowStats, spread_law
from .errors import DomainError, check_finite

# Reference quoting level as a fraction of the execution scale.  The market
# curve is a high-percentile envelope of observed spreads, so the matching
# control level sits well below the execution scale: at 0.4 the fill
# probability of quoting right at the curve is exp(-0.16) ~ 0.85.
DEFAULT_LAMBDA_REF_FRACTION = 0.4

_GRID_POINTS = 4001
_GRID_SPAN = (1e-6, 50.0)       # in units of lambda0
# Volume points per grid block.  A block's float arrays take 128 kB each, and
# a 1000-volume search peaks at about 0.47 MB under tracemalloc (2.1 MB with
# 32 points); fewer points add per-block work, such as the law's own lambda row.
_BLOCK_POINTS = 4
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


def _rate(lam, lambda0):
    """Fill rate r(lam) = exp(-(lam / lambda0)^2), element-wise."""
    x = lam / lambda0
    # A single level takes libm's exp, as it always has: numpy's exp differs
    # from it in the last bit for some levels, which would move the bytes
    # of pnl_naive and of execution_rate.
    exp = math.exp if np.ndim(x) == 0 else np.exp
    with np.errstate(over="ignore"):  # a fill rate of exactly 0 is right
        return exp(-(x * x))


def _pnl(law, lam, v, alpha, lambda0, out=None):
    """Spread P&L 0.5 * r(lam) * v * (delta(lam; v) - alpha), element-wise.

    ``out`` receives the result, so the grid search reuses one block buffer.
    """
    pnl = np.multiply(0.5 * _rate(lam, lambda0), v, out=out)
    pnl *= law.delta(lam, v) - alpha
    return pnl


def _ddelta(law, lam, v):
    fn = getattr(law, "ddelta_dlam", None)
    if fn is not None:
        return fn(lam, v)
    step = 1e-6 * np.maximum(lam, 1.0)
    return (law.delta(lam + step, v) - law.delta(lam - step, v)) / (2.0 * step)


def _slope(law, lam, v, alpha, lambda0):
    """d(P&L)/dlam up to the positive factor 0.5 * v * r(lam), element-wise:
    delta'(lam) - 2 lam / lambda0^2 * (delta - alpha)."""
    return _ddelta(law, lam, v) - 2.0 * lam / lambda0 ** 2 * (law.delta(lam, v) - alpha)


def execution_rate(model: ExecutionModel, lam: float) -> float:
    """Probability that a quote at control level lam executes.

    r(lam) = exp(-(lam / lambda0)^2): 1 at zero premium, strictly
    decreasing, e^-1 at lam = lambda0.
    """
    check_finite("lam", lam, at_least=0.0)
    return float(_rate(lam, model.lambda0))


def execution_density(model: ExecutionModel, lam: float) -> float:
    """Density whose upper tail is the execution rate: 2 lam / lambda0^2 * r(lam)."""
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
    """Linear family anchored on a calibrated spread curve (dimensionless):
    ``calibration.spread_law`` at the fitted values and a unit price, by
    which it multiplies exactly."""
    law = spread_law(source, replace(flow, mean_price=1.0), result.tau0_hat, horizon_T)
    lam, rho = result.lambda_hat, result.rho_hat
    return LinearSpreadLaw(lambda V: law(V, lam, rho), lambda_ref)


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
    check_finite("lam", lam, above=0.0)
    return float(_pnl(params.spread_law, lam, params.volume_v,
                      params.commission_alpha, model.lambda0))


def stationarity_residual(
    params: PnLParams, model: ExecutionModel, lam: float,
) -> float:
    """First-order condition in spread form: delta - alpha + r * ddelta/dr.

    With r a monotone function of lam, ddelta/dr = delta'(lam) / r'(lam) and
    r / r'(lam) = -lambda0^2 / (2 lam), so the residual is
    delta - alpha - delta'(lam) * lambda0^2 / (2 lam): the P&L slope times
    -lambda0^2 / (2 lam).  A NaN ``lam`` (``optimize_spread``'s failure row)
    gives NaN; any other ``lam`` must be finite and > 0.
    """
    if not (math.isnan(lam) or 0.0 < lam < math.inf):
        raise DomainError(f"lam must be finite and > 0, got {lam!r}")
    slope = _slope(params.spread_law, lam, params.volume_v, params.commission_alpha,
                   model.lambda0)
    return float(-model.lambda0 ** 2 / (2.0 * lam) * slope)


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

    A geometric lambda grid locates each maximum; a non-finite P&L counts
    as -inf there, and a volume with no finite P&L on the grid gets NaN.
    Where the P&L slope changes sign across the two cells around the
    maximum, a bisection on the stationarity condition refines it;
    elsewhere (a maximum on a grid corner, or no sign change) a
    golden-section search over those cells does, and the grid point is kept
    unless refinement reached at least its P&L.  The grid is evaluated in
    blocks of ``_BLOCK_POINTS`` volumes, so its temporaries are a few block
    arrays (about 0.5 MB) whatever the number of volumes.
    """
    def pnl(lam, vv):
        return _pnl(law, lam, vv, alpha, lam0)

    def slope(lam, vv):
        return _slope(law, lam, vv, alpha, lam0)

    lams = lam0 * np.geomspace(_GRID_SPAN[0], _GRID_SPAN[1], _GRID_POINTS)
    block = np.empty((min(v.size, _BLOCK_POINTS), lams.size))
    # _pnl's arithmetic, with the lambda row's rate computed once for all blocks.
    half_rate = 0.5 * _rate(lams[None, :], lam0)

    def best_levels(vv):
        # One lambda row serves the block, so a law separable in (lambda, v)
        # works per row, not cell.
        score = np.multiply(half_rate, vv[:, None], out=block[:vv.size])
        score *= law.delta(lams[None, :], vv[:, None]) - alpha
        best = np.argmax(score, axis=1)
        # argmax stops at a NaN or +inf: only such rows are searched again,
        # over their finite P&L; -1 marks a row with none.
        for row in np.flatnonzero(~np.isfinite(score[np.arange(best.size), best])):
            finite = np.isfinite(score[row])
            best[row] = np.argmax(np.where(finite, score[row], -np.inf)) \
                if finite.any() else -1
        return best

    k = np.concatenate([best_levels(v[lo:lo + _BLOCK_POINTS])
                        for lo in range(0, v.size, _BLOCK_POINTS)])
    found = k >= 0
    lam = np.where(found, lams[k], np.nan)
    lo = lams[np.maximum(k - 1, 0)]
    hi = lams[np.minimum(k + 1, lams.size - 1)]
    root = np.flatnonzero(found & (0 < k) & (k < lams.size - 1))
    root = root[(slope(lo[root], v[root]) > 0.0) & (slope(hi[root], v[root]) < 0.0)]
    # A boolean mask, not np.setdiff1d, which imports numpy.ma.
    searched = found.copy()
    searched[root] = False
    rest = np.flatnonzero(searched)
    if root.size:
        lam[root] = _bisect(slope, lo[root], hi[root], v[root])
    if rest.size:
        refined = _golden_max(pnl, lo[rest], hi[rest], v[rest])
        better = pnl(refined, v[rest]) >= pnl(lam[rest], v[rest])
        lam[rest] = np.where(better, refined, lam[rest])
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
    """P&L-maximizing control level for one volume point: ``policy_curve`` at
    that volume, plus the stationarity residual there.

    A volume with no finite P&L on the search grid gives the failure row:
    every number NaN and ``halt`` set.
    """
    policy = policy_curve([params.volume_v], model, params.spread_law,
                          params.commission_alpha)
    lam_opt = float(policy.lambda_opt[0])
    return OptimizeResult(
        lambda_opt=lam_opt,
        spread_opt=float(policy.spread_opt[0]),
        exec_rate=float(policy.exec_rate[0]),
        pnl_opt=float(policy.pnl_opt[0]),
        halt=bool(policy.halt[0]),
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

    lam0 = model.lambda0
    lam = _optimal_lambdas(law, v_arr, commission_alpha, lam0)
    pnl = _pnl(law, lam, v_arr, commission_alpha, lam0)
    failed = ~np.isfinite(lam)
    return QuotePolicy(
        v=v_arr, lambda_opt=lam, spread_opt=law.delta(lam, v_arr),
        exec_rate=_rate(lam, lam0), pnl_opt=pnl,
        pnl_naive=_pnl(law, law.lambda_ref, v_arr, commission_alpha, lam0),
        halt=(pnl <= 0.0) | failed, failures=tuple(np.flatnonzero(failed).tolist()),
    )
