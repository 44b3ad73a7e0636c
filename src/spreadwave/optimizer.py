"""Market maker operating-spread optimization.

The market maker controls one risk-aversion knob: scaling it widens the
quoted spread linearly but lowers the probability of execution, which decays
as a Gaussian in the control level.  Spread P&L per period is
0.5 * r * v * (delta - alpha) (bought and sold once per round trip, alpha
is the round-trip commission in spread units).  The optimum balances wider
margins against lost turnover; when no spread level earns more than the
commission, quoting should halt.  For the linear family the optimum has a
closed form (as under the exponential fill law of Avellaneda & Stoikov,
2008); other laws are optimized numerically.
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


def _ddelta(law: LinearSpreadLaw, lam: float, v: float) -> float:
    fn = getattr(law, "ddelta_dlam", None)
    if fn is not None:
        return float(fn(lam, v))
    step = 1e-6 * max(lam, 1.0)
    return float((law.delta(lam + step, v) - law.delta(lam - step, v)) / (2.0 * step))


def stationarity_residual(
    params: PnLParams, model: ExecutionModel, lam: float,
) -> float:
    """First-order condition in spread form: delta - alpha + r * ddelta/dr.

    With r a monotone function of lam, ddelta/dr = delta'(lam) / r'(lam) and
    r / r'(lam) = -lambda0^2 / (2 lam), so the residual is
    delta - alpha - delta'(lam) * lambda0^2 / (2 lam).
    """
    delta = float(params.spread_law.delta(lam, params.volume_v))
    dd = _ddelta(params.spread_law, lam, params.volume_v)
    return delta - params.commission_alpha \
        - dd * model.lambda0 ** 2 / (2.0 * lam)


def _numeric_optimum(params: PnLParams, model: ExecutionModel) -> float:
    """Grid maximum refined by a root-finder on the stationarity condition,
    or by a bounded minimization when the maximum sits on a grid corner."""
    # Imported on use: scipy.optimize is most of the package's import time.
    from scipy.optimize import brentq, minimize_scalar

    v = params.volume_v
    alpha = params.commission_alpha
    law = params.spread_law
    lam0 = model.lambda0

    lams = lam0 * np.geomspace(_GRID_SPAN[0], _GRID_SPAN[1], _GRID_POINTS)
    deltas = np.asarray(law.delta(lams, v), dtype=float)
    rates = np.exp(-((lams / lam0) ** 2))
    pnls = 0.5 * rates * v * (deltas - alpha)
    k = int(np.argmax(pnls))

    def neg_pnl(lam: float) -> float:
        return -spread_pnl(params, model, lam)

    def dpnl(lam: float) -> float:
        # d(P/L)/dlam up to the positive factor 0.5 * v * r(lam).
        delta = float(law.delta(lam, v))
        dd = _ddelta(law, lam, v)
        return dd - 2.0 * lam / lam0 ** 2 * (delta - alpha)

    if 0 < k < len(lams) - 1:
        g_lo, g_hi = dpnl(lams[k - 1]), dpnl(lams[k + 1])
        if g_lo > 0.0 > g_hi:
            return float(brentq(dpnl, lams[k - 1], lams[k + 1],
                                xtol=1e-15, rtol=8.9e-16))
    lo = lams[max(k - 1, 0)]
    hi = lams[min(k + 1, len(lams) - 1)]
    res = minimize_scalar(neg_pnl, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    if -res.fun < pnls[k]:  # keep the grid point if refinement lost
        return float(lams[k])
    return float(res.x)


def optimize_spread(
    params: PnLParams, model: ExecutionModel,
) -> OptimizeResult:
    """P&L-maximizing control level for one volume point: closed form for a
    law with ``optimal_lambda`` (the linear family), else a numeric search."""
    law = params.spread_law
    v = params.volume_v
    optimal = getattr(law, "optimal_lambda", None)
    lam_opt = math.nan if optimal is None \
        else float(optimal(v, params.commission_alpha, model.lambda0))
    if not math.isfinite(lam_opt):
        lam_opt = _numeric_optimum(params, model)

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
    laws, and points with delta_ref(v) <= 0, go through ``optimize_spread``;
    its failures leave NaN rows, listed in ``failures``.
    """
    v_arr = np.asarray(list(volume_grid), dtype=float)
    if v_arr.size == 0:
        raise DomainError("volume grid must be non-empty")
    if np.any(np.diff(v_arr) <= 0.0):
        raise DomainError("volume grid must be strictly ascending")

    n = v_arr.size
    out = QuotePolicy(
        v=v_arr,
        lambda_opt=np.full(n, np.nan),
        spread_opt=np.full(n, np.nan),
        exec_rate=np.full(n, np.nan),
        pnl_opt=np.full(n, np.nan),
        pnl_naive=np.full(n, np.nan),
        halt=np.zeros(n, dtype=bool),
    )
    lam_ref = law.lambda_ref
    pending = np.arange(n)
    optimal = getattr(law, "optimal_lambda", None)
    if optimal is not None:
        lam = optimal(v_arr, commission_alpha, model.lambda0)
        closed = np.isfinite(lam)
        v, lam = v_arr[closed], lam[closed]
        with np.errstate(over="ignore"):  # a fill rate of exactly 0 is right
            rate = np.exp(-(lam / model.lambda0) ** 2)
        spread = law.delta(lam, v)
        pnl = 0.5 * rate * v * (spread - commission_alpha)
        out.lambda_opt[closed] = lam
        out.spread_opt[closed] = spread
        out.exec_rate[closed] = rate
        out.pnl_opt[closed] = pnl
        out.pnl_naive[closed] = 0.5 * execution_rate(model, lam_ref) * v \
            * (law.delta(lam_ref, v) - commission_alpha)
        out.halt[closed] = pnl <= 0.0
        pending = np.flatnonzero(~closed)

    failures: list[int] = []
    for i in pending:
        params = PnLParams(commission_alpha=commission_alpha,
                           volume_v=float(v_arr[i]), spread_law=law)
        out.pnl_naive[i] = spread_pnl(params, model, lam_ref)
        try:
            res = optimize_spread(params, model)
        except (DomainError, ValueError):  # pragma: no cover - defensive
            failures.append(int(i))
            out.halt[i] = True
            continue
        out.lambda_opt[i] = res.lambda_opt
        out.spread_opt[i] = res.spread_opt
        out.exec_rate[i] = res.exec_rate
        out.pnl_opt[i] = res.pnl_opt
        out.halt[i] = res.halt
    out.failures = tuple(failures)
    return out
