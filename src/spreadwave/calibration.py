"""Calibration of the spread laws to trade, quote, and bar data.

The workflow mirrors how the curves are measured in practice: pair each
spread observation with a concurrent volume, split the scatter into volume
buckets, take a high quantile of the spread per bucket, then fit the
closed-form law to the bucketed curve by weighted least squares: one closed-
form two-column non-negative least-squares solve in (lambda^2, rho^2) gives
the start and each step of the Gauss-Newton iteration that refines it, in
2x2 algebra on Python floats.  Flow statistics (average trade size, volume
rate, volatility) come straight from the trade tape.

Each rule of that workflow has one owner here.  The sample adapters only
pair volumes with spreads; ``build_spread_volume_curve`` alone decides which
pairs count and counts the rest by cause.  ``SpreadVolumeCurve.usable``
alone decides which buckets a fit uses.  ``spread_law`` alone maps a curve
kind to its law, for the fits, the fit overlay and the optimizer's
calibrated law; it looks the law kernels up in this module's namespace on
each call.

A fit leaves the package as a calibration report (``calibration.json``):
``calibration_report`` builds its entries and ``parse_calibration_report``
checks and reads them back, so the report's schema lives only here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    FitConvergenceError,
    InputFormatError,
    InsufficientDataError,
    check_count,
    check_finite,
)
# ``spread_law`` looks the law kernels up in this module's namespace.
from .spread_models import bar_spread_model, bidask_spread_model

if TYPE_CHECKING:
    from .data_io import BarColumns, QuoteColumns, TradeColumns

_DEFAULT_BUCKETS = 25
_DEFAULT_QUANTILE = 0.90
_DEFAULT_MIN_COUNT = 20
_MAX_FIT_EVALS = 500
_FIT_TOL = 1e-12               # relative tolerance on the cost and the step
_TINY = float(np.finfo(float).tiny)
# np.linalg.pinv's default cutoff, relative to the largest singular value.
_PINV_RCOND = 1e-15
FIT_STOPS = ("cost", "step", "cap", "non-finite")


# --------------------------------------------------------------------------
# containers
# --------------------------------------------------------------------------

class CurveSource(str, Enum):
    BID_ASK = "bid_ask"
    BAR = "bar"


@dataclass(frozen=True)
class FlowStats:
    """Directly measured trading-flow statistics.

    ``sigma`` is per unit of the reference time in which ``V`` is expressed;
    ``mean_price`` is the price scale used to convert money spreads to
    dimensionless form.
    """

    n: float
    V: float
    sigma: float
    mean_price: float

    def __post_init__(self) -> None:
        check_finite("n", self.n, above=0.0)
        check_finite("mean_price", self.mean_price, above=0.0)
        # A constant-price tape measures sigma = 0.
        check_finite("sigma", self.sigma, at_least=0.0)
        check_finite("V", self.V, at_least=0.0)


class Rejections(NamedTuple):
    """Rejected samples by cause, each counted under the first that applies."""

    non_finite: int = 0           # a non-finite volume or spread
    non_positive_volume: int = 0  # for a quote: no trailing flow
    negative_spread: int = 0

    @property
    def total(self) -> int:
        return sum(self)


@dataclass(frozen=True)
class SpreadSamples:
    """Paired (volume, spread) observations, usable or not, ready for
    bucketing: ``build_spread_volume_curve`` decides which count."""

    volumes: np.ndarray
    spreads: np.ndarray
    source: CurveSource


@dataclass(frozen=True)
class CurveBucket:
    v_lo: float
    v_hi: float
    v_mid: float
    spread_q: float
    count: int
    flagged: bool


@dataclass(frozen=True)
class BucketSpec:
    """Log-spaced volume buckets between two volume percentiles.

    The outermost edges are extended to the data range so every accepted
    sample lands in exactly one bucket.
    """

    n_buckets: int = _DEFAULT_BUCKETS
    lo_percentile: float = 1.0
    hi_percentile: float = 99.0

    def __post_init__(self) -> None:
        check_count("n_buckets", self.n_buckets)
        if not (0.0 <= self.lo_percentile < self.hi_percentile <= 100.0):
            raise DomainError("percentile bounds must satisfy 0 <= lo < hi <= 100")


@dataclass(frozen=True)
class SpreadVolumeCurve:
    buckets: tuple[CurveBucket, ...]
    quantile_level: float
    source: CurveSource
    n_accepted: int
    n_rejected: int
    # Unknown (all zero) for a curve read back from its CSV.
    rejected: Rejections = Rejections()

    def usable(self) -> tuple[CurveBucket, ...]:
        """The buckets a fit uses: not flagged, with a finite quantile (an
        empty bucket's is NaN)."""
        return tuple(b for b in self.buckets if not b.flagged and math.isfinite(b.spread_q))


@dataclass(frozen=True)
class CalibrationResult:
    lambda_hat: float
    rho_hat: float
    tau0_hat: float
    residual_norm: float
    covariance_diag: tuple[float, float]
    converged: bool = True
    evaluations: int | None = None   # law evaluations; None in older reports
    stop: str | None = None          # FIT_STOPS: a test, the cap or a non-finite start


# --------------------------------------------------------------------------
# flow statistics
# --------------------------------------------------------------------------

def measure_flow_stats(trades: TradeColumns, window: float) -> FlowStats:
    """Average trade size, volume rate and volatility from a trade tape.

    Volatility is the per-trade standard deviation of log-price changes,
    rescaled to the reference time unit by the mean inter-trade spacing.

    Args:
        trades: Trade tape, timestamps non-decreasing.
        window: Length of the observation window in reference time units.
    """
    check_finite("window", window, above=0.0)
    if len(trades) < 30:
        raise InsufficientDataError(
            f"need >= 30 trades in the window, got {len(trades)}"
        )
    sizes, prices, times = trades.size, trades.price, trades.timestamp
    if np.any(sizes <= 0.0) or np.any(prices <= 0.0):
        raise DomainError("trade prices and sizes must be > 0")
    if np.any(np.diff(times) < 0.0):
        raise DomainError("trade timestamps must be non-decreasing")

    n = float(np.mean(sizes))
    V = float(np.sum(sizes) / window)
    span = times[-1] - times[0]
    if span <= 0.0:
        raise InsufficientDataError("all trades share one timestamp")
    mean_spacing = span / (len(trades) - 1)
    per_trade_std = float(np.std(np.diff(np.log(prices)), ddof=1))
    sigma = per_trade_std / math.sqrt(mean_spacing)
    return FlowStats(n=n, V=V, sigma=sigma, mean_price=float(np.mean(prices)))


# --------------------------------------------------------------------------
# sample adapters
# --------------------------------------------------------------------------

def _accepted(volumes: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    """Mask of the usable samples: volume > 0 and spread >= 0, both finite."""
    return (volumes > 0.0) & np.isfinite(volumes) & (spreads >= 0.0) & np.isfinite(spreads)


def _rejections(keep: np.ndarray, volumes: np.ndarray, spreads: np.ndarray) -> Rejections:
    """The samples outside the mask ``keep``, counted by cause in the order
    of ``Rejections``; a rejected finite sample with a positive volume has a
    negative spread."""
    dropped = ~keep
    n_dropped = int(np.count_nonzero(dropped))
    if not n_dropped:
        return Rejections()
    finite = np.isfinite(volumes) & np.isfinite(spreads)
    non_finite = int(np.count_nonzero(dropped & ~finite))
    non_positive = int(np.count_nonzero(dropped & finite & ~(volumes > 0.0)))
    return Rejections(non_finite, non_positive, n_dropped - non_finite - non_positive)


def bars_to_samples(bars: BarColumns) -> SpreadSamples:
    """Each bar's high-low range paired with its volume."""
    with np.errstate(invalid="ignore"):
        ranges = bars.high - bars.low
    return SpreadSamples(volumes=bars.volume, spreads=ranges, source=CurveSource.BAR)


def bar_blocks_to_samples(blocks: Iterable[BarColumns]) -> SpreadSamples:
    """``bars_to_samples`` of consecutive bar blocks, joined.

    Only each block's (volume, range) pairs outlive it.
    """
    from .data_io import join_blocks  # blocks come from a CSV, so data_io is loaded

    volumes, spreads = join_blocks(map(bars_to_samples, blocks), ("volumes", "spreads"))
    return SpreadSamples(volumes=volumes, spreads=spreads, source=CurveSource.BAR)


def quotes_to_samples(quotes: QuoteColumns, trades: TradeColumns,
                      window: float) -> SpreadSamples:
    """Bid-ask spreads paired with the trailing traded volume rate.

    Each quote's volume is the total trade size in (t - window, t] divided
    by the window length.  A quote with no trailing flow gets volume 0,
    which no log-volume axis holds, so the curve rejects it.
    """
    check_finite("window", window, above=0.0)
    order = np.argsort(trades.timestamp, kind="stable")
    times = trades.timestamp[order]
    cumsize = np.concatenate(([0.0], np.cumsum(trades.size[order])))
    with np.errstate(invalid="ignore"):
        spreads = quotes.ask - quotes.bid
        volumes = (cumsize[np.searchsorted(times, quotes.timestamp, side="right")]
                   - cumsize[np.searchsorted(times, quotes.timestamp - window, side="right")]
                   ) / window
    return SpreadSamples(volumes=volumes, spreads=spreads, source=CurveSource.BID_ASK)


# --------------------------------------------------------------------------
# percentile curve
# --------------------------------------------------------------------------

def build_spread_volume_curve(
    samples: SpreadSamples,
    bucket_spec: BucketSpec | None = None,
    quantile_level: float = _DEFAULT_QUANTILE,
    min_count: int = _DEFAULT_MIN_COUNT,
) -> SpreadVolumeCurve:
    """Quantile of spread per log-spaced volume bucket.

    The samples with a finite volume > 0 and a finite spread >= 0 count;
    the rest are rejected and counted by cause (``Rejections``).  Buckets
    with fewer than ``min_count`` samples are flagged rather than dropped;
    the sum of bucket counts equals the number of accepted samples.  Beyond
    one copy of the accepted samples when some are rejected, the working
    memory is one bucket index per sample and one bucket's spreads.
    """
    if not (0.0 < quantile_level <= 1.0):
        raise DomainError(f"quantile_level must be in (0, 1], got {quantile_level!r}")
    check_finite("min_count", min_count, at_least=0)
    spec = bucket_spec if bucket_spec is not None else BucketSpec()

    volumes, spreads = samples.volumes, samples.spreads
    keep = _accepted(volumes, spreads)
    rejected = _rejections(keep, volumes, spreads)
    if rejected.total:
        volumes, spreads = volumes[keep], spreads[keep]
    del keep
    if volumes.size == 0:
        raise InsufficientDataError("no usable (volume, spread) samples")

    lo, hi = np.percentile(volumes, [spec.lo_percentile, spec.hi_percentile]).tolist()
    if hi <= lo:
        edges = np.array([float(volumes.min()), float(volumes.max())])
        if edges[1] <= edges[0]:
            top = float(edges[0]) * (1.0 + 1e-12) + 1e-300
            if top < math.inf:
                edges[1] = top
            else:  # the float maximum: widen down instead
                edges[0] = math.nextafter(edges[0], 0.0)
    else:
        # Edges that round together would make an empty bucket, or a last one
        # of no width: each edge is kept once.  geomspace can overflow on its
        # way to an endpoint near the float maximum, which it then sets
        # exactly; an inner edge that overflowed is cut back to that endpoint.
        with np.errstate(over="ignore"):
            edges = np.unique(np.minimum(np.geomspace(lo, hi, spec.n_buckets + 1), hi))
        edges[0] = min(edges[0], float(volumes.min()))
        edges[-1] = max(edges[-1], float(volumes.max()))

    idx = np.searchsorted(edges, volumes, side="right")
    idx -= 1
    np.clip(idx, 0, len(edges) - 2, out=idx)
    buckets = []
    for b in range(len(edges) - 1):
        values = spreads[idx == b]
        count = values.size
        if count > 0:
            q = float(np.quantile(values, quantile_level, method="linear",
                                  overwrite_input=True))
        else:
            q = math.nan
        lo, hi = float(edges[b]), float(edges[b + 1])
        mid = lo * hi  # the geometric mid; from the roots if lo * hi is not normal
        mid = math.sqrt(mid) if _TINY <= mid < math.inf else math.sqrt(lo) * math.sqrt(hi)
        buckets.append(CurveBucket(v_lo=lo, v_hi=hi, v_mid=mid, spread_q=q, count=count,
                                   flagged=count < min_count))
    return SpreadVolumeCurve(
        buckets=tuple(buckets), quantile_level=quantile_level,
        source=samples.source, n_accepted=int(volumes.size), n_rejected=rejected.total,
        rejected=rejected,
    )


# --------------------------------------------------------------------------
# model fits
# --------------------------------------------------------------------------

def _nnls2(m0: np.ndarray, m1: np.ndarray, r: np.ndarray,
           x: tuple[float, float] = (0.0, 0.0)) -> tuple[float, float]:
    """The step d = x' - x from x >= 0 to x' = argmin ||m0 x0' + m1 x1' - b||
    over x' >= 0, in closed form, given the residual r = b - m x at x.

    x' is the unconstrained least-squares solution on one of the four supports
    {}, {0}, {1}, {0, 1}: the feasible one with the least
    ||m d - r||^2 - ||r||^2 = d.(G d - 2 c), for G = m^T m and c = m^T r.
    From x = 0, where r = b, the step is x' itself.
    """
    g00, g01, g11 = float(m0 @ m0), float(m0 @ m1), float(m1 @ m1)
    c0, c1 = float(m0 @ r), float(m1 @ r)
    p, q = x
    candidates = [(0.0 - p, 0.0 - q)]  # not -p: x' = -0.0 would give lambda_hat -0.0
    if g00 > 0.0:
        candidates.append((max(p + (c0 + g01 * q) / g00, 0.0) - p, 0.0 - q))
    if g11 > 0.0:
        candidates.append((0.0 - p, max(q + (c1 + g01 * p) / g11, 0.0) - q))
    det = g00 * g11 - g01 * g01
    if det > 0.0:
        d = ((g11 * c0 - g01 * c1) / det, (g00 * c1 - g01 * c0) / det)
        if min(p + d[0], q + d[1]) >= 0.0:
            candidates.append(d)
    return min(candidates, key=lambda d: d[0] * (g00 * d[0] + g01 * d[1] - 2.0 * c0)
               + d[1] * (g01 * d[0] + g11 * d[1] - 2.0 * c1))


def _pinv2(g: np.ndarray) -> np.ndarray:
    """``np.linalg.pinv`` of a symmetric positive semi-definite 2x2 matrix,
    in closed form.

    The eigenvalues are the singular values, and the smaller one, det / big,
    is kept when it exceeds ``_PINV_RCOND`` times the larger one, big.  Full
    rank gives adj(g) / det, rank 1 gives g / tr(g)^2 (the inverse on g's
    range) and zero gives zero.
    """
    a, b, d = float(g[0, 0]), float(g[0, 1]), float(g[1, 1])
    det, tr = a * d - b * b, a + d
    big = 0.5 * tr + math.hypot(0.5 * (a - d), b)
    if det > _PINV_RCOND * big * big:
        return np.array([[d, -b], [-b, a]]) / det
    if tr > 0.0:
        return np.array([[a, b], [b, d]]) / (tr * tr)
    return np.zeros((2, 2))


def _run_spread_fit(
    curve: SpreadVolumeCurve,
    law,                        # law(V, lam, rho) -> spread (same units as the curve)
    flow: FlowStats,
    tau0: float,
) -> CalibrationResult:
    """Weighted least squares of ``law`` on (lam, rho) >= 0 over the curve's
    usable buckets, at the fixed ``tau0`` the caller bound into ``law``.

    Both laws have the form f = sqrt(p A(V) + q B(V)), with p = lam^2,
    q = rho^2, A = law(V, 1, 0)^2 and B = law(V, 0, 1)^2.  The start is the
    non-negative least squares (NNLS, ``_nnls2``) of (p, q) against y^2.  A
    projected Gauss-Newton iteration in (p, q) refines it: linearised at f,
    w (f - y) is (w / 2f) (A p' + B q') - w (y - f / 2), so each step is the
    NNLS of the rows (A, B) w / f against 2 w (y - f).  A step that does not
    lower the cost is halved; the fit ends when a step moves the cost by at
    most ``_FIT_TOL`` of it, or a halved step is below ``_FIT_TOL`` of (p, q).
    A bucket where f is 0 or not finite adds no slope, there or to the
    covariance's Jacobian (w / f) (lam A, rho B).  A parameter whose column
    of (A, B) is zero on every bucket (lambda when sigma = 0) is not
    identified and raises DomainError, and a curve with no spread > 0 raises
    InsufficientDataError.  f is the law's own, one call per evaluation:
    rebuilt from A and B it more than doubled a noiseless SSE.
    """
    check_finite("tau0", tau0, above=0.0)
    usable = [(b.v_mid, b.spread_q, b.count) for b in curve.usable()]
    if len(usable) < 3:
        raise InsufficientDataError(f"need >= 3 usable buckets to fit, got {len(usable)}")
    v, y, counts = np.array(usable, dtype=float).T
    if not (y > 0.0).any():
        raise InsufficientDataError("no usable bucket has a spread > 0")
    w = np.sqrt(counts)

    basis = np.array([law(v, *p) ** 2 for p in ((1.0, 0.0), (0.0, 1.0))])  # rows A, B
    for name, column in zip(("lambda", "rho"), basis):
        if not column.any():
            raise DomainError(f"{name} is not identified: its term of the spread law is "
                              f"zero on every bucket (sigma={flow.sigma!r}, tau0={tau0!r})")

    def evaluate(x):
        f = law(v, math.sqrt(x[0]), math.sqrt(x[1]))
        res = w * (f - y)
        return f, res, float(res @ res)

    def slopes(f):  # the rows (A, B) w / f, zero where f is 0 or not finite
        return basis * np.divide(w, f, out=np.zeros_like(f), where=(f > 0.0) & (f < math.inf))

    x = _nnls2(*(basis * w), (y * y) * w)
    f, res, cost = evaluate(x)
    nfev, step = 1, None
    stop = "cost" if cost == 0.0 else None
    while stop is None and nfev < _MAX_FIT_EVALS and math.isfinite(cost):
        if step is None:
            step = _nnls2(*slopes(f), -2.0 * res, x)
        trial = (x[0] + step[0], x[1] + step[1])
        f_new, res_new, cost_new = evaluate(trial)
        nfev += 1
        if abs(cost - cost_new) <= _FIT_TOL * cost:
            stop = "cost"
        if cost_new < cost:
            x, f, res, cost, step = trial, f_new, res_new, cost_new, None
        elif stop is None:
            step = (0.5 * step[0], 0.5 * step[1])
            if math.hypot(*step) <= _FIT_TOL * (_FIT_TOL + math.hypot(*x)):
                stop = "step"
    lam, rho = math.sqrt(x[0]), math.sqrt(x[1])
    jac = slopes(f) * [[lam], [rho]]

    converged, stop = stop is not None, stop or ("cap" if math.isfinite(cost) else "non-finite")
    cov = cost / max(len(v) - 2, 1) * _pinv2(jac @ jac.T)
    result = CalibrationResult(
        lambda_hat=lam, rho_hat=rho, tau0_hat=tau0, residual_norm=math.sqrt(cost),
        covariance_diag=tuple(cov.diagonal().tolist()), converged=converged,
        evaluations=nfev, stop=stop)
    if not converged:
        why = " (non-finite residuals)" if stop == "non-finite" else ""
        raise FitConvergenceError(
            f"spread fit did not converge in {nfev} evaluations{why}", best_so_far=result)
    return result


def spread_law(source: CurveSource, flow: FlowStats, tau0: float,
               horizon: float | None):
    """The spread law of a curve kind in the curve's money units, as
    ``law(V, lam, rho)``: ``flow.mean_price`` times the dimensionless law at
    ``flow``'s sigma and n and the fixed ``tau0``.  That law is the bid-ask
    law, or the bar law at ``horizon``, which a bar curve requires (finite
    and > 0).
    """
    price, sigma, n = flow.mean_price, flow.sigma, flow.n
    if source is not CurveSource.BAR:
        return lambda V, lam, rho: price * bidask_spread_model(V, lam, rho, sigma, n, tau0)
    check_finite("horizon", horizon, above=0.0)
    return lambda V, lam, rho: price * bar_spread_model(V, lam, rho, sigma, n, tau0, horizon)


def fit_bid_ask_curve(
    curve: SpreadVolumeCurve,
    flow: FlowStats,
    tau0: float = 1.0,
) -> CalibrationResult:
    """Weighted least-squares fit of the bid-ask law to a percentile curve.

    rho and tau0 enter only through their product, so tau0 is fixed and
    (lambda, rho) are fitted: rho_hat * tau0 is the identified quantity.
    Bucket weights are the trade counts.
    """
    law = spread_law(CurveSource.BID_ASK, flow, tau0, None)
    return _run_spread_fit(curve, law, flow, tau0)


def fit_bar_curve(
    curve: SpreadVolumeCurve,
    horizon_T: float,
    flow: FlowStats,
    tau0: float = 1.0,
) -> CalibrationResult:
    """Weighted least-squares fit of the bar law at a fixed horizon.

    ``flow.sigma`` is interpreted at the horizon (sigma_T); the V -> 0
    intercept identifies lambda * sigma_T directly.  As in the bid-ask fit,
    tau0 is fixed and rho_hat * tau0 is the identified quantity.
    """
    law = spread_law(CurveSource.BAR, flow, tau0, horizon_T)
    return _run_spread_fit(curve, law, flow, tau0)


# --------------------------------------------------------------------------
# calibration report
# --------------------------------------------------------------------------

# Each curve kind a report names, and the curve source it stands for.
REPORT_KINDS = {"bidask": CurveSource.BID_ASK, "bar": CurveSource.BAR}


def calibration_report(result: CalibrationResult, flow: FlowStats | None = None,
                       source: CurveSource | None = None, horizon: float | None = None,
                       v_range: tuple[float, float] | None = None) -> dict:
    """The calibration report's entries for a fit: ``result`` and its units.

    With ``flow``, also the ``flow``, ``kind``, ``horizon`` and ``v_range``
    entries that ``parse_calibration_report`` reads back; without it, the
    entries of a failed fit.  The horizon is recorded for bar curves only.
    """
    lam_var, rho_var = result.covariance_diag
    entries = {
        "units": {"lambda_hat": "dimensionless", "rho_hat": "dimensionless",
                  "spread_model": "input money units"},
        "result": {**asdict(result), "uncertainties": {
            "lambda": math.sqrt(max(lam_var, 0.0)), "rho": math.sqrt(max(rho_var, 0.0))}},
    }
    if flow is not None:
        entries["flow"] = {"n": flow.n, "sigma": flow.sigma,
                           "price": flow.mean_price, "volume": flow.V}
        entries["kind"] = next(k for k, s in REPORT_KINDS.items() if s is source)
        entries["horizon"] = horizon if source is CurveSource.BAR else None
        entries["v_range"] = {"lo": v_range[0], "hi": v_range[1]}
    return entries


def parse_calibration_report(report: dict, path: str, horizon: float) -> tuple[
        CalibrationResult, FlowStats, CurveSource, float | None, tuple[float, float]]:
    """``(result, flow, source, horizon, (v_lo, v_hi))`` from a parsed report.

    ``path`` names the report in the error lines.  A bar report whose
    horizon is null takes ``horizon``, and one without ``evaluations`` or
    ``stop`` reads None.  Raises InputFormatError for a missing key, a bad
    field or an unknown kind, and DomainError for a value out of its range
    or for lambda_hat = rho_hat = 0, whose law is 0 at every volume.
    """
    try:
        res = report["result"]
        fit = [float(res[key]) for key in
               ("lambda_hat", "rho_hat", "tau0_hat", "residual_norm")]
        lam_var, rho_var = map(float, res["covariance_diag"])
        evaluations, stop = res.get("evaluations"), res.get("stop")
        result = CalibrationResult(*fit, (lam_var, rho_var), res["converged"] is True,
                                   evaluations, stop)
        n, volume, sigma, price = [float(report["flow"][key])
                                   for key in ("n", "volume", "sigma", "price")]
        kind = report["kind"]
        v_range = (float(report["v_range"]["lo"]), float(report["v_range"]["hi"]))
        stored = report.get("horizon")
        stored = None if stored is None else float(stored)
    except KeyError as exc:
        raise InputFormatError(
            f"{path}: missing key {exc} (not a calibration report?)") from exc
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: a field is not a number: {exc}") from exc
    source = REPORT_KINDS.get(kind) if isinstance(kind, str) else None
    if source is None:
        raise InputFormatError(f"{path}: kind must be one of "
                               f"{', '.join(REPORT_KINDS)}, got {kind!r}")
    if not (evaluations is None or type(evaluations) is int and evaluations > 0) \
            or stop not in (None, *FIT_STOPS):
        raise InputFormatError(f"{path}: evaluations must be a positive integer and stop "
                               f"one of {FIT_STOPS}, or null; got {evaluations!r}, {stop!r}")
    flow = FlowStats(n=n, V=volume, sigma=sigma, mean_price=price)
    check_finite("lambda_hat", result.lambda_hat, at_least=0.0)
    check_finite("rho_hat", result.rho_hat, at_least=0.0)
    if result.lambda_hat == result.rho_hat == 0.0:
        raise DomainError(f"{path}: lambda_hat and rho_hat are both 0, so the spread law "
                          f"is 0 at every volume")
    check_finite("tau0_hat", result.tau0_hat, above=0.0)
    if source is CurveSource.BAR:
        stored = horizon if stored is None else stored
        check_finite("horizon", stored, above=0.0)
    return result, flow, source, stored, v_range

