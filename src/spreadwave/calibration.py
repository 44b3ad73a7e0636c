"""Calibration of the spread laws to trade, quote, and bar data.

The workflow mirrors how the curves are measured in practice: pair each
spread observation with a concurrent volume, split the scatter into volume
buckets, take a high quantile of the spread per bucket, then fit the
closed-form law to the bucketed curve by weighted least squares: a closed-
form two-column non-negative least-squares start on the squared spreads,
refined by a Levenberg-Marquardt iteration in numpy.  Flow statistics
(average trade size, volume rate, volatility) come straight from the trade
tape.

A fit leaves the package as a calibration report (``calibration.json``):
``calibration_report`` builds its entries and ``parse_calibration_report``
checks and reads them back, so the report's schema lives only here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    FitConvergenceError,
    InputFormatError,
    InsufficientDataError,
    check_finite,
)
# The fits look the law kernels up in this module's namespace.
from .spread_models import bar_spread_model, bidask_spread_model

_DEFAULT_BUCKETS = 25
_DEFAULT_QUANTILE = 0.90
_DEFAULT_MIN_COUNT = 20
_MAX_FIT_EVALS = 500
_FIT_TOL = 1e-12               # relative tolerance on the cost and the step
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# np.linalg.pinv's default cutoff, relative to the largest singular value.
_PINV_RCOND = 1e-15


# --------------------------------------------------------------------------
# columns and containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Columns:
    """A table as one float array per field, in row order, led by its
    timestamps.  The field names are the CSV header names."""

    timestamp: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class TradeColumns(_Columns):
    """Columnar trade tape; timestamps are seconds since epoch."""

    price: np.ndarray
    size: np.ndarray


@dataclass(frozen=True)
class QuoteColumns(_Columns):
    """Columnar quote tape; timestamps are seconds since epoch."""

    bid: np.ndarray
    ask: np.ndarray


@dataclass(frozen=True)
class BarColumns(_Columns):
    """Columnar OHLC bars."""

    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray


def join_blocks(blocks: Iterable, names: Sequence[str]) -> list[np.ndarray]:
    """The named 1-D columns of consecutive blocks, each joined into one array.

    No blocks give empty columns.  Each column's parts are released as soon
    as that column is joined, so at most one column is held twice.
    """
    parts: dict[str, list[np.ndarray]] = {name: [] for name in names}
    for block in blocks:
        for name, column in parts.items():
            column.append(getattr(block, name))
    return [np.concatenate([np.empty(0), *parts.pop(name)]) for name in names]


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


@dataclass(frozen=True)
class SpreadSamples:
    """Paired (volume, spread) observations ready for bucketing."""

    volumes: np.ndarray
    spreads: np.ndarray
    source: CurveSource
    n_rejected: int = 0


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
        if self.n_buckets < 1:
            raise DomainError(f"n_buckets must be >= 1, got {self.n_buckets!r}")
        if not (0.0 <= self.lo_percentile < self.hi_percentile <= 100.0):
            raise DomainError("percentile bounds must satisfy 0 <= lo < hi <= 100")


@dataclass(frozen=True)
class SpreadVolumeCurve:
    buckets: tuple[CurveBucket, ...]
    quantile_level: float
    source: CurveSource
    n_accepted: int
    n_rejected: int

    def usable(self) -> tuple[CurveBucket, ...]:
        return tuple(b for b in self.buckets if not b.flagged)


@dataclass(frozen=True)
class CalibrationResult:
    lambda_hat: float
    rho_hat: float
    tau0_hat: float
    residual_norm: float
    covariance_diag: tuple[float, float]
    converged: bool = True
    rho_tau0_product: float | None = None


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
    if not (window > 0.0):
        raise DomainError(f"window must be > 0, got {window!r}")
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


def bars_to_samples(bars: BarColumns) -> SpreadSamples:
    """High-low ranges paired with per-bar volume.

    Bars with a non-positive or non-finite volume, or a negative or
    non-finite range, are rejected.
    """
    with np.errstate(invalid="ignore"):
        ranges = bars.high - bars.low
    keep = _accepted(bars.volume, ranges)
    return SpreadSamples(
        volumes=bars.volume[keep], spreads=ranges[keep],
        source=CurveSource.BAR, n_rejected=len(bars) - int(np.count_nonzero(keep)),
    )


def bar_blocks_to_samples(blocks: Iterable[BarColumns]) -> SpreadSamples:
    """``bars_to_samples`` of consecutive bar blocks, joined.

    Only each block's accepted (volume, range) pairs outlive it.
    """
    rejected = 0

    def accepted():
        nonlocal rejected
        for samples in map(bars_to_samples, blocks):
            rejected += samples.n_rejected
            yield samples

    volumes, spreads = join_blocks(accepted(), ("volumes", "spreads"))
    return SpreadSamples(volumes=volumes, spreads=spreads, source=CurveSource.BAR,
                         n_rejected=rejected)


def quotes_to_samples(quotes: QuoteColumns, trades: TradeColumns,
                      window: float) -> SpreadSamples:
    """Bid-ask spreads paired with the trailing traded volume rate.

    Each quote's volume is the total trade size in (t - window, t] divided
    by the window length.  Quotes with a negative or non-finite spread are
    rejected, and so are quotes with no trailing flow (they cannot be placed
    on a log-volume axis).
    """
    if not (window > 0.0):
        raise DomainError(f"window must be > 0, got {window!r}")
    order = np.argsort(trades.timestamp, kind="stable")
    times = trades.timestamp[order]
    cumsize = np.concatenate(([0.0], np.cumsum(trades.size[order])))
    with np.errstate(invalid="ignore"):
        spreads = quotes.ask - quotes.bid
        volumes = (cumsize[np.searchsorted(times, quotes.timestamp, side="right")]
                   - cumsize[np.searchsorted(times, quotes.timestamp - window, side="right")]
                   ) / window
    keep = (spreads >= 0.0) & np.isfinite(spreads) & (volumes > 0.0)
    return SpreadSamples(
        volumes=volumes[keep], spreads=spreads[keep], source=CurveSource.BID_ASK,
        n_rejected=len(quotes) - int(np.count_nonzero(keep)),
    )


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

    Buckets with fewer than ``min_count`` samples are flagged rather than
    dropped; the sum of bucket counts equals the number of accepted samples.
    Beyond one copy of the accepted samples when some are rejected, the
    working memory is one bucket index per sample and one bucket's spreads.
    """
    if not (0.0 < quantile_level <= 1.0):
        raise DomainError(f"quantile_level must be in (0, 1], got {quantile_level!r}")
    check_finite("min_count", min_count, at_least=0)
    spec = bucket_spec if bucket_spec is not None else BucketSpec()

    volumes, spreads = samples.volumes, samples.spreads
    keep = _accepted(volumes, spreads)
    n_bad = volumes.size - int(np.count_nonzero(keep))
    if n_bad:
        volumes, spreads = volumes[keep], spreads[keep]
    del keep
    rejected = samples.n_rejected + n_bad
    if volumes.size == 0:
        raise InsufficientDataError("no usable (volume, spread) samples")

    lo, hi = np.percentile(volumes, [spec.lo_percentile, spec.hi_percentile]).tolist()
    if hi <= lo:
        edges = np.array([float(volumes.min()), float(volumes.max())])
        if edges[1] <= edges[0]:
            edges[1] = edges[0] * (1.0 + 1e-12) + 1e-300
    else:
        edges = np.geomspace(lo, hi, spec.n_buckets + 1)
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
        buckets.append(CurveBucket(
            v_lo=float(edges[b]), v_hi=float(edges[b + 1]),
            v_mid=float(math.sqrt(edges[b] * edges[b + 1])),
            spread_q=q, count=count, flagged=count < min_count,
        ))
    if all(b.count == 0 for b in buckets):  # pragma: no cover - guarded above
        raise InsufficientDataError("all buckets are empty")
    return SpreadVolumeCurve(
        buckets=tuple(buckets), quantile_level=quantile_level,
        source=samples.source, n_accepted=int(volumes.size), n_rejected=rejected,
    )


# --------------------------------------------------------------------------
# model fits
# --------------------------------------------------------------------------

def _usable_curve_arrays(curve: SpreadVolumeCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    usable = [b for b in curve.usable() if math.isfinite(b.spread_q)]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need >= 3 usable buckets to fit, got {len(usable)}"
        )
    v = np.array([b.v_mid for b in usable])
    y = np.array([b.spread_q for b in usable])
    w = np.sqrt(np.array([b.count for b in usable], dtype=float))
    return v, y, w


def _nnls2(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||m x - b|| over x >= 0 for a two-column ``m``, in closed form.

    The solution is the unconstrained least-squares solution on one of the
    four supports {}, {0}, {1}, {0, 1}: the best of those that are feasible.
    """
    g, c = m.T @ m, m.T @ b
    candidates = [np.zeros(2)]
    for j in (0, 1):
        if g[j, j] > 0.0:
            x = np.zeros(2)
            x[j] = max(c[j] / g[j, j], 0.0)
            candidates.append(x)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if det > 0.0:
        x = np.array([g[1, 1] * c[0] - g[0, 1] * c[1],
                      g[0, 0] * c[1] - g[1, 0] * c[0]]) / det
        if np.all(x >= 0.0):
            candidates.append(x)
    return min(candidates, key=lambda x: float(np.sum((m @ x - b) ** 2)))


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
    v: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    model,                      # model(V, lam, x) -> spread (same units as y)
    flow: FlowStats,
    tau0: float,
    strict_product: bool,
) -> CalibrationResult:
    """Weighted least squares of ``model`` on (lam, x) >= 0.

    Both laws have the form f = sqrt(lam^2 A(V) + x^2 B(V)), with
    A = model(V, 1, 0)^2 and B = model(V, 0, 1)^2.  The start value is the
    non-negative least-squares fit of (lam^2, x^2) to y^2; a Levenberg-
    Marquardt iteration (More, 1978) refines it with the analytic Jacobian
    (lam A, x B) / f.  f is even in each parameter, so |x| projects a step
    onto the bounds without changing the objective.  A parameter whose
    column of (A, B) is zero on every bucket (lambda when sigma = 0) is not
    identified and raises DomainError.
    """
    basis = np.column_stack([model(v, 1.0, 0.0), model(v, 0.0, 1.0)]) ** 2
    for name, column in zip(("lambda", "rho_tau0_product" if strict_product else "rho"),
                            basis.T):
        if not column.any():
            raise DomainError(f"{name} is not identified: its term of the spread law is "
                              f"zero on every bucket (sigma={flow.sigma!r}, tau0={tau0!r})")
    x = np.sqrt(np.maximum(_nnls2(basis * w[:, None], (y * y) * w), 1e-16))

    def evaluate(p):
        f = model(v, p[0], p[1])
        return f, w * (f - y)

    def jacobian(p, f):
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = (w / f)[:, None] * (basis * p)
        return np.where(np.isfinite(jac), jac, 0.0)

    f, res = evaluate(x)
    cost = float(res @ res)
    nfev, nu, mu = 1, 2.0, 1e-3
    converged = cost == 0.0
    while not converged and nfev < _MAX_FIT_EVALS and math.isfinite(cost):
        jac = jacobian(x, f)
        grad, hess = jac.T @ res, jac.T @ jac
        # Marquardt's scaling; a column whose parameter sits at 0 keeps a floor.
        scale = np.maximum(np.diag(hess), _EPS * max(hess[0, 0], hess[1, 1], _TINY))
        step = np.linalg.solve(hess + mu * np.diag(scale), -grad)
        x_new = np.abs(x + step)
        f_new, res_new = evaluate(x_new)
        nfev += 1
        cost_new = float(res_new @ res_new)
        # cost - |res + jac step|^2 for the damped step, without cancellation.
        predicted = float(step @ (mu * scale * step - grad))
        gain = (cost - cost_new) / predicted if predicted > 0.0 else -1.0
        small_step = np.linalg.norm(step) <= _FIT_TOL * (_FIT_TOL + np.linalg.norm(x))
        if gain > 0.0:
            converged = (cost - cost_new <= _FIT_TOL * cost and gain > 0.25) or small_step
            x, f, res, cost = x_new, f_new, res_new, cost_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            converged = small_step
            mu *= nu
            nu *= 2.0

    rho_like = float(x[1])  # the product rho * tau0 itself when strict
    jac = jacobian(x, f)
    cov = cost / max(len(v) - 2, 1) * _pinv2(jac.T @ jac)
    rho_var = float(cov[1, 1])  # the product's variance when strict
    result = CalibrationResult(
        lambda_hat=float(x[0]), rho_hat=rho_like / tau0 if strict_product else rho_like,
        tau0_hat=tau0, residual_norm=math.sqrt(cost),
        covariance_diag=(float(cov[0, 0]), rho_var / tau0 / tau0 if strict_product else rho_var),
        converged=bool(converged),
        rho_tau0_product=rho_like if strict_product else None,
    )
    if not converged:
        why = "" if math.isfinite(cost) else " (non-finite residuals)"
        raise FitConvergenceError(
            f"spread fit did not converge in {nfev} evaluations{why}", best_so_far=result)
    return result


def fit_bid_ask_curve(
    curve: SpreadVolumeCurve,
    flow: FlowStats,
    tau0: float = 1.0,
    strict_product: bool = False,
) -> CalibrationResult:
    """Weighted least-squares fit of the bid-ask law to a percentile curve.

    rho and tau0 enter only through their product, so tau0 is fixed and
    (lambda, rho) are fitted; ``strict_product`` fits the product instead
    and reports it explicitly.  Bucket weights are the trade counts.
    """
    check_finite("tau0", tau0, above=0.0)
    v, y, w = _usable_curve_arrays(curve)
    s = flow.mean_price
    scale = 1.0 if strict_product else tau0

    def model(V, lam, x):  # x is rho, or the product rho * tau0 when strict
        return s * bidask_spread_model(V, lam, x, flow.sigma, flow.n, scale)

    return _run_spread_fit(v, y, w, model, flow, tau0, strict_product)


def fit_bar_curve(
    curve: SpreadVolumeCurve,
    horizon_T: float,
    flow: FlowStats,
    tau0: float = 1.0,
    strict_product: bool = False,
) -> CalibrationResult:
    """Weighted least-squares fit of the bar law at a fixed horizon.

    ``flow.sigma`` is interpreted at the horizon (sigma_T); the V -> 0
    intercept identifies lambda * sigma_T directly.
    """
    check_finite("tau0", tau0, above=0.0)
    check_finite("horizon_T", horizon_T, above=0.0)
    v, y, w = _usable_curve_arrays(curve)
    s = flow.mean_price

    if strict_product:
        def model(V, lam, prod):
            return s * bar_spread_model(V, lam, 1.0, flow.sigma, flow.n, prod, horizon_T)
    else:
        def model(V, lam, rho):
            return s * bar_spread_model(V, lam, rho, flow.sigma, flow.n, tau0, horizon_T)

    return _run_spread_fit(v, y, w, model, flow, tau0, strict_product)


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
    horizon is null takes ``horizon``.  Raises InputFormatError for a
    missing key, a field that is not a number or an unknown kind, and
    DomainError for a value out of its range.
    """
    try:
        res = report["result"]
        fit = [float(res[key]) for key in
               ("lambda_hat", "rho_hat", "tau0_hat", "residual_norm")]
        lam_var, rho_var = map(float, res["covariance_diag"])
        product = res["rho_tau0_product"]
        result = CalibrationResult(
            *fit, covariance_diag=(lam_var, rho_var), converged=res["converged"] is True,
            rho_tau0_product=None if product is None else float(product))
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
    flow = FlowStats(n=n, V=volume, sigma=sigma, mean_price=price)
    check_finite("lambda_hat", result.lambda_hat, at_least=0.0)
    check_finite("rho_hat", result.rho_hat, at_least=0.0)
    check_finite("tau0_hat", result.tau0_hat, above=0.0)
    if source is CurveSource.BAR:
        stored = horizon if stored is None else stored
        check_finite("horizon", stored, above=0.0)
    return result, flow, source, stored, v_range


def fit_execution_scale(spreads) -> float:
    """Maximum-likelihood scale of the quadratic-exponential spread density.

    For samples following p(x) = 2 x / x0^2 * exp(-(x/x0)^2) the estimator
    is x0 = sqrt(mean(x^2)).
    """
    spreads = np.asarray(list(spreads), dtype=float)
    if spreads.size < 100:
        raise InsufficientDataError(
            f"need >= 100 samples, got {spreads.size}"
        )
    if np.any(spreads <= 0.0) or not np.all(np.isfinite(spreads)):
        raise DomainError("all samples must be positive and finite")
    return float(math.sqrt(np.mean(spreads ** 2)))
