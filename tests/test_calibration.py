"""Flow statistics, percentile curves, and spread-law fitting."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from synthetic import synthetic_spread_curve, synthetic_trades

from spreadwave import (
    BarColumns,
    BucketSpec,
    CurveSource,
    DomainError,
    FitConvergenceError,
    FlowStats,
    InputFormatError,
    InsufficientDataError,
    QuoteColumns,
    Rejections,
    SpreadSamples,
    TradeColumns,
    bar_spread_model,
    bars_to_samples,
    bidask_spread_model,
    build_spread_volume_curve,
    calibrated_law,
    fit_bar_curve,
    fit_bid_ask_curve,
    measure_flow_stats,
    quotes_to_samples,
)
from spreadwave import calibration
from spreadwave.data_io import (read_bars, read_curve, read_json_report,
                                write_curve_csv, write_json_report)


# --------------------------------------------------------------------------
# flow statistics
# --------------------------------------------------------------------------

def test_flow_stats_constant_tape():
    trades = TradeColumns(timestamp=np.arange(60.0), price=np.full(60, 50.0),
                          size=np.full(60, 200.0))
    flow = measure_flow_stats(trades, window=60.0)
    assert flow.n == 200.0
    assert flow.V == pytest.approx(200.0)      # 12000 shares over 60 time units
    assert flow.sigma == 0.0
    assert flow.mean_price == 50.0


def test_flow_stats_volatility_rescaling():
    # same log-return sequence on a twice-coarser clock halves sigma^2 rate
    prices = 100.0 * np.exp(np.cumsum(np.sin(np.arange(100)) * 1e-3))
    fast = TradeColumns(np.arange(100.0), prices, np.ones(100))
    slow = TradeColumns(2.0 * np.arange(100.0), prices, np.ones(100))
    f_fast = measure_flow_stats(fast, window=100.0)
    f_slow = measure_flow_stats(slow, window=200.0)
    assert f_slow.sigma == pytest.approx(f_fast.sigma / math.sqrt(2.0), rel=1e-12)


def test_flow_stats_requires_enough_trades():
    trades = TradeColumns(np.arange(10.0), np.full(10, 50.0), np.ones(10))
    with pytest.raises(InsufficientDataError):
        measure_flow_stats(trades, window=10.0)


def test_flow_stats_on_synthetic_tape():
    trades = synthetic_trades(5000, s0=80.0, sigma_per_trade=2e-4,
                              mean_spacing=1.0, mean_size=150.0, seed=7)
    window = trades.timestamp[-1]
    flow = measure_flow_stats(trades, window=window)
    assert flow.n == pytest.approx(150.0, rel=0.1)
    assert flow.V == pytest.approx(150.0, rel=0.1)     # ~1 trade per time unit
    assert flow.sigma == pytest.approx(2e-4, rel=0.15)
    assert flow.mean_price == pytest.approx(80.0, rel=0.05)


# --------------------------------------------------------------------------
# adapters
# --------------------------------------------------------------------------

def test_curve_rejects_bad_bar_rows():
    rows = [
        (0.0, 10.0, 11.0, 9.0, 10.5, 100.0),
        (1.0, 10.0, 11.0, 9.0, 10.5, 0.0),            # zero volume
        (2.0, 10.0, 11.0, 9.0, 10.5, math.nan),       # bad volume
        (3.0, 10.0, 9.0, 11.0, 10.5, 50.0),           # negative range
        (4.0, 10.0, math.inf, 9.0, 10.5, 50.0),       # infinite range
        (5.0, 10.0, math.inf, math.inf, 10.0, 7.0),   # undefined range
        (6.0, 10.0, 12.5, 9.25, 10.5, math.inf),      # infinite volume
        (7.0, 10.0, 10.0, 10.0, 10.0, 7.0),           # zero range is kept
    ]
    bars = BarColumns(*np.array(rows).T)
    samples = bars_to_samples(bars)
    # The adapter pairs every bar; the curve decides which pairs count.
    assert samples.volumes is bars.volume
    with np.errstate(invalid="ignore"):
        assert np.array_equal(samples.spreads, bars.high - bars.low, equal_nan=True)
    assert samples.source is CurveSource.BAR
    curve = build_spread_volume_curve(samples, BucketSpec(n_buckets=1), min_count=1)
    assert (curve.n_accepted, curve.buckets[0].count) == (2, 2)
    assert curve.buckets[0].spread_q == pytest.approx(0.9 * 2.0)   # of the ranges 0 and 2
    assert curve.n_rejected == 6
    # NaN and infinite volumes and ranges first, then the zero volume.
    assert curve.rejected == Rejections(non_finite=4, non_positive_volume=1,
                                        negative_spread=1)


def test_quotes_to_samples_trailing_volume():
    trades = TradeColumns(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 100.0), np.full(4, 10.0))
    quotes = QuoteColumns(*np.array([
        (2.5, 99.0, 101.0),   # trades at 1, 2 -> 20 over window 2
        (4.0, 99.5, 100.5),   # trades at 3, 4 (window (2, 4])
        (0.5, 99.0, 101.0),   # no trailing flow -> rejected by the curve
        (3.0, 101.0, 99.0),   # crossed -> rejected by the curve
    ]).T)
    samples = quotes_to_samples(quotes, trades, window=2.0)
    assert samples.volumes == pytest.approx([10.0, 10.0, 0.0, 10.0])
    assert samples.spreads == pytest.approx([2.0, 1.0, 2.0, -2.0])
    assert samples.source is CurveSource.BID_ASK
    curve = build_spread_volume_curve(samples, BucketSpec(n_buckets=1), min_count=1)
    assert curve.n_accepted == 2 and curve.n_rejected == 2
    assert curve.rejected == Rejections(non_positive_volume=1, negative_spread=1)


def test_curve_rejects_an_infinite_trailing_volume():
    """A quote whose trailing flow overflows is rejected by the curve, as non-finite."""
    trades = TradeColumns(np.array([1.0, 2.0, 3.0]), np.full(3, 100.0),
                          np.array([1.0, 1e308, 1e308]))
    quotes = QuoteColumns(*np.array([
        (1.5, 99.0, 101.0),   # 1 over window 1
        (3.5, 99.0, 101.0),   # the cumulative size overflows: inf - 1e308 = inf
    ]).T)
    with np.errstate(over="ignore"):
        samples = quotes_to_samples(quotes, trades, window=1.0)
    assert samples.volumes.tolist() == [1.0, math.inf]
    curve = build_spread_volume_curve(samples, BucketSpec(n_buckets=1), min_count=1)
    assert curve.rejected == Rejections(non_finite=1) and curve.n_accepted == 1


def quotes_to_samples_reference(quotes, trades, window):
    """The per-quote loop: two scalar ``searchsorted`` calls per quote, and
    the number of pairs the curve must reject."""
    order = np.argsort(trades.timestamp, kind="stable")
    times = trades.timestamp[order]
    cumsize = np.concatenate(([0.0], np.cumsum(trades.size[order])))
    volumes, spreads, rejected = [], [], 0
    for t, bid, ask in zip(*(col.tolist() for col in (quotes.timestamp, quotes.bid, quotes.ask))):
        spread = ask - bid
        hi = np.searchsorted(times, t, side="right")
        lo = np.searchsorted(times, t - window, side="right")
        v = float((cumsize[hi] - cumsize[lo]) / window)
        volumes.append(v)
        spreads.append(spread)
        rejected += not (spread >= 0.0 and math.isfinite(spread) and v > 0.0
                         and math.isfinite(v))
    return np.array(volumes, dtype=float), np.array(spreads, dtype=float), rejected


def test_quotes_to_samples_equals_the_per_quote_loop():
    """Bit for bit, on tapes with crossed, infinite and NaN quotes, trades out
    of order and cumulative sizes that overflow; the curve rejects the pairs
    the loop says it must."""
    rng = np.random.default_rng(0)
    special = np.array([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, -0.0])

    def column(k, centre):
        x = centre + rng.standard_normal(k) * rng.choice([0.1, 10.0])
        odd = rng.random(k) < 0.15
        x[odd] = rng.choice(special, odd.sum())
        return x

    for _ in range(300):
        n, m = rng.integers(0, 30, 2)
        quotes = QuoteColumns(column(n, 5.0), column(n, 100.0), column(n, 100.2))
        trades = TradeColumns(column(m, 5.0), column(m, 100.0), np.abs(column(m, 3.0)))
        window = float(rng.choice([0.5, 2.0, 1e300]))
        with np.errstate(all="ignore"):
            volumes, spreads, rejected = quotes_to_samples_reference(quotes, trades, window)
            samples = quotes_to_samples(quotes, trades, window)
        assert samples.volumes.tobytes() == volumes.tobytes()
        assert samples.spreads.tobytes() == spreads.tobytes()
        if rejected == n:
            with pytest.raises(InsufficientDataError):
                build_spread_volume_curve(samples)
        else:
            assert build_spread_volume_curve(samples).n_rejected == rejected


# --------------------------------------------------------------------------
# percentile curve
# --------------------------------------------------------------------------

def test_quantile_matches_reference_convention():
    # 1..10 at q=0.9 under the linear interpolation convention gives 9.1
    volumes = np.full(10, 5.0)
    spreads = np.arange(1.0, 11.0)
    samples = SpreadSamples(volumes=volumes, spreads=spreads,
                            source=CurveSource.BID_ASK)
    curve = build_spread_volume_curve(
        samples, bucket_spec=BucketSpec(n_buckets=1),
        quantile_level=0.9, min_count=1)
    assert len(curve.buckets) == 1
    assert curve.buckets[0].spread_q == pytest.approx(9.1, rel=1e-14)


def test_bucket_counts_conserve_samples(rng):
    volumes = rng.lognormal(3.0, 1.0, size=5000)
    spreads = rng.uniform(0.1, 2.0, size=5000)
    samples = SpreadSamples(volumes=volumes, spreads=spreads,
                            source=CurveSource.BID_ASK)
    curve = build_spread_volume_curve(samples)
    assert sum(b.count for b in curve.buckets) == 5000
    assert curve.n_accepted == 5000
    # edges cover the data range
    assert curve.buckets[0].v_lo <= volumes.min()
    assert curve.buckets[-1].v_hi >= volumes.max()


def test_quantile_ordering(rng):
    volumes = rng.lognormal(0.0, 1.0, size=2000)
    spreads = rng.uniform(0.1, 2.0, size=2000)
    samples = SpreadSamples(volumes=volumes, spreads=spreads,
                            source=CurveSource.BID_ASK)
    lo = build_spread_volume_curve(samples, quantile_level=0.5)
    hi = build_spread_volume_curve(samples, quantile_level=0.9)
    for b_lo, b_hi in zip(lo.buckets, hi.buckets):
        if b_lo.count > 0:
            assert b_hi.spread_q >= b_lo.spread_q - 1e-12


def test_sparse_buckets_flagged_not_dropped(rng):
    volumes = np.concatenate([rng.uniform(1.0, 2.0, 500), [1000.0]])
    spreads = np.ones(501)
    samples = SpreadSamples(volumes=volumes, spreads=spreads,
                            source=CurveSource.BID_ASK)
    curve = build_spread_volume_curve(samples, min_count=20)
    assert any(b.flagged for b in curve.buckets)
    assert sum(b.count for b in curve.buckets) == 501


def test_degenerate_volume_range():
    samples = SpreadSamples(volumes=np.full(100, 7.0),
                            spreads=np.linspace(1, 2, 100),
                            source=CurveSource.BID_ASK)
    curve = build_spread_volume_curve(samples)
    usable = curve.usable()
    assert len(usable) >= 1
    assert sum(b.count for b in curve.buckets) == 100


def test_rejections_count_each_sample_under_its_first_cause():
    """A sample that fails several checks counts once, under the first of
    non-finite, non-positive volume and negative spread."""
    nan, inf = math.nan, math.inf
    volumes = np.array([nan, inf, -1.0, 0.0, -inf, 2.0, 3.0, 4.0, 0.0, 5.0, 6.0])
    spreads = np.array([-1.0, 1.0, nan, -1.0, 1.0, -0.5, -inf, 1.0, 1.0, 2.0, 0.0])
    samples = SpreadSamples(volumes=volumes, spreads=spreads, source=CurveSource.BAR)
    curve = build_spread_volume_curve(samples, BucketSpec(n_buckets=1), min_count=1)
    assert curve.rejected == Rejections(non_finite=5, non_positive_volume=2,
                                        negative_spread=1)
    assert curve.n_rejected == curve.rejected.total == 8
    assert curve.n_accepted == 3


def test_curve_report_splits_rejections_by_cause(tmp_path):
    rows = ["timestamp,open,high,low,close,volume"]
    for i in range(200):
        high, low, volume = 10.0 + 0.01 * (i % 7), 9.5, 1.0 + i
        if i % 10 == 1:
            volume = 0.0
        elif i % 10 == 2:
            high = math.inf
        elif i % 10 == 3:
            high, low = 9.0, 9.5
        elif i % 20 == 4:
            volume = -math.nan
        rows.append(f"{i},9.75,{high!r},{low!r},9.75,{volume!r}")
    (tmp_path / "bars.csv").write_text("\n".join(rows) + "\n")
    res = invoke(["curve", "--bars", str(tmp_path / "bars.csv"),
                  "--buckets", "4", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    summary = read_json_report(str(tmp_path / "curve_report.json"))["summary"]
    assert summary["rejected_by"] == {"non_finite": 30, "non_positive_volume": 20,
                                      "negative_spread": 20}
    assert summary["n_rejected"] == 70 and summary["n_accepted"] == 130


def test_no_usable_samples_raises():
    samples = SpreadSamples(volumes=np.array([-1.0, 0.0]),
                            spreads=np.array([1.0, 1.0]),
                            source=CurveSource.BID_ASK)
    with pytest.raises(InsufficientDataError):
        build_spread_volume_curve(samples)


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

FLOW = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=50.0)
EDGES = np.geomspace(10.0, 1000.0, 25)


def test_bidask_fit_noiseless_recovery():
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES,
                                   noise_rel=0.0, seed=0)
    result = fit_bid_ask_curve(curve, FLOW, tau0=0.01)
    assert result.lambda_hat == pytest.approx(3.5, rel=1e-6)
    assert result.rho_hat == pytest.approx(1.2, rel=1e-6)
    assert result.residual_norm < 1e-8
    assert result.converged


def test_bar_fit_noiseless_recovery():
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES,
                                   noise_rel=0.0, seed=0,
                                   source=CurveSource.BAR, horizon_T=2.0)
    result = fit_bar_curve(curve, horizon_T=2.0, flow=FLOW, tau0=0.01)
    assert result.lambda_hat == pytest.approx(3.5, rel=1e-6)
    assert result.rho_hat == pytest.approx(1.2, rel=1e-6)


def test_tau0_rescaling_leaves_product_invariant():
    # rho and tau0 are only identified through their product
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES,
                                   noise_rel=0.0, seed=0)
    r1 = fit_bid_ask_curve(curve, FLOW, tau0=0.01)
    r2 = fit_bid_ask_curve(curve, FLOW, tau0=0.02)
    assert r1.rho_hat * 0.01 == pytest.approx(r2.rho_hat * 0.02, rel=1e-6)
    assert r1.lambda_hat == pytest.approx(r2.lambda_hat, rel=1e-6)


def test_fit_needs_three_usable_buckets():
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01,
                                   np.geomspace(10.0, 100.0, 3),
                                   noise_rel=0.0, seed=0)
    assert len(curve.usable()) == 2
    with pytest.raises(InsufficientDataError):
        fit_bid_ask_curve(curve, FLOW, tau0=0.01)


def test_models_vectorize():
    V = np.geomspace(1.0, 100.0, 7)
    ba = bidask_spread_model(V, 2.0, 1.0, 0.02, 100.0, 0.01)
    bar = bar_spread_model(V, 2.0, 1.0, 0.02, 100.0, 0.01, 1.0)
    assert ba.shape == V.shape and bar.shape == V.shape
    assert np.all(ba > 0.0) and np.all(bar > 0.0)


# --------------------------------------------------------------------------
# the Gauss-Newton fit in (lambda^2, rho^2): oracle and failure path
# --------------------------------------------------------------------------

def _weighted_sse(curve, spread):
    usable = curve.usable()
    v = np.array([b.v_mid for b in usable])
    y = np.array([b.spread_q for b in usable])
    w = np.sqrt(np.array([b.count for b in usable], dtype=float))
    return float(np.sum((w * (spread(v) - y)) ** 2))


@pytest.fixture(scope="module")
def readme_curve(tmp_path_factory):
    """The README pipeline's curve (5000 simulated bars)."""
    out = str(tmp_path_factory.mktemp("readme"))
    for args in (["simulate", "--steps", "5000", "--seed", "42", "--sigma-step", "0.0002",
                  "--xi-std", "0.05", "--kappa-std", "0.05", "--s0", "100"],
                 ["curve", "--bars", os.path.join(out, "bars.csv"), "--quantile", "0.9"]):
        assert invoke([*args, "--out", out]).exit_code == 0
    return read_curve(os.path.join(out, "curve.csv"), quantile_level=0.9,
                      source=CurveSource.BAR, min_count=20)


# name: (synthetic curve noise and seed, or None for the README curve; bar
# horizon T, or None for the bid-ask law; tau0; (lambda_hat, rho_hat) that
# the scipy least_squares fit this one replaced found).
_SCIPY_FITS = {
    "bidask": ((0.0, 0), None, 0.01, (3.5, 1.2000000000000002)),
    "bidask_tau0_0.02": ((0.0, 0), None, 0.02, (3.5, 0.6000000000000001)),
    "bar": ((0.0, 0), 2.0, 0.01, (3.4999999999999996, 1.2)),
    "bidask_noisy": ((0.05, 3), None, 0.01, (3.4687414774503282, 1.212859976081089)),
    "bar_noisy": ((0.05, 4), 2.0, 0.01, (3.4999271499427036, 1.191520617510603)),
    "readme": (None, 1.0, 1.0, (0.0029348413652530896, 2.071398431373877)),
}


@pytest.mark.parametrize("name", sorted(_SCIPY_FITS))
def test_fit_objective_no_worse_than_scipy(name, readme_curve):
    noise, T, tau0, recorded = _SCIPY_FITS[name]
    if noise is None:
        curve, flow = readme_curve, FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=100.0)
    else:
        source = CurveSource.BID_ASK if T is None else CurveSource.BAR
        curve, flow = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=noise[0],
                                             seed=noise[1], source=source, horizon_T=T), FLOW
    if T is None:
        result = fit_bid_ask_curve(curve, flow, tau0=tau0)
        law = lambda V, lam, rho: bidask_spread_model(V, lam, rho, flow.sigma, flow.n, tau0)
    else:
        result = fit_bar_curve(curve, horizon_T=T, flow=flow, tau0=tau0)
        law = lambda V, lam, rho: bar_spread_model(V, lam, rho, flow.sigma, flow.n, tau0, T)
    assert result.converged
    ours = _weighted_sse(curve, lambda V: flow.mean_price * law(V, result.lambda_hat,
                                                                result.rho_hat))
    theirs = _weighted_sse(curve, lambda V: flow.mean_price * law(V, *recorded))
    assert ours <= (1.0 + 1e-12) * theirs
    assert result.residual_norm == pytest.approx(math.sqrt(ours), rel=1e-12, abs=1e-300)


def _sse_bound(sse_theirs, wy2):
    """The largest fit SSE that is no worse than scipy's ``sse_theirs``, for a
    curve with sum((w y)^2) = ``wy2``.

    The fit stops once a step is below 1e-12 of the parameters, so its excess
    SSE has a part relative to the SSE and a part relative to sum((w y)^2),
    which J x = w f brings in.  Each SSE is also rounded, by about
    2 eps sqrt(SSE sum((w y)^2)) (Cauchy-Schwarz on its residuals, each
    rounded relative to its w f or w y), and both are: hence the third term.
    It matters only for noise between about 1e-6 and 1e-4; above that band
    it is smaller than the first term, and below it than the second.
    """
    eps = np.finfo(float).eps
    return (sse_theirs * (1.0 + 1e-11) + 1e-21 * wy2
            + 4.0 * eps * math.sqrt(sse_theirs * wy2))


def _bounded_oracle(kind, tau0, noise, seed):
    """The fit of a synthetic curve, its weighted residuals as a function of
    (lambda, rho), and scipy's least_squares on [0, inf) from the curve's
    generating values (lambda 3.5, rho tau0 0.012): (result, residuals,
    scipy's point, scipy's SSE, sum((w y)^2))."""
    from scipy.optimize import least_squares

    T = 2.0 if kind == "bar" else None
    source = CurveSource.BAR if T else CurveSource.BID_ASK
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=noise, seed=seed,
                                   source=source, horizon_T=T)
    if T is None:
        result = fit_bid_ask_curve(curve, FLOW, tau0=tau0)
        law = lambda V, lam, rho: bidask_spread_model(V, lam, rho, FLOW.sigma, FLOW.n, tau0)
    else:
        result = fit_bar_curve(curve, horizon_T=T, flow=FLOW, tau0=tau0)
        law = lambda V, lam, rho: bar_spread_model(V, lam, rho, FLOW.sigma, FLOW.n, tau0, T)
    usable = curve.usable()
    v = np.array([b.v_mid for b in usable])
    y = np.array([b.spread_q for b in usable])
    w = np.sqrt(np.array([b.count for b in usable], dtype=float))

    def residuals(p):
        return w * (FLOW.mean_price * law(v, p[0], p[1]) - y)

    theirs = least_squares(residuals, [3.5, 0.012 / tau0], bounds=(0.0, np.inf),
                           x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return (result, residuals, theirs.x, float(theirs.fun @ theirs.fun),
            float(np.sum((w * y) ** 2)))


@given(kind=st.sampled_from(["bidask", "bar"]), tau0=st.floats(1e-3, 10.0),
       noise=st.floats(0.0, 0.1), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_fit_sse_no_worse_than_bounded_least_squares(kind, tau0, noise, seed):
    """The fit against scipy's least_squares on [0, inf), both from the curve's
    generating values, fitted at any tau0, within ``_sse_bound``.

    Over 1500 draws of these ranges, with noise also log-uniform down to
    1e-20 and exactly 0, the excess stayed below 1e-11 * SSE +
    1.8e-21 * sum((w y)^2), and above 0.1% noise at most 1.3e-13 * SSE.
    Between noise 1e-7 and 1e-3 the SSE's own rounding reaches those two
    terms: scipy, iterating to 1e-15, can end on a point whose SSE rounds
    low.  Over 4200 seeded draws of that band (noise log-uniform, tau0 and
    the kind as here), a bound of the first two terms alone missed on 12,
    and the full bound on none: the largest excess over scipy's SSE was
    1.56 eps sqrt(SSE sum((w y)^2)), under the third term's 4.  About 2% of
    this test's draws fall in the band.
    """
    result, residuals, _, sse_theirs, wy2 = _bounded_oracle(kind, tau0, noise, seed)
    ours = residuals([result.lambda_hat, result.rho_hat])
    assert result.converged
    assert ours @ ours <= _sse_bound(sse_theirs, wy2)


@pytest.mark.parametrize("kind", ["bidask", "bar"])
@pytest.mark.parametrize("noise, seed", [(3e-6, 11), (1e-5, 5), (5e-5, 2)])
def test_sse_bound_refuses_a_point_off_the_optimum(kind, noise, seed):
    """A negative control of ``_sse_bound`` inside the rounding band: scipy's
    point moved along lambda until its SSE exceeds scipy's by 10 times the
    rounding term fails the bound, so the bound still tells a worse fit
    from rounding."""
    _, residuals, best, sse_theirs, wy2 = _bounded_oracle(kind, 1.0, noise, seed)
    term = 4.0 * np.finfo(float).eps * math.sqrt(sse_theirs * wy2)
    assert term > 1e-11 * sse_theirs + 1e-21 * wy2  # the band, where the term rules

    def excess(step):
        r = residuals([best[0] + step, best[1]])
        return float(r @ r) - sse_theirs

    # Near the optimum the excess grows as step^2: scale a small step to it.
    probe = 1e-6 * best[0]
    step = probe * math.sqrt(10.0 * term / excess(probe))
    assert excess(step) == pytest.approx(10.0 * term, rel=0.05)
    assert sse_theirs + excess(step) > _sse_bound(sse_theirs, wy2)


def test_fit_covariance_is_the_gauss_newton_estimate():
    # res_var * (J^T J)^-1 with J from central differences of the law in (lambda, rho).
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    usable = curve.usable()
    v = np.array([b.v_mid for b in usable])
    y = np.array([b.spread_q for b in usable])
    w = np.sqrt(np.array([b.count for b in usable], dtype=float))

    def residuals(lam, rho):
        return w * (FLOW.mean_price * bidask_spread_model(v, lam, rho, FLOW.sigma,
                                                          FLOW.n, 0.01) - y)

    result = fit_bid_ask_curve(curve, FLOW, tau0=0.01)
    lam, rho = result.lambda_hat, result.rho_hat
    h_lam, h_rho = 1e-6 * lam, 1e-6 * rho
    jac = np.column_stack([
        (residuals(lam + h_lam, rho) - residuals(lam - h_lam, rho)) / (2.0 * h_lam),
        (residuals(lam, rho + h_rho) - residuals(lam, rho - h_rho)) / (2.0 * h_rho),
    ])
    res = residuals(lam, rho)
    cov = res @ res / (len(v) - 2) * np.linalg.inv(jac.T @ jac)
    assert result.covariance_diag == pytest.approx(np.diag(cov), rel=1e-6)


def _gram(*columns):
    jac = np.column_stack(columns)
    return jac.T @ jac


_RNG = np.random.default_rng(11)


@pytest.mark.parametrize("g", [
    _gram(_RNG.standard_normal(9), _RNG.standard_normal(9)),
    _gram(_RNG.standard_normal(9) * 1e-3, _RNG.standard_normal(9) * 1e4),
    _gram(np.zeros(9), _RNG.standard_normal(9)),
    _gram(_RNG.standard_normal(9), np.zeros(9)),
    np.zeros((2, 2)),
    # Singular values 5 and 7.3e-13, above pinv's cutoff, and 5 and 1.8e-16,
    # below it; every entry and the determinant are exact.
    np.array([[4.0, 2.0], [2.0, 1.0 + 2.0 ** -40]]),
    np.array([[4.0, 2.0], [2.0, 1.0 + 2.0 ** -52]]),
], ids=["spd", "spd-scaled", "rank1-lambda", "rank1-rho", "zero", "near-singular",
        "below-cutoff"])
def test_closed_form_pinv_is_numpys(g):
    want = np.linalg.pinv(g)
    # pinv's own rounding, relative to its largest entry, grows as eps times
    # the condition number of the part it inverts.
    big, small = np.linalg.svd(g, compute_uv=False)
    cond = big / small if small > 1e-15 * big else 1.0
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert np.max(np.abs(calibration._pinv2(g) - want)) <= 4.0 * np.finfo(float).eps * cond * scale


def _nnls_system(name, rng):
    m = rng.standard_normal((9, 2))
    if name == "scaled":
        m *= [1e-3, 1e4]
    elif name == "rank1":
        m[:, 1] = 3.0 * m[:, 0]
    elif name.startswith("zero"):
        m[:, int(name == "zero-rho")] = 0.0
    return m


@pytest.mark.parametrize("start", ["zero", "inside", "on-bound-0", "on-bound-1"])
@pytest.mark.parametrize("name", ["random", "scaled", "rank1", "zero-lambda", "zero-rho"])
def test_closed_form_nnls_is_scipys(name, start):
    from scipy.optimize import nnls

    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for _ in range(50):
        m, b = _nnls_system(name, rng), rng.standard_normal(9)
        want = nnls(m, b)[0]
        # Starts at each column's own scale, ||b|| / ||m_j||, so that b - m x
        # does not round away the residual.
        norms = np.linalg.norm(m, axis=0)
        x = rng.uniform(0.0, 2.0, 2) * np.linalg.norm(b) / np.where(norms > 0.0, norms, 1.0)
        x *= {"zero": (0.0, 0.0), "inside": (1.0, 1.0), "on-bound-0": (0.0, 1.0),
              "on-bound-1": (1.0, 0.0)}[start]
        x = tuple(x.tolist())
        got = np.add(x, calibration._nnls2(m[:, 0], m[:, 1], b - m @ x, x))
        assert got.min() >= 0.0
        if name == "rank1":  # the minimiser is a segment: compare the residuals
            residual = [np.linalg.norm(m @ z - b) for z in (got, want)]
            assert residual[0] <= residual[1] + 4.0 * eps * np.linalg.norm(b)
            continue
        # Least-squares perturbation theory: a relative error eps in m and b
        # moves the solution by eps cond (|x| + cond |b| / big), with cond
        # that of the columns that are not zero.
        big, small = np.linalg.svd(m, compute_uv=False)
        small = small if small > 1e-15 * big else big
        scale = max(np.max(np.abs(want)), max(x)) + np.linalg.norm(b) / small
        assert np.max(np.abs(got - want)) <= 4.0 * eps * (big / small) * scale


@pytest.mark.parametrize("kind", ["bidask", "bar"])
@pytest.mark.parametrize("sigma, tau0, name", [
    (0.0, 0.01, "lambda"),     # a constant-price tape
    (0.02, 1e-300, "rho"),     # (pi tau0 / n)^2 underflows to 0
])
def test_fit_refuses_a_parameter_the_law_does_not_depend_on(kind, sigma, tau0, name):
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.0, seed=0)
    flow = FlowStats(n=100.0, V=0.0, sigma=sigma, mean_price=50.0)
    with pytest.raises(DomainError, match=f"^{name} is not identified"):
        if kind == "bar":
            fit_bar_curve(curve, horizon_T=1.0, flow=flow, tau0=tau0)
        else:
            fit_bid_ask_curve(curve, flow, tau0=tau0)


def test_fit_evaluation_cap_raises_with_best_so_far(monkeypatch):
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    monkeypatch.setattr(calibration, "_MAX_FIT_EVALS", 1)
    with pytest.raises(FitConvergenceError) as info:
        fit_bid_ask_curve(curve, FLOW, tau0=0.01)
    best = info.value.best_so_far
    assert best is not None and not best.converged
    assert (best.evaluations, best.stop) == (1, "cap")
    assert math.isfinite(best.lambda_hat) and math.isfinite(best.rho_hat)
    assert best.lambda_hat > 0.0 and best.rho_hat > 0.0


def test_fit_evaluation_cap_via_cli(tmp_path, monkeypatch):
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, curve)
    monkeypatch.setattr(calibration, "_MAX_FIT_EVALS", 1)
    res = invoke(["calibrate", "--curve", path, "--n", "100",
                  "--sigma", "0.02", "--price", "50", "--tau0", "0.01",
                  "--min-count", "1", "--out", str(tmp_path)])
    assert res.exit_code == 4
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical failure")
    report = read_json_report(str(tmp_path / "calibration.json"))
    assert "did not converge" in report["error"]
    assert report["result"]["converged"] is False
    assert not (tmp_path / "overlay.csv").exists()


def test_fit_bucket_where_the_law_vanishes_only_adds_its_residual():
    # f = 0 on one bucket: its Jacobian row is 0/0 and counts as zero, so the
    # fit is the fit without that bucket, plus that bucket's constant residual.
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    gone = curve.buckets[5]

    def law(V, lam, rho):
        on = V != gone.v_mid
        return FLOW.mean_price * on * bidask_spread_model(V, lam, rho, FLOW.sigma, FLOW.n, 0.01)

    with_zero = calibration._run_spread_fit(curve, law, FLOW, 0.01)
    buckets = tuple(dataclasses.replace(b, flagged=b is gone) for b in curve.buckets)
    without = fit_bid_ask_curve(dataclasses.replace(curve, buckets=buckets), FLOW, tau0=0.01)
    assert with_zero.lambda_hat == pytest.approx(without.lambda_hat, rel=1e-9)
    assert with_zero.rho_hat == pytest.approx(without.rho_hat, rel=1e-9)
    assert with_zero.residual_norm ** 2 == pytest.approx(
        without.residual_norm ** 2 + gone.count * gone.spread_q ** 2, rel=1e-12)


def test_calibrate_refuses_a_curve_with_no_positive_spread(tmp_path):
    # Every usable bucket's quantile is 0, so the best fit is the law that is 0
    # at every volume; the flagged first bucket's spread does not count.
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.0, seed=0)
    buckets = tuple(dataclasses.replace(b, spread_q=0.0) if i else
                    dataclasses.replace(b, count=5) for i, b in enumerate(curve.buckets))
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, dataclasses.replace(curve, buckets=buckets))
    res = invoke(["calibrate", "--curve", path, "--n", "100", "--sigma", "0.02",
                  "--price", "50", "--tau0", "0.01", "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert res.stderr.strip().splitlines() == ["error: no usable bucket has a spread > 0"]
    assert not (tmp_path / "calibration.json").exists()


def test_fit_reports_its_evaluations_and_stop(readme_curve):
    # The README pipeline's fit: 7 law evaluations before the float-form
    # iteration too, counted by wrapping the law.
    flow = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=100.0)
    result = fit_bar_curve(readme_curve, horizon_T=1.0, flow=flow)
    assert (result.evaluations, result.stop) == (7, "cost")


# --------------------------------------------------------------------------
# known-truth closure of the bar pipeline
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(1, 11))
def test_bar_fit_recovers_the_lognormal_volume_closure(tmp_path, seed):
    """simulate --volume-mode lognormal -> curve -> calibrate --kind bar.

    Lognormal volumes are drawn apart from the bar heights, so the bar law's
    generating values are rho = 0 and lambda = q_0.9(h) / (price * sigma),
    the 0.9-quantile of the bar height h = high - low.  h is Rayleigh with
    scale 0.05 (the xi and kappa std), whose 0.9-quantile is
    0.05 * sqrt(-2 ln 0.1).  Over seeds 1-20 at 20k bars, lambda_hat came
    within 0.39% of the sample-quantile value and within 1.13% of the
    Rayleigh value, and rho_hat was at most 7.6e-4; the bounds below are
    those worst cases with a margin.  Half of those seeds end at rho_hat = 0,
    where the fit's SSE must still be scipy's bounded optimum, within
    ``_sse_bound``, the bound of the property test against scipy; a
    fit that stalls short of the bound (rho_hat of 1e-10 to 1e-8) was 8e-5 to
    1.9e-4 of the SSE above it.
    """
    from scipy.optimize import least_squares

    price, sigma = 100.0, 0.02
    out = str(tmp_path)
    for command in (
        ["simulate", "--steps", "20000", "--seed", str(seed), "--sigma-step", "0.0002",
         "--xi-std", "0.05", "--kappa-std", "0.05", "--s0", "100",
         "--volume-mode", "lognormal"],
        ["curve", "--bars", os.path.join(out, "bars.csv"), "--quantile", "0.9"],
        ["calibrate", "--curve", os.path.join(out, "curve.csv"), "--kind", "bar",
         "--horizon", "1.0", "--n", "100", "--sigma", str(sigma), "--price", str(price)],
    ):
        res = invoke([*command, "--out", out])
        assert res.exit_code == 0, f"{command[0]}: {res.output}"
    result = read_json_report(os.path.join(out, "calibration.json"))["result"]
    bars = read_bars(os.path.join(out, "bars.csv"))
    lam_sample = float(np.quantile(bars.high - bars.low, 0.9)) / (price * sigma)
    lam_rayleigh = 0.05 * math.sqrt(-2.0 * math.log(0.1)) / (price * sigma)
    assert result["converged"] is True
    assert result["lambda_hat"] == pytest.approx(lam_sample, rel=5e-3)
    assert result["lambda_hat"] == pytest.approx(lam_rayleigh, rel=1.5e-2)
    assert 0.0 <= result["rho_hat"] <= 1e-3

    curve = read_curve(os.path.join(out, "curve.csv"), quantile_level=0.9,
                       source=CurveSource.BAR, min_count=20)
    usable = curve.usable()
    v = np.array([b.v_mid for b in usable])
    y = np.array([b.spread_q for b in usable])
    w = np.sqrt(np.array([b.count for b in usable], dtype=float))
    law = calibration.spread_law(CurveSource.BAR, FlowStats(n=100.0, V=0.0, sigma=sigma,
                                                            mean_price=price), 1.0, 1.0)

    def residuals(p):
        return w * (law(v, p[0], p[1]) - y)

    # From rho 1e-3 scipy may stop short of the bound, and from 0 short of an
    # interior optimum: the better of the two is the bounded optimum.
    sse_theirs = min(float(fit.fun @ fit.fun) for fit in (
        least_squares(residuals, [result["lambda_hat"], rho], bounds=(0.0, np.inf),
                      x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        for rho in (1e-3, 0.0)))
    ours = residuals([result["lambda_hat"], result["rho_hat"]])
    assert ours @ ours <= _sse_bound(sse_theirs, float(np.sum((w * y) ** 2)))


# --------------------------------------------------------------------------
# calibration report
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["bidask", "bar"])
def test_calibration_report_round_trip(tmp_path, kind):
    source = calibration.REPORT_KINDS[kind]
    horizon = 2.0 if source is CurveSource.BAR else None
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3,
                                   source=source, horizon_T=horizon)
    if source is CurveSource.BAR:
        result = fit_bar_curve(curve, horizon, FLOW, tau0=0.01)
    else:
        result = fit_bid_ask_curve(curve, FLOW, tau0=0.01)
    usable = curve.usable()
    v_range = (usable[0].v_lo, usable[-1].v_hi)
    path = str(tmp_path / "calibration.json")
    write_json_report(path, calibration.calibration_report(result, FLOW, source, horizon, v_range))
    report = read_json_report(path)

    # The horizon argument is only the fallback for a bar report without one.
    parsed = calibration.parse_calibration_report(report, path, horizon=5.0)
    assert parsed == (result, FLOW, source, horizon, v_range)
    v = np.geomspace(5.0, 2000.0, 50)
    built = calibrated_law(result, FLOW, source, 1.0, horizon_T=horizon).delta_ref(v)
    read = calibrated_law(*parsed[:3], 1.0, horizon_T=parsed[3]).delta_ref(v)
    assert np.array_equal(built, read)
    if source is CurveSource.BAR:
        report["horizon"] = None
        assert calibration.parse_calibration_report(report, path, horizon=5.0)[3] == 5.0


def test_calibration_report_without_fit_health_still_reads(tmp_path):
    # A report written before evaluations and stop were recorded.
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    result = fit_bid_ask_curve(curve, FLOW, tau0=0.01)
    report = calibration.calibration_report(result, FLOW, CurveSource.BID_ASK, None,
                                            (10.0, 1000.0))
    assert (report["result"]["evaluations"], report["result"]["stop"]) == (4, "cost")
    for key in ("evaluations", "stop"):
        del report["result"][key]
    parsed = calibration.parse_calibration_report(report, "old.json", horizon=1.0)[0]
    assert parsed == dataclasses.replace(result, evaluations=None, stop=None)


@pytest.mark.parametrize("zeroed, code", [(("lambda_hat", "rho_hat"), 3), (("rho_hat",), 0),
                                           (("lambda_hat",), 0)])
def test_optimize_refuses_a_report_whose_law_is_zero(tmp_path, zeroed, code):
    # lambda_hat = rho_hat = 0 is a law that is 0 at every volume; either one
    # alone at its bound is a law that optimize prices.
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    report = calibration.calibration_report(fit_bid_ask_curve(curve, FLOW, tau0=0.01), FLOW,
                                            CurveSource.BID_ASK, None, (10.0, 1000.0))
    for key in zeroed:
        report["result"][key] = 0.0
    path = str(tmp_path / "calibration.json")
    write_json_report(path, report)
    res = invoke(["optimize", "--calibration", path, "--alpha", "0.001", "--lambda0", "3.0",
                  "--v-points", "7", "--out", str(tmp_path)])
    assert res.exit_code == code, res.output
    assert (tmp_path / "policy.csv").exists() is (code == 0)
    if code:
        assert res.stderr.strip().splitlines() == [
            f"error: {path}: lambda_hat and rho_hat are both 0, so the spread law is 0 "
            f"at every volume"]


@pytest.mark.parametrize("key, value", [("evaluations", 0), ("evaluations", 7.0),
                                        ("evaluations", True), ("stop", "done"),
                                        ("stop", 1)])
def test_calibration_report_rejects_bad_fit_health(key, value):
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    report = calibration.calibration_report(fit_bid_ask_curve(curve, FLOW, tau0=0.01), FLOW,
                                            CurveSource.BID_ASK, None, (10.0, 1000.0))
    report["result"][key] = value
    with pytest.raises(InputFormatError, match="^bad.json: evaluations must be"):
        calibration.parse_calibration_report(report, "bad.json", horizon=1.0)
