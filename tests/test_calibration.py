"""Flow statistics, percentile curves, and spread-law fitting."""

import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from spreadwave import (
    BarColumns,
    BucketSpec,
    CurveSource,
    DomainError,
    FitConvergenceError,
    FlowStats,
    InsufficientDataError,
    QuoteColumns,
    SpreadSamples,
    TradeColumns,
    bar_spread_model,
    bars_to_samples,
    bidask_spread_model,
    build_spread_volume_curve,
    calibrated_law,
    fit_bar_curve,
    fit_bid_ask_curve,
    fit_execution_scale,
    measure_flow_stats,
    quotes_to_samples,
)
from spreadwave import calibration
from spreadwave.cli import main
from spreadwave.data_io import (read_curve, read_json_report, write_curve_csv,
                                write_json_report)
from spreadwave.synthetic import synthetic_spread_curve, synthetic_trades


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

def test_bars_to_samples_rejects_bad_rows():
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
    samples = bars_to_samples(BarColumns(*np.array(rows).T))
    assert samples.volumes.tolist() == [100.0, 7.0]
    assert samples.spreads[0] == pytest.approx(2.0)
    assert samples.spreads[1] == 0.0
    assert samples.n_rejected == 6
    assert samples.source is CurveSource.BAR


def test_quotes_to_samples_trailing_volume():
    trades = TradeColumns(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 100.0), np.full(4, 10.0))
    quotes = QuoteColumns(*np.array([
        (2.5, 99.0, 101.0),   # trades at 1, 2 -> 20 over window 2
        (4.0, 99.5, 100.5),   # trades at 3, 4 (window (2, 4])
        (0.5, 99.0, 101.0),   # no trailing flow -> rejected
        (3.0, 101.0, 99.0),   # crossed -> rejected
    ]).T)
    samples = quotes_to_samples(quotes, trades, window=2.0)
    assert samples.volumes == pytest.approx([10.0, 10.0])
    assert samples.spreads == pytest.approx([2.0, 1.0])
    assert samples.n_rejected == 2
    assert samples.source is CurveSource.BID_ASK


def quotes_to_samples_reference(quotes, trades, window):
    """The per-quote loop: two scalar ``searchsorted`` calls per quote."""
    order = np.argsort(trades.timestamp, kind="stable")
    times = trades.timestamp[order]
    cumsize = np.concatenate(([0.0], np.cumsum(trades.size[order])))
    volumes, spreads, rejected = [], [], 0
    for t, bid, ask in zip(*(col.tolist() for col in (quotes.timestamp, quotes.bid, quotes.ask))):
        spread = ask - bid
        if spread < 0.0 or not math.isfinite(spread):
            rejected += 1
            continue
        hi = np.searchsorted(times, t, side="right")
        lo = np.searchsorted(times, t - window, side="right")
        v = (cumsize[hi] - cumsize[lo]) / window
        if v > 0.0:
            volumes.append(v)
            spreads.append(spread)
        else:
            rejected += 1
    return np.array(volumes), np.array(spreads), rejected


def test_quotes_to_samples_equals_the_per_quote_loop():
    """Bit for bit, on tapes with crossed, infinite and NaN quotes, trades out
    of order and cumulative sizes that overflow."""
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
        assert samples.n_rejected == rejected


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


def test_strict_product_mode_reports_identified_combination():
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES,
                                   noise_rel=0.0, seed=0)
    result = fit_bid_ask_curve(curve, FLOW, tau0=0.01, strict_product=True)
    assert result.rho_tau0_product == pytest.approx(1.2 * 0.01, rel=1e-6)
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


def test_execution_scale_mle():
    # constant samples: x0 = sqrt(mean(x^2)) = the constant
    assert fit_execution_scale(np.full(200, 2.5)) == pytest.approx(2.5)


def test_execution_scale_consistency(rng):
    # draws from p(x) = 2x/x0^2 exp(-(x/x0)^2) are Rayleigh(x0/sqrt(2))
    x0 = 1.7
    samples = rng.rayleigh(scale=x0 / math.sqrt(2.0), size=200_000)
    assert fit_execution_scale(samples) == pytest.approx(x0, rel=0.01)


def test_execution_scale_validation():
    with pytest.raises(InsufficientDataError):
        fit_execution_scale(np.ones(10))
    with pytest.raises(DomainError):
        fit_execution_scale(np.concatenate([np.ones(150), [-1.0]]))


# --------------------------------------------------------------------------
# the Levenberg-Marquardt fit: oracle and failure path
# --------------------------------------------------------------------------

def _weighted_sse(curve, spread):
    usable = [b for b in curve.usable() if math.isfinite(b.spread_q)]
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
        assert CliRunner().invoke(main, [*args, "--out", out]).exit_code == 0
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


def test_fit_covariance_is_the_gauss_newton_estimate():
    # res_var * (J^T J)^-1 with J from central differences of the law in
    # (lambda, rho): a strict-product fit reports rho's variance too.
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    usable = curve.usable()
    v = np.array([b.v_mid for b in usable])
    y = np.array([b.spread_q for b in usable])
    w = np.sqrt(np.array([b.count for b in usable], dtype=float))

    def residuals(lam, rho):
        return w * (FLOW.mean_price * bidask_spread_model(v, lam, rho, FLOW.sigma,
                                                          FLOW.n, 0.01) - y)

    for strict in (False, True):
        result = fit_bid_ask_curve(curve, FLOW, tau0=0.01, strict_product=strict)
        lam, rho = result.lambda_hat, result.rho_hat
        h_lam, h_rho = 1e-6 * lam, 1e-6 * rho
        jac = np.column_stack([
            (residuals(lam + h_lam, rho) - residuals(lam - h_lam, rho)) / (2.0 * h_lam),
            (residuals(lam, rho + h_rho) - residuals(lam, rho - h_rho)) / (2.0 * h_rho),
        ])
        res = residuals(lam, rho)
        cov = res @ res / (len(v) - 2) * np.linalg.inv(jac.T @ jac)
        assert result.covariance_diag == pytest.approx(np.diag(cov), rel=1e-6), strict


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
    assert math.isfinite(best.lambda_hat) and math.isfinite(best.rho_hat)
    assert best.lambda_hat > 0.0 and best.rho_hat > 0.0


def test_strict_fit_evaluation_cap_reports_rho_and_the_product(monkeypatch):
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    fitted = fit_bid_ask_curve(curve, FLOW, tau0=0.01, strict_product=True)
    monkeypatch.setattr(calibration, "_MAX_FIT_EVALS", 2)
    with pytest.raises(FitConvergenceError) as info:
        fit_bid_ask_curve(curve, FLOW, tau0=0.01, strict_product=True)
    best = info.value.best_so_far
    assert best.converged is False
    assert best.rho_hat == best.rho_tau0_product / 0.01
    assert best.rho_hat == pytest.approx(fitted.rho_hat, rel=1e-3)
    assert best.rho_tau0_product == pytest.approx(fitted.rho_tau0_product, rel=1e-3)


def test_fit_evaluation_cap_via_cli(tmp_path, monkeypatch):
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3)
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, curve)
    monkeypatch.setattr(calibration, "_MAX_FIT_EVALS", 1)
    res = CliRunner().invoke(main, ["calibrate", "--curve", path, "--n", "100",
                                    "--sigma", "0.02", "--price", "50", "--tau0", "0.01",
                                    "--min-count", "1", "--out", str(tmp_path)])
    assert res.exit_code == 4
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical failure")
    report = read_json_report(str(tmp_path / "calibration.json"))
    assert "did not converge" in report["error"]
    assert report["result"]["converged"] is False
    assert not (tmp_path / "overlay.csv").exists()


# --------------------------------------------------------------------------
# calibration report
# --------------------------------------------------------------------------

@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("kind", ["bidask", "bar"])
def test_calibration_report_round_trip(tmp_path, kind, strict):
    source = calibration.REPORT_KINDS[kind]
    horizon = 2.0 if source is CurveSource.BAR else None
    curve = synthetic_spread_curve(FLOW, 3.5, 1.2, 0.01, EDGES, noise_rel=0.05, seed=3,
                                   source=source, horizon_T=horizon)
    if source is CurveSource.BAR:
        result = fit_bar_curve(curve, horizon, FLOW, tau0=0.01, strict_product=strict)
    else:
        result = fit_bid_ask_curve(curve, FLOW, tau0=0.01, strict_product=strict)
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
