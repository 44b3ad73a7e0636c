"""Release gate: one test per shipped guarantee.

Each test prints one pass/fail line under ``pytest -v``.  Tolerances are the
contractual ones; the frozen seeds were chosen once and verified against
independent oracles (quadrature, classical RK4, fine grid searches) before
being committed.
"""

import hashlib
import math
import os

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from cli_runner import invoke
from synthetic import synthetic_spread_curve

from spreadwave import (
    STRADDLE_LAMBDA,
    AmplitudeState,
    CoupledWaveParams,
    CurveSource,
    DimensionlessSpreadParams,
    ExecutionModel,
    FlowStats,
    LastPriceRule,
    LinearSpreadLaw,
    PnLParams,
    SpreadModelParams,
    SpreadSurfaceParams,
    VolumeConfig,
    bar_spread_with_volume,
    basic_spread,
    classical_scale,
    dimensionless_law,
    evolve_amplitudes,
    evolve_fluctuating,
    execution_density,
    execution_rate,
    fit_bar_curve,
    fit_bid_ask_curve,
    general_spread,
    general_spread_dimensionless,
    optimize_spread,
    policy_curve,
    predicted_volatility,
    path_volatility,
    scale_spread_time,
    simulate_path,
    spread_minimum,
    straddle_spread,
    suggest_amplitude_dt,
)


def test_criterion_01_minimum_spread_identity():
    minimum = spread_minimum(10.0)
    assert minimum.v_min == pytest.approx(5.0 ** (1.0 / 3.0), rel=1e-15)
    assert minimum.delta_min == pytest.approx(
        math.sqrt(3.0) * 5.0 ** (1.0 / 3.0), rel=1e-15)
    # independent check: brute-force grid minimization of the curve itself
    grid = np.geomspace(minimum.v_min / 100.0, minimum.v_min * 100.0, 2_000_001)
    values = np.sqrt(10.0 / grid + grid * grid)
    assert abs(float(values.min()) - minimum.delta_min) < 1e-6


def test_criterion_02_dimensional_dimensionless_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params = SpreadModelParams(
            price_s=float(rng.uniform(0.1, 5000.0)),
            sigma=float(rng.uniform(1e-5, 0.5)),
            lambda_risk=float(rng.uniform(0.1, 10.0)),
            rho_risk=float(rng.uniform(0.1, 10.0)),
            avg_trade_size_n=float(rng.uniform(1.0, 1e4)),
            tau0=float(rng.uniform(1e-4, 100.0)),
        )
        V = float(rng.uniform(1e-2, 1e6))
        dimless = DimensionlessSpreadParams.from_model(params)
        money = general_spread(params, V)
        reduced = params.price_s * general_spread_dimensionless(
            dimless.a_coeff, V / dimless.v0_scale)
        assert money == pytest.approx(reduced, rel=1e-12)


def test_criterion_03_straddle_consistency():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = float(rng.uniform(0.5, 2000.0))
        sigma = float(rng.uniform(1e-4, 0.3))
        tau = float(rng.uniform(1e-3, 1e4))
        n = float(rng.uniform(1.0, 1e5))
        params = SpreadModelParams(
            price_s=s, sigma=sigma, lambda_risk=STRADDLE_LAMBDA,
            rho_risk=1.0, avg_trade_size_n=n, tau0=1.0,
        )
        a = straddle_spread(s, sigma, tau)
        b = basic_spread(params, n / tau)
        assert abs(a - b) <= 1e-15 * max(abs(a), abs(b))


def test_criterion_04_unitarity_and_rk4_agreement():
    # norm conservation over a long fluctuating evolution
    params = CoupledWaveParams(sigma_step=1e-4, xi_std=0.4, kappa_std=0.4,
                               seed=2024)
    dt = suggest_amplitude_dt(params, 100.0)
    state0 = AmplitudeState(psi_high=1.0 + 0.0j, psi_low=0.0j)
    final = evolve_fluctuating(state0, params, 100.0, dt, 10_000)
    assert abs(final.norm_sq() - 1.0) < 1e-9

    # closed form vs classical RK4 on constant coefficients
    s_mid, xi, kappa, s, tau0, t_total = 101.3, 0.7, 0.4, 100.0, 2.0, 37.0
    state0 = AmplitudeState(psi_high=0.6 + 0.0j, psi_low=0.8 + 0.0j)
    y = np.array([state0.psi_high, state0.psi_low], dtype=complex)
    op = np.array([[s_mid + xi / 2.0, kappa / 2.0],
                   [kappa / 2.0, s_mid - xi / 2.0]])

    def deriv(state):
        return (-1j / (tau0 * s)) * (op @ state)

    n_steps = 20_000
    h = t_total / n_steps
    for _ in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    closed = evolve_amplitudes(state0, s_mid, xi, kappa, s, tau0, t_total)
    assert abs(closed.psi_high - y[0]) < 1e-6
    assert abs(closed.psi_low - y[1]) < 1e-6


def test_criterion_05_transfer_timing():
    # with no level splitting, population swaps fully at t = pi*tau0*s/h
    s, tau0, kappa = 100.0, 1.5, 0.8
    t_transfer = math.pi * tau0 * s / kappa
    times = np.linspace(0.0, 1.2 * t_transfer, 20_001)
    step = times[1] - times[0]
    state0 = AmplitudeState(psi_high=1.0 + 0.0j, psi_low=0.0j)
    p_low = np.array([
        evolve_amplitudes(state0, s, 0.0, kappa, s, tau0, t).populations()[1]
        for t in times
    ])
    first_peak = times[int(np.argmax(p_low))]
    assert abs(first_peak - t_transfer) <= step
    # the peak sits between grid points; quadratic falloff bounds the miss
    assert p_low.max() > 1.0 - 1e-8


def test_criterion_06_volatility_closure():
    for rule, tolerance in ((LastPriceRule.UNIFORM_IN_BAR, 0.02),
                            (LastPriceRule.NORMAL_HALF_BAR, 0.02)):
        params = CoupledWaveParams(sigma_step=2e-5, xi_std=0.5, kappa_std=0.5,
                                   tau0=1.0, last_price_rule=rule, seed=123)
        series = simulate_path(params, 10_000.0, 100_000,
                               volume=VolumeConfig(mode="none"))
        empirical = path_volatility(series.s_last, series.s0)
        predicted = predicted_volatility(params, 10_000.0)
        assert abs(empirical - predicted) / predicted < tolerance


def test_criterion_07_rayleigh_bar_statistics():
    params = CoupledWaveParams(sigma_step=1e-4, xi_std=0.3, kappa_std=0.3,
                               seed=777)
    series = simulate_path(params, 100.0, 100_000,
                           volume=VolumeConfig(mode="none"))
    statistic, pvalue = scipy.stats.kstest(series.h, "rayleigh",
                                           args=(0.0, 0.3))
    assert pvalue > 0.01, f"KS D={statistic:.6f}, p={pvalue:.4f}"


def test_criterion_08_execution_rate_law():
    for lambda0 in (0.7, 1.0, 2.3):
        model = ExecutionModel(lambda0=lambda0)
        assert execution_rate(model, lambda0) == math.exp(-1.0)
        # survival integral of the density must reproduce the rate
        for lam in (0.0, 0.5 * lambda0, lambda0, 2.0 * lambda0):
            integral, _ = scipy.integrate.quad(
                lambda x: execution_density(model, x), lam, np.inf)
            assert abs(integral - execution_rate(model, lam)) < 1e-8


def test_criterion_09_calibration_round_trip():
    lam_true, rho_true, tau0 = 3.5, 1.2, 0.01
    flow = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=50.0)
    edges = np.geomspace(10.0, 1000.0, 25)

    for source, fitter, offset in (
        (CurveSource.BID_ASK,
         lambda c: fit_bid_ask_curve(c, flow=flow, tau0=tau0), 0),
        (CurveSource.BAR,
         lambda c: fit_bar_curve(c, horizon_T=1.0, flow=flow, tau0=tau0),
         10_000),
    ):
        successes = 0
        for rep in range(100):
            curve = synthetic_spread_curve(
                flow, lam_true, rho_true, tau0, edges, noise_rel=0.05,
                seed=offset + rep, source=source,
                horizon_T=1.0 if source is CurveSource.BAR else None,
            )
            try:
                result = fitter(curve)
            except Exception:
                continue
            if (abs(result.lambda_hat / lam_true - 1.0) <= 0.07
                    and abs(result.rho_hat / rho_true - 1.0) <= 0.07):
                successes += 1
        assert successes >= 90, f"{source.value}: {successes}/100 within 7%"


def test_criterion_10_optimizer_correctness():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        slope = float(rng.uniform(0.3, 5.0))
        alpha = float(rng.uniform(0.0, 4.0))
        lambda0 = float(rng.uniform(0.5, 5.0))
        law = LinearSpreadLaw(lambda v: slope, lambda_ref=1.0)
        params = PnLParams(commission_alpha=alpha, volume_v=10.0,
                           spread_law=law)
        res = optimize_spread(params, ExecutionModel(lambda0=lambda0))
        assert abs(res.stationarity_residual) < 1e-8

        # fine-grid oracle with a random sub-step offset, so the grid is
        # never aligned with the analytic solution
        lam_cf = (alpha + math.sqrt(alpha * alpha
                                    + 2.0 * slope * slope * lambda0 * lambda0)
                  ) / (2.0 * slope)
        grid = (lam_cf - 0.05 + float(rng.uniform(0.0, 1e-4))
                + 1e-4 * np.arange(1001))
        pnl = 0.5 * np.exp(-((grid / lambda0) ** 2)) * 10.0 \
            * (slope * grid - alpha)
        best = float(grid[int(np.argmax(pnl))])
        assert abs(res.lambda_opt - best) <= 1e-4 + 1e-12
        assert abs(res.lambda_opt - lam_cf) < 1e-7

    # commission-free pure-linear case has the closed form lambda0/sqrt(2)
    for lambda0 in (0.5, 1.0, 3.0):
        law = LinearSpreadLaw(lambda v: 1.7, lambda_ref=1.0)
        params = PnLParams(commission_alpha=0.0, volume_v=5.0, spread_law=law)
        res = optimize_spread(params, ExecutionModel(lambda0=lambda0))
        assert abs(res.lambda_opt - lambda0 / math.sqrt(2.0)) < 1e-8


def test_criterion_11_demo_operating_bands():
    a, alpha, lambda0 = 10.0, 3.0, 3.0
    lambda_ref = 0.4 * lambda0
    law = dimensionless_law(a, lambda_ref)
    v_min = (a / 2.0) ** (1.0 / 3.0)
    grid = np.geomspace(v_min / 4.0, 4.0 * v_min, 41)
    policy = policy_curve(grid, ExecutionModel(lambda0=lambda0), law, alpha)

    assert not policy.failures
    assert not policy.halt.any()
    reference = np.array([law.delta(lambda_ref, v) for v in grid])
    ratio = policy.spread_opt / reference
    assert ratio.min() >= 1.5 and ratio.max() <= 2.5
    assert policy.exec_rate.min() >= 0.40 and policy.exec_rate.max() <= 0.60
    assert np.all(policy.pnl_opt >= policy.pnl_naive - 1e-12)


def test_criterion_12_scaling_laws():
    spread, eta, lam, t1 = 2.0, 0.8, 1.6, 1.0
    # exact identity at the base horizon
    assert scale_spread_time(spread, eta, lam, t1, t1) == spread
    # large-horizon ratio approaches the classical sqrt growth of lam*eta
    t2 = 1e6 * t1
    target = lam * eta * math.sqrt(t2 / t1)
    assert scale_spread_time(spread, eta, lam, t1, t2) == pytest.approx(
        target, rel=1e-3)
    assert classical_scale(spread, t1, t2) == spread * math.sqrt(t2 / t1)

    # bar curves keep a positive floor at zero volume
    params = SpreadSurfaceParams(lambda_risk=1.5, rho_risk=1.0,
                                 sigma_tau=0.02, n=100.0, tau0=0.01)
    floor = bar_spread_with_volume(params, 50.0, 0.0, 4.0)
    assert floor == pytest.approx(50.0 * 1.5 * 0.02 * 2.0, rel=1e-12)
    values = [bar_spread_with_volume(params, 50.0, v, 4.0)
              for v in np.linspace(0.0, 500.0, 51)]
    assert all(b > a for a, b in zip(values, values[1:]))

    # bid-ask curves instead diverge at small volume with an interior minimum
    a_coeff = 10.0
    v_min = (a_coeff / 2.0) ** (1.0 / 3.0)
    grid = np.geomspace(v_min / 1000.0, v_min * 1000.0, 2001)
    curve = np.array([general_spread_dimensionless(a_coeff, v) for v in grid])
    k = int(np.argmin(curve))
    assert 0 < k < len(grid) - 1
    assert grid[k] == pytest.approx(v_min, rel=1e-2)
    assert curve[0] > 10.0 * curve[k] and curve[-1] > 10.0 * curve[k]
    assert np.all(np.diff(curve[:k]) < 0.0) and np.all(np.diff(curve[k:]) > 0.0)


_PIPELINE = (
    ["simulate", "--steps", "5000", "--seed", "42", "--sigma-step", "0.0002",
     "--xi-std", "0.05", "--kappa-std", "0.05", "--s0", "100",
     "--tau0", "1.0"],
    ["curve", "--bars", "bars.csv", "--quantile", "0.9"],
    ["calibrate", "--curve", "curve.csv", "--kind", "bar", "--horizon", "1.0",
     "--n", "100", "--sigma", "0.02", "--price", "100"],
    ["optimize", "--calibration", "calibration.json", "--alpha", "0.001",
     "--lambda0", "3.0"],
)

_PIPELINE_OUTPUTS = (
    "bars.csv", "simulate_report.json",
    "curve.csv", "curve_hist.csv", "curve_report.json",
    "calibration.json", "overlay.csv",
    "policy.csv", "optimize_report.json",
)


def test_criterion_13_pipeline_determinism(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("SPREADWAVE_")]:
        monkeypatch.delenv(key)

    digests = []
    for run in ("first", "second"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        for command in _PIPELINE:
            result = invoke(command, catch_exceptions=False)
            assert result.exit_code == 0, f"{command[0]}: {result.output}"
        digests.append({
            name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in _PIPELINE_OUTPUTS
        })
    assert digests[0] == digests[1]
