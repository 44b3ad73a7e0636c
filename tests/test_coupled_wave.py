"""Coupled-wave simulator: bars, volatility, amplitudes."""

import cmath
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadwave import (
    AmplitudeState,
    BarSample,
    CoupledWaveParams,
    DomainError,
    InsufficientDataError,
    LastPriceRule,
    PriceOperator2x2,
    VolumeConfig,
    bar_height_rayleigh_scale,
    eigen_decompose,
    evolve_amplitudes,
    evolve_fluctuating,
    impact_price,
    path_volatility,
    predicted_volatility,
    simulate_path,
    step_price,
    suggest_amplitude_dt,
)
from spreadwave import coupled_wave
from spreadwave.coupled_wave import RedrawCounter, path_rng

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------------
# eigenstructure
# --------------------------------------------------------------------------

def test_eigen_decompose_frozen():
    # s11 = s22 = 10, s12 = 1.5: mid 10, gap 2|s12| = 3
    hi, lo, h, mid = eigen_decompose(PriceOperator2x2(10.0, 10.0, 1.5))
    assert mid == 10.0
    assert h == 3.0
    assert hi == 11.5 and lo == 8.5


def test_eigen_decompose_diagonal():
    hi, lo, h, mid = eigen_decompose(PriceOperator2x2(12.0, 8.0, 0.0))
    assert (hi, lo, h, mid) == (12.0, 8.0, 4.0, 10.0)


@given(s11=finite, s22=finite, s12=finite)
@settings(max_examples=200, deadline=None)
def test_eigen_decompose_matches_numpy(s11, s22, s12):
    hi, lo, h, mid = eigen_decompose(PriceOperator2x2(s11, s22, s12))
    w = np.linalg.eigvalsh(np.array([[s11, s12], [s12, s22]]))
    assert hi == pytest.approx(w[1], abs=1e-9)
    assert lo == pytest.approx(w[0], abs=1e-9)
    assert h == pytest.approx(w[1] - w[0], abs=1e-9)
    assert mid == pytest.approx(0.5 * (w[0] + w[1]), abs=1e-9)


# --------------------------------------------------------------------------
# one-step transition and paths
# --------------------------------------------------------------------------

def test_step_price_frozen_dynamics():
    # all randomness degenerate: the bar collapses onto the input price
    p = CoupledWaveParams(sigma_step=0.0, xi_mean=0.0, xi_std=0.0,
                          kappa_mean=0.0, kappa_std=0.0)
    bar = step_price(100.0, p, path_rng(0))
    assert bar == BarSample(s_mid=100.0, s_high=100.0, s_low=100.0,
                            s_last=100.0, h=0.0)


def test_step_price_deterministic_offsets():
    # sigma=0, fixed xi/kappa means: envelope is exactly mid +/- h/2
    p = CoupledWaveParams(sigma_step=0.0, xi_mean=3.0, xi_std=0.0,
                          kappa_mean=4.0, kappa_std=0.0)
    bar = step_price(100.0, p, path_rng(1))
    assert bar.h == pytest.approx(5.0)          # hypot(3, 4)
    assert bar.s_high == pytest.approx(102.5)
    assert bar.s_low == pytest.approx(97.5)
    assert bar.s_low <= bar.s_last <= bar.s_high  # uniform rule


def test_simulate_path_reproducible_and_ordered():
    p = CoupledWaveParams(sigma_step=1e-3, xi_std=0.2, kappa_std=0.2, seed=5)
    a = simulate_path(p, 50.0, 500)
    b = simulate_path(p, 50.0, 500)
    assert np.array_equal(a.s_last, b.s_last)
    assert np.all(a.s_high >= a.s_mid) and np.all(a.s_mid >= a.s_low)
    assert np.all(a.s_mid > 0.0) and np.all(a.s_last > 0.0)


def test_simulate_path_distinct_path_indices():
    p = CoupledWaveParams(sigma_step=1e-3, xi_std=0.2, kappa_std=0.2, seed=5)
    a = simulate_path(p, 50.0, 100, path_index=0)
    b = simulate_path(p, 50.0, 100, path_index=1)
    assert not np.array_equal(a.s_last, b.s_last)


def test_volume_modes_do_not_perturb_bars():
    p = CoupledWaveParams(sigma_step=1e-3, xi_std=0.2, kappa_std=0.2, seed=9)
    kw = dict(s0=80.0, n_steps=200)
    none = simulate_path(p, volume=VolumeConfig(mode="none"), **kw)
    imp = simulate_path(p, volume=VolumeConfig(mode="impact"), **kw)
    logn = simulate_path(p, volume=VolumeConfig(mode="lognormal"), **kw)
    assert np.array_equal(none.s_last, imp.s_last)
    assert np.array_equal(none.s_last, logn.s_last)
    assert np.all(none.volume == 0.0)
    assert np.all(logn.volume > 0.0)


def test_impact_volume_inverts_impact_price():
    # volume column is defined so that impact_price recovers the bar height
    p = CoupledWaveParams(sigma_step=0.0, xi_std=0.1, kappa_std=0.1,
                          tau0=0.5, seed=11)
    n = 250.0
    series = simulate_path(p, 60.0, 50,
                           volume=VolumeConfig(mode="impact", avg_trade_size=n))
    for i in range(len(series)):
        if series.volume[i] <= 0.0:
            continue
        tau = n / series.volume[i]
        assert impact_price(series.s_mid[i], tau, p.tau0) == pytest.approx(
            series.h[i], rel=1e-12)


def test_path_volatility_needs_data():
    p = CoupledWaveParams(sigma_step=1e-3, seed=1)
    series = simulate_path(p, 50.0, 10)
    with pytest.raises(InsufficientDataError):
        path_volatility(series.s_last, series.s0)


def test_predicted_volatility_placement_coefficients():
    pu = CoupledWaveParams(sigma_step=0.0, xi_std=0.6, kappa_std=0.8,
                           last_price_rule=LastPriceRule.UNIFORM_IN_BAR)
    pn = CoupledWaveParams(sigma_step=0.0, xi_std=0.6, kappa_std=0.8,
                           last_price_rule=LastPriceRule.NORMAL_HALF_BAR)
    h_sq = 0.6 ** 2 + 0.8 ** 2
    assert predicted_volatility(pu, 100.0) == pytest.approx(
        math.sqrt(h_sq / 12.0), rel=1e-12)
    assert predicted_volatility(pn, 100.0) == pytest.approx(
        math.sqrt(h_sq / 4.0), rel=1e-12)


def test_rayleigh_scale_constant_heights():
    # all h = c gives sqrt(mean(h^2)/2) = c/sqrt(2)
    p = CoupledWaveParams(sigma_step=0.0, xi_mean=2.0, xi_std=0.0)
    series = simulate_path(p, 100.0, 50)
    assert bar_height_rayleigh_scale(series.h) == pytest.approx(
        2.0 / math.sqrt(2.0), rel=1e-12)


def test_redraw_counter_on_hostile_params():
    # sigma_step of 0.5 pushes the mid negative often; redraws must keep
    # every price positive instead of crashing.
    p = CoupledWaveParams(sigma_step=0.5, xi_std=0.0, kappa_std=0.0, seed=3)
    series = simulate_path(p, 1.0, 2000)
    assert series.redraws > 0
    assert np.all(series.s_mid > 0.0)
    assert np.all(series.s_last > 0.0)


# --------------------------------------------------------------------------
# amplitude evolution
# --------------------------------------------------------------------------

def rk4_evolution(state0, s_mid, xi, kappa, s, tau0, t_end, n_steps=20000):
    """Classical fixed-step RK4 for the two-level evolution equation."""
    op = np.array([[s_mid + 0.5 * xi, 0.5 * kappa],
                   [0.5 * kappa, s_mid - 0.5 * xi]], dtype=complex)

    def deriv(y):
        return (-1j / (tau0 * s)) * (op @ y)

    y = np.array([state0.psi_high, state0.psi_low], dtype=complex)
    dt = t_end / n_steps
    for _ in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_closed_form_matches_rk4():
    state0 = AmplitudeState(psi_high=0.6 + 0.0j, psi_low=0.8 + 0.0j)
    s_mid, xi, kappa, s, tau0, t = 101.3, 0.7, 0.4, 100.0, 2.0, 37.0
    y = rk4_evolution(state0, s_mid, xi, kappa, s, tau0, t)
    cf = evolve_amplitudes(state0, s_mid, xi, kappa, s, tau0, t)
    assert abs(cf.psi_high - y[0]) < 1e-6
    assert abs(cf.psi_low - y[1]) < 1e-6


@given(
    re_h=st.floats(-1, 1), im_h=st.floats(-1, 1),
    re_l=st.floats(-1, 1), im_l=st.floats(-1, 1),
    xi=finite, kappa=finite, t=st.floats(0.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_evolution_is_unitary(re_h, im_h, re_l, im_l, xi, kappa, t):
    state0 = AmplitudeState(complex(re_h, im_h), complex(re_l, im_l))
    out = evolve_amplitudes(state0, 100.0, xi, kappa, 100.0, 1.0, t)
    assert out.norm_sq() == pytest.approx(state0.norm_sq(), abs=1e-12)


def test_zero_gap_is_pure_phase():
    state0 = AmplitudeState(0.6 + 0.0j, 0.8 + 0.0j)
    out = evolve_amplitudes(state0, 50.0, 0.0, 0.0, 100.0, 1.0, 10.0)
    phase = cmath.exp(-1j * 50.0 * 10.0 / (1.0 * 100.0))
    assert abs(out.psi_high - phase * 0.6) < 1e-14
    assert abs(out.psi_low - phase * 0.8) < 1e-14
    assert out.populations() == pytest.approx(state0.populations(), abs=1e-15)


def test_population_oscillation_period():
    # xi=0: populations oscillate as cos^2(theta) with theta = h t / (2 tau0 s);
    # the state returns to the initial populations at theta = pi.
    s, tau0, kappa = 100.0, 1.0, 2.0
    t_period = 2.0 * math.pi * tau0 * s / abs(kappa)
    state0 = AmplitudeState(1.0 + 0.0j, 0.0j)
    out = evolve_amplitudes(state0, 100.0, 0.0, kappa, s, tau0, t_period)
    assert out.populations()[0] == pytest.approx(1.0, abs=1e-12)
    half = evolve_amplitudes(state0, 100.0, 0.0, kappa, s, tau0, 0.5 * t_period)
    assert half.populations()[1] == pytest.approx(1.0, abs=1e-12)


def test_evolve_fluctuating_trajectory_shape():
    p = CoupledWaveParams(sigma_step=1e-4, xi_std=0.3, kappa_std=0.3, seed=4)
    dt = suggest_amplitude_dt(p, 100.0)
    state0 = AmplitudeState(1.0 + 0.0j, 0.0j)
    state, traj = evolve_fluctuating(state0, p, 100.0, dt, 50,
                                     return_trajectory=True)
    assert traj.shape == (51, 2)
    assert traj[0] == pytest.approx([1.0, 0.0])
    assert np.all(traj >= 0.0)
    assert np.sum(traj[-1]) == pytest.approx(1.0, abs=1e-12)


def test_impact_price_frozen_values():
    assert impact_price(1.0, 2.0 * math.pi, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert impact_price(100.0, 1.0, 1.0 / (2.0 * math.pi)) == pytest.approx(
        100.0, rel=1e-12)


def test_validation_errors():
    with pytest.raises(DomainError):
        CoupledWaveParams(sigma_step=-0.1)
    with pytest.raises(DomainError):
        CoupledWaveParams(tau0=0.0)
    with pytest.raises(DomainError):
        step_price(-5.0, CoupledWaveParams(), path_rng(0))
    with pytest.raises(DomainError):
        evolve_amplitudes(AmplitudeState(1.0 + 0j, 0j), 1.0, 0.0, 1.0,
                          s=0.0, tau0=1.0, t=1.0)


# --------------------------------------------------------------------------
# block-drawn simulator against the one-step oracle
# --------------------------------------------------------------------------

class ReplayGenerator:
    """Hands pre-drawn variates to step_price in the order it asks for them."""

    def __init__(self, values):
        self._values = iter(values)

    def standard_normal(self):
        return next(self._values)

    def uniform(self, low, high):
        # numpy's Generator.uniform: low + (high - low) * next_double
        return low + (high - low) * next(self._values)


def step_price_oracle(params, s0, n_steps, path_index=0,
                      max_redraws=coupled_wave._MAX_REDRAWS):
    """Loop of step_price fed the variates of stream layout 2.

    Layout 2 keys the substreams of (seed, path_index) as 2: dz, 3: (xi,
    kappa), 4: placement, 5: positivity redraws.
    """
    seed = params.seed
    dz = path_rng(seed, path_index, 2).standard_normal(n_steps)
    xi_kappa = path_rng(seed, path_index, 3).standard_normal((2, n_steps))
    placement_rng = path_rng(seed, path_index, 4)
    if params.last_price_rule is LastPriceRule.UNIFORM_IN_BAR:
        placement = placement_rng.random(n_steps)
    else:
        placement = placement_rng.standard_normal(n_steps)
    variates = np.column_stack([dz, xi_kappa[0], xi_kappa[1], placement]).ravel()
    replay = ReplayGenerator(variates.tolist())
    redraw_rng = path_rng(seed, path_index, 5)
    counter = RedrawCounter()
    bars, s_last = [], s0
    for _ in range(n_steps):
        bar = step_price(s_last, params, replay, counter, max_redraws,
                         redraw_rng=redraw_rng)
        bars.append(bar)
        s_last = bar.s_last
    return bars, counter.count


@pytest.mark.parametrize("rule", list(LastPriceRule))
@pytest.mark.parametrize("params, s0, expect_redraws", [
    (dict(sigma_step=1e-4, xi_std=0.5, kappa_std=0.5, seed=42), 100.0, False),
    (dict(sigma_step=0.5, xi_std=0.5, kappa_std=0.5, xi_mean=0.2, seed=3), 1.0, True),
], ids=["cli_defaults", "hostile"])
def test_simulate_path_matches_step_price_bit_for_bit(rule, params, s0, expect_redraws):
    p = CoupledWaveParams(last_price_rule=rule, **params)
    n = 3000
    series = simulate_path(p, s0, n, path_index=2)
    bars, redraws = step_price_oracle(p, s0, n, path_index=2)
    for field in ("s_mid", "s_high", "s_low", "s_last", "h"):
        expected = np.array([getattr(bar, field) for bar in bars])
        assert getattr(series, field).tobytes() == expected.tobytes(), field
    assert series.redraws == redraws
    assert (redraws > 0) == expect_redraws


def test_step_price_redraws_default_to_the_main_generator():
    # Without redraw_rng, redraws come from rng, as in the original draw order.
    p = CoupledWaveParams(sigma_step=0.5, seed=0)
    a, b = path_rng(7), path_rng(7)
    bars_a = [step_price(1.0, p, a) for _ in range(200)]
    bars_b = [step_price(1.0, p, b, redraw_rng=b) for _ in range(200)]
    assert bars_a == bars_b


@pytest.mark.parametrize("field, value", [
    ("sigma_step", math.nan), ("sigma_step", math.inf), ("xi_mean", math.nan),
    ("xi_std", math.inf), ("kappa_mean", -math.inf), ("kappa_std", math.nan),
    ("tau0", math.inf), ("tau0", math.nan), ("seed", -1),
])
def test_params_reject_non_finite_and_out_of_range(field, value):
    with pytest.raises(DomainError, match=field):
        CoupledWaveParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("avg_trade_size", math.inf), ("log_mean", math.nan), ("log_sigma", math.inf),
])
@pytest.mark.parametrize("mode", ["impact", "lognormal", "none"])
def test_volume_config_rejects_non_finite(mode, field, value):
    with pytest.raises(DomainError, match=field):
        VolumeConfig(mode=mode, **{field: value})


@pytest.mark.parametrize("s0", [math.inf, math.nan, 0.0, -1.0])
def test_simulate_path_rejects_bad_start_price(s0):
    with pytest.raises(DomainError, match="s0"):
        simulate_path(CoupledWaveParams(), s0, 10)


def test_negative_path_index_rejected():
    # numpy's SeedSequence would raise a bare ValueError on the first draw.
    with pytest.raises(DomainError, match="path_index"):
        simulate_path(CoupledWaveParams(), 100.0, 10, path_index=-1)
    with pytest.raises(DomainError, match="path_index"):
        evolve_fluctuating(AmplitudeState(1.0 + 0j, 0j), CoupledWaveParams(), 100.0,
                           0.01, 10, path_index=-1)


def test_simulate_path_rejects_overflowing_prices():
    p = CoupledWaveParams(sigma_step=1e300, seed=1)
    with pytest.raises(DomainError, match="overflowed"):
        simulate_path(p, 1.0, 50)


_B = coupled_wave._BLOCK_ROWS


@pytest.mark.parametrize("rule", list(LastPriceRule))
@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + 3])
def test_simulate_path_matches_step_price_across_row_blocks(rule, n):
    # The recurrence runs block by block; the state it carries across a
    # block edge must be exactly step_price's, redraws included.
    p = CoupledWaveParams(sigma_step=0.5, xi_std=0.5, kappa_std=0.5, xi_mean=0.2,
                          seed=3, last_price_rule=rule)
    series = simulate_path(p, 1.0, n, path_index=2, volume=VolumeConfig())
    bars, redraws = step_price_oracle(p, 1.0, n, path_index=2)
    for field in ("s_mid", "s_high", "s_low", "s_last", "h"):
        expected = np.array([getattr(bar, field) for bar in bars])
        assert getattr(series, field).tobytes() == expected.tobytes(), field
    assert series.redraws == redraws > 0


@pytest.mark.parametrize("rule, seed", [(LastPriceRule.UNIFORM_IN_BAR, 6),
                                        (LastPriceRule.NORMAL_HALF_BAR, 3)])
def test_simulate_path_redraw_cap_matches_step_price(monkeypatch, rule, seed):
    # The cap counts a step's mid and last-price redraws together, so the
    # walk gives up for the same caps as step_price.  On the uniform path a
    # cap of 3 is exceeded only by a step's mid and last redraws combined.
    p = CoupledWaveParams(sigma_step=0.9, xi_std=0.5, kappa_std=0.5, seed=seed,
                          last_price_rule=rule)

    def first_failure(run):
        try:
            run()
        except DomainError as exc:
            assert "redraw limit" in str(exc)
            return True
        return False

    outcomes = []
    for cap in range(8):
        monkeypatch.setattr(coupled_wave, "_MAX_REDRAWS", cap)
        walk = first_failure(lambda: simulate_path(p, 1.0, 500))
        oracle = first_failure(lambda: step_price_oracle(p, 1.0, 500, max_redraws=cap))
        assert walk == oracle, cap
        outcomes.append(walk)
    assert outcomes[0] and not outcomes[-1]


# --------------------------------------------------------------------------
# evolve_fluctuating input contract and redraw cap
# --------------------------------------------------------------------------

def evolve_fluctuating_reference(state0, params, s_scale, dt, n_steps, path_index=0,
                                 trajectory=None, redraws=None, draws=None):
    """The per-step loop with the uncapped redraw it had before the cap.

    Appends the populations after each step to ``trajectory``, a step's
    index to ``redraws`` once per redraw of its mid, and each step's
    (s_mid, xi, kappa) to ``draws``, when given.
    """
    rng = path_rng(params.seed, path_index)
    state, s_mid = state0, s_scale
    for i in range(n_steps):
        step = s_mid * params.sigma_step * rng.standard_normal()
        while s_mid + step <= 0.0:
            if redraws is not None:
                redraws.append(i)
            step = s_mid * params.sigma_step * rng.standard_normal()
        s_mid = s_mid + step
        xi = params.xi_mean + params.xi_std * rng.standard_normal()
        kappa = params.kappa_mean + params.kappa_std * rng.standard_normal()
        if draws is not None:
            draws.append((s_mid, xi, kappa))
        state = evolve_amplitudes(state, s_mid, xi, kappa, s_scale, params.tau0, dt)
        if trajectory is not None:
            trajectory.append(state.populations())
    return state


# The kernel multiplies a block's step unitaries in another order than the
# loop does, so its amplitudes and populations match the loop's within this
# bound, not bit for bit; its draws match bit for bit.
_AMPLITUDE_TOL = 1e-12


def _kernel_draws(params, n_steps, path_index=0):
    """The (s_mid, xi, kappa) of every step, as ``evolve_fluctuating`` draws them."""
    blocks = coupled_wave._coefficient_blocks(path_rng(params.seed, path_index), params,
                                              100.0, n_steps)
    return [step for block in blocks for step in zip(*(x.tolist() for x in block))]


def _assert_close(state, expected):
    assert abs(state.psi_high - expected.psi_high) <= _AMPLITUDE_TOL, (state, expected)
    assert abs(state.psi_low - expected.psi_low) <= _AMPLITUDE_TOL, (state, expected)


def test_evolve_fluctuating_capped_redraws_keep_the_stream():
    # sigma_step 0.9 redraws on about one step in eight.
    p = CoupledWaveParams(sigma_step=0.9, xi_std=0.3, kappa_std=0.3, seed=5)
    state0, draws = AmplitudeState(1.0 + 0.0j, 0.0j), []
    expected = evolve_fluctuating_reference(state0, p, 100.0, 0.01, 2000, draws=draws)
    assert _kernel_draws(p, 2000) == draws
    _assert_close(evolve_fluctuating(state0, p, 100.0, 0.01, 2000), expected)


_SMALL_B = 8


def _assert_kernel_equals_loop(state0, params, n_steps, path_index=0):
    """``evolve_fluctuating`` draws what the reference loop draws, bit for bit,
    and ends within ``_AMPLITUDE_TOL`` of its amplitudes and populations,
    with and without its trajectory; returns the reference's ``redraws``."""
    populations, redraws, draws = [state0.populations()], [], []
    expected = evolve_fluctuating_reference(state0, params, 100.0, 0.01, n_steps, path_index,
                                            populations, redraws, draws)
    assert _kernel_draws(params, n_steps, path_index) == draws
    state, trajectory = evolve_fluctuating(state0, params, 100.0, 0.01, n_steps, path_index,
                                           return_trajectory=True)
    _assert_close(state, expected)
    assert trajectory.shape == (n_steps + 1, 2)
    assert np.max(np.abs(trajectory - populations)) <= _AMPLITUDE_TOL
    _assert_close(evolve_fluctuating(state0, params, 100.0, 0.01, n_steps, path_index),
                  expected)
    return redraws


@pytest.mark.parametrize("n", [_SMALL_B - 1, _SMALL_B, _SMALL_B + 1, 2 * _SMALL_B + 3])
@pytest.mark.parametrize("params, path_index", [
    (CoupledWaveParams(sigma_step=0.01, xi_mean=0.1, xi_std=0.3, kappa_std=0.2, seed=2), 0),
    (CoupledWaveParams(sigma_step=0.9, xi_std=0.3, kappa_std=0.3, seed=5), 3),
    (CoupledWaveParams(sigma_step=0.9, seed=7), 1),  # h == 0: every step a pure phase
])
def test_evolve_fluctuating_blocks_equal_the_loop(monkeypatch, n, params, path_index):
    monkeypatch.setattr(coupled_wave, "_BLOCK_ROWS", _SMALL_B)
    _assert_kernel_equals_loop(AmplitudeState(0.6 + 0.0j, 0.8j), params, n, path_index)


def _redraw_places(redraws, n_block):
    """Where each redrawing step falls in its block: a block holds up to
    ``n_block`` steps and ends early at a redraw; the next starts after it."""
    places, start = {}, 0
    for r in sorted(set(redraws)):
        start += (r - start) // n_block * n_block
        places[r] = ("first" if r == start else
                     "last" if r == start + n_block - 1 else "inner")
        start = r + 1
    return places


def test_evolve_fluctuating_redraws_at_block_edges_equal_the_loop(monkeypatch):
    # sigma_step 1 redraws on about one step in six; seed 19 redraws on the
    # last step of the first block, then on the next step, and later again
    # on first steps and on consecutive steps.
    monkeypatch.setattr(coupled_wave, "_BLOCK_ROWS", _SMALL_B)
    p = CoupledWaveParams(sigma_step=1.0, xi_std=0.3, kappa_std=0.3, seed=19)
    state0, n = AmplitudeState(1.0 + 0.0j, 0.0j), 2 * _SMALL_B + 3
    redraws = _assert_kernel_equals_loop(state0, p, n)
    places = _redraw_places(redraws, _SMALL_B)
    assert {"first", "last"} <= set(places.values()), places
    assert any(r + 1 in places for r in places), places
    # The cap counts the redraws of the step, not the rewound draws before it.
    most = max(collections.Counter(redraws).values())
    monkeypatch.setattr(coupled_wave, "_MAX_REDRAWS", most)
    evolve_fluctuating(state0, p, 100.0, 0.01, n)
    monkeypatch.setattr(coupled_wave, "_MAX_REDRAWS", most - 1)
    with pytest.raises(DomainError, match="redraw limit"):
        evolve_fluctuating(state0, p, 100.0, 0.01, n)


def test_evolve_fluctuating_keeps_the_norm_over_100k_steps():
    # The benchmark's amplitude run: about 49 blocks of reassociated products.
    p = CoupledWaveParams(sigma_step=1e-4, xi_std=0.5, kappa_std=0.5, seed=1)
    dt = suggest_amplitude_dt(p, 100.0)
    state0 = AmplitudeState(0.6 + 0.0j, 0.8j)
    state = evolve_fluctuating(state0, p, 100.0, dt, 100_000)
    assert abs(state.norm_sq() - 1.0) <= 1e-12
    end, trajectory = evolve_fluctuating(state0, p, 100.0, dt, 100_000, return_trajectory=True)
    assert np.max(np.abs(trajectory.sum(axis=1) - 1.0)) <= 1e-12
    _assert_close(end, state)


def test_evolve_fluctuating_redraw_cap(monkeypatch):
    monkeypatch.setattr(coupled_wave, "_MAX_REDRAWS", 1)
    p = CoupledWaveParams(sigma_step=0.9, xi_std=0.3, kappa_std=0.3, seed=5)
    with pytest.raises(DomainError, match="redraw limit"):
        evolve_fluctuating(AmplitudeState(1.0 + 0.0j, 0.0j), p, 100.0, 0.01, 2000)


@pytest.mark.parametrize("sigma_step, s_scale, n_steps", [
    (1e300, 100.0, 5), (0.5, 1e308, 50),
])
def test_evolve_fluctuating_rejects_an_overflowing_mid_walk(sigma_step, s_scale, n_steps):
    # Without the check, both end in AmplitudeState(nan+nanj, nan+nanj).
    p = CoupledWaveParams(sigma_step=sigma_step, xi_std=0.3, kappa_std=0.3)
    with pytest.raises(DomainError, match="simulated prices overflowed"):
        evolve_fluctuating(AmplitudeState(1.0 + 0.0j, 0.0j), p, s_scale, 0.01, n_steps)


@pytest.mark.parametrize("name, value", [
    ("s_scale", math.inf), ("s_scale", math.nan), ("s_scale", 0.0),
    ("dt", math.inf), ("dt", math.nan), ("dt", -1.0),
])
def test_evolve_fluctuating_rejects_bad_scale_and_step(name, value):
    kwargs = {"s_scale": 100.0, "dt": 0.01, name: value}
    with pytest.raises(DomainError, match=name):
        evolve_fluctuating(AmplitudeState(1.0 + 0.0j, 0.0j), CoupledWaveParams(xi_std=0.3),
                           n_steps=10, **kwargs)
