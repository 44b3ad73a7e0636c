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
    VolumeConfig,
    bar_height_rayleigh_scale,
    evolve_amplitudes,
    evolve_fluctuating,
    path_volatility,
    predicted_volatility,
    simulate_path,
    step_price,
    suggest_amplitude_dt,
)
from spreadwave import coupled_wave, errors
from spreadwave.coupled_wave import RedrawCounter, path_rng, simulate_blocks

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------------
# eigenstructure
# --------------------------------------------------------------------------

@given(xi_mean=finite, kappa_mean=finite, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_bar_envelope_is_the_price_operator_spectrum(xi_mean, kappa_mean, seed):
    # The low and high of each bar are the eigenvalues of the Hermitian price
    # operator built from the step's mid and drawn (xi, kappa).
    p = CoupledWaveParams(sigma_step=1e-3, xi_mean=xi_mean, xi_std=0.5,
                          kappa_mean=kappa_mean, kappa_std=0.5, seed=seed)
    series = simulate_path(p, 100.0, 40, path_index=1)
    # Stream layouts 2 and 3 draw every xi normal, then every kappa normal, from
    # substream 3.
    normals = path_rng(seed, 1, 3).standard_normal((2, 40))
    xi, kappa = xi_mean + 0.5 * normals[0], kappa_mean + 0.5 * normals[1]
    ops = np.empty((40, 2, 2))
    ops[:, 0, 0] = series.s_mid + 0.5 * xi
    ops[:, 1, 1] = series.s_mid - 0.5 * xi
    ops[:, 0, 1] = ops[:, 1, 0] = 0.5 * kappa
    w = np.linalg.eigvalsh(ops)
    assert np.allclose(series.s_low, w[:, 0], rtol=0.0, atol=1e-9)
    assert np.allclose(series.s_high, w[:, 1], rtol=0.0, atol=1e-9)
    assert np.allclose(series.h, w[:, 1] - w[:, 0], rtol=0.0, atol=1e-9)


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
    # The volume column is defined so that the impact price 2 pi tau0 s / tau,
    # at the transaction time tau = n / V, recovers the bar height.
    p = CoupledWaveParams(sigma_step=1e-3, xi_std=0.1, kappa_std=0.1,
                          tau0=0.5, seed=11)
    n = 250.0
    series = simulate_path(p, 60.0, 50,
                           volume=VolumeConfig(mode="impact", avg_trade_size=n))
    assert np.all(series.volume > 0.0)
    assert np.allclose(2.0 * math.pi * p.tau0 * series.s_mid * series.volume / n,
                       series.h, rtol=1e-12, atol=0.0)


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
                      max_redraws=coupled_wave._MAX_REDRAWS, restarts=None):
    """Loop of step_price fed the variates of stream layout 3; returns the
    bars and the redraws of each step.

    Layout 3 keys the substreams of (seed, path_index) as 2: dz, 3: (xi,
    kappa), 4: placement, 5: positivity redraws.  ``restarts`` maps a row to
    the last price the walk restarts from at that row.
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
    bars, used, s_last = [], [], s0
    for row in range(n_steps):
        s_last = (restarts or {}).get(row, s_last)
        before = counter.count
        bar = step_price(s_last, params, replay, counter, max_redraws,
                         redraw_rng=redraw_rng)
        bars.append(bar)
        used.append(counter.count - before)
        s_last = bar.s_last
    return bars, used


# A scanned block reassociates the walk's arithmetic, so its mids and last
# prices match step_price's within a relative bound, not bit for bit.
# Measured over seeds 0-199: at most 1.4e-14 in 3000 steps at the CLI
# defaults, and 7.7e-13 in 8-step blocks at sigma_step 0.3 from a price of
# 1, where a last price can fall close to 0.  A short last block at
# sigma_step 0.5 stayed within 6.7e-16 (seeds 0-29).
_SCAN_TOL = 1e-13
_HOSTILE_SCAN_TOL = 4e-12


def _walk_errors(monkeypatch, params, s0, n, path_index=2):
    """Run ``simulate_blocks`` against ``step_price_oracle`` restarted at each
    block's s0; returns, per block, whether it re-walked, and the largest
    relative error of its mids and last prices.

    Each block must count the oracle's redraws, hold its heights bit for
    bit, and, where it re-walked, its prices too; a scanned block redraws
    nothing.
    """
    real, calls = coupled_wave._walked_block, []
    monkeypatch.setattr(coupled_wave, "_walked_block",
                        lambda *args: calls.append(args) or real(*args))
    blocks, walked = [], []
    for block in simulate_blocks(params, s0, n, path_index, VolumeConfig()):
        blocks.append(block)
        walked.append(bool(calls))
        calls.clear()
    rows = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    bars, used = step_price_oracle(params, s0, n, path_index,
                                   restarts={row: b.s0 for row, b in zip(rows, blocks)})
    worst = []
    for block, lo, hi, rewalked in zip(blocks, rows, rows[1:], walked):
        expected = {field: np.array([getattr(bar, field) for bar in bars[lo:hi]])
                    for field in ("s_mid", "s_high", "s_low", "s_last", "h")}
        assert block.redraws == sum(used[lo:hi])
        assert rewalked or block.redraws == 0
        assert block.h.tobytes() == expected["h"].tobytes()
        if rewalked:
            for field, values in expected.items():
                assert getattr(block, field).tobytes() == values.tobytes(), field
        worst.append(max(float(np.max(np.abs(getattr(block, field) / expected[field] - 1.0)))
                           for field in ("s_mid", "s_last")))
    return walked, worst


@pytest.mark.parametrize("rule", list(LastPriceRule))
@pytest.mark.parametrize("params, s0", [
    (dict(sigma_step=0.5, xi_std=0.5, kappa_std=0.5, xi_mean=0.2, seed=3), 1.0),
], ids=["hostile"])
def test_simulate_path_matches_step_price_bit_for_bit(monkeypatch, rule, params, s0):
    # Every block of this walk redraws, so every block re-walks, and the
    # whole path is step_price's, bit for bit.
    p = CoupledWaveParams(last_price_rule=rule, **params)
    n = 3000
    series = simulate_path(p, s0, n, path_index=2)
    bars, used = step_price_oracle(p, s0, n, path_index=2)
    for field in ("s_mid", "s_high", "s_low", "s_last", "h"):
        expected = np.array([getattr(bar, field) for bar in bars])
        assert getattr(series, field).tobytes() == expected.tobytes(), field
    assert series.redraws == sum(used) > 0
    walked, _ = _walk_errors(monkeypatch, p, s0, n)
    assert walked == [True, True]


@pytest.mark.parametrize("rule", list(LastPriceRule))
@pytest.mark.parametrize("params, s0", [
    (dict(sigma_step=1e-4, xi_std=0.5, kappa_std=0.5, seed=42), 100.0),
], ids=["cli_defaults"])
def test_scanned_walk_matches_step_price_within_bound(monkeypatch, rule, params, s0):
    # No step of this walk redraws, so every block scans.
    p = CoupledWaveParams(last_price_rule=rule, **params)
    walked, worst = _walk_errors(monkeypatch, p, s0, 3000)
    assert walked == [False, False]
    assert max(worst) <= _SCAN_TOL


def test_step_price_redraws_default_to_the_main_generator():
    # Without redraw_rng, redraws come from rng, as in the original draw order.
    p = CoupledWaveParams(sigma_step=0.5, seed=0)
    a, b = path_rng(7), path_rng(7)
    bars_a = [step_price(1.0, p, a) for _ in range(200)]
    bars_b = [step_price(1.0, p, b, redraw_rng=b) for _ in range(200)]
    assert bars_a == bars_b


def test_step_price_height_is_the_array_hypot():
    # The simulator's blocks take their heights from np.hypot over arrays;
    # step_price's scalar call gives the same values, bit for bit, also where
    # math.hypot would differ in the last bit.
    xi, kappa = path_rng(11).standard_normal((2, 20_000))
    p = [CoupledWaveParams(xi_mean=x, kappa_mean=k) for x, k in zip(xi[:200], kappa[:200])]
    heights = [step_price(1e6, q, path_rng(0)).h for q in p]
    assert np.array(heights).tobytes() == np.hypot(xi[:200], kappa[:200]).tobytes()
    scalar = np.array([float(np.hypot(x, k)) for x, k in zip(xi.tolist(), kappa.tolist())])
    assert scalar.tobytes() == np.hypot(xi, kappa).tobytes()
    assert any(math.hypot(x, k) != h for x, k, h in zip(xi.tolist(), kappa.tolist(),
                                                         scalar.tolist()))


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


_B = errors._BLOCK_ROWS


@pytest.mark.parametrize("rule", list(LastPriceRule))
@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + 3])
def test_simulate_path_matches_step_price_across_row_blocks(monkeypatch, rule, n):
    # The recurrence runs block by block; the state it carries across a
    # block edge must be exactly step_price's, redraws included.  Every full
    # block of this walk redraws; a short last block may scan.
    p = CoupledWaveParams(sigma_step=0.5, xi_std=0.5, kappa_std=0.5, xi_mean=0.2,
                          seed=3, last_price_rule=rule)
    series = simulate_path(p, 1.0, n, path_index=2, volume=VolumeConfig())
    walked, worst = _walk_errors(monkeypatch, p, 1.0, n)
    assert all(walked[:n // _B])
    assert max(worst) <= _SCAN_TOL
    bars, used = step_price_oracle(p, 1.0, n, path_index=2)
    assert series.redraws == sum(used) > 0


@pytest.mark.parametrize("rule", list(LastPriceRule))
def test_scanned_and_rewalked_blocks_carry_the_walk(monkeypatch, rule):
    # In blocks of 8 steps at sigma_step 0.3, some blocks scan and some
    # redraw; a block's walk starts from the previous block's last price,
    # scanned or re-walked.
    monkeypatch.setattr(errors, "_BLOCK_ROWS", 8)
    p = CoupledWaveParams(sigma_step=0.3, xi_std=0.05, kappa_std=0.05, seed=4,
                          last_price_rule=rule)
    walked, worst = _walk_errors(monkeypatch, p, 1.0, 400)
    pairs = set(zip(walked, walked[1:]))
    assert {(False, True), (True, False)} <= pairs, walked
    assert max(worst) <= _HOSTILE_SCAN_TOL
    series = simulate_path(p, 1.0, 400)
    assert np.all(series.s_mid > 0.0) and np.all(series.s_last > 0.0)


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
                                 redraws=None, draws=None):
    """The per-step loop of ``evolve_amplitudes`` calls, with an uncapped redraw.

    Each step draws one dz from substream 2 of (seed, path_index), moves the
    mid to s_mid (1 + sigma_step dz), redraws dz from substream 5 while that
    mid is non-positive, and draws its
    (xi, kappa) pair from substream 3.  Appends a step's index to
    ``redraws`` once per redraw of its mid, and each step's (s_mid, xi,
    kappa) to ``draws``, when given.
    """
    dz_rng, xi_kappa_rng, redraw_rng = (path_rng(params.seed, path_index, key)
                                        for key in (2, 3, 5))
    state, s_mid = state0, s_scale
    for i in range(n_steps):
        growth = 1.0 + params.sigma_step * dz_rng.standard_normal()
        while s_mid * growth <= 0.0:
            if redraws is not None:
                redraws.append(i)
            growth = 1.0 + params.sigma_step * redraw_rng.standard_normal()
        s_mid = s_mid * growth
        xi_normal, kappa_normal = xi_kappa_rng.standard_normal(2).tolist()
        xi = params.xi_mean + params.xi_std * xi_normal
        kappa = params.kappa_mean + params.kappa_std * kappa_normal
        if draws is not None:
            draws.append((s_mid, xi, kappa))
        state = evolve_amplitudes(state, s_mid, xi, kappa, s_scale, params.tau0, dt)
    return state


# The kernel multiplies a block's step unitaries in another order than the
# loop does, so its amplitudes match the loop's within this bound, not bit
# for bit; its draws match bit for bit.
_AMPLITUDE_TOL = 1e-12


def _kernel_draws(params, n_steps, path_index=0):
    """The (s_mid, xi, kappa) of every step, as ``evolve_fluctuating`` draws
    them, and the number of steps in each block."""
    blocks = list(coupled_wave._coefficient_blocks(params, 100.0, n_steps, path_index))
    return ([step for block in blocks for step in zip(*(x.tolist() for x in block))],
            [block[0].size for block in blocks])


def _assert_close(state, expected):
    assert abs(state.psi_high - expected.psi_high) <= _AMPLITUDE_TOL, (state, expected)
    assert abs(state.psi_low - expected.psi_low) <= _AMPLITUDE_TOL, (state, expected)


def test_evolve_fluctuating_capped_redraws_keep_the_stream():
    # sigma_step 0.9 redraws on about one step in eight.
    p = CoupledWaveParams(sigma_step=0.9, xi_std=0.3, kappa_std=0.3, seed=5)
    state0, draws = AmplitudeState(1.0 + 0.0j, 0.0j), []
    expected = evolve_fluctuating_reference(state0, p, 100.0, 0.01, 2000, draws=draws)
    assert _kernel_draws(p, 2000)[0] == draws
    _assert_close(evolve_fluctuating(state0, p, 100.0, 0.01, 2000), expected)


_SMALL_B = 8


def _assert_kernel_equals_loop(state0, params, n_steps, path_index=0):
    """``evolve_fluctuating``, run in blocks of ``_SMALL_B`` steps, draws what
    the reference loop draws, bit for bit, and ends within ``_AMPLITUDE_TOL``
    of its amplitudes; returns the reference's ``redraws``."""
    redraws, draws = [], []
    expected = evolve_fluctuating_reference(state0, params, 100.0, 0.01, n_steps, path_index,
                                            redraws, draws)
    kernel_draws, block_sizes = _kernel_draws(params, n_steps, path_index)
    assert kernel_draws == draws
    assert block_sizes == [min(_SMALL_B, n_steps - lo) for lo in range(0, n_steps, _SMALL_B)]
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
    monkeypatch.setattr(errors, "_BLOCK_ROWS", _SMALL_B)
    _assert_kernel_equals_loop(AmplitudeState(0.6 + 0.0j, 0.8j), params, n, path_index)


def test_evolve_fluctuating_redraws_at_block_edges_equal_the_loop(monkeypatch):
    # sigma_step 1 redraws on about one step in six; seed 60 redraws twice on
    # the last step of the first block and twice on the first step of the
    # next, so the mid and the redraw stream must carry across the edge.
    monkeypatch.setattr(errors, "_BLOCK_ROWS", _SMALL_B)
    p = CoupledWaveParams(sigma_step=1.0, xi_std=0.3, kappa_std=0.3, seed=60)
    state0, n = AmplitudeState(1.0 + 0.0j, 0.0j), 2 * _SMALL_B + 3
    redraws = _assert_kernel_equals_loop(state0, p, n)
    assert {_SMALL_B - 1, _SMALL_B} <= set(redraws), redraws
    # The cap counts the redraws of one step.
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


@pytest.mark.parametrize("xi_kappa", [(0.3, 0.3), (0.0, 0.0)], ids=["rotation", "pure_phase"])
@pytest.mark.parametrize("s_mid, t, tau0, s", [
    pytest.param(100.0, 1.5e308, 1.0, 100.0, id="1.5e+308"),
    pytest.param(100.0, math.inf, 1.0, 100.0, id="inf"),
    pytest.param(100.0, math.nan, 1.0, 100.0, id="nan"),
    # tau0 * s underflows to 0, so the angles divide by zero.
    pytest.param(100.0, 1.0, 1e-200, 1e-200, id="tau0_s_underflow"),
    # Negative angles: a phase angle of -inf beside a finite rotation angle
    # has a finite maximum, so each angle is checked on its own.
    pytest.param(-1e308, 10.0, 1e-3, 1e-3, id="s_mid_-1e+308"),
    pytest.param(100.0, -1.5e308, 1.0, 100.0, id="-1.5e+308"),
    pytest.param(100.0, -math.inf, 1.0, 100.0, id="-inf"),
])
def test_evolve_rejects_a_step_whose_angle_is_not_finite(s_mid, t, tau0, s, xi_kappa):
    # A finite t can still overflow the angles; neither kernel may then
    # return NaN amplitudes, warn, or raise anything but DomainError.
    state = AmplitudeState(1.0 + 0.0j, 0.0j)
    with pytest.raises(DomainError, match="phase or rotation angle"):
        evolve_amplitudes(state, s_mid, *xi_kappa, s, tau0, t)
    # evolve_fluctuating takes only a positive mid scale and step.
    if s_mid > 0.0 and 0.0 < t < math.inf:
        p = CoupledWaveParams(xi_std=xi_kappa[0], kappa_std=xi_kappa[1], tau0=tau0)
        with pytest.raises(DomainError, match="phase or rotation angle"):
            evolve_fluctuating(state, p, s, t, 5)


@pytest.mark.parametrize("name, value", [
    ("s_scale", math.inf), ("s_scale", math.nan), ("s_scale", 0.0),
    ("dt", math.inf), ("dt", math.nan), ("dt", -1.0),
])
def test_evolve_fluctuating_rejects_bad_scale_and_step(name, value):
    kwargs = {"s_scale": 100.0, "dt": 0.01, name: value}
    with pytest.raises(DomainError, match=name):
        evolve_fluctuating(AmplitudeState(1.0 + 0.0j, 0.0j), CoupledWaveParams(xi_std=0.3),
                           n_steps=10, **kwargs)


def test_evolve_mid_walk_is_the_loop_bit_for_bit():
    # The benchmark's amplitude run: its 100k mids, scanned block by block,
    # are those of a per-step loop of s_mid (1 + sigma_step dz), bit for bit.
    p = CoupledWaveParams(sigma_step=1e-4, xi_std=0.5, kappa_std=0.5, seed=1)
    mids = np.concatenate([block[0] for block in
                           coupled_wave._coefficient_blocks(p, 100.0, 100_000, 0)])
    s_mid, expected = 100.0, []
    for dz in path_rng(1, 0, 2).standard_normal(100_000).tolist():
        s_mid = s_mid * (1.0 + p.sigma_step * dz)
        expected.append(s_mid)
    assert mids.tobytes() == np.array(expected).tobytes()


def _full(triple):
    """The 2x2 matrices phase [[a, b], [-conj(b), conj(a)]] of SU(2) triples."""
    phase, a, b = triple
    return phase[:, None, None] * np.stack([np.stack([a, b], -1),
                                            np.stack([-b.conj(), a.conj()], -1)], -2)


def test_su2_products_equal_the_full_products():
    rng = path_rng(13)
    mids = rng.uniform(50.0, 150.0, 2000)
    xis, kappas = rng.normal(0.0, 2.0, (2, 2000))
    xis[::7] = kappas[::7] = 0.0  # h == 0: a pure phase
    x = coupled_wave._step_matrices(mids[:1000], xis[:1000], kappas[:1000], 100.0, 1.0, 3.7)
    y = coupled_wave._step_matrices(mids[1000:], xis[1000:], kappas[1000:], 100.0, 1.0, 0.9)
    eye, eps = np.eye(2), np.finfo(float).eps
    for u in (x, y):
        assert np.max(np.abs(_full(u) @ _full(u).conj().swapaxes(1, 2) - eye)) <= 4 * eps
    product = _full(coupled_wave._mul(x, y))
    assert np.max(np.abs(product - _full(x) @ _full(y))) <= 4 * eps


@pytest.mark.parametrize("s_scale", [-1.0, 0.0, math.nan, math.inf])
def test_suggest_amplitude_dt_rejects_a_bad_scale(s_scale):
    # It returned -0.283, 0.0, nan and inf.
    with pytest.raises(DomainError, match="s_scale"):
        suggest_amplitude_dt(CoupledWaveParams(xi_std=0.5, kappa_std=0.5), s_scale)


@pytest.mark.parametrize("name", ["s", "tau0"])
def test_evolve_amplitudes_rejects_an_infinite_scale(name):
    # An infinite s or tau0 made every angle 0, and the state came back unchanged.
    kwargs = {"s": 100.0, "tau0": 1.0, name: math.inf}
    with pytest.raises(DomainError, match=name):
        evolve_amplitudes(AmplitudeState(0.6 + 0.0j, 0.8j), 100.0, 0.3, 0.4, t=1.0, **kwargs)


@pytest.mark.parametrize("psi", [(math.nan, 0.0), (1.0, complex(0.0, math.inf)),
                                 (complex(math.nan, 1.0), 0.0)])
def test_amplitude_state_rejects_non_finite_amplitudes(psi):
    # evolve_fluctuating from AmplitudeState(nan, 0) ran to a NaN state.
    with pytest.raises(DomainError, match="psi_"):
        evolve_fluctuating(AmplitudeState(*psi), CoupledWaveParams(xi_std=0.3), 100.0,
                           0.01, 10)


@pytest.mark.parametrize("n_steps", [10.5, 10.0, "10", 0, -3, True])
def test_step_counts_must_be_integers(n_steps):
    # A fractional count raised a bare TypeError from range().  True ran one
    # amplitude step, and simulate_path raised a bare TypeError from np.empty.
    with pytest.raises(DomainError, match="n_steps"):
        evolve_fluctuating(AmplitudeState(1.0 + 0.0j, 0.0j), CoupledWaveParams(xi_std=0.3),
                           100.0, 0.01, n_steps)
    with pytest.raises(DomainError, match="n_steps"):
        simulate_path(CoupledWaveParams(), 100.0, n_steps)
