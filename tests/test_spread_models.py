"""Closed-form spread relations: values, identities, and inverses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadwave import (
    STRADDLE_LAMBDA,
    CoupledWaveParams,
    DimensionlessSpreadParams,
    DomainError,
    LastPriceRule,
    NoSolutionError,
    SpreadModelParams,
    basic_spread,
    classical_scale,
    general_spread,
    general_spread_dimensionless,
    inverse_spread_volumes,
    predicted_volatility,
    scale_spread_time,
    spread_minimum,
    straddle_spread,
    transaction_time,
)
from spreadwave.spread_models import _MIN_SPREAD_TIE_RTOL

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


def make_params(**overrides):
    base = dict(price_s=100.0, sigma=0.02, lambda_risk=3.5,
                rho_risk=1.0, avg_trade_size_n=100.0, tau0=0.01)
    base.update(overrides)
    return SpreadModelParams(**base)


def test_transaction_time_value():
    # 300 shares at 6000 shares per unit time take 0.05 time units.
    assert transaction_time(300.0, 6000.0) == pytest.approx(0.05, rel=1e-15)


def test_transaction_time_rejects_nonpositive():
    with pytest.raises(DomainError):
        transaction_time(0.0, 100.0)
    with pytest.raises(DomainError):
        transaction_time(100.0, 0.0)


def test_basic_spread_frozen_value():
    # tau = 100/10000 = 0.01, delta = 3.5 * 100 * 0.02 * 0.1 = 0.7
    p = make_params()
    assert basic_spread(p, 10000.0) == pytest.approx(0.7, rel=1e-12)


def test_basic_spread_scale_invariance():
    p1 = make_params(price_s=50.0)
    p2 = make_params(price_s=150.0)
    assert basic_spread(p2, 5000.0) == pytest.approx(
        3.0 * basic_spread(p1, 5000.0), rel=1e-14)


def test_straddle_lambda_value():
    assert STRADDLE_LAMBDA == pytest.approx(math.sqrt(8.0 / math.pi), rel=0)
    assert STRADDLE_LAMBDA == pytest.approx(1.5957691216057308, rel=1e-15)


def test_straddle_zero_time_allowed():
    assert straddle_spread(100.0, 0.02, 0.0) == 0.0


def test_straddle_matches_scaled_basic():
    # straddle pricing is the basic law at the implied risk level
    s, sigma, tau = 87.0, 0.015, 0.3
    p = make_params(price_s=s, sigma=sigma, lambda_risk=STRADDLE_LAMBDA)
    V = p.avg_trade_size_n / tau
    assert straddle_spread(s, sigma, tau) == basic_spread(p, V)


def test_general_spread_dimensionless_value():
    # a=2, v=1: sqrt(2/1 + 1) = sqrt(3)
    assert general_spread_dimensionless(2.0, 1.0) == pytest.approx(
        math.sqrt(3.0), rel=1e-15)


def test_general_spread_money_value():
    # lambda=rho=s=sigma=n=1, tau0=1/pi, V=1:
    # liquidity term 1*1*1*sqrt(1/1)=1, impact term pi*(1/pi)*1/1=1
    # delta = sqrt(1 + 2) = sqrt(3)
    p = SpreadModelParams(price_s=1.0, sigma=1.0, lambda_risk=1.0,
                          rho_risk=1.0, avg_trade_size_n=1.0,
                          tau0=1.0 / math.pi)
    assert general_spread(p, 1.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_spread_minimum_frozen_values():
    # a=16: v_min = (a/2)^(1/3) = 2, delta_min = sqrt(3)*v_min = 2 sqrt(3)
    m = spread_minimum(16.0)
    assert m.v_min == pytest.approx(2.0, rel=1e-15)
    assert m.delta_min == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)


@given(a=positive, eps=st.floats(min_value=1e-4, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_spread_minimum_is_minimal(a, eps):
    m = spread_minimum(a)
    d0 = general_spread_dimensionless(a, m.v_min)
    assert d0 <= general_spread_dimensionless(a, m.v_min * (1.0 + eps)) + 1e-12
    assert d0 <= general_spread_dimensionless(a, m.v_min * (1.0 - eps)) + 1e-12


def test_dimensionless_params_from_model():
    p = make_params()
    d = DimensionlessSpreadParams.from_model(p)
    # a = sqrt(2) rho lambda^2 sigma^2 pi tau0
    expected_a = math.sqrt(2.0) * 1.0 * 3.5 ** 2 * 0.02 ** 2 * math.pi * 0.01
    assert d.a_coeff == pytest.approx(expected_a, rel=1e-14)
    # v0 = n / (sqrt(2) rho pi tau0)
    expected_v0 = 100.0 / (math.sqrt(2.0) * math.pi * 0.01)
    assert d.v0_scale == pytest.approx(expected_v0, rel=1e-14)


@given(
    s=positive, sigma=st.floats(1e-4, 1.0), lam=positive, rho=positive,
    n=positive, tau0=st.floats(1e-4, 10.0), V=positive,
)
@settings(max_examples=200, deadline=None)
def test_dimensional_equals_scaled_dimensionless(s, sigma, lam, rho, n, tau0, V):
    p = SpreadModelParams(price_s=s, sigma=sigma, lambda_risk=lam,
                          rho_risk=rho, avg_trade_size_n=n, tau0=tau0)
    d = DimensionlessSpreadParams.from_model(p)
    lhs = general_spread(p, V)
    rhs = s * general_spread_dimensionless(d.a_coeff, V / d.v0_scale)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inverse_spread_volumes_round_trip():
    a = 2.0
    v_lo, v_hi = inverse_spread_volumes(a, 2.0)
    assert v_lo < 1.0 < v_hi  # v_min = (a/2)^(1/3) = 1
    assert general_spread_dimensionless(a, v_lo) == pytest.approx(2.0, abs=1e-10)
    assert general_spread_dimensionless(a, v_hi) == pytest.approx(2.0, abs=1e-10)


def test_inverse_spread_at_minimum_returns_double_root():
    m = spread_minimum(7.0)
    v_lo, v_hi = inverse_spread_volumes(7.0, m.delta_min)
    assert v_lo == pytest.approx(m.v_min, rel=1e-6)
    assert v_hi == pytest.approx(m.v_min, rel=1e-6)


def test_inverse_spread_below_minimum_raises():
    m = spread_minimum(5.0)
    with pytest.raises(NoSolutionError):
        inverse_spread_volumes(5.0, 0.99 * m.delta_min)


def test_params_validation():
    with pytest.raises(DomainError):
        make_params(price_s=-1.0)
    with pytest.raises(DomainError):
        make_params(sigma=0.0)
    with pytest.raises(DomainError):
        make_params(tau0=0.0)


# --------------------------------------------------------------------------
# array kernels and the closed-form inverse
# --------------------------------------------------------------------------

def test_scalar_laws_are_the_array_kernels():
    from spreadwave import bidask_spread_model
    p = make_params()
    V = np.geomspace(1.0, 1e4, 9)
    kernel = p.price_s * bidask_spread_model(V, p.lambda_risk, p.rho_risk, p.sigma,
                                             p.avg_trade_size_n, p.tau0)
    assert np.array_equal(general_spread(p, V), kernel)
    assert [general_spread(p, float(x)) for x in V] == kernel.tolist()
    v = np.geomspace(0.01, 100.0, 9)
    assert np.array_equal(general_spread_dimensionless(3.0, v), np.sqrt(3.0 / v + v * v))
    assert [general_spread_dimensionless(3.0, float(x)) for x in v] \
        == general_spread_dimensionless(3.0, v).tolist()
    with pytest.raises(DomainError):
        general_spread_dimensionless(3.0, np.array([1.0, np.nan]))


def _wide(rng, n, lo=-6.0, hi=6.0):
    """n values log-uniform over [10^lo, 10^hi]."""
    return 10.0 ** rng.uniform(lo, hi, n)


def _some_zero(rng, values):
    """``values`` with about one in twenty set to 0, a bound each law allows."""
    return np.where(rng.random(values.size) < 0.05, 0.0, values)


_PARAMS = make_params()
_WAVE = CoupledWaveParams(sigma_step=3.7e-4, xi_std=0.21, kappa_mean=0.05, kappa_std=0.13,
                          last_price_rule=LastPriceRule.NORMAL_HALF_BAR)


def _scale_args(rng, n):
    T1 = _wide(rng, n, -3.0, 3.0)
    return (_wide(rng, n), _some_zero(rng, _wide(rng, n)),
            _some_zero(rng, _wide(rng, n, -3.0, 3.0)), T1,
            T1 * (1.0 + _some_zero(rng, _wide(rng, n))))


# Closed-form laws beside the kernels, each with a draw of n points of its
# arguments: every argument varies, so an array call broadcasts over each.
_BROADCAST_LAWS = {
    "basic_spread": (lambda V: basic_spread(_PARAMS, V),
                     lambda rng, n: (_wide(rng, n),)),
    "straddle_spread": (straddle_spread,
                        lambda rng, n: (_wide(rng, n, 0.0, 4.0), _wide(rng, n, -5.0, 0.0),
                                        _some_zero(rng, _wide(rng, n)))),
    "scale_spread_time": (scale_spread_time, _scale_args),
    "classical_scale": (classical_scale,
                        lambda rng, n: (_some_zero(rng, _wide(rng, n)), _wide(rng, n, -3.0, 3.0),
                                        _wide(rng, n, -3.0, 3.0))),
    "predicted_volatility": (lambda s: predicted_volatility(_WAVE, s),
                             lambda rng, n: (_wide(rng, n, -4.0, 8.0),)),
}


@pytest.mark.parametrize("name", sorted(_BROADCAST_LAWS))
def test_closed_form_laws_broadcast_bit_for_bit(name, rng):
    """An array call equals the per-element scalar calls bit for bit, and so
    does a call with the first argument a scalar and the rest arrays; a
    scalar call returns a float, and a NaN element of any argument raises
    DomainError.  20k points: squaring by C pow, as ``x ** 2`` does on a
    float, misrounds about one square in a thousand, which 5k points of
    predicted_volatility did not always show."""
    law, draw = _BROADCAST_LAWS[name]
    args = draw(rng, 20_000)
    values = law(*args)
    columns = [a.tolist() for a in args]
    scalars = [law(*point) for point in zip(*columns)]
    assert all(isinstance(x, float) for x in scalars)
    assert values.shape == args[0].shape and np.isfinite(values).all()
    assert np.array_equal(values, scalars)
    if len(args) > 1:
        first = columns[0][0]
        assert np.array_equal(law(first, *args[1:]),
                              [law(first, *point) for point in zip(*columns[1:])])
    for at in range(len(args)):
        bad = list(args)
        bad[at] = bad[at].copy()
        bad[at][7] = np.nan
        with pytest.raises(DomainError):
            law(*bad)


def _inverse_residuals(a, delta):
    v_lo, v_hi = inverse_spread_volumes(a, delta)
    return [abs(math.sqrt(a / v + v * v) - delta) for v in (v_lo, v_hi)], v_lo, v_hi


def test_inverse_small_left_root():
    # A bracketing search with an absolute tolerance missed this root.
    residuals, v_lo, _ = _inverse_residuals(1e-6, 1000.0)
    assert max(residuals) <= 1e-14 * 1000.0
    assert v_lo == pytest.approx(1e-12, rel=1e-9)
    # delta^3 and v_high^2 overflow here, the roots do not
    residuals, v_lo, v_hi = _inverse_residuals(1e200, 1e150)
    assert max(residuals) <= 1e-14 * 1e150
    assert v_lo == pytest.approx(1e-100, rel=1e-12)


def test_inverse_residual_over_wide_range(rng):
    for _ in range(3000):
        a = 10.0 ** rng.uniform(-8.0, 8.0)
        m = spread_minimum(a)
        delta = m.delta_min * (1.0 + 10.0 ** rng.uniform(-9.0, 5.0))
        residuals, v_lo, v_hi = _inverse_residuals(a, delta)
        if delta <= m.delta_min + _MIN_SPREAD_TIE_RTOL * m.delta_min:
            # inside the relative tie band the double root is returned
            assert v_lo == v_hi == m.v_min
            continue
        assert max(residuals) <= 1e-14 * delta, (a, delta)
        assert v_lo <= m.v_min <= v_hi


def test_inverse_tie_band_is_relative_to_the_minimum():
    # delta_min = 3.2e-3 here: an absolute 1e-9 band returned v_min for a
    # level 2.8e-7 (relative) above the minimum.
    a = 1.3e-8
    m = spread_minimum(a)
    delta = m.delta_min + 9e-10
    residuals, v_lo, v_hi = _inverse_residuals(a, delta)
    assert v_lo < m.v_min < v_hi
    assert max(residuals) <= 1e-14 * delta
