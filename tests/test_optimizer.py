"""Execution model, P&L objective, and optimal quoting policy."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from spreadwave import (
    DomainError,
    ExecutionModel,
    FlowStats,
    LinearSpreadLaw,
    PnLParams,
    calibrated_law,
    dimensionless_law,
    execution_density,
    execution_rate,
    optimize_spread,
    policy_curve,
    spread_pnl,
    stationarity_residual,
)
from spreadwave.calibration import CalibrationResult, CurveSource


def test_execution_rate_anchors():
    m = ExecutionModel(lambda0=2.0)
    assert execution_rate(m, 0.0) == 1.0
    assert execution_rate(m, 2.0) == pytest.approx(math.exp(-1.0), rel=0)
    assert execution_rate(m, 4.0) == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_execution_rate_monotone_decreasing():
    m = ExecutionModel(lambda0=1.3)
    lams = np.linspace(0.0, 10.0, 200)
    rates = [execution_rate(m, x) for x in lams]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_density_integrates_to_rate():
    m = ExecutionModel(lambda0=2.5)
    for lam in (0.0, 1.0, 2.5, 5.0):
        tail, _ = integrate.quad(lambda x: execution_density(m, x), lam, np.inf)
        assert tail == pytest.approx(execution_rate(m, lam), abs=1e-10)


def test_linear_law_scales_reference_curve():
    law = LinearSpreadLaw(delta_ref=lambda v: 2.0 * v, lambda_ref=0.5)
    assert law.delta(0.5, 3.0) == pytest.approx(6.0)
    assert law.delta(1.0, 3.0) == pytest.approx(12.0)
    assert law.ddelta_dlam(1.0, 3.0) == pytest.approx(12.0)


def test_spread_pnl_value():
    # pnl = 0.5 * r * v * (delta - alpha)
    law = LinearSpreadLaw(delta_ref=lambda v: 4.0, lambda_ref=1.0)
    params = PnLParams(commission_alpha=1.0, volume_v=10.0, spread_law=law)
    m = ExecutionModel(lambda0=1.0)
    # at lam=1: delta=4, r=e^-1
    assert spread_pnl(params, m, 1.0) == pytest.approx(
        0.5 * math.exp(-1.0) * 10.0 * 3.0, rel=1e-14)


def test_optimum_closed_form_zero_commission():
    law = LinearSpreadLaw(delta_ref=lambda v: 2.7, lambda_ref=1.0)
    for lam0 in (0.5, 1.0, 3.0):
        params = PnLParams(commission_alpha=0.0, volume_v=1.0, spread_law=law)
        res = optimize_spread(params, ExecutionModel(lambda0=lam0))
        assert res.lambda_opt == pytest.approx(lam0 / math.sqrt(2.0), abs=1e-8)
        assert not res.halt


def test_optimum_closed_form_with_commission():
    # linear family delta = c lam: lam* = (alpha + sqrt(alpha^2 + 2 c^2 l0^2)) / (2c)
    c, alpha, lam0 = 1.9, 0.8, 2.2
    law = LinearSpreadLaw(delta_ref=lambda v: c, lambda_ref=1.0)
    params = PnLParams(commission_alpha=alpha, volume_v=5.0, spread_law=law)
    res = optimize_spread(params, ExecutionModel(lambda0=lam0))
    expected = (alpha + math.sqrt(alpha ** 2 + 2.0 * c ** 2 * lam0 ** 2)) / (2.0 * c)
    assert res.lambda_opt == pytest.approx(expected, abs=1e-9)
    assert abs(res.stationarity_residual) < 1e-8


def test_optimum_beats_grid(rng):
    for _ in range(50):
        lam0 = rng.uniform(0.5, 4.0)
        alpha = rng.uniform(0.0, 4.0)
        c = rng.uniform(0.3, 5.0)
        law = LinearSpreadLaw(delta_ref=lambda v, c=c: c, lambda_ref=1.0)
        params = PnLParams(commission_alpha=alpha, volume_v=1.0, spread_law=law)
        m = ExecutionModel(lambda0=lam0)
        res = optimize_spread(params, m)
        grid = np.geomspace(1e-3 * lam0, 20.0 * lam0, 2000)
        best_grid = max(spread_pnl(params, m, x) for x in grid)
        assert res.pnl_opt >= best_grid - 1e-12


def test_halt_when_commission_unreachable():
    # law capped far below the commission: every quote loses money
    law = LinearSpreadLaw(delta_ref=lambda v: 1.0, lambda_ref=1.0)

    class Capped:
        lambda_ref = 1.0

        def delta(self, lam, v):
            return np.minimum(law.delta(lam, v), 0.5)

    params = PnLParams(commission_alpha=3.0, volume_v=1.0, spread_law=Capped())
    res = optimize_spread(params, ExecutionModel(lambda0=1.0))
    assert res.halt
    assert res.pnl_opt <= 0.0


def test_stationarity_residual_at_non_optimum():
    law = LinearSpreadLaw(delta_ref=lambda v: 2.0, lambda_ref=1.0)
    params = PnLParams(commission_alpha=0.0, volume_v=1.0, spread_law=law)
    m = ExecutionModel(lambda0=1.0)
    # residual is zero exactly at the optimum, nonzero elsewhere
    assert abs(stationarity_residual(params, m, 1.0 / math.sqrt(2.0))) < 1e-12
    assert abs(stationarity_residual(params, m, 2.0)) > 0.1


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf], ids=["zero", "negative", "inf"])
def test_stationarity_residual_rejects_a_level_that_is_not_finite_and_positive(lam):
    law = LinearSpreadLaw(delta_ref=lambda v: 2.0, lambda_ref=1.0)
    params = PnLParams(commission_alpha=0.0, volume_v=1.0, spread_law=law)
    with pytest.raises(DomainError, match=r"lam must be finite and > 0"):
        stationarity_residual(params, ExecutionModel(lambda0=1.0), lam)


def test_stationarity_residual_of_a_nan_level_is_nan():
    # optimize_spread's failure row carries lambda_opt = NaN into it.
    law = LinearSpreadLaw(delta_ref=lambda v: 2.0, lambda_ref=1.0)
    params = PnLParams(commission_alpha=0.0, volume_v=1.0, spread_law=law)
    assert math.isnan(stationarity_residual(params, ExecutionModel(lambda0=1.0), math.nan))


def test_policy_curve_columns_and_dominance():
    a, lam0 = 10.0, 3.0
    law = dimensionless_law(a, lambda_ref=1.2)
    v_min = (0.5 * a) ** (1.0 / 3.0)
    grid = np.geomspace(v_min / 4.0, 4.0 * v_min, 21)
    policy = policy_curve(grid, ExecutionModel(lambda0=lam0), law,
                          commission_alpha=3.0)
    assert policy.v.shape == (21,)
    assert np.all(policy.exec_rate > 0.0) and np.all(policy.exec_rate <= 1.0)
    assert np.all(policy.pnl_opt >= policy.pnl_naive - 1e-12)
    assert not policy.halt.any()
    assert policy.failures == ()


def test_policy_curve_zero_commission_never_halts():
    law = dimensionless_law(4.0, lambda_ref=1.0)
    grid = np.geomspace(0.2, 5.0, 15)
    policy = policy_curve(grid, ExecutionModel(lambda0=2.0), law,
                          commission_alpha=0.0)
    assert not policy.halt.any()
    assert np.all(policy.pnl_opt > 0.0)


def test_calibrated_law_wraps_fit_result():
    result = CalibrationResult(
        lambda_hat=3.5, rho_hat=1.2, tau0_hat=0.01, residual_norm=0.0,
        covariance_diag=(0.0, 0.0),
    )
    flow = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=50.0)
    law = calibrated_law(result, flow, CurveSource.BID_ASK, lambda_ref=1.4)
    # reference curve is the dimensionless bid-ask law at the fitted params
    from spreadwave import bidask_spread_model
    v = 120.0
    expected = float(bidask_spread_model(v, 3.5, 1.2, 0.02, 100.0, 0.01))
    assert law.delta(1.4, v) == pytest.approx(expected, rel=1e-14)
    assert law.delta(2.8, v) == pytest.approx(2.0 * expected, rel=1e-14)


def test_calibrated_bar_law_requires_horizon():
    result = CalibrationResult(
        lambda_hat=1.0, rho_hat=1.0, tau0_hat=1.0, residual_norm=0.0,
        covariance_diag=(0.0, 0.0),
    )
    flow = FlowStats(n=1.0, V=0.0, sigma=1.0, mean_price=1.0)
    with pytest.raises(DomainError):
        calibrated_law(result, flow, CurveSource.BAR, lambda_ref=1.0)


def test_validation():
    with pytest.raises(DomainError):
        ExecutionModel(lambda0=0.0)
    with pytest.raises(DomainError):
        execution_rate(ExecutionModel(lambda0=1.0), -0.5)
    law = LinearSpreadLaw(delta_ref=lambda v: 1.0, lambda_ref=1.0)
    with pytest.raises(DomainError):
        PnLParams(commission_alpha=-1.0, volume_v=1.0, spread_law=law)
    with pytest.raises(DomainError):
        policy_curve([2.0, 1.0], ExecutionModel(lambda0=1.0), law, 0.0)


# --------------------------------------------------------------------------
# closed-form optimum against the numeric search
# --------------------------------------------------------------------------

class NumericOnly:
    """The same law without ``optimal_lambda``: the optimizer searches numerically."""

    def __init__(self, law):
        self.lambda_ref = law.lambda_ref
        self.delta = law.delta
        self.ddelta_dlam = law.ddelta_dlam


def _bar_law():
    result = CalibrationResult(
        lambda_hat=1.5, rho_hat=1.0, tau0_hat=1.0, residual_norm=0.0,
        covariance_diag=(0.0, 0.0),
    )
    flow = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=100.0)
    return calibrated_law(result, flow, CurveSource.BAR, lambda_ref=1.2, horizon_T=1.0)


def _assert_closed_matches_numeric(closed_lam, closed_pnl, numeric_lam, numeric_pnl):
    np.testing.assert_allclose(closed_lam, numeric_lam, rtol=1e-12, atol=0.0)
    assert np.all(closed_pnl >= numeric_pnl - 1e-12 * np.abs(numeric_pnl))


def test_closed_form_optimum_matches_numeric_path(rng):
    for _ in range(40):
        c, alpha, lam0 = rng.uniform(0.3, 5.0), rng.uniform(0.0, 4.0), rng.uniform(0.5, 4.0)
        law = LinearSpreadLaw(delta_ref=lambda v, c=c: c, lambda_ref=1.0)
        model = ExecutionModel(lambda0=lam0)
        closed = optimize_spread(PnLParams(alpha, 1.0, law), model)
        numeric = optimize_spread(PnLParams(alpha, 1.0, NumericOnly(law)), model)
        _assert_closed_matches_numeric(closed.lambda_opt, closed.pnl_opt,
                                       numeric.lambda_opt, numeric.pnl_opt)
        assert not closed.halt and abs(closed.stationarity_residual) < 1e-12


@pytest.mark.parametrize("law, grid, alpha", [
    (dimensionless_law(10.0, lambda_ref=1.2), np.geomspace(0.4, 6.8, 41), 3.0),
    (_bar_law(), np.geomspace(0.05, 50.0, 41), 0.01),
])
def test_closed_form_policy_matches_numeric_path(law, grid, alpha):
    model = ExecutionModel(lambda0=3.0)
    closed = policy_curve(grid, model, law, alpha)
    numeric = policy_curve(grid, model, NumericOnly(law), alpha)
    _assert_closed_matches_numeric(closed.lambda_opt, closed.pnl_opt,
                                   numeric.lambda_opt, numeric.pnl_opt)
    np.testing.assert_allclose(closed.pnl_naive, numeric.pnl_naive, rtol=1e-15)
    assert np.array_equal(closed.halt, numeric.halt) and not closed.halt.any()
    for v, lam in zip(grid[::10], closed.lambda_opt[::10]):
        one = optimize_spread(PnLParams(alpha, float(v), law), model)
        assert one.lambda_opt == pytest.approx(lam, rel=1e-15)


def test_closed_form_falls_back_where_reference_is_not_positive():
    # delta_ref <= 0 below v = 1: every quote there loses the commission
    law = LinearSpreadLaw(delta_ref=lambda v: v - 1.0, lambda_ref=1.0)
    grid = np.array([0.5, 1.0, 2.0, 3.0])
    policy = policy_curve(grid, ExecutionModel(lambda0=1.0), law, commission_alpha=0.1)
    assert policy.failures == ()
    assert policy.halt.tolist() == [True, True, False, False]
    expected = [optimize_spread(PnLParams(0.1, float(v), NumericOnly(law)),
                                ExecutionModel(lambda0=1.0)).lambda_opt for v in grid[:2]]
    assert policy.lambda_opt[:2].tolist() == expected


def test_linear_policy_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from spreadwave import ExecutionModel, dimensionless_law, policy_curve\n"
        "policy_curve(np.geomspace(0.4, 6.8, 41), ExecutionModel(lambda0=3.0),\n"
        "             dimensionless_law(10.0, 1.2), 3.0)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_numeric_search_keeps_grid_points_refinement_cannot_beat():
    class Falling:
        """A spread falling as the control level rises, with a spike at one
        grid level for v > 1."""
        lambda_ref = 1.0
        spike = 2.0 * np.geomspace(1e-6, 50.0, 4001)[1]

        def delta(self, lam, v):
            return v / (1.0 + lam) * np.where((lam == self.spike) & (v > 1.0), 2.0, 1.0)

    policy = policy_curve([0.5, 2.0], ExecutionModel(lambda0=2.0), Falling(), 0.0)
    # The lowest grid level, and the spike next to it.
    assert policy.lambda_opt.tolist() == [2.0 * 1e-6, Falling.spike]
    assert not policy.halt.any()


def test_golden_section_reaches_the_bracket_ulp():
    from spreadwave.optimizer import _golden_max
    v = np.geomspace(1e-3, 1e3, 7)
    # Brackets as wide as two grid cells, the maximum placed off-centre.
    lo, hi = v * (1.0 - 0.003), v * (1.0 + 0.0059)
    x = _golden_max(lambda lam, vv: -((lam - vv) ** 2), lo, hi, v)
    np.testing.assert_allclose(x, v, rtol=1e-14, atol=0.0)


class Saturating:
    """A non-linear law without ``ddelta_dlam``: the finite-difference search."""

    lambda_ref = 1.2

    def delta(self, lam, v):
        return np.sqrt(10.0 / v + v * v) * (2.0 / 1.2) * np.tanh(np.asarray(lam) / 2.0)


@pytest.mark.parametrize("law, alpha", [
    (dimensionless_law(10.0, lambda_ref=1.2), 3.0),
    (NumericOnly(dimensionless_law(10.0, lambda_ref=1.2)), 3.0),
    (Saturating(), 1.0),
])
def test_optimize_spread_is_the_policy_row(law, alpha):
    model = ExecutionModel(lambda0=3.0)
    grid = np.geomspace(0.4, 6.8, 9)
    policy = policy_curve(grid, model, law, alpha)
    for i, v in enumerate(grid):
        one = optimize_spread(PnLParams(alpha, float(v), law), model)
        assert (one.lambda_opt, one.spread_opt, one.exec_rate, one.pnl_opt, one.halt) == (
            policy.lambda_opt[i], policy.spread_opt[i], policy.exec_rate[i],
            policy.pnl_opt[i], policy.halt[i])
        assert one.stationarity_residual == stationarity_residual(
            PnLParams(alpha, float(v), law), model, one.lambda_opt)


class _RootLaw:
    """delta = sqrt(4 - lam) * lam * v: NaN on the grid levels above lam = 4."""

    lambda_ref = 1.0

    def delta(self, lam, v):
        with np.errstate(invalid="ignore"):
            return np.sqrt(4.0 - np.asarray(lam)) * lam * v


def test_numeric_search_skips_levels_where_the_law_is_nan():
    model = ExecutionModel(lambda0=3.0)
    policy = policy_curve([1.0], model, _RootLaw(), 0.1)
    assert policy.failures == () and not policy.halt.any()
    # The maximum of the finite part, located on a fine grid of (0, 4).
    lams = np.linspace(1e-4, 4.0, 400_001)
    pnl = 0.5 * np.exp(-(lams / 3.0) ** 2) * (_RootLaw().delta(lams, 1.0) - 0.1)
    assert policy.lambda_opt[0] == pytest.approx(lams[np.argmax(pnl)], abs=1e-4)
    assert policy.pnl_opt[0] == pytest.approx(pnl.max(), rel=1e-9)
    assert policy.pnl_opt[0] == pytest.approx(0.899, abs=1e-3)


def test_law_with_no_finite_pnl_is_a_failure_row():
    class Undefined:
        lambda_ref = 1.0

        def delta(self, lam, v):
            return np.full(np.broadcast(lam, v).shape, np.nan)[()]

    model = ExecutionModel(lambda0=3.0)
    policy = policy_curve([1.0, 2.0, 3.0], model, Undefined(), 0.1)
    assert policy.failures == (0, 1, 2) and policy.halt.all()
    assert np.isnan(policy.lambda_opt).all() and np.isnan(policy.pnl_opt).all()
    one = optimize_spread(PnLParams(0.1, 2.0, Undefined()), model)
    assert one.halt and math.isnan(one.lambda_opt) and math.isnan(one.pnl_opt)


def test_numeric_search_keeps_the_grid_point_when_refinement_is_nan():
    class Cut:
        """delta = lam * v below lam = 1, undefined above: the P&L still
        rises where the law ends, so refinement runs into the NaN cell."""
        lambda_ref = 0.5

        def delta(self, lam, v):
            lam = np.asarray(lam, dtype=float)
            return np.where(lam < 1.0, lam * v, np.nan)

    lams = 100.0 * np.geomspace(1e-6, 50.0, 4001)
    policy = policy_curve([1.0], ExecutionModel(lambda0=100.0), Cut(), 0.0)
    assert policy.lambda_opt.tolist() == [lams[lams < 1.0][-1]]
    assert np.isfinite(policy.pnl_opt).all() and not policy.halt.any()
