"""Property tests of the command-line contract under hostile flags of every
command and hostile calibration reports.

Every invocation must end in exit 0, 2, 3 or 4 without a traceback, and an
exit 0 must leave no NaN or infinity in any file it wrote.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadwave import CoupledWaveParams, FlowStats, VolumeConfig, simulate_path
from spreadwave.cli import main
from spreadwave.data_io import write_bars_csv, write_curve_csv
from spreadwave.synthetic import synthetic_spread_curve

_HOSTILE = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300")
_FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


def overrides(base: dict):
    """``base`` flags with up to three values replaced by hostile or ordinary floats."""
    values = st.one_of(st.sampled_from(_HOSTILE), st.floats(1e-3, 1e3).map(repr))
    changed = st.dictionaries(st.sampled_from(sorted(base)), values, max_size=3)
    return changed.map(lambda d: [x for item in {**base, **d}.items() for x in item])


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return value not in ("nan", "inf", "-inf")


def _check_files(out_dir: str) -> None:
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                assert _finite_json(json.load(fh)), f"non-finite value in {name}"
        elif name.endswith(".csv"):
            cells = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
            assert np.isfinite(cells).all(), f"non-finite cell in {name}"


def run_hostile(args, out_dir: str, keep=()) -> None:
    """Run one command into a fresh ``out_dir`` and check the exit contract."""
    for name in os.listdir(out_dir):
        if name not in keep:
            os.remove(os.path.join(out_dir, name))
    res = CliRunner().invoke(main, [*args, "--out", out_dir])
    assert res.exit_code in (0, 2, 3, 4), (args, res.exit_code, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (args, repr(res.exception))
    if res.exit_code == 0:
        _check_files(out_dir)
    else:
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (args, lines)


@pytest.fixture(scope="module")
def work_dir():
    with tempfile.TemporaryDirectory() as path:
        yield path


_SIMULATE = {"--s0": "100", "--sigma-step": "1e-4", "--xi-mean": "0", "--xi-std": "0.5",
             "--kappa-mean": "0", "--kappa-std": "0.5", "--tau0": "1",
             "--avg-trade-size": "100", "--log-mean": "0", "--log-sigma": "1"}
_CURVE = {"--quantile": "0.9", "--lo-percentile": "1", "--hi-percentile": "99",
          "--window": "60", "--horizon": "1.0"}
_SCALE_TABLE = {"--base-spread": "2.0", "--eta": "0.8", "--lam": "1.6",
                "--horizon": "1.0", "--t2-max": "1e6"}
_SCALE_SURFACE = {"--lambda-risk": "1.5", "--rho-risk": "1.0", "--sigma-tau": "0.02",
                  "--n": "100", "--tau0": "0.01", "--price": "1.0", "--v-lo": "1",
                  "--v-hi": "100", "--t-lo": "1", "--t-hi": "10"}
_OPTIMIZE = {"--a-coeff": "10", "--alpha": "3", "--lambda0": "3", "--lambda-ref": "1.2",
             "--v-lo": "0.4", "--v-hi": "6.8"}
_CALIBRATE = {"--n": "100", "--sigma": "0.02", "--price": "50", "--volume": "0",
              "--tau0": "0.01", "--horizon": "1.0"}


@given(flags=overrides(_SIMULATE), steps=st.integers(-1, 2000),
       rule=st.sampled_from(["uniform", "normal"]),
       volume_mode=st.sampled_from(["impact", "lognormal", "none"]))
@_FUZZ
def test_simulate_fuzz(work_dir, flags, steps, rule, volume_mode):
    run_hostile(["simulate", *flags, "--steps", str(steps), "--rule", rule,
                 "--volume-mode", volume_mode], work_dir)


@pytest.fixture(scope="module")
def bars_dir():
    """A directory holding a fixed 1500-bar CSV."""
    with tempfile.TemporaryDirectory() as path:
        params = CoupledWaveParams(sigma_step=2e-4, xi_std=0.05, kappa_std=0.05, seed=42)
        write_bars_csv(os.path.join(path, "input.csv"),
                       simulate_path(params, 100.0, 1500, volume=VolumeConfig()))
        yield path


@given(flags=overrides(_CURVE), buckets=st.integers(-1, 40), min_count=st.integers(-1, 100))
@_FUZZ
def test_curve_bars_fuzz(bars_dir, flags, buckets, min_count):
    run_hostile(["curve", "--bars", os.path.join(bars_dir, "input.csv"), *flags,
                 "--buckets", str(buckets), "--min-count", str(min_count)],
                bars_dir, keep=("input.csv",))


@given(flags=overrides(_SCALE_TABLE))
@_FUZZ
def test_scale_table_fuzz(work_dir, flags):
    run_hostile(["scale", *flags, "--t-steps", "5"], work_dir)


@given(flags=overrides(_SCALE_SURFACE))
@_FUZZ
def test_scale_surface_fuzz(work_dir, flags):
    run_hostile(["scale", "--surface", "true", *flags, "--nv", "4", "--nt", "3"], work_dir)


@given(flags=overrides(_OPTIMIZE))
@_FUZZ
def test_optimize_a_coeff_fuzz(work_dir, flags):
    run_hostile(["optimize", *flags, "--v-points", "7"], work_dir)


@pytest.fixture(scope="module")
def curve_dir():
    with tempfile.TemporaryDirectory() as path:
        flow = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=50.0)
        curve = synthetic_spread_curve(flow, 3.5, 1.2, 0.01,
                                       np.geomspace(10, 1000, 8),
                                       noise_rel=0.0, seed=0)
        write_curve_csv(os.path.join(path, "input.csv"), curve)
        yield path


@given(kind=st.sampled_from(["bidask", "bar"]), flags=overrides(_CALIBRATE))
@_FUZZ
def test_calibrate_fuzz(curve_dir, kind, flags):
    run_hostile(["calibrate", "--curve", os.path.join(curve_dir, "input.csv"),
                 "--kind", kind, *flags, "--min-count", "1"],
                curve_dir, keep=("input.csv",))


_CAL_FIELDS = ("lambda_hat", "rho_hat", "tau0_hat", "residual_norm",
               "n", "sigma", "price", "volume", "v_lo", "v_hi", "horizon")
_CAL_VALUES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300,
                                         1e300, "nan", "inf", "x", None, [], {}]),
                        st.floats(1e-3, 1e3))


@pytest.fixture(scope="module")
def calibration_report(curve_dir):
    """A directory, and the calibration.json ``calibrate --kind bar`` wrote on the
    fixed curve."""
    with tempfile.TemporaryDirectory() as path:
        res = CliRunner().invoke(main, [
            "calibrate", "--curve", os.path.join(curve_dir, "input.csv"), "--kind", "bar",
            *[x for item in _CALIBRATE.items() for x in item], "--min-count", "1",
            "--out", path])
        assert res.exit_code == 0, res.output
        with open(os.path.join(path, "calibration.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        os.makedirs(os.path.join(path, "out"))
        yield path, report


def _set_field(report: dict, field: str, value) -> None:
    if field in ("n", "sigma", "price", "volume"):
        report["flow"][field] = value
    elif field in ("v_lo", "v_hi"):
        report["v_range"][field[2:]] = value
    elif field == "horizon":
        report["horizon"] = value
    else:
        report["result"][field] = value


@given(kind=st.sampled_from(["bar", "bidask"]),
       changed=st.dictionaries(st.sampled_from(_CAL_FIELDS), _CAL_VALUES, max_size=3))
@_FUZZ
def test_optimize_calibration_fuzz(calibration_report, kind, changed):
    work, report = calibration_report
    report = {**json.loads(json.dumps(report)), "kind": kind}
    for field, value in changed.items():
        _set_field(report, field, value)
    path = os.path.join(work, "calibration.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    run_hostile(["optimize", "--calibration", path, "--alpha", "0.001", "--lambda0", "3",
                 "--v-points", "7"], os.path.join(work, "out"))
