"""CSV/JSON round trips and the command-line interface contract."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadwave import (
    CoupledWaveParams,
    CurveSource,
    InputFormatError,
    QuoteRecord,
    TradeRecord,
    VolumeConfig,
    simulate_path,
)
from spreadwave.calibration import (
    SpreadSamples,
    build_spread_volume_curve,
)
from spreadwave.cli import main, resolve_config
from spreadwave.data_io import (
    _read_bars_strict,
    format_float,
    parse_timestamp,
    read_bars,
    read_curve,
    read_json_report,
    read_quotes,
    read_trades,
    sha256_file,
    write_bars_csv,
    write_curve_csv,
    write_json_report,
    write_quotes_csv,
    write_trades_csv,
)


# --------------------------------------------------------------------------
# formatting and timestamps
# --------------------------------------------------------------------------

def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789, float("nan")):
        text = format_float(x)
        if math.isnan(x):
            assert text == "nan"
        else:
            assert float(text) == x


def test_parse_timestamp_forms():
    assert parse_timestamp("1500.25") == 1500.25
    assert parse_timestamp("1970-01-01T00:00:00Z") == 0.0
    assert parse_timestamp("1970-01-01T01:00:00+01:00") == 0.0
    # naive timestamps are read as UTC
    assert parse_timestamp("1970-01-02T00:00:00") == 86400.0
    with pytest.raises(InputFormatError):
        parse_timestamp("not-a-time")


# --------------------------------------------------------------------------
# CSV round trips
# --------------------------------------------------------------------------

def test_trade_quote_round_trip(tmp_path):
    trades = [TradeRecord(1.5, 100.25, 10.0), TradeRecord(2.5, 100.5, 20.0)]
    quotes = [QuoteRecord(1.0, 99.5, 100.5)]
    tp, qp = str(tmp_path / "t.csv"), str(tmp_path / "q.csv")
    write_trades_csv(tp, trades)
    write_quotes_csv(qp, quotes)
    assert read_trades(tp) == trades
    assert read_quotes(qp) == quotes


def test_bars_round_trip_preserves_heights(tmp_path):
    p = CoupledWaveParams(sigma_step=1e-3, xi_std=0.2, kappa_std=0.2, seed=21)
    series = simulate_path(p, 50.0, 300, volume=VolumeConfig(mode="impact"))
    path = str(tmp_path / "bars.csv")
    write_bars_csv(path, series)
    bars = read_bars(path)
    assert len(bars) == 300
    # uniform placement keeps open/close inside the envelope, so the
    # serialized high-low range equals the bar height exactly
    for i in range(len(bars)):
        assert bars.high[i] - bars.low[i] == pytest.approx(series.h[i], rel=1e-12)
        assert bars.volume[i] == series.volume[i]


def test_curve_round_trip(tmp_path, rng):
    samples = SpreadSamples(volumes=rng.lognormal(1.0, 0.8, 600),
                            spreads=rng.uniform(0.5, 1.5, 600),
                            source=CurveSource.BID_ASK)
    curve = build_spread_volume_curve(samples)
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, curve)
    back = read_curve(path, quantile_level=0.9, source=CurveSource.BID_ASK)
    assert len(back.buckets) == len(curve.buckets)
    for a, b in zip(curve.buckets, back.buckets):
        assert b.v_mid == a.v_mid
        assert b.count == a.count
        if math.isfinite(a.spread_q):
            assert b.spread_q == a.spread_q


def test_missing_column_names_the_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,price\n1,100\n")
    with pytest.raises(InputFormatError, match="size"):
        read_trades(str(path))


def test_malformed_cell_names_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,price,size\n1,100,10\n2,oops,10\n")
    with pytest.raises(InputFormatError, match="bad.csv:3"):
        read_trades(str(path))


def test_json_report_fixed_bytes(tmp_path):
    payload = {"b": 1, "a": {"z": np.float64(2.5), "y": [np.int64(3)]},
               "nan_value": float("nan")}
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    write_json_report(p1, payload)
    write_json_report(p2, payload)
    b1, b2 = Path(p1).read_bytes(), Path(p2).read_bytes()
    assert b1 == b2
    assert b1.startswith(b"{\n")
    data = read_json_report(p1)
    assert data["a"]["z"] == 2.5
    assert data["nan_value"] == "nan"


def test_sha256_file(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    # sha256("abc") is a published reference vector
    assert sha256_file(str(path)) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


# --------------------------------------------------------------------------
# config resolution
# --------------------------------------------------------------------------

def test_config_precedence_file_env_flag(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"steps": 5, "s0": 10.0, "seed": 1}))
    resolved = resolve_config("simulate", str(cfg), {})
    assert resolved["steps"] == 5 and resolved["seed"] == 1

    monkeypatch.setenv("SPREADWAVE_STEPS", "7")
    resolved = resolve_config("simulate", str(cfg), {})
    assert resolved["steps"] == 7                      # env beats file

    resolved = resolve_config("simulate", str(cfg), {"steps": 9})
    assert resolved["steps"] == 9                      # flag beats env


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"stepz": 5}))
    with pytest.raises(InputFormatError, match="stepz"):
        resolve_config("simulate", str(cfg), {})


def test_config_yaml_accepted(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("steps: 11\nrule: normal\n")
    resolved = resolve_config("simulate", str(cfg), {})
    assert resolved["steps"] == 11
    assert resolved["rule"] == "normal"


def test_config_bad_type_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"steps": "eleven"}))
    with pytest.raises(InputFormatError, match="steps"):
        resolve_config("simulate", str(cfg), {})


# --------------------------------------------------------------------------
# CLI contract
# --------------------------------------------------------------------------

def run_cli(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


def all_output(result):
    # click >= 8.2 separates stderr; older versions mix it into output
    try:
        return result.output + result.stderr
    except (ValueError, AttributeError):
        return result.output


def test_simulate_one_row(tmp_path):
    res = run_cli(["simulate", "--steps", "1", "--seed", "7",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "bars.csv").read_text().splitlines()
    assert lines[0] == "timestamp,open,high,low,close,volume"
    assert len(lines) == 2


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli(["simulate", "--steps", "50", "--seed", "3",
                       "--out", str(out)])
        assert res.exit_code == 0
    assert (a / "bars.csv").read_bytes() == (b / "bars.csv").read_bytes()


def test_simulate_summary_contents(tmp_path):
    res = run_cli(["simulate", "--steps", "2000", "--seed", "5",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    report = read_json_report(str(tmp_path / "simulate_report.json"))
    summary = report["summary"]
    assert summary["steps"] == 2000
    assert summary["empirical_volatility"] > 0.0
    assert summary["rayleigh_scale"] > 0.0
    assert report["tool"]["name"] == "spreadwave"
    assert report["config"]["seed"] == 5


def test_curve_quantile_ordering(tmp_path):
    run_cli(["simulate", "--steps", "3000", "--seed", "11",
             "--out", str(tmp_path)])
    bars = str(tmp_path / "bars.csv")
    lo_dir, hi_dir = tmp_path / "q50", tmp_path / "q90"
    assert run_cli(["curve", "--bars", bars, "--quantile", "0.5",
                    "--out", str(lo_dir)]).exit_code == 0
    assert run_cli(["curve", "--bars", bars, "--quantile", "0.9",
                    "--out", str(hi_dir)]).exit_code == 0
    lo = read_curve(str(lo_dir / "curve.csv"), 0.5, CurveSource.BAR)
    hi = read_curve(str(hi_dir / "curve.csv"), 0.9, CurveSource.BAR)
    for a, b in zip(lo.buckets, hi.buckets):
        if a.count > 0:
            assert b.spread_q >= a.spread_q - 1e-12


def test_curve_requires_exactly_one_input(tmp_path):
    res = CliRunner().invoke(main, ["curve", "--out", str(tmp_path)])
    assert res.exit_code == 3


def test_curve_flat_spread_gives_flat_curve(tmp_path):
    # constant-spread quotes: every bucket quantile equals that constant
    trades = [TradeRecord(float(i), 100.0, 10.0 * (1 + i % 5))
              for i in range(1, 400)]
    quotes = [QuoteRecord(float(i) + 0.5, 99.75, 100.25)
              for i in range(1, 400)]
    tp, qp = str(tmp_path / "t.csv"), str(tmp_path / "q.csv")
    write_trades_csv(tp, trades)
    write_quotes_csv(qp, quotes)
    res = run_cli(["curve", "--quotes", qp, "--trades", tp,
                   "--window", "10", "--out", str(tmp_path)])
    assert res.exit_code == 0
    curve = read_curve(str(tmp_path / "curve.csv"), 0.9, CurveSource.BID_ASK)
    for b in curve.usable():
        assert b.spread_q == pytest.approx(0.5, rel=1e-12)


def test_calibrate_missing_column_exit_3(tmp_path):
    bad = tmp_path / "curve.csv"
    bad.write_text("v_lo,v_hi,v_mid,count\n1,2,1.5,100\n")
    res = CliRunner().invoke(main, [
        "calibrate", "--curve", str(bad), "--n", "100", "--sigma", "0.02",
        "--price", "50", "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "spread_q" in all_output(res)


def test_calibrate_round_trip_via_cli(tmp_path):
    # synthetic curve from known parameters, fitted through the CLI
    from spreadwave import FlowStats
    from spreadwave.synthetic import synthetic_spread_curve
    flow = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=50.0)
    curve = synthetic_spread_curve(flow, 3.5, 1.2, 0.01,
                                   np.geomspace(10, 1000, 25),
                                   noise_rel=0.0, seed=0)
    cp = str(tmp_path / "curve.csv")
    write_curve_csv(cp, curve)
    res = run_cli(["calibrate", "--curve", cp, "--kind", "bidask",
                   "--n", "100", "--sigma", "0.02", "--price", "50",
                   "--tau0", "0.01", "--out", str(tmp_path)])
    assert res.exit_code == 0
    report = read_json_report(str(tmp_path / "calibration.json"))
    assert report["result"]["lambda_hat"] == pytest.approx(3.5, rel=1e-4)
    assert report["result"]["rho_hat"] == pytest.approx(1.2, rel=1e-4)
    overlay = (tmp_path / "overlay.csv").read_text().splitlines()
    assert overlay[0] == "v_mid,spread_q,spread_model"
    assert len(overlay) == 1 + len(curve.usable())


def test_scale_table_identity_and_regime(tmp_path):
    res = run_cli(["scale", "--base-spread", "2.0", "--eta", "0.8",
                   "--lam", "1.6", "--horizon", "1.0", "--t2-max", "1000000",
                   "--t-steps", "13", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "scale.csv").read_text().splitlines()
    assert lines[0] == "T,delta_quantum,delta_classical"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.0)   # identity at T = T1
    assert float(first[2]) == pytest.approx(2.0)
    last = lines[-1].split(",")
    ratio = float(last[1]) / float(last[2])
    # large T: quantum/classical tends to lambda*eta/spread = 0.64
    assert ratio == pytest.approx(1.6 * 0.8 / 2.0, rel=1e-3)


def test_scale_below_base_horizon_exit_3(tmp_path):
    res = CliRunner().invoke(main, [
        "scale", "--base-spread", "2.0", "--eta", "0.8", "--lam", "1.6",
        "--horizon", "10.0", "--t2-max", "1.0", "--out", str(tmp_path)])
    assert res.exit_code == 3


def test_scale_surface_schema(tmp_path):
    res = run_cli(["scale", "--surface", "true", "--lambda-risk", "1.5",
                   "--rho-risk", "1.0", "--sigma-tau", "0.02", "--n", "100",
                   "--tau0", "0.01", "--v-lo", "1", "--v-hi", "100",
                   "--nv", "4", "--t-lo", "1", "--t-hi", "10", "--nt", "3",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert lines[0] == "T,v,delta"
    assert len(lines) == 1 + 4 * 3
    # horizons iterate in the outer loop
    t_col = [float(x.split(",")[0]) for x in lines[1:]]
    assert t_col == sorted(t_col)


def test_optimize_demo_bands(tmp_path):
    res = run_cli(["optimize", "--a-coeff", "10", "--alpha", "3",
                   "--lambda0", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "policy.csv").read_text().splitlines()
    assert lines[0] == "v,lambda_opt,spread_opt,exec_rate,pnl_opt,pnl_naive,halt"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 41
    halts = {r[6] for r in rows}
    assert halts == {"0"}
    report = read_json_report(str(tmp_path / "optimize_report.json"))
    assert 1.5 <= report["summary"]["median_spread_ratio"] <= 2.5
    assert 0.40 <= report["summary"]["median_exec_rate"] <= 0.60


def test_optimize_requires_one_source(tmp_path):
    res = CliRunner().invoke(main, [
        "optimize", "--lambda0", "3", "--out", str(tmp_path)])
    assert res.exit_code == 3
    res = CliRunner().invoke(main, [
        "optimize", "--a-coeff", "10", "--calibration", "x.json",
        "--lambda0", "3", "--out", str(tmp_path)])
    assert res.exit_code == 3


def test_unwritable_output_exit_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    res = CliRunner().invoke(main, [
        "simulate", "--steps", "1", "--out", str(blocker / "sub")])
    assert res.exit_code == 2


def test_version_flag():
    res = run_cli(["--version"])
    assert res.exit_code == 0
    assert "spreadwave" in res.output


def stderr_lines(result):
    try:
        text = result.stderr
    except ValueError:  # click < 8.2 mixes stderr into output
        text = result.output
    return text.strip().splitlines()


@pytest.mark.parametrize("args, name", [
    (["simulate", "--sigma-step", "nan"], "sigma_step"),
    (["simulate", "--xi-std", "inf"], "xi_std"),
    (["simulate", "--s0", "inf"], "s0"),
    (["simulate", "--seed", "-1"], "seed"),
    (["simulate", "--avg-trade-size", "inf"], "avg_trade_size"),
    (["optimize", "--a-coeff", "10", "--lambda0", "3", "--alpha", "nan"],
     "commission_alpha"),
    (["scale", "--base-spread", "2.0", "--eta", "0.8", "--lam", "1.6",
      "--t2-max", "10", "--t-steps", "0"], "t_steps"),
    (["optimize", "--a-coeff", "10", "--lambda0", "3", "--v-points", "-1"],
     "v_points"),
    (["scale", "--base-spread", "2", "--eta", "nan", "--lam", "1.6",
      "--t2-max", "10"], "eta_T1"),
    (["scale", "--base-spread", "2", "--eta", "0.8", "--lam", "1.6",
      "--t2-max", "inf"], "t2_max"),
    (["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1",
      "--sigma-tau", "0.02", "--n", "100", "--v-lo", "nan", "--v-hi", "100",
      "--t-lo", "1", "--t-hi", "10"], "v_lo"),
    (["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1",
      "--sigma-tau", "0.02", "--n", "100", "--v-lo", "1", "--v-hi", "inf",
      "--t-lo", "1", "--t-hi", "10"], "v_hi"),
    (["simulate", "--volume-mode", "lognormal", "--log-sigma", "1e300"], "volumes"),
    (["simulate", "--volume-mode", "lognormal", "--log-mean", "1e300"], "volumes"),
    (["optimize", "--a-coeff", "10", "--alpha", "3", "--lambda0", "3",
      "--horizon", "nan"], "horizon"),
    (["optimize", "--a-coeff", "10", "--alpha", "3", "--lambda0", "3",
      "--quantile", "nan"], "quantile"),
    # Flags the chosen mode does not read are still echoed, so still checked.
    (["scale", "--base-spread", "2", "--eta", "0.8", "--lam", "1.6",
      "--t2-max", "10", "--v-lo", "nan"], "v_lo"),
    (["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1",
      "--sigma-tau", "0.02", "--n", "100", "--v-lo", "1", "--v-hi", "100",
      "--t-lo", "1", "--t-hi", "10", "--eta", "inf"], "eta"),
])
def test_invalid_parameter_exit_3_one_line(tmp_path, args, name):
    res = CliRunner().invoke(main, [*args, "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = stderr_lines(res)
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    assert not any(f.endswith(".json") for f in os.listdir(tmp_path))
    assert not (tmp_path / "bars.csv").exists()
    assert not (tmp_path / "policy.csv").exists()
    assert not (tmp_path / "scale.csv").exists()
    assert not (tmp_path / "surface.csv").exists()


@pytest.mark.parametrize("args", [
    ["scale", "--base-spread", "1e300", "--eta", "0.8", "--lam", "1.6",
     "--horizon", "1e-300", "--t2-max", "1e6"],
    ["optimize", "--a-coeff", "1e300", "--alpha", "3", "--lambda0", "3",
     "--lambda-ref", "1e-300"],
    ["simulate", "--s0", "1e300"],
    ["simulate", "--sigma-step", "2.0"],
])
def test_overflowing_output_exit_4_one_line(tmp_path, args):
    res = CliRunner().invoke(main, [*args, "--out", str(tmp_path)])
    assert res.exit_code == 4
    lines = stderr_lines(res)
    assert len(lines) == 1 and lines[0].startswith("error: numerical failure")
    assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


@pytest.fixture
def curve_csv(tmp_path):
    from spreadwave import FlowStats
    from spreadwave.synthetic import synthetic_spread_curve
    flow = FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=50.0)
    curve = synthetic_spread_curve(flow, 3.5, 1.2, 0.01, np.geomspace(10, 1000, 8),
                                   noise_rel=0.0, seed=0)
    path = str(tmp_path / "input_curve.csv")
    write_curve_csv(path, curve)
    return path


@pytest.mark.parametrize("flags, name", [
    (["--n", "nan"], "n must"),
    (["--sigma", "inf"], "sigma"),
    (["--price", "-1"], "mean_price"),
    (["--min-count", "-5"], "min_count"),
    (["--sigma", "0"], "lambda is not identified"),
    (["--sigma", "0", "--kind", "bar"], "lambda is not identified"),
    (["--kind", "bidask", "--horizon", "nan"], "horizon"),
    (["--quantile", "1.5"], "quantile"),
])
def test_calibrate_invalid_input_exit_3_one_line(tmp_path, curve_csv, flags, name):
    base = {"--n": "100", "--sigma": "0.02", "--price": "50"}
    for key, value in zip(flags[::2], flags[1::2]):
        base[key] = value
    args = [x for item in base.items() for x in item]
    res = CliRunner().invoke(main, ["calibrate", "--curve", curve_csv, *args,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = stderr_lines(res)
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    assert not (tmp_path / "calibration.json").exists()


@pytest.mark.parametrize("flag, value", [
    ("--window", "nan"), ("--window", "-1"), ("--window", "0"), ("--quantile", "0"),
    ("--horizon", "inf"),
])
def test_curve_bars_checks_flags_it_echoes(tmp_path, flag, value):
    # Bars use neither the window nor the horizon, but the report echoes both.
    bars = tmp_path / "bars.csv"
    bars.write_text("timestamp,open,high,low,close,volume\n0,1,2,0.5,1.5,3\n")
    res = CliRunner().invoke(main, ["curve", "--bars", str(bars), flag, value,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = stderr_lines(res)
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag[2:] in lines[0]
    assert sorted(os.listdir(tmp_path)) == ["bars.csv"]


def test_curve_negative_min_count_exit_3_one_line(tmp_path):
    bars = tmp_path / "bars.csv"
    bars.write_text("timestamp,open,high,low,close,volume\n0,1,2,0.5,1.5,3\n")
    res = CliRunner().invoke(main, ["curve", "--bars", str(bars), "--min-count", "-5",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = stderr_lines(res)
    assert len(lines) == 1 and lines[0].startswith("error: ") and "min_count" in lines[0]
    assert not (tmp_path / "curve.csv").exists()


def test_simulate_report_diagnostics(tmp_path):
    for steps, out in ((2000, tmp_path / "long"), (999, tmp_path / "short")):
        assert run_cli(["simulate", "--steps", str(steps), "--seed", "5",
                        "--out", str(out)]).exit_code == 0
    long = read_json_report(str(tmp_path / "long" / "simulate_report.json"))["summary"]
    short = read_json_report(str(tmp_path / "short" / "simulate_report.json"))["summary"]
    assert long["stream_layout"] == short["stream_layout"] == 2
    assert long["closure_ratio"] == pytest.approx(
        long["empirical_volatility"] / long["predicted_volatility"], rel=1e-15)
    assert 0.9 < long["closure_ratio"] < 1.1
    assert short["closure_ratio"] is None
    assert long["redraw_rate"] == long["redraws"] / 2000 == 0.0


def test_curve_csv_leaves_out_empty_buckets(tmp_path):
    run_cli(["simulate", "--steps", "1500", "--seed", "42", "--sigma-step", "0.0002",
             "--xi-std", "0.05", "--kappa-std", "0.05", "--out", str(tmp_path)])
    # Buckets between the 0th and the 0.25th volume percentile, with the outer
    # edge stretched to the largest volume: the middle bucket stays empty.
    res = run_cli(["curve", "--bars", str(tmp_path / "bars.csv"), "--lo-percentile", "0",
                   "--hi-percentile", "0.25", "--buckets", "3", "--min-count", "0",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    hist = np.loadtxt(tmp_path / "curve_hist.csv", delimiter=",", skiprows=1, ndmin=2)
    curve = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(hist) == 3 and (hist[:, 2] == 0).any()
    assert np.array_equal(curve[:, [0, 1, 4]], hist[hist[:, 2] > 0])
    assert np.isfinite(curve).all()
    back = read_curve(str(tmp_path / "curve.csv"), 0.9, CurveSource.BAR, min_count=0)
    assert sum(b.count for b in back.buckets) == 1500 and not any(b.flagged for b in back.buckets)


def test_simulate_report_redraw_rate(tmp_path):
    res = run_cli(["simulate", "--steps", "500", "--seed", "3", "--s0", "1",
                   "--sigma-step", "0.5", "--out", str(tmp_path)])
    assert res.exit_code == 0
    summary = read_json_report(str(tmp_path / "simulate_report.json"))["summary"]
    assert summary["redraws"] > 0
    assert summary["redraw_rate"] == summary["redraws"] / 500


# --------------------------------------------------------------------------
# columnar bar reader against the strict row parser
# --------------------------------------------------------------------------

_BAR_COLUMNS = ["timestamp", "open", "high", "low", "close", "volume"]

_number = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "Infinity", "-0", "1e-5"]),
)
_odd = st.sampled_from(["1_0", "", " ", "x", "1970-01-01T00:00:01Z", "1,5", "#"])
_space = st.sampled_from(["", " ", "\t"])
_altered = st.one_of(
    st.tuples(_space, _number, _space).map("".join),           # padded
    st.one_of(_number, _odd).map(lambda c: f'"{c}"'),          # quoted
    _odd,
)


@st.composite
def bar_csv_text(draw):
    """Bar CSVs: mostly plain numeric rows, with reordered and extra (even
    duplicated) columns, and padded, quoted, malformed, blank, commented,
    short and long rows mixed in."""
    extras = draw(st.lists(st.sampled_from(["note", "x", "open"]), max_size=2))
    header = draw(st.permutations(_BAR_COLUMNS + extras))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank", "comment", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = draw(st.lists(_number, min_size=len(header), max_size=len(header)))
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_altered)
        if kind == "comment":
            cells[0] = "#" + cells[0]
        elif kind == "short":
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        elif kind == "long":
            cells.append(draw(_number))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.integers(0, 2))


def _read(reader, path):
    try:
        return reader(path)
    except InputFormatError as exc:
        return str(exc)


@given(text=bar_csv_text())
# A quoted comma in an unused column shifts the columns after it for a
# parser that does not know CSV quoting.
@example(text='note,x,timestamp,open,high,low,close,volume\n"a,b",7,0,1,2,3,4,5\n')
@settings(max_examples=300, deadline=None)
def test_read_bars_matches_strict_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bars.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast, strict = _read(read_bars, path), _read(_read_bars_strict, path)
    if isinstance(strict, str):
        assert fast == strict
        assert re.match(r".*bars\.csv(:\d+)?: ", strict)
    else:
        assert not isinstance(fast, str), fast
        assert len(fast) == len(strict)
        for col in ("timestamp", "open", "high", "low", "close", "volume"):
            assert getattr(fast, col).tobytes() == getattr(strict, col).tobytes(), col


def test_read_bars_error_names_the_line_after_blank_lines(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_text("timestamp,open,high,low,close,volume\n0,1,2,0.5,1,3\n\n"
                    "2,1,2,0.5,oops,3\n")
    with pytest.raises(InputFormatError, match=r"bars\.csv:4: bad value 'oops'"):
        read_bars(str(path))
    path.write_text("timestamp,open,high,low,close,volume\nnoon,1,2,0.5,1,3\n")
    with pytest.raises(InputFormatError, match=r"bars\.csv:2: unparseable timestamp"):
        read_bars(str(path))


def test_read_bars_iso_timestamps_and_reordered_columns(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_text("volume,close,note,low,high,open,timestamp\n"
                    "3,1.5,a,0.5,2,1,1970-01-01T00:00:01Z\n")
    bars = read_bars(str(path))
    assert len(bars) == 1
    assert (bars.timestamp[0], bars.open[0], bars.high[0], bars.low[0],
            bars.close[0], bars.volume[0]) == (1.0, 1.0, 2.0, 0.5, 1.5, 3.0)


_BLOCK_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
"""


def test_simulate_and_curve_do_not_import_scipy_optimize(tmp_path):
    # Nothing under src/ needs scipy, and only a --config file needs yaml:
    # every command runs with scipy blocked and leaves yaml unloaded.
    out = str(tmp_path)
    commands = [
        ["simulate", "--steps", "3000", "--seed", "7"],
        ["curve", "--bars", out + "/bars.csv", "--min-count", "1", "--buckets", "8"],
        ["calibrate", "--curve", out + "/curve.csv", "--kind", "bar", "--n", "100",
         "--sigma", "0.02", "--price", "100", "--min-count", "1"],
        ["optimize", "--calibration", out + "/calibration.json", "--alpha", "0.001",
         "--lambda0", "3"],
        ["scale", "--base-spread", "2", "--eta", "0.8", "--lam", "1.6", "--t2-max", "100"],
        ["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1",
         "--sigma-tau", "0.02", "--n", "100", "--v-lo", "1", "--v-hi", "100",
         "--t-lo", "1", "--t-hi", "10"],
    ]
    code = _BLOCK_SCIPY + (
        "import numpy as np\n"
        "from spreadwave.cli import main\n"
        "from spreadwave.optimizer import ExecutionModel, optimize_spread, PnLParams\n"
        f"for args in {commands!r}:\n"
        "    try:\n"
        f"        main([*args, '--out', {out!r}])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, None), (args, exc.code)\n"
        "class Saturating:\n"          # no optimal_lambda: the numeric search
        "    lambda_ref = 1.0\n"
        "    def delta(self, lam, v):\n"
        "        return np.tanh(lam) * (1.0 + v)\n"
        "res = optimize_spread(PnLParams(0.1, 2.0, Saturating()), ExecutionModel(3.0))\n"
        "assert res.pnl_opt > 0.0\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "assert 'yaml' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    for name in ("curve.csv", "calibration.json", "policy.csv", "scale.csv", "surface.csv"):
        assert (tmp_path / name).exists(), name


def test_scale_equal_horizons(tmp_path):
    # geomspace(t1, t1, n) puts interior points an ulp below t1.
    t1 = "579.0190297100158"
    res = CliRunner().invoke(main, ["scale", "--base-spread", "2", "--eta", "0.8",
                                    "--lam", "1.6", "--horizon", t1, "--t2-max", t1,
                                    "--t-steps", "5", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "scale.csv").read_text().splitlines()[1:]
    assert [row.split(",") for row in rows] == [[t1, "2.0", "2.0"]] * 5


@pytest.mark.parametrize("args", [
    ["calibrate", "--curve", "CURVE", "--n", "100", "--sigma", "0.02", "--price", "50",
     "--tau0", "1e300"],
    ["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1",
     "--sigma-tau", "0.02", "--n", "100", "--tau0", "1e300", "--v-lo", "1",
     "--v-hi", "100", "--t-lo", "1", "--t-hi", "10"],
    ["optimize", "--a-coeff", "10", "--alpha", "3", "--lambda0", "1e300",
     "--v-hi", "1e300"],
])
def test_parameter_overflow_exit_4_names_the_command(tmp_path, curve_csv, args):
    args = [curve_csv if a == "CURVE" else a for a in args]
    res = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert res.exit_code == 4
    lines = stderr_lines(res)
    assert lines == [f"error: numerical failure: {args[0]}: a parameter overflowed "
                     "double precision"]
