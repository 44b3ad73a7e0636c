"""CSV/JSON round trips and the command-line interface contract."""

import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_runner import invoke

from spreadwave import (
    BarColumns,
    CoupledWaveParams,
    CurveSource,
    DomainError,
    ExecutionModel,
    InputFormatError,
    InsufficientDataError,
    PiecewiseConstantTable,
    PnLParams,
    QuoteColumns,
    TradeColumns,
    VolumeConfig,
    bar_height_rayleigh_scale,
    dimensionless_law,
    execution_density,
    execution_rate,
    policy_curve,
    predicted_volatility,
    simulate_path,
    spread_pnl,
    step_price,
    suggest_amplitude_dt,
)
from spreadwave import cli, coupled_wave, data_io
from spreadwave.calibration import (
    BucketSpec,
    SpreadSamples,
    build_spread_volume_curve,
    measure_flow_stats,
    quotes_to_samples,
)
from spreadwave.cli import resolve_config
from spreadwave.errors import _BLOCK_ROWS
from spreadwave.data_io import (
    _read_strict,
    format_float,
    parse_timestamp,
    read_bar_blocks,
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


def _format_block_reference(floats, lead=(), trail=()) -> bytes:
    """``format_float`` over every float cell and ``str`` over every int cell."""
    rows = zip(*(map(str, col) for col in lead),
               (",".join(map(format_float, row)) for row in floats),
               *(map(str, col) for col in trail))
    return "".join(",".join(row) + "\n" for row in rows).encode()


_BIT_FLOATS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.uint64(bits).view(np.float64)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1),
              st.lists(_BIT_FLOATS, min_size=width, max_size=width),
              st.integers(0, 10 ** 6)), max_size=30).map(lambda rows: (width, rows))))
def test_format_block_matches_format_float(table):
    """Any float64 bit pattern (NaN and infinities, subnormals, any exponent)
    reads as ``format_float`` writes it, with the int cells in place."""
    width, rows = table
    lead = [[row[0] for row in rows]]
    floats = np.array([row[1] for row in rows], dtype=float).reshape(len(rows), width)
    trail = [[row[2] for row in rows]]
    assert (data_io._format_block(floats, lead, trail)
            == _format_block_reference(floats.tolist(), lead, trail))


_TINY = np.nextafter(1e-4, 0.0)


@pytest.mark.parametrize("x", [
    1e-4, _TINY, -_TINY, 1e16, np.nextafter(1e16, 0.0), -1e16, 0.0, -0.0, 5e-324, -5e-324,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan, 0.1, 1e15])
def test_format_block_edges_of_the_plain_range(x):
    """The cells on both sides of the bounds where ``repr`` turns to an
    exponent, alone and next to a plain cell."""
    alone = [[x], [2.5]]
    assert data_io._format_block(np.array(alone)) == _format_block_reference(alone)
    pair = [[2.5, x]]
    assert (data_io._format_block(np.array(pair), trail=[[3]])
            == _format_block_reference(pair, trail=[[3]]))


def test_format_block_of_no_rows_is_empty():
    # orjson writes an empty array as b"[]", which would split into one empty row.
    assert data_io._format_block(np.empty((0, 3))) == b""
    assert data_io._format_block(np.empty((0, 2)), lead=[np.arange(0)]) == b""


def test_format_block_makes_strided_columns_contiguous():
    """orjson refuses an array that is not C-contiguous; the formatter copies it."""
    table = np.arange(24.0).reshape(6, 4) / 7.0
    counts = np.arange(12)[::2]
    for floats in (table[:, ::2], table.T[:3], table[::-1]):
        assert not floats.flags.c_contiguous
        assert data_io._format_block(floats, trail=[counts[:len(floats)]]) == (
            _format_block_reference(floats.tolist(), trail=[counts[:len(floats)].tolist()]))


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

def _assert_same_columns(got, want):
    assert type(got) is type(want)
    for name in want.names():
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_trade_quote_round_trip(tmp_path):
    trades = TradeColumns(*np.array([(1.5, 100.25, 10.0), (2.5, 100.5, 20.0)]).T)
    quotes = QuoteColumns(*np.array([(1.0, 99.5, 100.5)]).T)
    tp, qp = str(tmp_path / "t.csv"), str(tmp_path / "q.csv")
    write_trades_csv(tp, trades)
    write_quotes_csv(qp, quotes)
    _assert_same_columns(read_trades(tp), trades)
    _assert_same_columns(read_quotes(qp), quotes)


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


def _ulps_apart(base: float, steps: list[int]) -> list[float]:
    """Volumes ``steps[i]`` ulps above ``base``: edges that round together."""
    return [base + k * math.ulp(base) for k in steps]


# Each edge branch of build_spread_volume_curve: one volume (one edge, widened
# up, or down at the float maximum), volumes within a few ulps (geomspace
# edges that round together), gaps that leave buckets empty, and edge
# products that overflow or underflow.
_CURVE_VOLUMES = st.one_of(
    st.lists(st.one_of(st.floats(5e-324, sys.float_info.max),
                       st.sampled_from([5e-324, 1e-200, 1.0, 1e308, sys.float_info.max])),
             min_size=1, max_size=60),
    st.builds(_ulps_apart, st.floats(1e-300, 1e300), st.lists(st.integers(0, 4), min_size=1,
                                                              max_size=60)),
)


@given(volumes=_CURVE_VOLUMES, n_buckets=st.integers(1, 30),
       percentiles=st.sampled_from([(1.0, 99.0), (0.0, 100.0), (0.0, 0.25), (40.0, 60.0)]))
@example(volumes=[1.0] * 98 + [1.0 + 2.0 ** -51] * 2, n_buckets=25, percentiles=(1.0, 99.0))
@example(volumes=[1.7976931348622093e+308, 1.7976931348623157e+308], n_buckets=2,
         percentiles=(1.0, 99.0))
@settings(max_examples=300, deadline=None)
def test_every_built_curve_reads_back(volumes, n_buckets, percentiles):
    samples = SpreadSamples(volumes=np.array(volumes), source=CurveSource.BAR,
                            spreads=np.linspace(0.0, 1.0, len(volumes)))
    curve = build_spread_volume_curve(samples, BucketSpec(n_buckets, *percentiles),
                                      min_count=0)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "curve.csv")
        write_curve_csv(path, curve)
        back = read_curve(path, 0.9, CurveSource.BAR, min_count=0)
    assert back.buckets == tuple(b for b in curve.buckets if b.count > 0)


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
    # An empty file, and one of over 5 MiB that is not a multiple of 4 kB.
    for size in (0, 5 * 2 ** 20 + 3):
        data = np.random.default_rng(size).bytes(size)
        path.write_bytes(data)
        assert sha256_file(str(path)) == hashlib.sha256(data).hexdigest()


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


@pytest.mark.parametrize("name, text", [
    ("c.yaml", "steps: .inf\n"),
    ("c.yaml", "steps: -.inf\n"),
    ("c.json", '{"steps": 1e400}'),
    # A string key takes a string only: not a list, a null or a number.
    ("c.json", '{"out": ["a", 1]}'),
    ("c.json", '{"curve": null}'),
    ("c.yaml", "curve: 2024\n"),
])
def test_config_infinite_integer_exit_3_one_line(tmp_path, name, text):
    key = re.match(r"\W*(\w+)", text).group(1)
    command = "calibrate" if key == "curve" else "simulate"
    cfg = tmp_path / name
    cfg.write_text(text)
    res = invoke([command, "--config", str(cfg),
                  "--out", str(tmp_path / "out")])
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r}: cannot interpret")
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("command, key", [
    ("simulate", "rule"), ("simulate", "volume_mode"), ("calibrate", "kind"),
])
def test_bad_choice_exit_3_one_line(tmp_path, monkeypatch, command, key, source):
    args = [command, "--out", str(tmp_path / "out")]
    if source == "flag":
        args += ["--" + key.replace("_", "-"), "bogus"]
    elif source == "env":
        monkeypatch.setenv("SPREADWAVE_" + key.upper(), "bogus")
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: "bogus"}))
        args += ["--config", str(cfg)]
    res = invoke(args)
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r}: 'bogus'")
    assert not (tmp_path / "out").exists()


def _sample(spec) -> tuple[str, object]:
    """A valid value other than the default: as flag or variable text, and as parsed."""
    if spec.choices:
        return spec.choices[-1], spec.choices[-1]
    return {bool: ("on", True), int: ("7", 7), float: ("0.25", 0.25),
            str: ("somewhere", "somewhere")}[spec.type]


@pytest.mark.parametrize("command", sorted(cli._COMMAND_KEYS))
def test_every_key_parses_alike_from_flag_env_and_file(tmp_path, monkeypatch, command):
    keys = {**cli._GLOBAL_KEYS, **cli._COMMAND_KEYS[command]}
    samples = {key: _sample(spec) for key, spec in keys.items()}
    expected = {key: value for key, (_, value) in samples.items()}
    assert all(value != keys[key].default for key, value in expected.items())
    seen = []

    def capture(*args):
        seen.append(resolve_config(*args))
        raise InputFormatError("stop before the command runs")

    monkeypatch.setattr(cli, "resolve_config", capture)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(expected))
    flags = [x for key, (text, _) in samples.items()
             for x in ("--" + key.replace("_", "-"), text)]
    for args in (flags, ["--config", str(cfg)]):
        assert invoke([command, *args]).exit_code == 3
    with monkeypatch.context() as env:
        for key, (text, _) in samples.items():
            env.setenv("SPREADWAVE_" + key.upper(), text)
        assert invoke([command]).exit_code == 3
    assert seen == [expected] * 3

    help_text = invoke([command, "--help"]).output
    for key, spec in keys.items():
        assert f"--{key.replace('_', '-')} " in help_text
        if spec.choices:
            assert f"[{'|'.join(spec.choices)}]" in help_text


# --------------------------------------------------------------------------
# CLI contract
# --------------------------------------------------------------------------

def run_cli(args):
    return invoke(args, catch_exceptions=False)


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
    res = invoke(["curve", "--out", str(tmp_path)])
    assert res.exit_code == 3


def test_curve_flat_spread_gives_flat_curve(tmp_path):
    # constant-spread quotes: every bucket quantile equals that constant
    i = np.arange(1, 400, dtype=float)
    trades = TradeColumns(i, np.full_like(i, 100.0), 10.0 * (1 + i % 5))
    quotes = QuoteColumns(i + 0.5, np.full_like(i, 99.75), np.full_like(i, 100.25))
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
    res = invoke([
        "calibrate", "--curve", str(bad), "--n", "100", "--sigma", "0.02",
        "--price", "50", "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "spread_q" in res.output


def test_calibrate_round_trip_via_cli(tmp_path):
    # synthetic curve from known parameters, fitted through the CLI
    from spreadwave import FlowStats
    from synthetic import synthetic_spread_curve
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
    res = invoke([
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


@pytest.mark.parametrize("points", ["40", "41"])
def test_optimize_median_is_numpys(tmp_path, points):
    # An even count takes the mean of the two middle values.
    res = invoke(["optimize", "--a-coeff", "10", "--alpha", "3", "--lambda0", "3",
                  "--v-points", points, "--out", str(tmp_path)])
    assert res.exit_code == 0
    rates = np.loadtxt(tmp_path / "policy.csv", delimiter=",", skiprows=1, usecols=3)
    assert rates.size == int(points)
    report = read_json_report(str(tmp_path / "optimize_report.json"))
    assert report["summary"]["median_exec_rate"] == float(np.median(rates))


def test_optimize_requires_one_source(tmp_path):
    res = invoke([
        "optimize", "--lambda0", "3", "--out", str(tmp_path)])
    assert res.exit_code == 3
    res = invoke([
        "optimize", "--a-coeff", "10", "--calibration", "x.json",
        "--lambda0", "3", "--out", str(tmp_path)])
    assert res.exit_code == 3


def test_memory_error_exit_3_one_line(tmp_path, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(coupled_wave, "simulate_blocks", out_of_memory)
    res = invoke(["simulate", "--steps", "10", "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert res.stderr.strip().splitlines() == [
        "error: simulate: not enough memory for the requested sizes"]


def test_unwritable_output_exit_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    res = invoke([
        "simulate", "--steps", "1", "--out", str(blocker / "sub")])
    assert res.exit_code == 2


def test_version_flag():
    res = run_cli(["--version"])
    assert res.exit_code == 0
    assert "spreadwave" in res.output


@pytest.mark.parametrize("args, message", [
    (["calibrate", "--strict-product", "true"], "No such option '--strict-product'"),
    (["calibrate", "--n"], "Option '--n' requires an argument"),
    (["calibrate", "--kind", "bar", "extra"], "Got unexpected extra argument (extra)"),
    (["calibrat"], "No such command 'calibrat'"),
    (["--bogus"], "No such option '--bogus'"),
    (["simulate", "a\nb"], "Got unexpected extra argument (a\\nb)"),
], ids=["removed-flag", "flag-without-value", "extra-argument", "unknown-command",
        "unknown-group-flag", "line-break-argument"])
def test_usage_error_exit_3_one_line(tmp_path, monkeypatch, args, message):
    """A usage error is invalid input, not an I/O failure: exit 3 and one
    line, without a usage text."""
    monkeypatch.chdir(tmp_path)
    res = invoke(args)
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    assert len(res.stderr.splitlines()) == 1
    assert res.stdout == "" and os.listdir(tmp_path) == []


def test_removed_config_key_exit_3_one_line(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"strict_product": False}))
    res = invoke(["calibrate", "--config", str(cfg),
                  "--out", str(tmp_path / "out")])
    assert res.exit_code == 3
    assert res.stderr.strip().splitlines() == [
        "error: unknown config keys for calibrate: strict_product"]


# Each file is written as ``name`` and its path passed after ``args``.
@pytest.mark.parametrize("args, name, text, message", [
    (["simulate", "--config"], "c.yaml", "steps: [1\n", "c.yaml: invalid YAML: "),
    (["simulate", "--config"], "c.json", "steps: [1\n",
     "c.json: neither valid JSON nor valid YAML: "),
    (["simulate", "--config"], "c.yaml", "- 1\n- 2\n", "c.yaml: config must be a mapping"),
    (["optimize", "--lambda0", "3", "--calibration"], "calibration.json", "{",
     "calibration.json: invalid JSON: "),
    (["optimize", "--lambda0", "3", "--calibration"], "calibration.json", '{"kind": "bar"}',
     "calibration.json: missing key 'result' (not a calibration report?)"),
    (["curve", "--bars"], "bars.csv", "", "bars.csv: empty file, no header row"),
    (["curve", "--bars"], "e\nmpty.csv", "", "e\\nmpty.csv: empty file, no header row"),
    (["calibrate", "--n", "100", "--sigma", "0.02", "--price", "50", "--curve"], "curve.csv",
     "v_lo,v_hi,v_mid,spread_q,count\n", "curve.csv: curve has no buckets"),
    # csv refuses a cell past its field_size_limit, 131072 characters.
    (["curve", "--bars"], "bars.csv", "t" * 131073 + "\n0\n",
     "bars.csv: malformed CSV: field larger than field limit"),
], ids=["invalid-yaml", "json-falls-back-to-yaml", "yaml-list", "invalid-json",
        "report-without-result", "empty-bars", "line-break-in-path", "header-only-curve",
        "huge-header-cell"])
def test_malformed_input_file_exit_3_one_line(tmp_path, args, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    res = invoke([*args, str(path), "--out", str(tmp_path / "out")])
    assert res.exit_code == 3 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith(f"error: {tmp_path}/{message}")
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("name", ["c.yaml", "c.json"])
def test_empty_config_file_reads_as_no_keys(tmp_path, name):
    cfg = tmp_path / name
    cfg.write_text("")
    assert resolve_config("simulate", str(cfg), {}) == resolve_config("simulate", None, {})
    res = invoke(["simulate", "--config", str(cfg), "--steps", "10",
                  "--out", str(tmp_path / "out")])
    assert res.exit_code == 0 and res.stderr == ""
    assert (tmp_path / "out" / "bars.csv").exists()


def test_bare_command_prints_help():
    res = invoke([])
    assert res.exit_code == 0
    assert "Usage:" in res.output and "calibrate" in res.output


@pytest.mark.parametrize("args, flags, message", [
    (["--steps=12", "--out=o"], {"steps": "12", "out": "o"}, None),
    (["--xi-mean", "-1e-3", "--seed", "-1"], {"xi_mean": "-1e-3", "seed": "-1"}, None),
    (["--steps", "1", "--steps", "2"], {"steps": "2"}, None),
    (["--steps", "--help"], {"steps": "--help"}, None),
    (["--steps", "1", "--", "--seed"], None, "Got unexpected extra argument (--seed)"),
    (["--sigma_step", "1"], None, "No such option '--sigma_step'. (Did you mean one of: "
                                  "'--log-sigma', '--sigma-step', '--steps'?)"),
    (["--pathindex", "1"], None, "No such option '--pathindex'. Did you mean '--path-index'?"),
    (["-s", "1"], None, "No such option '-s'."),
    (["--steps"], None, "Option '--steps' requires an argument."),
], ids=["equals", "negative-value", "repeated", "help-as-value", "double-dash", "underscore",
        "near-miss", "short-flag", "no-value"])
def test_flag_grammar(monkeypatch, args, flags, message):
    seen = []

    def capture(command, config_path, given):
        seen.append({key: value for key, value in given.items() if value is not None})
        raise InputFormatError("stop before the command runs")

    monkeypatch.setattr(cli, "resolve_config", capture)
    res = invoke(["simulate", *args])
    assert res.exit_code == 3 and res.stdout == ""
    if message is None:
        assert seen == [flags]
    else:
        assert seen == [] and res.stderr.startswith(f"error: {message}")
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("args", [["simulate", "--help"], ["simulate", "--bogus", "--help"],
                                  ["simulate", "--steps", "1", "--help"]])
def test_help_anywhere_exits_0(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    res = invoke(args)
    assert res.exit_code == 0 and res.stderr == "" and os.listdir(tmp_path) == []
    assert res.stdout.startswith("Usage: spreadwave simulate [OPTIONS]\n")


def test_help_without_docstrings_exits_0():
    # python -OO strips the docstrings that --help shows.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for args in ([], ["simulate", "--help"]):
        res = subprocess.run([sys.executable, "-OO", "-m", "spreadwave.cli", *args],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0 and res.stdout.startswith("Usage: spreadwave"), res.stderr


def test_ctrl_c_exits_1_after_one_line(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(coupled_wave, "simulate_blocks", interrupted)
    res = invoke(["simulate", "--steps", "10", "--out", str(tmp_path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr.strip().splitlines() == ["Aborted!"]


_HUGE = "4611686018427387904"  # 2**62


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
    # Counts no array can be sized for; rejected before anything is allocated.
    (["simulate", "--steps", _HUGE], "steps"),
    (["optimize", "--a-coeff", "10", "--lambda0", "3", "--v-points", _HUGE], "v_points"),
    (["scale", "--base-spread", "2.0", "--eta", "0.8", "--lam", "1.6",
      "--t2-max", "10", "--t-steps", _HUGE], "t_steps"),
    (["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1",
      "--sigma-tau", "0.02", "--n", "100", "--v-lo", "1", "--v-hi", "100",
      "--t-lo", "1", "--t-hi", "10", "--nv", _HUGE], "nv"),
    (["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1",
      "--sigma-tau", "0.02", "--n", "100", "--v-lo", "1", "--v-hi", "100",
      "--t-lo", "1", "--t-hi", "10", "--nt", _HUGE], "nt"),
    (["curve", "--bars", "missing.csv", "--buckets", _HUGE], "buckets"),
    (["simulate", "--steps", "10", "--path-index", "-1"], "path_index"),
    # Flags are parsed by the config parser, not refused as usage errors.
    (["simulate", "--steps", "abc"], "steps"),
    (["scale", "--surface", "maybe"], "surface"),
    (["simulate", "--seed", "1.5"], "seed"),
    (["calibrate", "--curve", "missing.csv"], "missing required config: n, sigma, price"),
])
def test_invalid_parameter_exit_3_one_line(tmp_path, args, name):
    res = invoke([*args, "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
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
    res = invoke([*args, "--out", str(tmp_path)])
    assert res.exit_code == 4
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical failure")
    assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


@pytest.fixture
def curve_csv(tmp_path):
    from spreadwave import FlowStats
    from synthetic import synthetic_spread_curve
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
    res = invoke(["calibrate", "--curve", curve_csv, *args,
                  "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    assert not (tmp_path / "calibration.json").exists()


@pytest.mark.parametrize("kind", ["bidask", "bar"])
@pytest.mark.parametrize("column, value", [
    ("v_lo", "nan"), ("v_hi", "inf"), ("v_mid", "-1"), ("v_mid", "0"), ("v_mid", "nan"),
    ("v_mid", "-inf"), ("spread_q", "-1"), ("spread_q", "nan"), ("spread_q", "inf"),
    ("count", "-1"),
])
def test_calibrate_refuses_a_bad_curve_cell_exit_3_one_line(tmp_path, curve_csv, kind,
                                                             column, value):
    # Line 3 of the file, the second bucket, holds the bad cell.
    lines = Path(curve_csv).read_text().splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[2] = ",".join(cells)
    Path(curve_csv).write_text("\n".join(lines) + "\n")
    res = invoke(["calibrate", "--curve", curve_csv, "--kind", kind,
                  "--n", "100", "--sigma", "0.02", "--price", "50",
                  "--min-count", "1", "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {curve_csv}:3: {column} must be")
    assert not (tmp_path / "calibration.json").exists()


def _swap_edges(rows):
    rows[1][0], rows[1][1] = rows[1][1], rows[1][0]


def _set(column, value):
    def edit(rows):
        rows[1][column] = value
    return edit


@pytest.mark.parametrize("kind", ["bidask", "bar"])
@pytest.mark.parametrize("edit, line, column", [
    (list.reverse, 3, "v_lo"),                    # rows in falling volume order
    (lambda rows: rows.insert(0, rows.pop(3)), 3, "v_lo"),
    (_swap_edges, 3, "v_hi"),
    (_set(1, "19.306977288832496"), 3, "v_hi"),   # a bucket of no width
    (_set(2, "1e6"), 3, "v_mid"),
    (_set(2, "10.0"), 3, "v_mid"),                # below its bucket
    (_set(4, str(2**53 + 1)), 3, "count"),
    (_set(4, "9" * 400), 3, "count"),
], ids=["reversed", "moved-row", "swapped-edges", "no-width", "v-mid-above", "v-mid-below",
        "count-2**53+1", "count-400-digits"])
def test_calibrate_refuses_a_malformed_curve_exit_3_one_line(tmp_path, curve_csv, kind,
                                                             edit, line, column):
    header, *lines = Path(curve_csv).read_text().splitlines()
    rows = [row.split(",") for row in lines]
    edit(rows)
    Path(curve_csv).write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    res = invoke(["calibrate", "--curve", curve_csv, "--kind", kind, "--n", "100",
                  "--sigma", "0.02", "--price", "50", "--min-count", "1",
                  "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {curve_csv}:{line}: {column} must be")
    assert not (tmp_path / "calibration.json").exists()


@pytest.mark.parametrize("flag, value", [
    ("--window", "nan"), ("--window", "-1"), ("--window", "0"), ("--quantile", "0"),
    ("--horizon", "inf"),
])
def test_curve_bars_checks_flags_it_echoes(tmp_path, flag, value):
    # Bars use neither the window nor the horizon, but the report echoes both.
    bars = tmp_path / "bars.csv"
    bars.write_text("timestamp,open,high,low,close,volume\n0,1,2,0.5,1.5,3\n")
    res = invoke(["curve", "--bars", str(bars), flag, value,
                  "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag[2:] in lines[0]
    assert sorted(os.listdir(tmp_path)) == ["bars.csv"]


def test_curve_negative_min_count_exit_3_one_line(tmp_path):
    bars = tmp_path / "bars.csv"
    bars.write_text("timestamp,open,high,low,close,volume\n0,1,2,0.5,1.5,3\n")
    res = invoke(["curve", "--bars", str(bars), "--min-count", "-5",
                  "--out", str(tmp_path)])
    assert res.exit_code == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "min_count" in lines[0]
    assert not (tmp_path / "curve.csv").exists()


def test_simulate_report_diagnostics(tmp_path):
    for steps, out in ((2000, tmp_path / "long"), (999, tmp_path / "short")):
        assert run_cli(["simulate", "--steps", str(steps), "--seed", "5",
                        "--out", str(out)]).exit_code == 0
    long = read_json_report(str(tmp_path / "long" / "simulate_report.json"))["summary"]
    short = read_json_report(str(tmp_path / "short" / "simulate_report.json"))["summary"]
    assert long["stream_layout"] == short["stream_layout"] == 3
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
    # The empty bucket is not flagged at --min-count 0, but it has no
    # quantile, so the usable count is the curve's rows.
    summary = read_json_report(str(tmp_path / "curve_report.json"))["summary"]
    assert summary["n_usable"] == len(curve) == 2
    assert res.output.endswith(f"({len(curve)} usable buckets)\n")


@pytest.mark.parametrize("volume", ["1e308", "1e-200"])
def test_curve_mid_of_extreme_volumes_is_inside_its_bucket(tmp_path, volume):
    # The edge product overflows (1e308) or underflows (1e-200).
    rows = [f"{i},100,{100.01 + 0.01 * (i % 7)!r},100,100,{volume}" for i in range(100)]
    path = tmp_path / "bars.csv"
    path.write_text("\n".join(["timestamp,open,high,low,close,volume", *rows]) + "\n")
    res = run_cli(["curve", "--bars", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 0
    curve = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.isfinite(curve).all()
    v_lo, v_hi, v_mid = curve[:, 0], curve[:, 1], curve[:, 2]
    assert np.all((0.0 < v_lo) & (v_lo <= v_mid) & (v_mid <= v_hi))


def _curve_of_one_volume(tmp_path, volume):
    rows = [f"{i},100,{100.01 + 0.01 * (i % 7)!r},100,100,{volume}" for i in range(100)]
    path = tmp_path / "bars.csv"
    path.write_text("\n".join(["timestamp,open,high,low,close,volume", *rows]) + "\n")
    res = run_cli(["curve", "--bars", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 0
    [row] = (tmp_path / "curve.csv").read_text().splitlines()[1:]
    return row.split(",")


def test_curve_of_the_largest_volume_is_finite(tmp_path):
    # The bucket above the float maximum would end at inf; it widens down instead.
    top = sys.float_info.max
    v_lo, v_hi, v_mid, _, count = map(float, _curve_of_one_volume(tmp_path, repr(top)))
    assert (v_lo, v_hi, count) == (np.nextafter(top, 0.0), top, 100)
    assert v_lo <= v_mid <= v_hi


def test_curve_of_one_large_volume_widens_up(tmp_path):
    # Below the float maximum the single bucket still ends 1e-12 above the volume.
    row = _curve_of_one_volume(tmp_path, "1e308")
    assert row[:3] == ["1e+308", "1.0000000000010001e+308", "1.0000000000005002e+308"]
    assert float(row[1]) == 1e308 * (1.0 + 1e-12) + 1e-300


def test_simulate_report_redraw_rate(tmp_path):
    res = run_cli(["simulate", "--steps", "500", "--seed", "3", "--s0", "1",
                   "--sigma-step", "0.5", "--out", str(tmp_path)])
    assert res.exit_code == 0
    summary = read_json_report(str(tmp_path / "simulate_report.json"))["summary"]
    assert summary["redraws"] > 0
    assert summary["redraw_rate"] == summary["redraws"] / 500


def test_simulate_redraw_rate_warning_reaches_stderr(tmp_path):
    # Logging's last-resort handler prints the warning; pytest's log capture
    # would hide it from the in-process runner, so the command runs in a child process.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run(
        [sys.executable, "-m", "spreadwave.cli", "simulate", "--steps", "3000",
         "--sigma-step", "0.5", "--xi-std", "2", "--kappa-std", "2", "--s0", "1",
         "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == [
        "mid-price redraw rate 0.131 exceeds 0.001; results may be biased"]


@pytest.mark.parametrize("line", [0, 2 * _BLOCK_ROWS + 10], ids=["header", "later_block"])
def test_invalid_utf8_in_a_table_exit_3_one_line(tmp_path, line):
    path = tmp_path / "bars.csv"
    write_bars_csv(str(path), simulate_path(CoupledWaveParams(seed=1), 100.0, 3 * _BLOCK_ROWS))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line] = b"\xff" + lines[line]
    path.write_bytes(b"".join(lines))
    res = run_cli(["curve", "--bars", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 3
    [message] = res.stderr.splitlines()
    assert message.startswith(f"error: {path}: not valid UTF-8")


# --------------------------------------------------------------------------
# columnar table readers against the strict row parser
# --------------------------------------------------------------------------

# Decimals of 20-25 digits at, just below and just above a point halfway
# between two doubles, as integers (past 2**63, where orjson reads unsigned
# integers and then floats) and with an exponent: a parser that rounds twice
# reads one of them wrong.
_halfway = st.builds(
    lambda m, shift, k, nudge: (str(((2 * m + 1) << shift) * 10 ** k + nudge)
                                + (f"e-{k}" if k else "")),
    st.integers(2 ** 52, 2 ** 53 - 1), st.integers(11, 24), st.integers(0, 1),
    st.sampled_from([-1, 0, 1]))
_number = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "Infinity", "-0", "1e-5"]),
    # Out of range, exponent forms, integers past 2**63 and 2**64, and what
    # float() reads but JSON does not write.
    st.sampled_from(["-0.0", "1e400", "-1e400", "1e-400", "-1e-400", "1E5", "1e+05",
                     "9223372036854775808", "18446744073709551616",
                     "123456789012345678901234567890", "01", ".5", "5.", "+1"]),
    _halfway,
)
_iso = st.one_of(
    st.builds(lambda dt, spec, zone: dt.isoformat(timespec=spec) + zone,
              st.datetimes(min_value=datetime(1900, 1, 2), max_value=datetime(2200, 1, 1)),
              st.sampled_from(["auto", "seconds", "milliseconds", "microseconds"]),
              st.sampled_from(["", "Z", "+00:00", "-05:30"])),
    st.sampled_from(["2023-11-14T22:13:20.5Z", "2023-11-14T22:13:20.1234",
                     "2023-11-14 22:13:20Z", "2023-11-14", "2023-11-14T25:00:00Z"]),
)
_odd = st.sampled_from(["1_0", "", " ", "x", "1970-01-01T00:00:01Z", "1,5", "#"])
_space = st.sampled_from(["", " ", "\t"])
_altered = st.one_of(
    st.tuples(_space, _number, _space).map("".join),           # padded
    st.one_of(_number, _odd).map(lambda c: f'"{c}"'),          # quoted
    _odd,
    # Quote forms np.loadtxt must read as csv does: a quote mid-field, a
    # doubled quote, an unterminated quote, a quote after a space, and a
    # quoted cell that holds a line break.
    st.builds(lambda a, b: f'{a}"{b}', _number, _number),
    st.builds(lambda a, b: f'"{a}""{b}"', _number, _number),
    _number.map(lambda c: f'"{c}'),
    _number.map(lambda c: f' "{c}"'),
    st.builds(lambda a, b: f'"{a}\n{b}"', _number, st.one_of(_space, _number)),
)


@st.composite
def table_csv_text(draw, kind):
    """CSVs of a ``kind`` table: mostly plain rows, with numeric, ISO-8601 or
    mixed timestamps, reordered and extra (even duplicated) columns, and
    padded, quoted, malformed, blank, commented, short and long rows mixed in."""
    names = list(kind.names())
    extras = draw(st.lists(st.sampled_from(["note", "x", names[1]]), max_size=2))
    header = draw(st.permutations(names + extras))
    stamps = draw(st.sampled_from([_number, _iso, st.one_of(_number, _iso)]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind_of_row = draw(st.sampled_from(["row"] * 4 + ["blank", "comment", "short", "long"]))
        if kind_of_row == "blank":
            lines.append("")
            continue
        cells = [draw(stamps if col == "timestamp" else _number) for col in header]
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_altered)
        if kind_of_row == "comment":
            cells[0] = "#" + cells[0]
        elif kind_of_row == "short":
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        elif kind_of_row == "long":
            cells.append(draw(_number))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.integers(0, 2))


# JSON's numbers, and the plain tokens that float() reads but orjson refuses
# (01, .5, 5., +1, 1e400, integers past 2**64) or reads as another value
# (the integer -0, which it reads as 0).
_json_number = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
                         st.integers(-10**6, 10**6).map(str))
_plain_token = st.one_of(
    st.sampled_from(["-0", "-0.0", "1e400", "-1e-400", "01", ".5", "5.", "+1"]),
    st.integers(10**19, 10**30).map(str), st.integers(-10**30, -10**19).map(str), _halfway)


@st.composite
def plain_csv_blocks(draw, kind):
    """CSVs of a ``kind`` table whose lines are whole runs of plain-number
    cells, as ``data_io._parse_plain`` parses them with one orjson call, with
    up to three cells replaced by a ``_plain_token``.  A few drawn numbers
    fill every line, so a large block costs few draws."""
    header = draw(st.permutations(kind.names()))
    n_rows = draw(st.sampled_from([1, data_io._PLAIN_ROWS, data_io._PLAIN_ROWS + 1,
                                   2 * data_io._PLAIN_ROWS]))
    pool = draw(st.lists(_json_number, min_size=1, max_size=8))
    cells = [pool[i % len(pool)] for i in range(n_rows * len(header))]
    for _ in range(draw(st.integers(0, 3))):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_plain_token)
    lines = [",".join(header), *(",".join(cells[i:i + len(header)])
                                 for i in range(0, len(cells), len(header)))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.integers(0, 1))


def _read(reader, path):
    try:
        return reader(path)
    except InputFormatError as exc:
        return str(exc)


def _assert_matches_strict(reader, kind, text):
    name = f"{kind.__name__.lower()}.csv"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast, strict = _read(reader, path), _read(lambda p: _read_strict(p, kind), path)
    if isinstance(strict, str):
        assert fast == strict
        assert re.match(rf".*{re.escape(name)}(:\d+)?: ", strict)
    else:
        assert not isinstance(fast, str), fast
        assert len(fast) == len(strict)
        for col in kind.names():
            assert getattr(fast, col).tobytes() == getattr(strict, col).tobytes(), col


# A quoted comma in an unused column shifts the columns after it for a
# parser that does not know CSV quoting.
@given(text=st.one_of(table_csv_text(BarColumns), plain_csv_blocks(BarColumns)))
@example(text='note,x,timestamp,open,high,low,close,volume\n"a,b",7,0,1,2,3,4,5\n')
# A short row, then a long one: the block holds as many cells as two full rows.
@example(text='timestamp,open,high,low,close,volume\n0,1,2,3,4\n1,2,3,4,5,6,7\n')
@settings(max_examples=300, deadline=None)
def test_read_bars_matches_strict_parser(text):
    _assert_matches_strict(read_bars, BarColumns, text)


@given(text=st.one_of(table_csv_text(QuoteColumns), plain_csv_blocks(QuoteColumns)))
@example(text='note,x,timestamp,bid,ask\n"a,b",7,0,1,2\n')
@settings(max_examples=300, deadline=None)
def test_read_quotes_matches_strict_parser(text):
    _assert_matches_strict(read_quotes, QuoteColumns, text)


@given(text=st.one_of(table_csv_text(TradeColumns), plain_csv_blocks(TradeColumns)))
@example(text='note,x,timestamp,price,size\n"a,b",7,0,1,2\n')
@settings(max_examples=300, deadline=None)
def test_read_trades_matches_strict_parser(text):
    _assert_matches_strict(read_trades, TradeColumns, text)


def test_tables_written_here_are_read_without_loadtxt(tmp_path, monkeypatch):
    """Bars, trades and quotes as this package writes them, in full blocks
    and a part block, with cells from both of the formatter's branches, are
    parsed by orjson alone, and as the strict parser reads them."""
    n = 2 * _BLOCK_ROWS + 7
    columns = np.random.default_rng(5).lognormal(0.0, 3.0, (3, n))
    columns[:, :8] = [0.0, -0.0, 5e-324, 1e-5, -2.5e-7, 1e16, -1.5e300, 123.0]
    paths = {kind: str(tmp_path / f"{kind.__name__}.csv")
             for kind in (BarColumns, TradeColumns, QuoteColumns)}
    write_bars_csv(paths[BarColumns], simulate_path(CoupledWaveParams(seed=2), 100.0, n))
    write_trades_csv(paths[TradeColumns], TradeColumns(*columns))
    write_quotes_csv(paths[QuoteColumns], QuoteColumns(*columns))
    strict = {kind: _read_strict(path, kind) for kind, path in paths.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    for kind, reader in ((BarColumns, read_bars), (TradeColumns, read_trades),
                         (QuoteColumns, read_quotes)):
        _assert_same_columns(reader(paths[kind]), strict[kind])


@pytest.mark.parametrize("text", ["-0,1,2\n3,4,5\n", "1,2,-0\n3,4,5\n", "3,4,5\n1,2,-0"],
                         ids=["first_cell", "last_cell", "last_cell_of_the_file"])
def test_integer_minus_zero_reads_negative(tmp_path, text):
    # orjson reads the integer -0 as 0; float() and np.loadtxt give -0.0.
    path = tmp_path / "trades.csv"
    path.write_text("timestamp,price,size\n" + text)
    trades = read_trades(str(path))
    cells = np.column_stack([trades.timestamp, trades.price, trades.size])
    assert np.signbit(cells).tolist() == [[cell == "-0" for cell in line.split(",")]
                                          for line in text.splitlines()]


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


@pytest.mark.parametrize("text", [
    "0,1,2,0.5,1.5,3\n1,1,2.5,0.5,1.5,4\n",
    '0,1,2,0.5,"1.5",3\n1,1,2.5,0.5,1.5,4\n',
    "1970-01-01T00:00:01Z,1,2,0.5,1.5,3\n1970-01-01T00:00:02Z,1,2.5,0.5,1.5,4\n",
], ids=["plain", "quoted", "iso"])
def test_every_column_of_a_read_block_is_its_own_array(tmp_path, text):
    # A column kept from a block, such as the volumes, holds only itself.
    path = tmp_path / "bars.csv"
    path.write_text("timestamp,open,high,low,close,volume\n" + text)
    [block] = read_bar_blocks(str(path))
    assert [getattr(block, name).base for name in BarColumns.names()] == [None] * 6
    assert block.volume.tolist() == [3.0, 4.0]


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


def test_importing_the_cli_loads_neither_scipy_nor_yaml():
    # Every command pays the CLI's imports; yaml loads only for a --config file.
    code = ("import sys, spreadwave.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    """bars.csv, curve.csv and calibration.json of a small README chain."""
    out = str(tmp_path_factory.mktemp("chain"))
    for args in (["simulate", "--steps", "3000", "--seed", "7"],
                 ["curve", "--bars", out + "/bars.csv", "--min-count", "1", "--buckets", "8"],
                 ["calibrate", "--curve", out + "/curve.csv", "--kind", "bar", "--n", "100",
                  "--sigma", "0.02", "--price", "100", "--min-count", "1"]):
        assert run_cli([*args, "--out", out]).exit_code == 0
    return out


# Each command loads, besides the package, the CLI, errors and data_io, only
# the model modules it runs: no parser library, and difflib only to suggest a
# name for a misspelled one.  Only ``curve`` loads numpy.ma, which its
# quantiles (np.percentile, np.quantile) import.
@pytest.mark.parametrize("args, adds", [
    ([], ()),
    (["simulate", "--steps", "10"], ("coupled_wave",)),
    (["curve", "--bars", "{in}/bars.csv", "--min-count", "1", "--buckets", "8"],
     ("calibration", "spread_models")),
    (["calibrate", "--curve", "{in}/curve.csv", "--kind", "bar", "--n", "100",
      "--sigma", "0.02", "--price", "100", "--min-count", "1"],
     ("calibration", "spread_models")),
    (["optimize", "--calibration", "{in}/calibration.json", "--lambda0", "3"],
     ("calibration", "optimizer", "spread_models")),
    (["scale", "--base-spread", "2", "--eta", "0.8", "--lam", "1.6", "--t2-max", "100"],
     ("scaling", "spread_models")),
], ids=["import", "simulate", "curve", "calibrate", "optimize", "scale"])
def test_each_command_loads_only_its_modules(tmp_path, chain_inputs, args, adds):
    args = [arg.replace("{in}", chain_inputs) for arg in args]
    code = ("import sys\n"
            "import spreadwave.cli\n"
            f"args = {[*args, '--out', str(tmp_path)] if args else []!r}\n"
            "try:\n"
            "    if args:\n"
            "        spreadwave.cli.main(args)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code in (0, None), exc.code\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.split('.')[0] in ('spreadwave', 'click', 'difflib')\n"
            "              or m == 'numpy.ma'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.splitlines()[-1].split())
    always = {"spreadwave", "spreadwave.cli", "spreadwave.data_io", "spreadwave.errors"}
    quantiles = {"numpy.ma"} if args[:1] == ["curve"] else set()
    assert loaded == always | quantiles | {"spreadwave." + name for name in adds}


def test_a_numeric_policy_loads_no_masked_arrays():
    # A law without a closed-form optimum takes the numeric search, which
    # must not import numpy.ma (np.setdiff1d does).
    code = ("import sys\n"
            "import numpy as np\n"
            "from spreadwave import optimizer\n"
            "class Law:\n"
            "    lambda_ref = 1.2\n"
            "    def delta(self, lam, v):\n"
            "        return np.sqrt(10.0 / v + v * v) / 0.6 * np.tanh(np.asarray(lam) / 2.0)\n"
            "policy = optimizer.policy_curve(np.geomspace(0.4, 6.8, 50),\n"
            "                                optimizer.ExecutionModel(lambda0=3.0), Law(), 3.0)\n"
            "assert np.isfinite(policy.lambda_opt).all() and not policy.failures\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_fitting_and_simulating_load_no_io_module():
    # The column schemas and the CSV layer load only when a table is read or
    # written, so a process that only fits or simulates holds none of them.
    code = ("import sys\n"
            "from spreadwave import calibration, coupled_wave, optimizer, scaling, "
            "spread_models\n"
            "print(sorted(m for m in sys.modules if m in ('spreadwave.data_io', 'orjson')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_every_probed_name_resolves_in_its_module():
    # The traced benchmark (perfbench/probes.py) wraps these names by module;
    # one that no longer resolves fails here, not only in the benchmark.
    spec = importlib.util.spec_from_file_location(
        "probes", Path(__file__).resolve().parents[1] / "perfbench" / "probes.py")
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    for table in (probes.SPANNED, probes.COUNTED):
        for module, names in table.items():
            home = importlib.import_module(f"spreadwave.{module}")
            assert [name for name in names if not hasattr(home, name)] == [], module


# spreadwave.__all__, pinned in its order: star imports and scripts rely on both.
_PUBLIC_NAMES = [
    "__version__", "BarColumns", "BucketSpec", "CalibrationResult", "CurveBucket",
    "CurveSource", "FlowStats", "QuoteColumns", "Rejections", "SpreadSamples",
    "SpreadVolumeCurve", "TradeColumns", "bar_spread_model", "bars_to_samples",
    "bidask_spread_model", "build_spread_volume_curve", "fit_bar_curve", "fit_bid_ask_curve",
    "measure_flow_stats", "quotes_to_samples", "AmplitudeState",
    "BarSample", "BarSeries", "CoupledWaveParams", "LastPriceRule", "VolumeConfig",
    "bar_height_rayleigh_scale", "evolve_amplitudes", "evolve_fluctuating", "path_volatility",
    "predicted_volatility", "simulate_path", "step_price", "suggest_amplitude_dt", "DomainError",
    "FitConvergenceError", "InputFormatError", "InsufficientDataError", "NoSolutionError",
    "SpreadwaveError", "DEFAULT_LAMBDA_REF_FRACTION", "ExecutionModel", "LinearSpreadLaw",
    "OptimizeResult", "PnLParams", "QuotePolicy", "calibrated_law", "dimensionless_law",
    "execution_density", "execution_rate", "optimize_spread", "policy_curve", "spread_pnl",
    "stationarity_residual", "PiecewiseConstantTable", "SpreadSurfaceParams",
    "bar_spread_dimensionless", "bar_spread_with_volume", "classical_scale",
    "default_surface_grids", "scale_spread_time", "spread_surface", "STRADDLE_LAMBDA",
    "DimensionlessSpreadParams", "SpreadMinimum", "SpreadModelParams", "basic_spread",
    "general_spread", "general_spread_dimensionless", "inverse_spread_volumes",
    "spread_minimum", "straddle_spread", "transaction_time",
]


def test_package_names_resolve_to_their_defining_modules():
    import spreadwave

    assert spreadwave.__all__ == _PUBLIC_NAMES
    constants = {"DEFAULT_LAMBDA_REF_FRACTION": "spreadwave.optimizer",
                 "STRADDLE_LAMBDA": "spreadwave.spread_models"}
    for name in _PUBLIC_NAMES[1:]:
        value = getattr(spreadwave, name)
        home = constants.get(name) or value.__module__
        assert getattr(sys.modules[home], name) is value, name
    star: dict = {}
    exec("from spreadwave import *", star)
    assert all(star[name] is getattr(spreadwave, name) for name in _PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        spreadwave.no_such_name
    names = dir(spreadwave)
    assert names == sorted(names) and set(_PUBLIC_NAMES) <= set(names)


def test_package_holds_only_the_modules_it_runs():
    # Nine modules with the package's own __init__: code that only the tests
    # call (as the synthetic tapes and curves) lives in tests/.
    import spreadwave

    assert [m.name for m in pkgutil.iter_modules(spreadwave.__path__)] == [
        "calibration", "cli", "coupled_wave", "data_io", "errors", "optimizer", "scaling",
        "spread_models"]


def _tape(n=40):
    times = np.arange(float(n))
    return TradeColumns(times, np.full(n, 100.0), np.full(n, 10.0))


def _table(t_edges=(1.0, 2.0), v_edges=(1.0, 2.0), value=1.0):
    return PiecewiseConstantTable(t_edges, v_edges, [[value]])


# Each call once returned inf or NaN, gave volumes of 0, built a table of NaN
# cells, accepted a bool or a float as a count, or raised another error.
@pytest.mark.parametrize("call", [
    pytest.param(lambda: predicted_volatility(CoupledWaveParams(), math.inf),
                 id="predicted_volatility-inf"),
    pytest.param(lambda: step_price(math.inf, CoupledWaveParams(), coupled_wave.path_rng(0)),
                 id="step_price-inf"),
    pytest.param(lambda: execution_rate(ExecutionModel(3.0), math.nan), id="execution_rate-nan"),
    pytest.param(lambda: execution_density(ExecutionModel(3.0), math.nan),
                 id="execution_density-nan"),
    pytest.param(lambda: spread_pnl(PnLParams(0.0, 1.0, dimensionless_law(10.0, 1.2)),
                                    ExecutionModel(3.0), math.inf),
                 id="spread_pnl-inf"),
    pytest.param(lambda: measure_flow_stats(_tape(), window=math.inf),
                 id="measure_flow_stats-inf"),
    pytest.param(lambda: quotes_to_samples(QuoteColumns(np.arange(3.0), np.full(3, 99.0),
                                                        np.full(3, 101.0)),
                                           _tape(), window=math.inf),
                 id="quotes_to_samples-inf"),
    pytest.param(lambda: _table(t_edges=(1.0, math.nan)), id="table-nan-t-edge"),
    pytest.param(lambda: _table(v_edges=(math.nan, 2.0)), id="table-nan-v-edge"),
    pytest.param(lambda: _table(value=math.nan), id="table-nan-value"),
    pytest.param(lambda: _table(value=0.0), id="table-zero-value"),
    pytest.param(lambda: _table(value=-1.0), id="table-negative-value"),
    pytest.param(lambda: BucketSpec(n_buckets=2.5), id="bucket-spec-float"),
    pytest.param(lambda: BucketSpec(n_buckets=True), id="bucket-spec-bool"),
])
def test_entry_points_reject_non_finite_and_ill_typed_input(call):
    with pytest.raises(DomainError):
        call()


# The library's other refusals, each with its error and the cause it names.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: VolumeConfig(mode="bogus"), DomainError,
                 "unknown volume mode 'bogus'", id="volume-mode"),
    pytest.param(lambda: bar_height_rayleigh_scale(np.array([])), InsufficientDataError,
                 "empty series", id="rayleigh-empty"),
    pytest.param(lambda: suggest_amplitude_dt(CoupledWaveParams(), 100.0), DomainError,
                 "bar height is identically zero", id="amplitude-dt-zero-heights"),
    pytest.param(lambda: PiecewiseConstantTable((1.0, 2.0), (1.0, 2.0), [[1.0, 1.0]]),
                 DomainError, r"values shape \(1, 2\) does not match bucket grid \(1, 1\)",
                 id="table-shape"),
    pytest.param(lambda: _table(v_edges=(2.0, 1.0)), DomainError,
                 "bucket edges must be strictly ascending", id="table-descending-edges"),
    pytest.param(lambda: policy_curve([], ExecutionModel(3.0), dimensionless_law(10.0, 1.2),
                                      0.0), DomainError, "volume grid must be non-empty",
                 id="policy-curve-empty"),
    pytest.param(lambda: measure_flow_stats(_tape(29), window=60.0), InsufficientDataError,
                 "need >= 30 trades in the window, got 29", id="flow-few-trades"),
    pytest.param(lambda: measure_flow_stats(
        TradeColumns(np.arange(40.0), np.full(40, 100.0), np.r_[np.full(39, 10.0), 0.0]),
        window=60.0), DomainError, "trade prices and sizes must be > 0", id="flow-zero-size"),
    pytest.param(lambda: measure_flow_stats(
        TradeColumns(np.arange(40.0)[::-1], np.full(40, 100.0), np.full(40, 10.0)),
        window=60.0), DomainError, "trade timestamps must be non-decreasing",
                 id="flow-decreasing-times"),
    pytest.param(lambda: measure_flow_stats(
        TradeColumns(np.zeros(40), np.full(40, 100.0), np.full(40, 10.0)), window=60.0),
                 InsufficientDataError, "all trades share one timestamp", id="flow-one-time"),
    pytest.param(lambda: build_spread_volume_curve(SpreadSamples(
        np.geomspace(1.0, 100.0, 50), np.full(50, 0.5), CurveSource.BAR), quantile_level=0.0),
                 DomainError, r"quantile_level must be in \(0, 1\], got 0.0",
                 id="curve-quantile-0"),
])
def test_library_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_calibrate_kind_choices_are_the_report_kinds():
    from spreadwave.calibration import REPORT_KINDS

    assert cli._COMMAND_KEYS["calibrate"]["kind"].choices == tuple(REPORT_KINDS)


def test_scale_equal_horizons(tmp_path):
    # geomspace(t1, t1, n) puts interior points an ulp below t1.
    t1 = "579.0190297100158"
    res = invoke(["scale", "--base-spread", "2", "--eta", "0.8",
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
    res = invoke([*args, "--out", str(tmp_path / "out")])
    assert res.exit_code == 4
    lines = res.stderr.strip().splitlines()
    assert lines == [f"error: numerical failure: {args[0]}: a parameter overflowed "
                     "double precision"]
