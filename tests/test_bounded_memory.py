"""The bars path in bounded memory: the block streams of the simulator and
the bar reader, the block-wise writers, the chunked quote scan of the bar
reader, and the ``simulate`` and ``curve --bars`` commands built on them.

The memory guards use tracemalloc, which slows every allocation, so they run
on a path of 16 row blocks: enough for a per-row cost to dwarf a per-block one.
"""

import collections
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from spreadwave import BarSeries, CoupledWaveParams, LastPriceRule, VolumeConfig, simulate_path
from spreadwave import coupled_wave, data_io
from spreadwave import cli
from spreadwave.cli import main
from spreadwave.coupled_wave import (bar_height_rayleigh_scale, path_volatility, row_blocks,
                                     simulate_blocks)
from spreadwave.data_io import (read_bar_blocks, read_bars, write_bars_csv, write_policy_csv,
                                write_surface_csv)
from spreadwave.errors import DomainError, InputFormatError
from spreadwave.optimizer import QuotePolicy

_B = coupled_wave._BLOCK_ROWS
_PARAMS = CoupledWaveParams(sigma_step=2e-4, xi_std=0.05, kappa_std=0.05, seed=1)


def _csv(header, columns) -> bytes:
    """Whole-array reference writer: every column formatted at once."""
    rows = zip(*(map(str if col.dtype.kind == "i" else repr, col.tolist())
                 for col in columns))
    return (",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)).encode()


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + 3])
def test_bar_writer_matches_whole_array_reference(tmp_path, n):
    series = simulate_path(_PARAMS, 100.0, n, volume=VolumeConfig())
    o, c = series.s_mid, series.s_last
    expected = _csv(("timestamp", "open", "high", "low", "close", "volume"), (
        np.arange(n), o, np.maximum(np.maximum(series.s_high, o), c),
        np.minimum(np.minimum(series.s_low, o), c), c, series.volume))
    write_bars_csv(str(tmp_path / "bars.csv"), series)
    assert (tmp_path / "bars.csv").read_bytes() == expected


@pytest.mark.parametrize("n", [_B + 1, 2 * _B + 3])
def test_policy_and_surface_writers_match_whole_array_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    cols = [rng.standard_normal(n) for _ in range(6)]
    halt = rng.integers(0, 2, n)
    write_policy_csv(str(tmp_path / "policy.csv"), QuotePolicy(*cols, halt=halt == 1))
    assert (tmp_path / "policy.csv").read_bytes() == _csv(data_io._POLICY_COLUMNS,
                                                          (*cols, halt))
    # Three horizons of n - 1 volumes: the row blocks cut across horizons.
    t_grid, v_grid = rng.random(3), rng.random(n - 1)
    surface = rng.standard_normal((3, n - 1))
    write_surface_csv(str(tmp_path / "surface.csv"), t_grid, v_grid, surface)
    assert (tmp_path / "surface.csv").read_bytes() == _csv(("T", "v", "delta"), (
        np.repeat(t_grid, n - 1), np.tile(v_grid, 3), surface.ravel()))


@pytest.fixture(scope="module")
def bars_file(tmp_path_factory):
    """A bar CSV of a little more than one quote-scan chunk, and its rows."""
    series = simulate_path(_PARAMS, 100.0, data_io._SCAN_CHUNK // 80, volume=VolumeConfig())
    path = tmp_path_factory.mktemp("bars") / "bars.csv"
    write_bars_csv(str(path), series)
    assert path.stat().st_size > data_io._SCAN_CHUNK
    return path.read_bytes(), read_bars(str(path))


def _with_quoted_note(data: bytes, at: int) -> tuple[bytes, int]:
    """``data`` with two leading columns, ``note`` and ``pad``, and the offset
    of the one quoted cell.

    The first row that starts at or after byte ``at`` has the note
    ``"1,2"``, every other row the note ``1``.  Split on every comma, as
    ``np.loadtxt`` splits, the quoted row shifts by one column and still
    parses as numbers: only the strict parser reads it right.
    """
    lines = data.splitlines(keepends=True)
    out = [b"note,pad," + lines[0]]
    offset, quote_at = len(out[0]), None
    for line in lines[1:]:
        prefix = b"1,0,"
        if quote_at is None and offset >= at:
            prefix, quote_at = b'"1,2",0,', offset
        out.append(prefix + line)
        offset += len(out[-1])
    return b"".join(out), quote_at


def _strict_calls(monkeypatch) -> list:
    calls = []
    strict = data_io._read_bars_strict

    def spy(path):
        calls.append(path)
        return strict(path)

    monkeypatch.setattr(data_io, "_read_bars_strict", spy)
    return calls


def _assert_same_bars(got, want, rows: int) -> None:
    """``got`` holds exactly the first ``rows`` rows of ``want``."""
    assert len(got) == rows
    for name in ("timestamp", "open", "high", "low", "close", "volume"):
        assert getattr(got, name).tobytes() == getattr(want, name)[:rows].tobytes(), name


def test_quote_after_the_first_scan_chunk_goes_to_the_strict_parser(
        tmp_path, monkeypatch, bars_file):
    data, expected = bars_file
    quoted, at = _with_quoted_note(data, len(data) - 200)
    assert at > data_io._SCAN_CHUNK
    path = tmp_path / "quoted.csv"
    path.write_bytes(quoted)
    calls = _strict_calls(monkeypatch)
    _assert_same_bars(read_bars(str(path)), expected, len(expected))
    assert calls == [str(path)]


@pytest.mark.parametrize("side", [0, 1], ids=["open_quote_ends_chunk", "open_quote_starts_chunk"])
def test_quoted_cell_across_a_scan_chunk_edge_goes_to_the_strict_parser(
        tmp_path, monkeypatch, bars_file, side):
    data, expected = bars_file
    data = data[:data.index(b"\n", 4000) + 1]
    quoted, at = _with_quoted_note(data, 1000)
    path = tmp_path / "quoted.csv"
    path.write_bytes(quoted)
    header = quoted.index(b"\n") + 1
    # The first chunk after the header ends just after (or just before) the
    # opening quote; the closing quote lies in the next chunk.
    monkeypatch.setattr(data_io, "_SCAN_CHUNK", at - header + 1 - side)
    calls = _strict_calls(monkeypatch)
    bars = read_bars(str(path))
    assert calls == [str(path)]
    _assert_same_bars(bars, expected, data.count(b"\n") - 1)


def _traced(fn):
    """``fn()``, with the traced memory it holds at the end and at its peak."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_simulate_write_and_read_memory_does_not_grow_per_row(tmp_path):
    n = 16 * _B
    series, result_bytes, peak = _traced(
        lambda: simulate_path(_PARAMS, 100.0, n, volume=VolumeConfig()))
    assert peak <= 2.0 * result_bytes, (peak, result_bytes)

    input_bytes = sum(col.nbytes for col in (series.s_mid, series.s_high, series.s_low,
                                             series.s_last, series.h, series.volume))
    path = str(tmp_path / "bars.csv")
    _, _, peak = _traced(lambda: write_bars_csv(path, series))
    assert peak <= 1.0 * input_bytes, (peak, input_bytes)

    del series
    bars, result_bytes, peak = _traced(lambda: read_bars(path))
    assert len(bars) == n
    assert peak <= 2.0 * result_bytes, (peak, result_bytes)


# --------------------------------------------------------------------------
# the streamed commands
# --------------------------------------------------------------------------

_REDRAW_HEAVY = {"sigma_step": 0.5, "xi_std": 2.0, "kappa_std": 2.0}


def _simulate(out, n, rule, mode, wave, s0=100.0, seed=7):
    """Run ``simulate`` into ``out``; the CLI result and the equivalent params."""
    wave_flags = [x for key, value in wave.items()
                  for x in (f"--{key.replace('_', '-')}", repr(value))]
    res = CliRunner().invoke(main, [
        "simulate", "--steps", str(n), "--seed", str(seed), "--s0", repr(s0), "--rule", rule,
        "--volume-mode", mode, "--path-index", "2", *wave_flags, "--out", str(out)])
    params = CoupledWaveParams(**wave, last_price_rule=LastPriceRule(rule), seed=seed)
    return res, params


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1])
@pytest.mark.parametrize("wave", [
    {"sigma_step": 2e-4, "xi_std": 0.05, "kappa_std": 0.05}, _REDRAW_HEAVY,
], ids=["plain", "redraw_heavy"])
@pytest.mark.parametrize("mode", ["impact", "lognormal", "none"])
@pytest.mark.parametrize("rule", ["uniform", "normal"])
def test_streamed_simulate_matches_whole_path(tmp_path, rule, mode, wave, n):
    s0 = 1.0 if wave is _REDRAW_HEAVY else 100.0
    res, params = _simulate(tmp_path / "cli", n, rule, mode, wave, s0=s0)
    assert res.exit_code == 0, res.output
    series = simulate_path(params, s0, n, path_index=2, volume=VolumeConfig(mode=mode))
    if wave is _REDRAW_HEAVY:
        assert series.redraws > 0
    write_bars_csv(str(tmp_path / "whole.csv"), series)
    assert (tmp_path / "cli" / "bars.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    with open(tmp_path / "cli" / "simulate_report.json", encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    assert summary["redraws"] == series.redraws
    assert summary["mean_bar_height"] == float(np.mean(series.h))
    assert summary["rayleigh_scale"] == bar_height_rayleigh_scale(series)
    assert summary["empirical_volatility"] == path_volatility(series)
    assert summary["final_price"] == float(series.s_last[-1])


def test_simulate_blocks_check_their_arguments_on_the_call():
    with pytest.raises(DomainError, match="n_steps"):
        simulate_blocks(_PARAMS, 100.0, 0)
    with pytest.raises(DomainError, match="s0"):
        simulate_blocks(_PARAMS, -1.0, 10)


def test_simulate_overflow_after_the_first_block_leaves_no_file(tmp_path):
    # With h = 0 the path is a pure multiplicative walk, s_last = s0 * prod(growth),
    # so a start price between the highest log-price of the first block and
    # that of the later ones overflows after the first block only.
    wave = {"sigma_step": 0.01, "xi_std": 0.0, "kappa_std": 0.0}
    params = CoupledWaveParams(**wave, seed=5)
    log_path = np.log(simulate_path(params, 1.0, 4 * _B, path_index=2).s_last)
    first, later = log_path[:_B].max(), log_path[_B:].max()
    assert later - first > 0.5
    s0 = math.exp(math.log(np.finfo(float).max) - 0.5 * (first + later))
    out = tmp_path / "out"
    res, _ = _simulate(out, 4 * _B, "uniform", "impact", wave, s0=s0, seed=5)
    assert res.exit_code == 3, res.output
    assert res.stderr.strip().splitlines() == [
        "error: simulated prices overflowed; step volatility or bar height is "
        "too large for this price"]
    assert os.listdir(out) == []


def _bars_csv(path, n, seed=1):
    write_bars_csv(str(path), simulate_path(
        CoupledWaveParams(sigma_step=2e-4, xi_std=0.05, kappa_std=0.05, seed=seed),
        100.0, n, volume=VolumeConfig()))
    return path


def test_bar_blocks_after_a_failed_block_come_from_the_strict_parser(tmp_path, monkeypatch):
    path = _bars_csv(tmp_path / "bars.csv", 3 * _B)
    expected = read_bars(str(path))
    # An ISO timestamp in the second block: np.loadtxt fails there, and the
    # strict parser supplies that block and the rest.
    row = _B + 5
    lines = path.read_text().splitlines(keepends=True)
    lines[row + 1] = "1970-01-01T00:00:00Z" + lines[row + 1][lines[row + 1].index(","):]
    path.write_text("".join(lines))
    calls = _strict_calls(monkeypatch)
    blocks = list(read_bar_blocks(str(path)))
    assert calls == [str(path)]
    assert [len(b) for b in blocks] == [_B, 2 * _B]
    got = data_io.BarColumns(*(np.concatenate([getattr(b, name) for b in blocks])
                               for name in data_io._BAR_COLUMNS))
    assert got.timestamp[row] == 0.0
    got.timestamp[row] = expected.timestamp[row]
    _assert_same_bars(got, expected, len(expected))


def test_bad_cell_after_the_first_block_names_its_line(tmp_path):
    path = _bars_csv(tmp_path / "bars.csv", 2 * _B)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[_B + 10].split(",")
    cells[4] = "oops"  # the close, on line _B + 11 of the file
    lines[_B + 10] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(InputFormatError, match=rf"bars\.csv:{_B + 11}: bad value 'oops'"):
        read_bars(str(path))


def _traced_peak(args) -> int:
    """Traced peak of one in-process CLI run."""
    tracemalloc.start()
    try:
        res = CliRunner().invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    return peak


def test_simulate_summary_releases_the_heights_before_the_volatility_estimate(monkeypatch):
    # path_volatility's arithmetic needs two columns of temporaries; with the
    # heights gone by then, the summary peaks at three columns (24 B a bar),
    # not four.  The blocks are views of one array made before tracing, and
    # the writer only drains them, so only the summary's own columns count.
    n = 16 * _B
    column = np.linspace(1.0, 2.0, n)
    blocks = [BarSeries(*(column[rows],) * 6, s0=1.0) for rows in row_blocks(n)]
    monkeypatch.setattr(cli, "write_bar_blocks",
                        lambda path, blocks: collections.deque(blocks, maxlen=0))
    tracemalloc.start()
    try:
        summary = cli._write_and_summarize("unused.csv", iter(blocks), _PARAMS, 1.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["empirical_volatility"] > 0.0
    assert summary["mean_bar_height"] == float(np.mean(column))
    assert peak <= 3.2 * 8 * n, peak / (8 * n)


def test_simulate_and_curve_bodies_hold_two_columns_per_bar(tmp_path):
    """Above a one-block run, the peak grows by at most 2 x the two columns kept per bar.

    ``simulate`` keeps h and s_last, ``curve --bars`` the accepted volumes and
    ranges: 16 B a bar.  The one-block run carries the per-block costs
    (formatted rows, a parsed block, the numpy.random set-up), which do not
    grow with the path.
    """
    peaks = {}
    for blocks in (1, 16):
        out = str(tmp_path / str(blocks))
        simulate = ["simulate", "--steps", str(blocks * _B), "--seed", "1",
                    "--sigma-step", "2e-4", "--xi-std", "0.05", "--kappa-std", "0.05",
                    "--out", out]
        curve = ["curve", "--bars", os.path.join(out, "bars.csv"), "--out", out]
        CliRunner().invoke(main, simulate)  # warm-up: lazy imports and caches
        peaks[blocks] = _traced_peak(simulate), _traced_peak(curve)
    kept = 16 * 15 * _B
    for name, one, many in zip(("simulate", "curve"), peaks[1], peaks[16]):
        assert many - one <= 2.0 * kept, (name, many - one, kept)
