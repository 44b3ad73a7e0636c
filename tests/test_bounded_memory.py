"""The bars path in bounded memory: the block streams of the simulator and
the table reader (quoted cells included), the block-wise writers, and the
``simulate`` and ``curve --bars`` commands built on them;
and the block-wise working sets of ``spread_surface``, of the numeric
policy search and of the amplitude kernel.

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

from cli_runner import invoke

from spreadwave import (AmplitudeState, BarSeries, CoupledWaveParams, LastPriceRule,
                        VolumeConfig, evolve_fluctuating, simulate_path)
from spreadwave import data_io, optimizer, scaling
from spreadwave import cli
from spreadwave.coupled_wave import bar_height_rayleigh_scale, path_volatility, simulate_blocks
from spreadwave.data_io import (read_bar_blocks, read_bars, read_quotes, write_bar_blocks,
                                write_bars_csv, write_policy_csv, write_surface_csv)
from spreadwave.errors import _BLOCK_ROWS, DomainError, InputFormatError, row_blocks
from spreadwave.optimizer import QuotePolicy

_B = _BLOCK_ROWS
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
    """A bar CSV of a little more than two row blocks, and its rows."""
    series = simulate_path(_PARAMS, 100.0, 2 * _B + 3, volume=VolumeConfig())
    path = tmp_path_factory.mktemp("bars") / "bars.csv"
    write_bars_csv(str(path), series)
    return path.read_bytes(), read_bars(str(path))


def _with_quoted_note(data: bytes, at: int) -> tuple[bytes, int]:
    """``data`` with two leading columns, ``note`` and ``pad``, and the offset
    of the one quoted cell.

    The first row that starts at or after byte ``at`` has the note
    ``"1,2"``, every other row the note ``1``.  Split on every comma, as a
    parser that does not know CSV quoting splits, the quoted row shifts by
    one column and still parses as numbers.
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


def _strict_rows(monkeypatch) -> list:
    """The line numbers of the rows the strict row parser is asked to read."""
    lines = []
    strict = data_io._strict_table

    def spy(rows, names, path):
        rows = list(rows)
        lines.extend(line for line, _ in rows)
        return strict(rows, names, path)

    monkeypatch.setattr(data_io, "_strict_table", spy)
    return lines


def _assert_same_bars(got, want, rows: int) -> None:
    """``got`` holds exactly the first ``rows`` rows of ``want``."""
    assert len(got) == rows
    for name in ("timestamp", "open", "high", "low", "close", "volume"):
        assert getattr(got, name).tobytes() == getattr(want, name)[:rows].tobytes(), name


def test_quoted_cell_in_a_later_block_is_read_by_loadtxt(tmp_path, monkeypatch, bars_file):
    data, expected = bars_file
    quoted, at = _with_quoted_note(data, len(data) - 200)
    assert quoted[:at].count(b"\n") > _B  # the quoted row is after the first block
    path = tmp_path / "quoted.csv"
    path.write_bytes(quoted)
    rows = _strict_rows(monkeypatch)
    _assert_same_bars(read_bars(str(path)), expected, len(expected))
    assert rows == []


@pytest.mark.parametrize("side", [0, 1], ids=["ends_block", "starts_block"])
def test_quoted_cell_at_a_block_edge_is_read_by_loadtxt(tmp_path, monkeypatch, bars_file, side):
    data, expected = bars_file
    data = data[:data.index(b"\n", 4000) + 1]
    quoted, at = _with_quoted_note(data, 1000)
    path = tmp_path / "quoted.csv"
    path.write_bytes(quoted)
    # The first block ends with (or just before) the quoted row.
    monkeypatch.setattr(data_io, "_BLOCK_ROWS", quoted[:at].count(b"\n") - side)
    rows = _strict_rows(monkeypatch)
    bars = read_bars(str(path))
    assert rows == []
    _assert_same_bars(bars, expected, data.count(b"\n") - 1)


# Blocks of 4 lines: lines 2-5 of the file, then 6-9 and 10-11.
@pytest.mark.parametrize("line, cell, reads", [
    (2, '"{}\n"', True),   # on lines 2 and 3, inside the first block
    (5, '"{}\n"', False),  # on lines 5 and 6, across the first block's end
    (5, '"{}', False),     # never closed: csv reads the rest of the file into it
], ids=["inside", "across", "unterminated"])
def test_quoted_line_break_at_a_block_edge_exit_3_one_line(tmp_path, monkeypatch,
                                                           line, cell, reads):
    path = _bars_csv(tmp_path / "bars.csv", 10)
    expected = read_bars(str(path))
    lines = path.read_text().splitlines(keepends=True)
    head, volume = lines[line - 1].rsplit(",", 1)
    lines[line - 1] = f"{head},{cell.format(volume.strip())}\n"
    path.write_text("".join(lines))
    monkeypatch.setattr(data_io, "_BLOCK_ROWS", 4)
    if reads:
        _assert_same_bars(read_bars(str(path)), expected, len(expected))
        return
    res = invoke(["curve", "--bars", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert res.stderr.splitlines() == [
        f"error: {path}:5: a quoted cell runs past the end of a 4-line block"]


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
    res = invoke([
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
    assert summary["rayleigh_scale"] == bar_height_rayleigh_scale(series.h)
    assert summary["empirical_volatility"] == path_volatility(series.s_last, series.s0)
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


def test_a_refused_bar_block_is_parsed_alone_by_the_strict_parser(tmp_path, monkeypatch):
    path = _bars_csv(tmp_path / "bars.csv", 3 * _B)
    expected = read_bars(str(path))
    # The second block holds a volume that only Python's float reads, so
    # both np.loadtxt passes refuse the block and the strict row parser
    # reads it alone.  The third holds an ISO stamp, which the timestamp
    # converter reads.  No row is read twice and no block is larger.
    strict_row, iso_row = _B + 5, 2 * _B + 7
    lines = path.read_text().splitlines(keepends=True)
    lines[strict_row + 1] = lines[strict_row + 1].rsplit(",", 1)[0] + ",1_5\n"
    lines[iso_row + 1] = "1970-01-01T00:00:00Z" + lines[iso_row + 1][lines[iso_row + 1].index(","):]
    path.write_text("".join(lines))
    rows = _strict_rows(monkeypatch)
    blocks = list(read_bar_blocks(str(path)))
    assert rows == list(range(_B + 2, 2 * _B + 2))  # the second block's lines
    assert [len(b) for b in blocks] == [_B, _B, _B]
    got = data_io.BarColumns(*(np.concatenate([getattr(b, name) for b in blocks])
                               for name in data_io._BAR_COLUMNS))
    assert got.volume[strict_row] == 15.0 and got.timestamp[iso_row] == 0.0
    got.volume[strict_row] = expected.volume[strict_row]
    got.timestamp[iso_row] = expected.timestamp[iso_row]
    _assert_same_bars(got, expected, len(expected))


def _quote_tape(path, n, iso_from, quoted_at=None):
    """A quote CSV of ``n`` rows, stamped in seconds before row ``iso_from`` and
    in ISO-8601 text (1970-01-01 plus the same seconds) from it on; the bid
    of row ``quoted_at``, if given, is a quoted cell."""
    lines = ["timestamp,bid,ask"]
    for i in range(n):
        iso = f"1970-01-01T{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}.25Z"
        bid = f'"{100.0 + i / 7!r}"' if i == quoted_at else repr(100.0 + i / 7)
        lines.append(f"{iso if i >= iso_from else f'{i}.25'},{bid},{100.5 + i / 7!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_iso_stamped_tape_is_read_in_blocks_without_the_strict_parser(tmp_path, monkeypatch):
    path = _quote_tape(tmp_path / "quotes.csv", 2 * _B + 5, iso_from=0)
    rows = _strict_rows(monkeypatch)
    blocks = list(data_io._read_blocks(path, data_io.QuoteColumns))
    assert rows == []
    assert [len(b) for b in blocks] == [_B, _B, 5]
    quotes = read_quotes(path)
    assert quotes.timestamp.tolist() == [i + 0.25 for i in range(2 * _B + 5)]
    assert quotes.bid.tolist() == [100.0 + i / 7 for i in range(2 * _B + 5)]


def test_empty_bar_block_writes_no_line(tmp_path):
    bars = simulate_path(_PARAMS, 100.0, 2, volume=VolumeConfig())

    def block(rows):
        return BarSeries(*(getattr(bars, f)[rows] for f in ("s_mid", "s_high", "s_low",
                                                              "s_last", "h", "volume")), s0=100.0)

    with_empty, without = tmp_path / "with_empty.csv", tmp_path / "without.csv"
    write_bar_blocks(str(with_empty), [block(slice(0, 1)), block(slice(1, 1)), block(slice(1, 2))])
    write_bar_blocks(str(without), [block(slice(0, 1)), block(slice(1, 2))])
    assert with_empty.read_bytes() == without.read_bytes()
    assert with_empty.read_bytes().count(b"\n") == 3


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
        res = invoke(args)
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

    ``simulate`` keeps h and s_last, ``curve --bars`` each bar's volume and
    range: 16 B a bar.  The one-block run carries the per-block costs
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
        invoke(simulate)  # warm-up: lazy imports and caches
        peaks[blocks] = _traced_peak(simulate), _traced_peak(curve)
    kept = 16 * 15 * _B
    for name, one, many in zip(("simulate", "curve"), peaks[1], peaks[16]):
        assert many - one <= 2.0 * kept, (name, many - one, kept)


def test_curve_quotes_body_holds_a_few_columns_per_row(tmp_path):
    """Above a one-block tape, the peak of ``curve --quotes --trades`` grows by
    at most 2 x the 64 B a row of the two whole tapes' columns (48 B) and the
    (volume, spread) pairs (16 B) take.  The trades are numeric.  The quotes are
    ISO-stamped, or stamped in seconds for their first half, or hold one
    quoted cell; all three are read block by block with np.loadtxt."""
    for tape in ("iso", "numeric_then_iso", "one_quoted_cell"):
        peaks = {}
        for blocks in (1, 16):
            n = blocks * _B
            quotes = _quote_tape(tmp_path / f"{tape}{blocks}.csv", n,
                                 iso_from=n // 2 if tape == "numeric_then_iso" else 0,
                                 quoted_at=n // 2 if tape == "one_quoted_cell" else None)
            trades = tmp_path / f"trades{blocks}.csv"
            trades.write_text("timestamp,price,size\n"
                              + "".join(f"{i}.5,100.25,{1 + i % 7}\n" for i in range(n)))
            curve = ["curve", "--quotes", quotes, "--trades", str(trades), "--window", "30",
                     "--out", str(tmp_path / str(blocks))]
            invoke(curve)  # warm-up: lazy imports and caches
            peaks[blocks] = _traced_peak(curve)
        assert peaks[16] - peaks[1] <= 2.0 * 64 * 15 * _B, (tape, peaks, 15 * _B)


# --------------------------------------------------------------------------
# in-process working sets: the spread surface and the numeric policy search
# --------------------------------------------------------------------------

def _surface_params(table: bool) -> scaling.SpreadSurfaceParams:
    rng = np.random.default_rng(3)

    def values():
        return scaling.PiecewiseConstantTable(np.geomspace(1.0, 10.0, 6),
                                              np.geomspace(1.0, 100.0, 11),
                                              rng.uniform(0.5, 2.0, (5, 10)))
    return scaling.SpreadSurfaceParams(
        lambda_risk=1.5, rho_risk=1.0, sigma_tau=0.02, n=100.0, tau0=0.01,
        lambda_table=values() if table else None, rho_table=values() if table else None)


# 1 cell per block still takes a whole row; 25 and 30 cells take 2 and 3 of
# the 10-volume rows, so the 7 horizons end in a part block.
@pytest.mark.parametrize("cells", [1, 25, 30, 70, 10 ** 6])
@pytest.mark.parametrize("table", [False, True], ids=["scalar", "table"])
def test_spread_surface_row_blocks_equal_one_broadcast(monkeypatch, cells, table):
    params = _surface_params(table)
    v_grid, t_grid = np.geomspace(1.0, 100.0, 10), np.geomspace(1.0, 10.0, 7)
    whole = scaling.bar_spread_with_volume(params, 100.0, v_grid[None, :], t_grid[:, None])
    monkeypatch.setattr(scaling, "_BLOCK_CELLS", cells)
    assert np.array_equal(scaling.spread_surface(params, 100.0, v_grid, t_grid), whole)


@pytest.mark.parametrize("table", [False, True], ids=["scalar", "table"])
def test_spread_surface_peak_is_its_result_and_one_block(table):
    # 1000 horizons of 100 volumes: the result is about 12 blocks, so
    # temporaries of the whole surface would dwarf those of one block.
    params = _surface_params(table)
    v_grid, t_grid = np.geomspace(1.0, 100.0, 100), np.geomspace(1.0, 10.0, 1000)
    scaling.spread_surface(params, 100.0, v_grid[:3], t_grid[:3])  # warm-up
    surface, _, peak = _traced(lambda: scaling.spread_surface(params, 100.0, v_grid, t_grid))
    block = scaling._BLOCK_CELLS // v_grid.size * v_grid.size * 8
    # The law's temporaries of one block: about 4 with scalar risk
    # multipliers, 6 with tables.
    assert peak - surface.nbytes <= 8 * block, (peak - surface.nbytes) / block


class _Saturating:
    """A law with no closed-form optimum: ``policy_curve`` searches its grid."""

    lambda_ref = 1.2

    def delta(self, lam, v):
        return np.sqrt(10.0 / v + v * v) * (2.0 / 1.2) * np.tanh(np.asarray(lam) / 2.0)


@pytest.mark.parametrize("points", [1, 10 ** 6])
def test_numeric_policy_curve_is_the_same_in_any_block_size(monkeypatch, points):
    grid, model = np.geomspace(0.4, 6.8, 37), optimizer.ExecutionModel(lambda0=3.0)
    default = optimizer.policy_curve(grid, model, _Saturating(), 1.0)
    monkeypatch.setattr(optimizer, "_BLOCK_POINTS", points)
    blocked = optimizer.policy_curve(grid, model, _Saturating(), 1.0)
    for name in ("lambda_opt", "spread_opt", "exec_rate", "pnl_opt", "pnl_naive", "halt"):
        assert np.array_equal(getattr(blocked, name), getattr(default, name)), name


def test_numeric_policy_curve_peak_is_a_few_block_arrays():
    # 1000 volumes are 250 blocks: a grid evaluated whole would take 32 MB.
    grid, model = np.geomspace(0.4, 6.8, 1000), optimizer.ExecutionModel(lambda0=3.0)
    optimizer.policy_curve(grid[:3], model, _Saturating(), 1.0)  # warm-up
    _, _, peak = _traced(lambda: optimizer.policy_curve(grid, model, _Saturating(), 1.0))
    block = optimizer._BLOCK_POINTS * optimizer._GRID_POINTS * 8
    assert peak <= 5 * block, peak / block


def test_evolve_fluctuating_peak_is_a_few_blocks_whatever_the_steps():
    # The final-state path keeps one block of draws and step matrices, and
    # reduces them to one matrix: 100k steps (about 49 blocks) peak no
    # higher than 3 blocks do, and below 1 MB.
    p = CoupledWaveParams(sigma_step=1e-4, xi_std=0.5, kappa_std=0.5, seed=1)
    state0 = AmplitudeState(1.0 + 0.0j, 0.0j)
    evolve_fluctuating(state0, p, 100.0, 1.0, 10)  # warm-up

    def peak(n):
        return _traced(lambda: evolve_fluctuating(state0, p, 100.0, 1.0, n))[2]

    few, many = peak(3 * _B), peak(100_000)
    assert many <= 1_000_000, many
    assert many <= 1.1 * few, (many, few)
