"""The bars path in bounded memory: block-wise simulator and writers, and the
chunked quote scan of the bar reader.

The memory guards use tracemalloc, which slows every allocation, so they run
on a path of 16 row blocks: enough for a per-row cost to dwarf a per-block one.
"""

import tracemalloc

import numpy as np
import pytest

from spreadwave import CoupledWaveParams, VolumeConfig, simulate_path
from spreadwave import coupled_wave, data_io
from spreadwave.data_io import read_bars, write_bars_csv, write_policy_csv, write_surface_csv
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
