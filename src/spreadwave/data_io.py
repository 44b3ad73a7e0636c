"""CSV and JSON input/output with byte-stable formatting.

All writers emit "\n" line endings and repr-based float formatting, so a
rerun with identical inputs produces identical bytes on any platform.
Readers are strict about structure (missing columns and malformed cells
raise with the offending name or line) while semantic filtering (crossed
quotes, empty buckets) is left to the calibration layer, which counts
rejections instead of failing.  The bar reader parses plain numeric files
in one ``np.loadtxt`` pass and falls back to the strict row parser for
anything else, so malformed files still fail with their line number.

The columnar writers (bars, policy, surface) and the bar reader work in
bounded memory beyond the arrays they write or return: the writers format
one block of rows at a time, and the bar reader scans for quotes in
fixed-size chunks, then parses one block of rows per ``np.loadtxt`` call.
The bar writer and reader also stream: ``write_bar_blocks`` writes blocks
as they are produced and ``read_bar_blocks`` yields them as they are
parsed, so a caller that keeps only some columns holds only those.  (The
strict fallback still holds one tuple per row.)
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import warnings
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .calibration import (
    BarColumns,
    CurveBucket,
    CurveSource,
    QuoteRecord,
    SpreadVolumeCurve,
    TradeRecord,
    join_blocks,
)
from .coupled_wave import _BLOCK_ROWS, BarSeries, row_blocks
from .errors import InputFormatError, check_finite
from .optimizer import QuotePolicy

_TRADE_COLUMNS = ("timestamp", "price", "size")
_QUOTE_COLUMNS = ("timestamp", "bid", "ask")
_BAR_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")
_CURVE_COLUMNS = ("v_lo", "v_hi", "v_mid", "spread_q", "count")
_POLICY_COLUMNS = ("v", "lambda_opt", "spread_opt", "exec_rate",
                   "pnl_opt", "pnl_naive", "halt")
# Bytes the bar reader's quote scan and sha256_file read at a time.
_SCAN_CHUNK = 1 << 16


# --------------------------------------------------------------------------
# low-level formatting
# --------------------------------------------------------------------------

def format_float(x: float) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def parse_timestamp(text: str) -> float:
    """Seconds since epoch from a numeric or ISO-8601 timestamp string.

    Naive ISO timestamps are interpreted as UTC so the result does not
    depend on the machine's timezone.
    """
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise InputFormatError(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_SCAN_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _open_rows(path: str, required: Sequence[str]) -> list[tuple[int, dict[str, str]]]:
    """Data rows with their line numbers; blank lines are skipped."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None:
                raise InputFormatError(f"{path}: empty file, no header row")
            for col in required:
                if col not in header:
                    raise InputFormatError(f"{path}: missing column {col!r}")
            return [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise InputFormatError(f"{path}: malformed CSV: {exc}") from exc


def _cell_float(row: dict[str, str], col: str, path: str, line: int) -> float:
    raw = row.get(col)
    if raw is None or raw.strip() == "":
        raise InputFormatError(f"{path}:{line}: empty value in column {col!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise InputFormatError(
            f"{path}:{line}: bad value {raw!r} in column {col!r}"
        ) from exc


def _cell_timestamp(row: dict[str, str], path: str, line: int) -> float:
    try:
        return parse_timestamp(row["timestamp"] or "")
    except InputFormatError as exc:
        raise InputFormatError(f"{path}:{line}: {exc}") from None


# --------------------------------------------------------------------------
# readers
# --------------------------------------------------------------------------

def read_trades(path: str) -> list[TradeRecord]:
    return [
        TradeRecord(
            timestamp=_cell_timestamp(row, path, line),
            price=_cell_float(row, "price", path, line),
            size=_cell_float(row, "size", path, line),
        )
        for line, row in _open_rows(path, _TRADE_COLUMNS)
    ]


def read_quotes(path: str) -> list[QuoteRecord]:
    return [
        QuoteRecord(
            timestamp=_cell_timestamp(row, path, line),
            bid=_cell_float(row, "bid", path, line),
            ask=_cell_float(row, "ask", path, line),
        )
        for line, row in _open_rows(path, _QUOTE_COLUMNS)
    ]


def _read_bars_strict(path: str) -> BarColumns:
    """Row-by-row bar reader: ISO or numeric timestamps, errors name path:line."""
    rows = [
        (_cell_timestamp(row, path, line),
         *(_cell_float(row, col, path, line) for col in _BAR_COLUMNS[1:]))
        for line, row in _open_rows(path, _BAR_COLUMNS)
    ]
    table = np.array(rows, dtype=float).reshape(len(rows), len(_BAR_COLUMNS))
    return BarColumns(*table.T)


def read_bar_blocks(path: str) -> Iterator[BarColumns]:
    """Bar CSV as consecutive blocks of at most ``_BLOCK_ROWS`` rows, whatever
    the order of its columns.

    A file with numeric timestamps, no quotes and no malformed cells is
    parsed one block per ``np.loadtxt`` call, after a scan for quotes that
    reads ``_SCAN_CHUNK`` bytes at a time; every block's columns are arrays
    of their own.  Any other file goes through ``_read_bars_strict``, which
    gives the same rows or fails with the offending path and line; when a
    block fails to parse after earlier blocks were yielded, the rows after
    them follow as one block.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        quoted = b'"' in header or any(
            b'"' in chunk for chunk in iter(lambda: fh.read(_SCAN_CHUNK), b""))
    try:
        names = header.rstrip(b"\r\n").decode("utf-8").split(",")
    except UnicodeDecodeError:
        names = []
    position = {name: i for i, name in enumerate(names)}  # last one wins, as in csv
    done = 0
    if not quoted and all(col in position for col in _BAR_COLUMNS):
        usecols = [position[col] for col in _BAR_COLUMNS]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fh.readline()
                while (table := _load_bar_rows(fh, usecols)) is not None:
                    yield BarColumns(*map(np.ascontiguousarray, table))
                    done += len(table[0])
            return
        except ValueError:
            pass
    rest = _read_bars_strict(path)
    yield BarColumns(*(getattr(rest, col)[done:] for col in _BAR_COLUMNS))


def _load_bar_rows(fh, usecols: list[int]) -> np.ndarray | None:
    """The next block of rows of an open bar file, one row per column; None at the end."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        table = np.loadtxt(fh, delimiter=",", comments=None, usecols=usecols,
                           ndmin=2, max_rows=_BLOCK_ROWS)
    return table.T if len(table) else None


def read_bars(path: str) -> BarColumns:
    """Bar CSV as columns: ``read_bar_blocks``, joined (see ``join_blocks``)."""
    return BarColumns(*join_blocks(read_bar_blocks(path), _BAR_COLUMNS))


def read_curve(
    path: str,
    quantile_level: float,
    source: CurveSource,
    min_count: int = 20,
) -> SpreadVolumeCurve:
    """Rebuild a curve from its CSV; flags are recomputed from the counts."""
    check_finite("min_count", min_count, at_least=0)
    rows = _open_rows(path, _CURVE_COLUMNS)
    if not rows:
        raise InputFormatError(f"{path}: curve has no buckets")
    buckets = []
    accepted = 0
    for i, row in rows:
        raw_count = row.get("count", "")
        try:
            count = int(raw_count)
        except ValueError as exc:
            raise InputFormatError(
                f"{path}:{i}: bad value {raw_count!r} in column 'count'"
            ) from exc
        spread_q = _cell_float(row, "spread_q", path, i)
        accepted += count
        buckets.append(CurveBucket(
            v_lo=_cell_float(row, "v_lo", path, i),
            v_hi=_cell_float(row, "v_hi", path, i),
            v_mid=_cell_float(row, "v_mid", path, i),
            spread_q=spread_q,
            count=count,
            flagged=count < min_count or not math.isfinite(spread_q),
        ))
    return SpreadVolumeCurve(
        buckets=tuple(buckets), quantile_level=quantile_level,
        source=source, n_accepted=accepted, n_rejected=0,
    )


# --------------------------------------------------------------------------
# writers
# --------------------------------------------------------------------------

def _write_lines(path: str, header: Sequence[str],
                 rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _write_blocks(path: str, header: Sequence[str],
                  blocks: Iterable[Sequence[Iterable[str]]]) -> None:
    """Write rows one block at a time, as ``blocks`` produces them.

    Each block gives the cells of consecutive rows, one iterable of
    formatted strings per column.  Only one block of cells is alive at a
    time, so memory does not grow with the row count.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for cells in blocks:
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_columns(path: str, header: Sequence[str], n_rows: int,
                   block: Callable[[slice], Sequence[Iterable[str]]]) -> None:
    """Write ``n_rows`` rows; ``block(rows)`` gives the cells of the slice ``rows``."""
    _write_blocks(path, header, map(block, row_blocks(n_rows)))


@contextlib.contextmanager
def replaced_on_success(path: str) -> Iterator[str]:
    """A temporary path next to ``path`` that replaces ``path`` when the block ends.

    If the block raises, the temporary file is removed and ``path`` is left
    as it was, so a failed run leaves no partial output behind.
    """
    tmp = f"{path}.tmp"
    try:
        yield tmp
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _floats(values) -> Iterable[str]:
    """``format_float`` over a whole column."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


def _bar_cells(start: int, o, high, low, c, volume):
    """OHLC cells of consecutive bars, stamped from row index ``start``.

    The open is the bar mid (start-of-bar anchor of the walk), the close is
    the last price; high/low are widened to contain both so every row is a
    well-formed OHLC bar even when the placement rule leaves the envelope.
    """
    hi = np.maximum(np.maximum(high, o), c)
    lo = np.minimum(np.minimum(low, o), c)
    return (map(str, range(start, start + len(o))),
            *(_floats(col) for col in (o, hi, lo, c, volume)))


def write_bar_blocks(path: str, blocks: Iterable[BarSeries]) -> None:
    """Serialize bar blocks to OHLC rows as they are produced (see ``_bar_cells``).

    Rows are stamped with their index in the whole stream.
    """
    def cells():
        start = 0
        for block in blocks:
            yield _bar_cells(start, block.s_mid, block.s_high, block.s_low,
                             block.s_last, block.volume)
            start += len(block)

    _write_blocks(path, _BAR_COLUMNS, cells())


def write_bars_csv(path: str, series: BarSeries) -> None:
    """Serialize a whole bar series to OHLC rows (see ``_bar_cells``)."""
    columns = (series.s_mid, series.s_high, series.s_low, series.s_last, series.volume)
    _write_columns(path, _BAR_COLUMNS, len(series), lambda rows: _bar_cells(
        rows.start, *(column[rows] for column in columns)))


def write_trades_csv(path: str, trades: Sequence[TradeRecord]) -> None:
    _write_lines(path, _TRADE_COLUMNS, (
        (format_float(t.timestamp), format_float(t.price), format_float(t.size))
        for t in trades
    ))


def write_quotes_csv(path: str, quotes: Sequence[QuoteRecord]) -> None:
    _write_lines(path, _QUOTE_COLUMNS, (
        (format_float(q.timestamp), format_float(q.bid), format_float(q.ask))
        for q in quotes
    ))


def write_curve_csv(path: str, curve: SpreadVolumeCurve) -> None:
    """Curve rows of the non-empty buckets: an empty bucket has no quantile.

    The histogram sidecar (``write_histogram_csv``) keeps every bucket.
    """
    _write_lines(path, _CURVE_COLUMNS, (
        (format_float(b.v_lo), format_float(b.v_hi), format_float(b.v_mid),
         format_float(b.spread_q), str(b.count))
        for b in curve.buckets if b.count > 0
    ))


def write_histogram_csv(path: str, curve: SpreadVolumeCurve) -> None:
    """Sidecar trade-frequency histogram over the curve's volume buckets."""
    _write_lines(path, ("v_lo", "v_hi", "count"), (
        (format_float(b.v_lo), format_float(b.v_hi), str(b.count))
        for b in curve.buckets
    ))


def write_overlay_csv(path: str, curve: SpreadVolumeCurve,
                      model_values: Sequence[float]) -> None:
    """Data buckets next to the fitted model, for plotting the fit quality."""
    usable = curve.usable()
    if len(usable) != len(model_values):
        raise ValueError(
            f"{len(model_values)} model values for {len(usable)} usable buckets"
        )
    _write_lines(path, ("v_mid", "spread_q", "spread_model"), (
        (format_float(b.v_mid), format_float(b.spread_q), format_float(m))
        for b, m in zip(usable, model_values)
    ))


def write_policy_csv(path: str, policy: QuotePolicy) -> None:
    floats = [np.asarray(col, dtype=float) for col in (
        policy.v, policy.lambda_opt, policy.spread_opt,
        policy.exec_rate, policy.pnl_opt, policy.pnl_naive)]
    halt = np.asarray(policy.halt, dtype=int)
    _write_columns(path, _POLICY_COLUMNS, len(halt), lambda rows: (
        *(_floats(col[rows]) for col in floats), map(str, halt[rows].tolist())))


def write_scale_csv(path: str, rows: Sequence[tuple[float, float, float]]) -> None:
    _write_lines(path, ("T", "delta_quantum", "delta_classical"), (
        (format_float(t), format_float(q), format_float(c))
        for t, q, c in rows
    ))


def write_surface_csv(path: str, t_grid: Sequence[float],
                      v_grid: Sequence[float], surface: np.ndarray) -> None:
    """Grid rows `T,v,delta` with horizons in the outer loop."""
    surface = np.asarray(surface)
    if surface.shape != (len(t_grid), len(v_grid)):
        raise ValueError(
            f"surface shape {surface.shape} does not match grids "
            f"({len(t_grid)}, {len(v_grid)})"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    deltas = surface.ravel()

    def block(rows: slice):
        t_index, v_index = np.divmod(np.arange(rows.start, rows.stop), len(v_grid))
        return _floats(t_grid[t_index]), _floats(v_grid[v_index]), _floats(deltas[rows])

    _write_columns(path, ("T", "v", "delta"), deltas.size, block)


# --------------------------------------------------------------------------
# JSON reports
# --------------------------------------------------------------------------

def _plain(value):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, float) and not math.isfinite(value):
        # JSON has no NaN/Infinity; reports store them as strings.
        return repr(value)
    return value


def write_json_report(path: str, payload: dict) -> None:
    """UTF-8 JSON with sorted keys and a trailing newline; no wall-clock data."""
    text = json.dumps(_plain(payload), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_json_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
