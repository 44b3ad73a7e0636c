"""CSV and JSON input/output with byte-stable formatting.

All writers emit "\n" line endings, ``repr``'s text for every float and
``str``'s for every int, so a rerun with identical inputs produces identical
bytes on any platform.  One block formatter writes every table CSV: orjson
formats a whole block of floats at once with a shortest round-trip algorithm
(Adams, "Ryū", PLDI 2018), whose text is ``repr``'s for zero and for every
magnitude in [1e-4, 1e16), the range where ``repr`` writes no exponent; a
row with any other cell (NaN, an infinity, a subnormal, a tiny or a huge
value) is formatted by ``repr`` itself.

Readers are strict about structure (missing columns and malformed cells
raise with the offending name or line).  A tape's rows are not judged here:
the calibration layer decides which (volume, spread) pairs count and which
curve buckets a fit uses, and counts rejected samples instead of failing.
A curve CSV, which only spreadwave writes, is checked cell by cell where
it is read.  One block reader serves bars, quotes and trades.  A block of
plain numbers, as the writers here produce, is parsed by ``orjson.loads``,
whose values are ``float()``'s; any other block goes to ``np.loadtxt``,
which reads CSV quoting as ``csv`` does, and a block that ``np.loadtxt``
refuses goes, alone, to the strict row parser, so malformed files still
fail with their line number.

Every writer formats one block of rows at a time, and the reader parses one
block of lines at a time, so both work in bounded memory beyond the arrays
they write or return.  The bar writer and reader also stream:
``write_bar_blocks`` writes blocks as they are produced and
``read_bar_blocks`` yields them as they are parsed, so a caller that keeps
only some columns holds only those.

The module owns the tables' column schemas (``BarColumns``, ``QuoteColumns``,
``TradeColumns``); calibration names them only in annotations and imports
``join_blocks`` when it joins blocks, so it loads this module only when a
table is read.  It reads and writes on the ``_BLOCK_ROWS`` grid of
``errors``.  It imports no model module when it loads, so every command can
load it: ``read_curve`` imports the curve types when it is called.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np
import orjson

from .errors import _BLOCK_ROWS, DomainError, InputFormatError, check_finite, row_blocks

if TYPE_CHECKING:
    from .calibration import CurveSource, SpreadVolumeCurve
    from .coupled_wave import BarSeries
    from .optimizer import QuotePolicy

# --------------------------------------------------------------------------
# column schemas
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Columns:
    """A table as one float array per field, in row order, led by its
    timestamps.  The field names are the CSV header names."""

    timestamp: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class TradeColumns(_Columns):
    """Columnar trade tape; timestamps are seconds since epoch."""

    price: np.ndarray
    size: np.ndarray


@dataclass(frozen=True)
class QuoteColumns(_Columns):
    """Columnar quote tape; timestamps are seconds since epoch."""

    bid: np.ndarray
    ask: np.ndarray


@dataclass(frozen=True)
class BarColumns(_Columns):
    """Columnar OHLC bars."""

    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray


def join_blocks(blocks: Iterable, names: Sequence[str]) -> list[np.ndarray]:
    """The named 1-D columns of consecutive blocks, each joined into one array.

    No blocks give empty columns.  Each column's parts are released as soon
    as that column is joined, so at most one column is held twice.
    """
    parts: dict[str, list[np.ndarray]] = {name: [] for name in names}
    for block in blocks:
        for name, column in parts.items():
            column.append(getattr(block, name))
    return [np.concatenate([np.empty(0), *parts.pop(name)]) for name in names]


_BAR_COLUMNS = BarColumns.names()
_CURVE_COLUMNS = ("v_lo", "v_hi", "v_mid", "spread_q", "count")
_POLICY_COLUMNS = ("v", "lambda_opt", "spread_opt", "exec_rate",
                   "pnl_opt", "pnl_naive", "halt")
# Lines per orjson call.  At 200k bars, one call per 2048-line block raised
# `curve --bars`'s peak RSS by 0.7 MB and 512 lines by 0.2 MB, at one speed.
_PLAIN_ROWS = 512


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
    if ":" not in text:  # float() fails on a time of day, and failing is slow
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
    # Imported on use: hashlib loads OpenSSL (about 3.5 MB), which a command
    # without input files, and a process that only fits or simulates, never needs.
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


@contextlib.contextmanager
def _open_table(path: str, required: Sequence[str]) -> Iterator[tuple[TextIO, csv.DictReader]]:
    """``path`` open as text, and a ``csv.DictReader`` over it that has read
    a header row naming every ``required`` column.  Undecodable bytes and
    malformed CSV met inside the ``with`` block raise ``InputFormatError``."""
    try:
        # Not newline="": lines come twice as fast, and a CR or CRLF inside a
        # quoted cell reads as LF, which no numeric cell minds.
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise InputFormatError(f"{path}: empty file, no header row")
            for col in required:
                if col not in reader.fieldnames:
                    raise InputFormatError(f"{path}: missing column {col!r}")
            yield fh, reader
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise InputFormatError(f"{path}: malformed CSV: {exc}") from exc


def _open_rows(path: str, required: Sequence[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """Data rows with their line numbers, read one at a time; blank lines are skipped."""
    with _open_table(path, required) as (_, reader):
        yield from ((reader.line_num, row) for row in reader)


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

def _strict_table(rows: Iterable[tuple[int, dict[str, str]]], names: Sequence[str],
                  path: str) -> np.ndarray:
    """The strict row parser: numbered csv rows as one row of floats per
    column in ``names``.  Timestamps may be ISO-8601 or numeric; a bad cell
    fails with ``path`` and its line."""
    values = [(_cell_timestamp(row, path, line),
               *(_cell_float(row, col, path, line) for col in names[1:]))
              for line, row in rows]
    return np.array(values, dtype=float).reshape(len(values), len(names)).T


def _ends_in_quote(lines: list[str]) -> bool:
    """Whether ``lines`` end inside a quoted cell, as ``csv`` reads them: a
    blank line after them is then read into that cell, not as a record."""
    if '"' not in "".join(lines):
        return False
    reader = csv.reader([*lines, "\n"])
    # line_num is the last line of the record just read.
    return len(lines) not in (reader.line_num for _ in reader)


def _parse_plain(lines: list[str], width: int, usecols: Sequence[int]) -> np.ndarray | None:
    """The ``usecols`` columns of ``lines`` as floats, or None unless every
    line is ``width`` cells of ``0-9 + - . e E`` that JSON reads as numbers.

    Each run of ``_PLAIN_ROWS`` lines, joined by commas and bracketed, is one
    JSON array, and one ``orjson.loads`` call parses it; its numbers are
    ``float()``'s.  orjson refuses what JSON does not write (``01``, ``.5``,
    ``5.``, ``+1``, ``1e400``), which ``np.loadtxt`` then reads.  It reads
    the integer ``-0`` as 0, not -0.0, so a block holding that cell is left
    to ``np.loadtxt`` too.
    """
    table = np.empty((len(lines), width))
    line = b"," * (width - 1) + b"\n"
    for start in range(0, len(lines), _PLAIN_ROWS):
        part = lines[start:start + _PLAIN_ROWS]
        text = "[%s]" % ",".join(part)
        separators = text.encode().translate(None, b"0123456789+-.eE")
        # The last line of a file may lack its newline.
        if (separators.removesuffix(b"]").removesuffix(b"\n")
                != b"[" + b",".join([line] * len(part))[:-1]):
            return None
        if "-" in text and re.search(r"-0[,\n\]]", text):
            return None
        try:
            values = orjson.loads(text)
        except orjson.JSONDecodeError:
            return None
        rows = table[start:start + len(part)]
        rows[:] = np.fromiter(values, float, rows.size).reshape(rows.shape)
    return table[:, usecols].T


def _read_strict(path: str, kind: type[_Columns]) -> _Columns:
    """A whole table by the strict row parser alone: the tests' oracle."""
    names = kind.names()
    return kind(*_strict_table(_open_rows(path, names), names, path))


def _read_blocks(path: str, kind: type[_Columns]) -> Iterator[_Columns]:
    """A ``kind`` table's CSV as consecutive blocks of at most ``_BLOCK_ROWS``
    rows, whatever the order of its columns.

    The file is read ``_BLOCK_ROWS`` lines at a time, and each block is
    parsed alone by the first of these that accepts it: ``_parse_plain``,
    which reads a block of plain numbers with orjson; ``np.loadtxt``;
    ``np.loadtxt`` with ``parse_timestamp`` as the timestamp's converter,
    which reads ISO-8601 stamps (and would slow a numeric block down); and
    the strict row parser, which gives the same rows or fails with the
    offending path and line.  ``np.loadtxt`` reads quoted cells as ``csv``
    does; a quoted cell that holds a line break reads within one block, and
    one that runs past the last line of a block fails with that line.
    Nothing but the line number passes from one block to the next, and
    every block's columns are arrays of their own, so a column the caller
    keeps does not hold the rest of its block.
    """
    names = kind.names()
    with _open_table(path, names) as (fh, header):
        # A name given twice means its last column, as in csv.
        position = {name: i for i, name in enumerate(header.fieldnames)}
        usecols = [position[col] for col in names]
        width = len(header.fieldnames)
        # numpy keys a converter by the column's index in the file.
        iso = {position["timestamp"]: parse_timestamp}
        before = header.line_num  # lines before the block
        while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            table = _parse_plain(lines, width, usecols)
            if table is None:
                for converters in (None, iso):
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                            table = np.loadtxt(lines, delimiter=",", comments=None,
                                               quotechar='"', usecols=usecols, ndmin=2,
                                               converters=converters).T
                        break
                    except ValueError:
                        pass
                else:
                    rows = csv.DictReader(lines, header.fieldnames)
                    table = _strict_table(((before + rows.line_num, row) for row in rows),
                                          names, path)
                if _ends_in_quote(lines) and fh.readline():
                    raise InputFormatError(f"{path}:{before + len(lines)}: a quoted cell runs "
                                           f"past the end of a {_BLOCK_ROWS}-line block")
            before += len(lines)
            # A copy per column: the parsers return views of one 2-D array.
            block = kind(*map(np.array, table)) if table.size else None
            del lines, table
            if block is not None:
                yield block


def _read_table(path: str, kind: type[_Columns]) -> _Columns:
    """A whole table: ``_read_blocks``, joined (see ``join_blocks``)."""
    return kind(*join_blocks(_read_blocks(path, kind), kind.names()))


def read_bar_blocks(path: str) -> Iterator[BarColumns]:
    """Bar CSV as consecutive blocks (see ``_read_blocks``)."""
    return _read_blocks(path, BarColumns)


def read_bars(path: str) -> BarColumns:
    """Bar CSV as whole columns."""
    return _read_table(path, BarColumns)


def read_quotes(path: str) -> QuoteColumns:
    """Quote CSV (timestamp, bid, ask) as whole columns."""
    return _read_table(path, QuoteColumns)


def read_trades(path: str) -> TradeColumns:
    """Trade CSV (timestamp, price, size) as whole columns."""
    return _read_table(path, TradeColumns)


def read_curve(
    path: str,
    quantile_level: float,
    source: CurveSource,
    min_count: int = 20,
) -> SpreadVolumeCurve:
    """Rebuild a curve from its CSV; flags are recomputed from the counts.

    Every row must hold volumes finite and > 0, a spread quantile finite and
    >= 0 and a count between 0 and 2**53, as ``write_curve_csv`` writes them.
    Each bucket must have ``v_lo < v_hi`` with ``v_mid`` between them, and
    start at or above the previous row's ``v_hi``.  Any other cell raises
    InputFormatError naming the path, the line and the column.
    """
    from .calibration import CurveBucket, SpreadVolumeCurve

    check_finite("min_count", min_count, at_least=0)
    buckets = []
    accepted = 0
    for i, row in _open_rows(path, _CURVE_COLUMNS):
        raw_count = row.get("count", "")
        try:
            count = int(raw_count)
        except ValueError as exc:
            raise InputFormatError(
                f"{path}:{i}: bad value {raw_count!r} in column 'count'"
            ) from exc
        # A float holds every count up to 2**53 exactly, and the fit reads them as floats.
        if not 0 <= count <= 2**53:
            raise InputFormatError(
                f"{path}:{i}: count must be between 0 and 2**53, got {raw_count}")
        cells = {col: _cell_float(row, col, path, i) for col in _CURVE_COLUMNS[:-1]}
        lo, hi, mid = cells["v_lo"], cells["v_hi"], cells["v_mid"]
        try:
            for col in ("v_lo", "v_hi", "v_mid"):
                check_finite(col, cells[col], above=0.0)
            check_finite("spread_q", cells["spread_q"], at_least=0.0)
            if not lo < hi:
                raise DomainError(f"v_hi must be > v_lo {lo!r}, got {hi!r}")
            if not lo <= mid <= hi:
                raise DomainError(f"v_mid must be in [v_lo, v_hi] = [{lo!r}, {hi!r}], "
                                  f"got {mid!r}")
            if buckets and lo < buckets[-1].v_hi:
                raise DomainError(f"v_lo must be >= the previous row's v_hi "
                                  f"{buckets[-1].v_hi!r}, got {lo!r}")
        except DomainError as exc:
            raise InputFormatError(f"{path}:{i}: {exc}") from None
        accepted += count
        buckets.append(CurveBucket(**cells, count=count, flagged=count < min_count))
    if not buckets:
        raise InputFormatError(f"{path}: curve has no buckets")
    return SpreadVolumeCurve(
        buckets=tuple(buckets), quantile_level=quantile_level,
        source=source, n_accepted=accepted, n_rejected=0,
    )


# --------------------------------------------------------------------------
# writers
# --------------------------------------------------------------------------

def _json_rows(block: np.ndarray) -> list[bytes]:
    """orjson's text of each row of a 2-D array of at least one row, its
    cells joined by commas."""
    text = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[2:-2].split(b"],[")


def _format_block(floats: np.ndarray, lead: Sequence = (), trail: Sequence = ()) -> bytes:
    """CSV rows, each ending in "\n", of a 2-D float block with the int
    columns ``lead`` before its cells and ``trail`` after them.

    Floats read as ``format_float`` writes them and ints as ``str`` does.
    orjson's text equals ``repr``'s for zero and for magnitudes in
    [1e-4, 1e16); it writes ``null``, ``0.00001`` and ``1e16`` where ``repr``
    writes ``nan``, ``1e-05`` and ``1e+16``, so a row with a cell outside
    that range is formatted by ``repr``.  A block of no rows gives no bytes.
    """
    floats = np.asarray(floats, dtype=float)
    if not len(floats):
        return b""
    rows = _json_rows(floats)
    size = np.abs(floats)
    plain = (size == 0.0) | (size >= 1e-4) & (size < 1e16)
    caught = np.flatnonzero(~plain.all(axis=1))
    for i, row in zip(caught.tolist(), floats[caught].tolist()):
        rows[i] = ",".join(map(repr, row)).encode()
    if lead or trail:
        ints = [_json_rows(np.asarray(col, dtype=np.int64).reshape(-1, 1))
                for col in (*lead, *trail)]
        rows = list(map(b",".join, zip(*ints[:len(lead)], rows, *ints[len(lead):])))
    return b"\n".join([*rows, b""])


def _write_blocks(path: str, header: Sequence[str], blocks: Iterable[bytes]) -> None:
    """Write the header, then each block of rows (see ``_format_block``) as
    ``blocks`` produces it.  Only one block is alive at a time, so memory
    does not grow with the row count."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        fh.writelines(blocks)


def _write_columns(path: str, header: Sequence[str], n_rows: int,
                   block: Callable[[slice], bytes]) -> None:
    """Write ``n_rows`` rows; ``block(rows)`` gives the rows of the slice ``rows``."""
    _write_blocks(path, header, map(block, row_blocks(n_rows)))


def _write_table(path: str, header: Sequence[str], floats: Sequence,
                 ints: Sequence = ()) -> None:
    """Write equal-length columns: ``floats``, then ``ints``."""
    floats = [np.asarray(col, dtype=float) for col in floats]
    ints = [np.asarray(col, dtype=np.int64) for col in ints]
    _write_columns(path, header, len(floats[0]), lambda rows: _format_block(
        np.column_stack([col[rows] for col in floats]), trail=[col[rows] for col in ints]))


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


def _bar_rows(start: int, o, high, low, c, volume) -> bytes:
    """OHLC rows of consecutive bars, stamped from row index ``start``.

    The open is the bar mid (start-of-bar anchor of the walk), the close is
    the last price; high/low are widened to contain both so every row is a
    well-formed OHLC bar even when the placement rule leaves the envelope.
    """
    hi = np.maximum(np.maximum(high, o), c)
    lo = np.minimum(np.minimum(low, o), c)
    return _format_block(np.column_stack((o, hi, lo, c, volume)),
                         lead=[np.arange(start, start + len(o))])


def write_bar_blocks(path: str, blocks: Iterable[BarSeries]) -> None:
    """Serialize bar blocks to OHLC rows as they are produced (see ``_bar_rows``).

    Rows are stamped with their index in the whole stream.
    """
    def rows():
        start = 0
        for block in blocks:
            yield _bar_rows(start, block.s_mid, block.s_high, block.s_low,
                            block.s_last, block.volume)
            start += len(block)

    _write_blocks(path, _BAR_COLUMNS, rows())


def write_bars_csv(path: str, series: BarSeries) -> None:
    """Serialize a whole bar series to OHLC rows (see ``_bar_rows``)."""
    columns = (series.s_mid, series.s_high, series.s_low, series.s_last, series.volume)
    _write_columns(path, _BAR_COLUMNS, len(series), lambda rows: _bar_rows(
        rows.start, *(column[rows] for column in columns)))


def write_trades_csv(path: str, trades: TradeColumns) -> None:
    _write_table(path, trades.names(), [getattr(trades, col) for col in trades.names()])


def write_quotes_csv(path: str, quotes: QuoteColumns) -> None:
    _write_table(path, quotes.names(), [getattr(quotes, col) for col in quotes.names()])


def write_curve_csv(path: str, curve: SpreadVolumeCurve) -> None:
    """Curve rows of the non-empty buckets: an empty bucket has no quantile.

    The histogram sidecar (``write_histogram_csv``) keeps every bucket.
    """
    buckets = [b for b in curve.buckets if b.count > 0]
    _write_table(path, _CURVE_COLUMNS,
                 [[getattr(b, col) for b in buckets] for col in _CURVE_COLUMNS[:-1]],
                 [[b.count for b in buckets]])


def write_histogram_csv(path: str, curve: SpreadVolumeCurve) -> None:
    """Sidecar trade-frequency histogram over the curve's volume buckets."""
    _write_table(path, ("v_lo", "v_hi", "count"),
                 [[b.v_lo for b in curve.buckets], [b.v_hi for b in curve.buckets]],
                 [[b.count for b in curve.buckets]])


def write_overlay_csv(path: str, curve: SpreadVolumeCurve,
                      model_values: Sequence[float]) -> None:
    """Data buckets next to the fitted model, for plotting the fit quality."""
    usable = curve.usable()
    if len(usable) != len(model_values):
        raise ValueError(
            f"{len(model_values)} model values for {len(usable)} usable buckets"
        )
    _write_table(path, ("v_mid", "spread_q", "spread_model"),
                 [[b.v_mid for b in usable], [b.spread_q for b in usable], model_values])


def write_policy_csv(path: str, policy: QuotePolicy) -> None:
    _write_table(path, _POLICY_COLUMNS,
                 [policy.v, policy.lambda_opt, policy.spread_opt,
                  policy.exec_rate, policy.pnl_opt, policy.pnl_naive],
                 [policy.halt])


def write_scale_csv(path: str, t: Sequence[float], delta_quantum: Sequence[float],
                    delta_classical: Sequence[float]) -> None:
    _write_table(path, ("T", "delta_quantum", "delta_classical"),
                 [t, delta_quantum, delta_classical])


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
        return _format_block(np.column_stack((t_grid[t_index], v_grid[v_index], deltas[rows])))

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
