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
fixed-size chunks before its ``np.loadtxt`` pass.  (The strict fallback
still holds one tuple per row.)
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from datetime import datetime, timezone
from typing import Callable, Iterable, Sequence

import numpy as np

from .calibration import (
    BarColumns,
    CurveBucket,
    CurveSource,
    QuoteRecord,
    SpreadVolumeCurve,
    TradeRecord,
)
from .coupled_wave import BarSeries, row_blocks
from .errors import InputFormatError, check_finite
from .optimizer import QuotePolicy

_TRADE_COLUMNS = ("timestamp", "price", "size")
_QUOTE_COLUMNS = ("timestamp", "bid", "ask")
_BAR_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")
_CURVE_COLUMNS = ("v_lo", "v_hi", "v_mid", "spread_q", "count")
_POLICY_COLUMNS = ("v", "lambda_opt", "spread_opt", "exec_rate",
                   "pnl_opt", "pnl_naive", "halt")
# Bytes read_bars reads at a time while it looks for a quote character.
_SCAN_CHUNK = 1 << 20


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
        for chunk in iter(lambda: fh.read(1 << 20), b""):
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


def read_bars(path: str) -> BarColumns:
    """Bar CSV as columns, whatever the order of its columns.

    A file with numeric timestamps, no quotes and no malformed cells is read
    in one ``np.loadtxt`` pass, after a scan for quotes that reads
    ``_SCAN_CHUNK`` bytes at a time; any other file goes through
    ``_read_bars_strict``, which gives the same arrays or fails with the
    offending path and line.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            quoted = b'"' in header or any(
                b'"' in chunk for chunk in iter(lambda: fh.read(_SCAN_CHUNK), b""))
        names = header.rstrip(b"\r\n").decode("utf-8").split(",")
        position = {name: i for i, name in enumerate(names)}  # last one wins, as in csv
        if quoted or not all(col in position for col in _BAR_COLUMNS):
            return _read_bars_strict(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                               usecols=[position[col] for col in _BAR_COLUMNS],
                               ndmin=2, encoding="utf-8")
    except ValueError:
        return _read_bars_strict(path)
    return BarColumns(*table.T)


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


def _write_columns(path: str, header: Sequence[str], n_rows: int,
                   block: Callable[[slice], Sequence[Iterable[str]]]) -> None:
    """Write ``n_rows`` rows, one block of consecutive rows at a time.

    ``block(rows)`` gives the cells of the rows in the slice ``rows``, one
    iterable of formatted strings per column.  Only one block of cells is
    alive at a time, so memory does not grow with the row count.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rows in row_blocks(n_rows):
            fh.write("\n".join(map(",".join, zip(*block(rows)))) + "\n")


def _floats(values) -> Iterable[str]:
    """``format_float`` over a whole column."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


def write_bars_csv(path: str, series: BarSeries) -> None:
    """Serialize a bar series to OHLC rows.

    The open is the bar mid (start-of-bar anchor of the walk), the close is
    the last price; high/low are widened to contain both so every row is a
    well-formed OHLC bar even when the placement rule leaves the envelope.
    """
    def block(rows: slice):
        o, c = series.s_mid[rows], series.s_last[rows]
        hi = np.maximum(np.maximum(series.s_high[rows], o), c)
        lo = np.minimum(np.minimum(series.s_low[rows], o), c)
        return (map(str, range(rows.start, rows.stop)),
                *(_floats(col) for col in (o, hi, lo, c, series.volume[rows])))

    _write_columns(path, _BAR_COLUMNS, len(series), block)


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
    _write_lines(path, _CURVE_COLUMNS, (
        (format_float(b.v_lo), format_float(b.v_hi), format_float(b.v_mid),
         format_float(b.spread_q), str(b.count))
        for b in curve.buckets
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
