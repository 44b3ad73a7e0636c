"""Spans and counters recorded around calls into spreadwave's modules.

The probes replace module attributes from outside the package: a spanned
function is rebound wherever the package imported it by name (so the CLI's
own imports are traced too), while a counted helper is rebound only in its
defining module, where the functions under study look it up.  ``restore``
puts every original back.

A span is ``[name, start, end, parent, op]``: perf_counter times (one
monotonic clock for all processes), the index of the enclosing span or None,
and the id of the benchmark operation that caused it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# Functions timed with a span, by defining module.
SPANNED = {
    "coupled_wave": ("simulate_path", "path_volatility", "predicted_volatility",
                     "bar_height_rayleigh_scale", "evolve_fluctuating"),
    "data_io": ("write_bars_csv", "read_bars", "read_quotes", "read_trades",
                "sha256_file", "write_policy_csv", "write_curve_csv",
                "write_histogram_csv", "write_overlay_csv", "write_json_report",
                "read_curve", "read_json_report"),
    "calibration": ("bars_to_samples", "quotes_to_samples",
                    "build_spread_volume_curve", "fit_bar_curve", "fit_bid_ask_curve"),
    "optimizer": ("policy_curve", "optimize_spread"),
    "scaling": ("spread_surface",),
    "spread_models": ("inverse_spread_volumes",),
}
# Helpers only counted (too many calls for a span each), by defining module.
COUNTED = {
    "coupled_wave": ("step_price", "evolve_amplitudes"),
    "calibration": ("bar_spread_model", "bidask_spread_model"),
    "scaling": ("bar_spread_with_volume",),
    "spread_models": ("general_spread_dimensionless",),
}
DIAGNOSTICS = ("coupled_wave.path_volatility", "coupled_wave.predicted_volatility",
               "coupled_wave.bar_height_rayleigh_scale")
SMALL_FILES = ("data_io.write_curve_csv", "data_io.write_histogram_csv",
               "data_io.write_overlay_csv", "data_io.write_json_report",
               "data_io.read_curve", "data_io.read_json_report")
FITS = ("calibration.fit_bar_curve", "calibration.fit_bid_ask_curve")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, obj, attr: str, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def merge(self, spans: list[list], counts: dict, op: int) -> None:
        """Adopt spans and counts written by a traced child process."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base, op])
        for key, value in counts.items():
            self.counts[key] += value


class CountingLaw:
    """Spread-law proxy counting the lambda values passed through ``delta``.

    Other attributes (``lambda_ref``, an optional ``ddelta_dlam``) resolve on
    the wrapped law, so the optimizer takes the same code path as without it.
    """

    def __init__(self, tracer: Tracer, law) -> None:
        self._tracer = tracer
        self._law = law

    def __getattr__(self, name):
        return getattr(self._law, name)

    def delta(self, lam, v):
        self._tracer.counts["optimizer.law_lambdas"] += np.size(lam)
        return self._law.delta(lam, v)


def _count_law(tracer, args, kwargs):
    if "law" in kwargs:
        kwargs = {**kwargs, "law": CountingLaw(tracer, kwargs["law"])}
    else:
        args = args[:2] + (CountingLaw(tracer, args[2]),) + args[3:]
    return args, kwargs


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _after_simulate(t, args, kwargs, series):
    t.counts["coupled_wave.steps"] += len(series)
    t.counts["coupled_wave.redraws"] += series.redraws


def _after_evolve(t, args, kwargs, result):
    t.counts["coupled_wave.evolve_steps"] += _arg(args, kwargs, 4, "n_steps")


def _after_write_bars(t, args, kwargs, result):
    t.counts["data_io.write_bars_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _after_read(name):
    def after(t, args, kwargs, rows):
        t.counts[f"data_io.{name}.rows"] += len(rows)
    return after


def _after_curve(t, args, kwargs, curve):
    t.counts["calibration.accepted"] += curve.n_accepted
    t.counts["calibration.offered"] += curve.n_accepted + curve.n_rejected


def _after_policy(t, args, kwargs, policy):
    t.counts["optimizer.points"] += len(policy.v)
    t.counts["optimizer.halts"] += int(np.sum(policy.halt))
    t.counts["optimizer.failures"] += len(policy.failures)


def _after_surface(t, args, kwargs, surface):
    t.counts["scaling.cells"] += surface.size


HOOKS = {
    "simulate_path": (None, _after_simulate),
    "evolve_fluctuating": (None, _after_evolve),
    "write_bars_csv": (None, _after_write_bars),
    "read_bars": (None, _after_read("read_bars")),
    "read_quotes": (None, _after_read("read_quotes")),
    "read_trades": (None, _after_read("read_trades")),
    "build_spread_volume_curve": (None, _after_curve),
    "policy_curve": (_count_law, _after_policy),
    "spread_surface": (None, _after_surface),
}


def install(tracer: Tracer) -> None:
    """Wrap every probed function of the already imported spreadwave modules."""
    loaded = [m for name, m in sys.modules.items()
              if m is not None and (name == "spreadwave" or name.startswith("spreadwave."))]
    for mod_name, names in SPANNED.items():
        module = sys.modules.get("spreadwave." + mod_name)
        for name in names if module is not None else ():
            original = getattr(module, name)
            before, after = HOOKS.get(name, (None, None))
            wrapper = tracer.spanned(f"{mod_name}.{name}", original, before, after)
            for mod in loaded:
                if getattr(mod, name, None) is original:
                    tracer.patch(mod, name, wrapper)
    for mod_name, names in COUNTED.items():
        module = sys.modules.get("spreadwave." + mod_name)
        for name in names if module is not None else ():
            tracer.patch(module, name,
                         tracer.counted(f"{mod_name}.{name}.calls", getattr(module, name)))


# --------------------------------------------------------------------------
# import breakdown
# --------------------------------------------------------------------------

def import_breakdown(stderr: str) -> dict[str, float]:
    """Milliseconds from ``python -X importtime -c "import spreadwave.cli"``."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(own), int(cumulative)))

    def first(module):
        return next((cum for _, name, _, cum in rows if name == module), 0)

    return {
        "total_ms": sum(cum for depth, name, _, cum in rows
                        if depth == 0 and name.split(".")[0] == "spreadwave") / 1e3,
        "scipy_optimize_ms": first("scipy.optimize") / 1e3,
        "numpy_ms": first("numpy") / 1e3,
        "spreadwave_ms": sum(own for _, name, own, _ in rows
                             if name.split(".")[0] == "spreadwave") / 1e3,
    }


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def tail(values) -> float:
    """Highest quantile with at least ten samples beyond it; the maximum below 20 samples."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) < 20:
        return values[-1]
    return float(np.quantile(values, 1.0 - 10.0 / len(values)))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, quotes: bool) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass; layers the pass bypasses read 0.

    The quote and trade readers and ``quotes_to_samples`` are reported only
    with ``quotes``: only the quote/trade tape exercises them.
    """
    durations: defaultdict[str, list[float]] = defaultdict(list)
    child_time: defaultdict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        durations[name].append(end - start)
        if parent is not None:
            child_time[parent] += end - start
    c = tracer.counts

    def total(*names):
        return sum(sum(durations[n]) for n in names)

    out: dict[str, tuple[float, str]] = {}
    for cmd in ("simulate", "curve", "calibrate", "optimize"):
        out[f"cli.{cmd}.self_s"] = (sum(
            (end - start) - child_time[i]
            for i, (name, start, end, _, _) in enumerate(tracer.spans)
            if name == f"cli.{cmd}"
        ), "s")

    sim = total("coupled_wave.simulate_path")
    evolve = total("coupled_wave.evolve_fluctuating")
    out["coupled_wave.simulate_path.s"] = (sim, "s")
    out["coupled_wave.simulate_path.steps_per_s"] = (_ratio(c["coupled_wave.steps"], sim), "1/s")
    out["coupled_wave.step_price.calls"] = (c["coupled_wave.step_price.calls"], "count")
    out["coupled_wave.redraws_per_step"] = (
        _ratio(c["coupled_wave.redraws"], c["coupled_wave.steps"]), "ratio")
    out["coupled_wave.diagnostics.s"] = (total(*DIAGNOSTICS), "s")
    out["coupled_wave.evolve_fluctuating.s"] = (evolve, "s")
    out["coupled_wave.evolve_fluctuating.steps_per_s"] = (
        _ratio(c["coupled_wave.evolve_steps"], evolve), "1/s")
    out["coupled_wave.evolve_amplitudes.calls"] = (c["coupled_wave.evolve_amplitudes.calls"], "count")

    write_bars = total("data_io.write_bars_csv")
    out["data_io.write_bars_csv.s"] = (write_bars, "s")
    out["data_io.write_bars_csv.mb_per_s"] = (
        _ratio(c["data_io.write_bars_csv.bytes"] / 1e6, write_bars), "MB/s")
    for reader in ("read_bars", "read_quotes", "read_trades") if quotes else ("read_bars",):
        seconds = total(f"data_io.{reader}")
        out[f"data_io.{reader}.s"] = (seconds, "s")
        out[f"data_io.{reader}.rows_per_s"] = (_ratio(c[f"data_io.{reader}.rows"], seconds), "1/s")
    out["data_io.sha256_file.s"] = (total("data_io.sha256_file"), "s")
    out["data_io.write_policy_csv.s"] = (total("data_io.write_policy_csv"), "s")
    out["data_io.small_files.s"] = (total(*SMALL_FILES), "s")

    out["calibration.bars_to_samples.s"] = (total("calibration.bars_to_samples"), "s")
    if quotes:
        out["calibration.quotes_to_samples.s"] = (total("calibration.quotes_to_samples"), "s")
    out["calibration.build_spread_volume_curve.s"] = (
        total("calibration.build_spread_volume_curve"), "s")
    out["calibration.accept_ratio"] = (
        _ratio(c["calibration.accepted"], c["calibration.offered"]), "ratio")
    out["calibration.fit.s"] = (total(*FITS), "s")
    out["calibration.fit.model_evals"] = (
        c["calibration.bar_spread_model.calls"] + c["calibration.bidask_spread_model.calls"], "count")
    out["calibration.fit.tail_ms"] = (1e3 * tail(durations[FITS[0]] + durations[FITS[1]]), "ms")

    policy = total("optimizer.policy_curve")
    points = c["optimizer.points"]
    out["optimizer.policy_curve.s"] = (policy, "s")
    out["optimizer.policy_curve.points_per_s"] = (_ratio(points, policy), "1/s")
    out["optimizer.policy_curve.tail_ms"] = (1e3 * tail(durations["optimizer.policy_curve"]), "ms")
    out["optimizer.optimize_spread.tail_ms"] = (1e3 * tail(durations["optimizer.optimize_spread"]), "ms")
    out["optimizer.optimize_spread.calls"] = (len(durations["optimizer.optimize_spread"]), "count")
    out["optimizer.law_evals_per_point"] = (_ratio(c["optimizer.law_lambdas"], points), "ratio")
    out["optimizer.halt_frac"] = (_ratio(c["optimizer.halts"], points), "ratio")
    out["optimizer.failures"] = (c["optimizer.failures"], "count")

    surface = total("scaling.spread_surface")
    out["scaling.spread_surface.s"] = (surface, "s")
    out["scaling.spread_surface.cells_per_s"] = (_ratio(c["scaling.cells"], surface), "1/s")
    out["scaling.spread_surface.tail_ms"] = (1e3 * tail(durations["scaling.spread_surface"]), "ms")
    out["scaling.bar_spread_with_volume.calls_per_cell"] = (
        _ratio(c["scaling.bar_spread_with_volume.calls"], c["scaling.cells"]), "ratio")

    out["spread_models.general_spread_dimensionless.calls"] = (
        c["spread_models.general_spread_dimensionless.calls"], "count")
    out["spread_models.inverse_spread_volumes.s"] = (
        total("spread_models.inverse_spread_volumes"), "s")
    return out
