"""Benchmark of the spreadwave batch chain, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see perfbench/README.md):

* ``bars_pipeline``: simulate -> curve --bars -> calibrate --kind bar ->
  optimize, on 200k simulated bars;
* ``quote_pipeline``: curve --quotes --trades -> calibrate --kind bidask ->
  optimize, on a 200k-trade tape this benchmark writes itself;
* ``library_sweep``: in-process library calls (policy curves, spread
  surfaces, amplitude evolution, fits, inverse queries), no file I/O.

Load shape: a closed loop with one client.  One operation runs at a time
from this single process, with at most one child process alive.  Each CLI
command is a fresh ``python -m spreadwave.cli`` child with PYTHONPATH=src,
so interpreter start and import are inside its time.

Set-up (input generation plus a cold-import warm-up) is repeated and its
median reported.  Passes over the workload then repeat until ``--seconds``
have elapsed; every output is checked after each operation, and a failed
check counts as a failed operation.  With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` one more pass runs with the layer
probes of perfbench/probes.py installed and the last line holds the
per-layer metrics.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One client, one operation at a time: numerical libraries stay single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import probes  # noqa: E402
import tape  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170.0
COMMANDS = ("simulate", "curve", "calibrate", "optimize")

SIZES = {
    "full": dict(bars=200_000, trades=200_000, v_points=2000, policy_points=1000,
                 surface=200, evolve_steps=100_000, fits=40, queries=200,
                 setups=3, import_probes=3),
    # For the smoke test: every operation and metric, in seconds.
    "tiny": dict(bars=2_000, trades=20_000, v_points=40, policy_points=20,
                 surface=10, evolve_steps=1_000, fits=2, queries=10,
                 setups=1, import_probes=1),
}

# quote_pipeline: the fitted rho of a 90%-quantile curve sits ~14% above the
# tape's generating rho (quantile level and in-bucket volume spread); this
# bound was checked on seeds 1-10.
RHO_TOL = 0.25
# Relative slack for pnl_opt >= pnl_naive.
PNL_ROUNDING = 1e-12
NORM_TOL = 1e-12


class CheckError(Exception):
    """An output did not pass its correctness check."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def load_rows(path: str, header: str, columns: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        expect(fh.readline().rstrip("\n") == header, f"{path}: header is not {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, columns)


class Runner:
    """Runs the operations of one benchmark run and keeps its tallies."""

    def __init__(self, deadline: float, log_path: str) -> None:
        self.deadline = deadline
        self.log_path = log_path
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.import_times: list[float] = []   # plain cold imports (set-up warm-ups)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SPREADWAVE_")}
        self.env["PYTHONPATH"] = "src"

    def child(self, argv: list[str], stderr_path: str | None = None) -> tuple[float, float, int]:
        """Run one child process to the end: (wall seconds, peak RSS in MB, exit code)."""
        with open(self.log_path, "ab") as log, \
                open(stderr_path or self.log_path, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(max(1, math.ceil(self.deadline - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode

    def record(self, label: str, ok: bool, check=None) -> bool:
        """Count one operation; run its output check when it exited cleanly."""
        self.attempted += 1
        if ok and check is not None:
            try:
                check()
            except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                print(f"check failed: {label}: {exc}", file=sys.stderr)
                ok = False
        elif not ok:
            print(f"operation failed: {label}", file=sys.stderr)
        self.failed += not ok
        return ok

    def cold_import(self, *flags: str, stderr_path: str | None = None) -> None:
        elapsed, _, code = self.child([sys.executable, *flags, "-c", "import spreadwave.cli"],
                                      stderr_path)
        if self.record("import spreadwave.cli", code == 0) and not flags:
            self.import_times.append(elapsed)


# --------------------------------------------------------------------------
# CLI pipelines
# --------------------------------------------------------------------------

class Pipeline:
    """CLI commands run in order, each as a fresh child process."""

    def __init__(self, runner: Runner, work: str, seed: int, size: dict) -> None:
        self.runner, self.work, self.seed, self.size = runner, work, seed, size
        self.cmd_rss: dict[str, float] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.make_inputs()
        self.runner.cold_import()

    def make_inputs(self) -> None:
        pass

    def commands(self) -> list[tuple[str, list[str], object]]:
        raise NotImplementedError

    def run_pass(self) -> list[tuple[str, float]]:
        times = []
        for name, args, check in self.commands():
            elapsed, rss, code = self.runner.child(
                [sys.executable, "-m", "spreadwave.cli", name, *args])
            self.runner.peak_rss_mb = max(self.runner.peak_rss_mb, rss)
            self.cmd_rss[name] = max(self.cmd_rss.get(name, 0.0), rss)
            self.runner.record(name, code == 0, check)
            times.append((name, elapsed))
        return times

    def traced_pass(self, tracer: probes.Tracer) -> float:
        wall = 0.0
        spans_path = self.path("spans.json")
        for name, args, check in self.commands():
            elapsed, _, code = self.runner.child(
                [sys.executable, os.path.join(HERE, "tracecmd.py"), spans_path, name, *args])
            wall += elapsed
            if self.runner.record(f"traced {name}", code == 0, check):
                with open(spans_path, encoding="utf-8") as fh:
                    data = json.load(fh)
                tracer.merge(data["spans"], data["counts"], self.runner.attempted)
        return wall

    # checks shared by both pipelines

    def check_curve(self, offered: int) -> None:
        rows = load_rows(self.path("curve.csv"), "v_lo,v_hi,v_mid,spread_q,count", 5)
        with open(self.path("curve_report.json"), encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        expect(int(rows[:, 4].sum()) == summary["n_accepted"],
               "bucket counts do not sum to n_accepted")
        expect(summary["n_accepted"] + summary["n_rejected"] == offered,
               f"accepted + rejected != {offered} samples offered")

    def check_calibration(self, rho: float | None = None) -> None:
        with open(self.path("calibration.json"), encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        expect(result["converged"] is True, "fit did not converge")
        expect(finite(result["residual_norm"], result["lambda_hat"], result["rho_hat"]),
               "non-finite fit result")
        if rho is not None:
            expect(abs(result["rho_hat"] / rho - 1.0) <= RHO_TOL,
                   f"rho_hat {result['rho_hat']!r} is not within {RHO_TOL} of rho {rho!r}")

    def check_policy(self) -> None:
        rows = load_rows(self.path("policy.csv"),
                         "v,lambda_opt,spread_opt,exec_rate,pnl_opt,pnl_naive,halt", 7)
        expect(rows.shape[0] == self.size["v_points"], "wrong number of policy rows")
        expect(np.isfinite(rows).all(), "non-finite policy value")
        pnl_opt, pnl_naive = rows[:, 4], rows[:, 5]
        slack = PNL_ROUNDING * np.maximum(np.abs(pnl_opt), np.abs(pnl_naive))
        expect(np.all(pnl_opt >= pnl_naive - slack), "pnl_opt below pnl_naive")


class BarsPipeline(Pipeline):
    """README chain on simulated bars (uniform rule, impact volumes)."""

    def commands(self):
        out = ["--out", self.work]
        return [
            ("simulate", ["--steps", str(self.size["bars"]), "--seed", str(self.seed),
                          "--sigma-step", "0.0002", "--xi-std", "0.05", "--kappa-std", "0.05",
                          "--s0", "100", "--rule", "uniform", "--volume-mode", "impact", *out],
             self.check_bars),
            ("curve", ["--bars", self.path("bars.csv"), "--quantile", "0.9", *out],
             lambda: self.check_curve(self.size["bars"])),
            ("calibrate", ["--curve", self.path("curve.csv"), "--kind", "bar",
                           "--horizon", "1.0", "--n", "100", "--sigma", "0.02",
                           "--price", "100", *out],
             self.check_calibration),
            ("optimize", ["--calibration", self.path("calibration.json"), "--alpha", "0.001",
                          "--lambda0", "3.0", "--v-points", str(self.size["v_points"]), *out],
             self.check_policy),
        ]

    def check_bars(self) -> None:
        n = self.size["bars"]
        rows = load_rows(self.path("bars.csv"), "timestamp,open,high,low,close,volume", 6)
        expect(rows.shape[0] == n, f"{rows.shape[0]} bars written, expected {n}")
        expect(np.isfinite(rows).all(), "non-finite bar value")
        stamp, opn, high, low, close, volume = rows.T
        expect(np.array_equal(stamp, np.arange(n)), "timestamps are not 0..n-1")
        expect(np.all(low <= np.minimum(opn, close)) and np.all(np.maximum(opn, close) <= high),
               "open/close outside the low/high envelope")
        expect(np.all(volume >= 0.0), "negative volume")


class QuotePipeline(Pipeline):
    """Quote/trade tape chain; never touches the simulator."""

    def make_inputs(self) -> None:
        self.tape = tape.write_tape(self.seed, self.size["trades"],
                                    self.path("trades.csv"), self.path("quotes.csv"))

    def commands(self):
        out = ["--out", self.work]
        t = self.tape
        return [
            ("curve", ["--quotes", self.path("quotes.csv"), "--trades", self.path("trades.csv"),
                       "--window", repr(t.window), "--quantile", "0.9", *out],
             lambda: self.check_curve(t.n_trades)),
            ("calibrate", ["--curve", self.path("curve.csv"), "--kind", "bidask",
                           "--n", repr(t.mean_size), "--sigma", repr(t.sigma),
                           "--price", repr(t.price), *out],
             lambda: self.check_calibration(t.rho)),
            ("optimize", ["--calibration", self.path("calibration.json"), "--alpha", "0.001",
                          "--lambda0", "3.0", "--v-points", str(self.size["v_points"]), *out],
             self.check_policy),
        ]


# --------------------------------------------------------------------------
# in-process library calls
# --------------------------------------------------------------------------

class SaturatingLaw:
    """Duck-typed non-linear law: delta = delta_ref(v) (L / lambda_ref) tanh(lam / L).

    It has no ``ddelta_dlam``, so the optimizer takes its numeric,
    finite-difference path.
    """

    def __init__(self, a: float, lambda_ref: float, lam_sat: float) -> None:
        self.a, self.lambda_ref, self.lam_sat = a, lambda_ref, lam_sat

    def delta(self, lam, v):
        return np.sqrt(self.a / v + v * v) * (self.lam_sat / self.lambda_ref) \
            * np.tanh(np.asarray(lam) / self.lam_sat)


def bar_law(V, lam, rho, sigma, n, tau0, T):
    """Dimensionless bar law, written out independently of the package."""
    return np.sqrt(lam ** 2 * sigma ** 2 + (rho * math.pi * tau0 / n) ** 2 * V ** 2
                   + (rho * math.pi * tau0) ** 2 * T * V ** 3 / n ** 3)


class LibrarySweep:
    """Library calls in this process: no file I/O and no process start per call."""

    def __init__(self, runner: Runner, work: str, seed: int, size: dict) -> None:
        self.runner, self.work, self.seed, self.size = runner, work, seed, size
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from spreadwave import calibration, coupled_wave, optimizer, scaling, spread_models
        from spreadwave.errors import SpreadwaveError
        # What a failing library call may raise; it counts as a failed operation.
        self.errors = (SpreadwaveError, ArithmeticError, ValueError, np.linalg.LinAlgError)
        self.cal, self.cw, self.opt = calibration, coupled_wave, optimizer
        self.scaling, self.sm = scaling, spread_models
        # The unprobed scalar law, the reference for sampled surface cells.
        self.cell = scaling.bar_spread_with_volume

    def noisy_curve(self, rng, v_edges, law, source):
        mids = np.sqrt(v_edges[:-1] * v_edges[1:])
        spreads = 100.0 * law(mids) * np.exp(0.05 * rng.standard_normal(mids.size))
        buckets = tuple(self.cal.CurveBucket(
            v_lo=float(lo), v_hi=float(hi), v_mid=float(mid), spread_q=float(q),
            count=400, flagged=False,
        ) for lo, hi, mid, q in zip(v_edges[:-1], v_edges[1:], mids, spreads))
        return self.cal.SpreadVolumeCurve(buckets=buckets, quantile_level=0.9, source=source,
                                          n_accepted=400 * mids.size, n_rejected=0)

    def setup(self) -> None:
        cal, size = self.cal, self.size
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(2,)))
        self.bar_flow = cal.FlowStats(n=100.0, V=0.0, sigma=0.02, mean_price=100.0)
        self.ba_flow = cal.FlowStats(n=tape.MEAN_SIZE, V=0.0, sigma=tape.SIGMA,
                                     mean_price=100.0)
        bar_edges = np.geomspace(0.05, 50.0, 26)
        ba_edges = np.geomspace(10.0, 1e4, 26)
        ba_rho = tape.rho_for_minimum_at(math.sqrt(ba_edges[0] * ba_edges[-1]))
        self.bar_curves = [self.noisy_curve(
            rng, bar_edges, lambda V: bar_law(V, 1.5, 1.0, 0.02, 100.0, 1.0, 1.0),
            cal.CurveSource.BAR) for _ in range(size["fits"])]
        self.ba_curves = [self.noisy_curve(
            rng, ba_edges, lambda V: tape.bidask_law(V, tape.LAMBDA, ba_rho),
            cal.CurveSource.BID_ASK) for _ in range(size["fits"])]

        fitted = cal.fit_bar_curve(self.bar_curves[0], horizon_T=1.0, flow=self.bar_flow)
        self.calibrated = self.opt.calibrated_law(fitted, self.bar_flow, cal.CurveSource.BAR,
                                                  1.2, horizon_T=1.0)
        n = size["policy_points"]
        self.analytic_grid = np.geomspace(0.4, 6.8, n)
        self.calibrated_grid = np.geomspace(0.05, 50.0, n)
        self.model = self.opt.ExecutionModel(lambda0=3.0)

        self.surface_params = self.scaling.SpreadSurfaceParams(
            lambda_risk=1.5, rho_risk=1.0, sigma_tau=0.02, n=100.0, tau0=0.01)
        t_grid = np.geomspace(1.0, 10.0, size["surface"])
        v_grid = np.geomspace(1.0, 100.0, size["surface"])
        self.grids = (v_grid, t_grid)

        def table():
            return self.scaling.PiecewiseConstantTable(
                np.geomspace(1.0, 10.0, 6), np.geomspace(1.0, 100.0, 11),
                rng.uniform(0.5, 2.0, (5, 10)))
        self.table_params = self.scaling.SpreadSurfaceParams(
            lambda_risk=1.5, rho_risk=1.0, sigma_tau=0.02, n=100.0, tau0=0.01,
            lambda_table=table(), rho_table=table())
        self.cells = [(int(i), int(j)) for i, j in
                      rng.integers(0, size["surface"], (16, 2))]

        self.wave = self.cw.CoupledWaveParams(sigma_step=1e-4, xi_std=0.5, kappa_std=0.5,
                                              seed=self.seed)
        self.dt = self.cw.suggest_amplitude_dt(self.wave, 100.0)

        a = np.geomspace(1.0, 100.0, size["queries"])
        self.queries = list(zip(a.tolist(), (
            math.sqrt(3.0) * (a / 2.0) ** (1.0 / 3.0)
            * (1.0 + rng.uniform(0.01, 3.0, a.size))).tolist()))

        self.runner.cold_import()
        # Warm-up: one small call of each kind, so lazy imports are done.
        self.opt.policy_curve(self.analytic_grid[:3], self.model,
                              self.opt.dimensionless_law(10.0, 1.2), 3.0)
        self.scaling.spread_surface(self.table_params, 100.0, v_grid[:3], t_grid[:3])
        self.cw.evolve_fluctuating(self.cw.AmplitudeState(1.0 + 0j, 0j), self.wave,
                                   100.0, self.dt, 10)
        cal.fit_bid_ask_curve(self.ba_curves[0], flow=self.ba_flow)
        self.sm.inverse_spread_volumes(*self.queries[0])

    def operations(self):
        """(label, call, check) for one pass; calls go through module attributes.

        Each label names one operation of the pass; its kind is the part
        before the first ``/``.
        """
        opt, cal, sc = self.opt, self.cal, self.scaling
        ops = [
            ("policy/analytic", lambda: opt.policy_curve(self.analytic_grid, self.model,
                                                         opt.dimensionless_law(10.0, 1.2), 3.0),
             self.check_policy),
            ("policy/calibrated", lambda: opt.policy_curve(self.calibrated_grid, self.model,
                                                           self.calibrated, 0.01),
             self.check_policy),
            ("policy/saturating", lambda: opt.policy_curve(self.analytic_grid, self.model,
                                                           SaturatingLaw(10.0, 1.2, 2.0), 1.0),
             self.check_policy),
            ("surface/scalar", lambda: sc.spread_surface(self.surface_params, 100.0, *self.grids),
             lambda out: self.check_surface(self.surface_params, out)),
            ("surface/table", lambda: sc.spread_surface(self.table_params, 100.0, *self.grids),
             lambda out: self.check_surface(self.table_params, out)),
            ("evolve", lambda: self.cw.evolve_fluctuating(
                self.cw.AmplitudeState(1.0 + 0j, 0j), self.wave, 100.0, self.dt,
                self.size["evolve_steps"]),
             lambda state: expect(abs(state.norm_sq() - 1.0) <= NORM_TOL, "norm not conserved")),
        ]
        ops += [(f"fit/bar/{k}",
                 lambda c=c: cal.fit_bar_curve(c, horizon_T=1.0, flow=self.bar_flow),
                 self.check_fit) for k, c in enumerate(self.bar_curves)]
        ops += [(f"fit/bidask/{k}", lambda c=c: cal.fit_bid_ask_curve(c, flow=self.ba_flow),
                 self.check_fit) for k, c in enumerate(self.ba_curves)]
        ops.append(("inverse", lambda: [self.sm.inverse_spread_volumes(a, d)
                                        for a, d in self.queries],
                    self.check_inverse))
        return ops

    def call(self, label: str, call, check) -> float:
        """Run one timed library call and check its result; returns its seconds."""
        start = time.perf_counter()
        try:
            result = call()
        except self.errors as exc:
            self.runner.record(f"{label}: {exc!r}", False)
        else:
            elapsed = time.perf_counter() - start
            self.runner.record(label, True, lambda: check(result))
            return elapsed
        return time.perf_counter() - start

    def run_pass(self) -> list[tuple[str, float]]:
        return [(label, self.call(label, call, check))
                for label, call, check in self.operations()]

    def traced_pass(self, tracer: probes.Tracer) -> float:
        probes.install(tracer)
        try:
            wall = 0.0
            for label, call, check in self.operations():
                tracer.op = self.runner.attempted + 1
                wall += self.call(f"traced {label}", call, check)
        finally:
            tracer.restore()
        return wall

    def check_policy(self, policy) -> None:
        columns = (policy.v, policy.lambda_opt, policy.spread_opt, policy.exec_rate,
                   policy.pnl_opt, policy.pnl_naive)
        expect(all(np.isfinite(c).all() for c in columns), "non-finite policy value")
        expect(not policy.failures, f"optimizer failures at {policy.failures}")
        slack = PNL_ROUNDING * np.maximum(np.abs(policy.pnl_opt), np.abs(policy.pnl_naive))
        expect(np.all(policy.pnl_opt >= policy.pnl_naive - slack), "pnl_opt below pnl_naive")

    def check_surface(self, params, out) -> None:
        v_grid, t_grid = self.grids
        expect(out.shape == (t_grid.size, v_grid.size), "surface has the wrong shape")
        expect(np.isfinite(out).all(), "non-finite surface cell")
        for i, j in self.cells:
            expect(out[i, j] == self.cell(params, 100.0, float(v_grid[j]), float(t_grid[i])),
                   f"surface cell ({i}, {j}) differs from bar_spread_with_volume")

    def check_fit(self, result) -> None:
        expect(result.converged, "fit did not converge")
        expect(finite(result.residual_norm, result.lambda_hat, result.rho_hat),
               "non-finite fit result")

    def check_inverse(self, roots) -> None:
        for (a, target), (lo, hi) in zip(self.queries, roots):
            v_min = (a / 2.0) ** (1.0 / 3.0)
            expect(lo <= v_min <= hi, f"roots {lo!r}, {hi!r} do not straddle v_min")
            for v in (lo, hi):
                expect(abs(math.sqrt(a / v + v * v) - target) <= 1e-9 * target,
                       f"delta({v!r}) != {target!r} for a={a!r}")


WORKLOADS = {
    "bars_pipeline": BarsPipeline,
    "quote_pipeline": QuotePipeline,
    "library_sweep": LibrarySweep,
}


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def medians(passes, key=lambda label: label) -> dict[str, float]:
    """Median seconds over a run's passes, per operation label mapped by ``key``."""
    groups: dict[str, list[float]] = {}
    for times in passes:
        for label, seconds in times:
            groups.setdefault(key(label), []).append(seconds)
    return {name: statistics.median(values) for name, values in groups.items()}


def traced_metrics(workload, runner: Runner, passes, wall_s: float, work: str):
    """Per-layer metrics: one probed pass, import breakdowns, untraced medians."""
    tracer = probes.Tracer()
    traced_wall = workload.traced_pass(tracer)
    metrics = probes.layer_metrics(tracer, quotes=isinstance(workload, QuotePipeline))
    with open(work + ".spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)

    breakdowns = []
    for k in range(workload.size["import_probes"]):
        err_path = os.path.join(work, f"importtime{k}.txt")
        runner.cold_import("-X", "importtime", stderr_path=err_path)
        with open(err_path, encoding="utf-8") as fh:
            breakdowns.append(probes.import_breakdown(fh.read()))
    for key in breakdowns[0]:
        metrics[f"cli.import.{key}"] = (statistics.median(b[key] for b in breakdowns), "ms")
    metrics["cli.import.wall_s"] = (statistics.median(runner.import_times), "s")

    per_op = medians(passes)
    per_kind = medians(passes, key=lambda label: label.split("/")[0])
    cmd_rss = getattr(workload, "cmd_rss", {})
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}.wall_s"] = (per_op.get(cmd, 0.0), "s")
        metrics[f"cli.{cmd}.peak_rss_mb"] = (cmd_rss.get(cmd, 0.0), "MB")
    for kind, name in (("policy", "optimizer.policy_curve"), ("surface", "scaling.spread_surface"),
                       ("evolve", "coupled_wave.evolve_fluctuating"), ("fit", "calibration.fit")):
        metrics[f"{name}.p50_ms"] = (1e3 * per_kind.get(kind, 0.0), "ms")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spreadwave", "cli.py")):
        print(f"error: no spreadwave sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    bench_dir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(bench_dir, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log_path = work + ".log"
    open(log_path, "w").close()
    runner = Runner(start + RUN_LIMIT_S, log_path)
    size = SIZES[args.size]
    workload = WORKLOADS[args.workload](runner, work, args.seed, size)

    setups = []
    for _ in range(size["setups"]):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    # Passes until --seconds are spent; a pass starts only if it should end
    # less than half a pass past them, and never past the run limit.
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        spent = sum(s for _, s in passes[-1])
        if time.perf_counter() - t0 + 0.5 * spent >= args.seconds \
                or time.monotonic() + (2 + args.trace) * spent > start + RUN_LIMIT_S:
            break
    walls = [sum(s for _, s in times) for times in passes]
    # A typical pass: each operation at its median over the run's passes, so
    # one slow moment moves one sample of one operation, not a whole pass.
    per_op = medians(passes)
    wall_s = sum(per_op.values())

    if args.workload == "library_sweep":
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.peak_rss_mb = max(runner.peak_rss_mb, own)

    for label, seconds in per_op.items():
        print(f"{args.workload} {label}: median {seconds:.4f} s")
    print(f"{args.workload}: {len(passes)} passes, wall {', '.join(f'{w:.3f}' for w in walls)} s")

    if args.trace:
        metrics = traced_metrics(workload, runner, passes, wall_s, work)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        }
    shutil.rmtree(work, ignore_errors=True)

    print(f"failed_frac: {runner.failed / runner.attempted} "
          f"({runner.failed} of {runner.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
