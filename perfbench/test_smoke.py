"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced, and checks that the last
line of output names every metric of BENCHMARK.json with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


# quote_pipeline is not in BENCHMARK.json (see README.md) but still runs,
# and its traced run also reports the layers only a quote/trade tape reaches.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["quote_pipeline"]
QUOTE_ONLY = {"data_io.read_quotes.s": "s", "data_io.read_quotes.rows_per_s": "1/s",
              "data_io.read_trades.s": "s", "data_io.read_trades.rows_per_s": "1/s",
              "calibration.quotes_to_samples.s": "s"}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_named_with_its_unit(workload, trace, kind):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    if workload == "quote_pipeline" and trace:
        expected.update(QUOTE_ONLY)
    assert units == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
