"""Golden digests: output bytes pinned against silent change.

The I/O goldens feed the bar writer and the ``curve`` command inputs built
from integer arithmetic alone, so they do not depend on the simulator or on
numpy's random streams; their digests were recorded with spreadwave 0.1.0
and must never move.  The pipeline golden runs the README chain at its
documented size (5000 bars) and pins every output; it was recorded under
stream layout 3 and may change only with a deliberate change of output
bytes, recorded in CHANGES.md with its cause.  Random streams and the fit
depend on numpy (the package does not use scipy), so that golden holds for
one numpy version (recorded with numpy 2.4).  The ``scale`` goldens run the
README's two ``scale`` invocations; like the pipeline golden they may
change only deliberately, with the cause in CHANGES.md.  The quote-path
goldens run ``curve --quotes --trades`` on tapes built from integer
arithmetic, with ISO-8601, numeric and mixed timestamps; like the I/O
goldens they must never move.  The bid-ask golden runs ``calibrate --kind
bidask`` and ``optimize`` on its report; like the pipeline golden it
depends on the fit, so it holds for one numpy version and may change only
deliberately.
"""

import hashlib
import math
import os

import numpy as np
import pytest

from cli_runner import invoke

from spreadwave import BarSeries
from spreadwave.data_io import write_bars_csv

_N_BARS = 3000


def _uniforms(n, seed):
    """n floats in [0, 1) from a 64-bit LCG, exact on every platform."""
    x, out = seed, []
    for _ in range(n):
        x = (6364136223846793005 * x + 1442695040888963407) % (1 << 64)
        out.append((x >> 11) / float(1 << 53))
    return out


def _bar_columns():
    """Hand-built bar columns: some closes leave the envelope, some volumes are 0."""
    u1, u2, u3, u4 = (_uniforms(_N_BARS, seed) for seed in (1, 2, 3, 4))
    mid = [100.0 + 10.0 * a for a in u1]
    h = [0.01 + b for b in u2]
    high = [m + 0.5 * x for m, x in zip(mid, h)]
    low = [m - 0.5 * x for m, x in zip(mid, h)]
    last = [m + 1.5 * x * (c - 0.5) for m, x, c in zip(mid, h, u3)]
    volume = [0.0 if i % 97 == 0 else 1000.0 * d * d for i, d in enumerate(u4)]
    return mid, high, low, last, h, volume


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_write_bars_csv_golden(tmp_path):
    mid, high, low, last, h, volume = (np.array(c) for c in _bar_columns())
    series = BarSeries(s_mid=mid, s_high=high, s_low=low, s_last=last, h=h,
                       volume=volume, s0=100.0)
    path = str(tmp_path / "bars.csv")
    write_bars_csv(path, series)
    assert _digest(path) == (
        "6c14be9cc6c40dd7dab74f5cf399ff0a7d39bf976de21ab819dae75f3d84baac")


def test_curve_from_bars_golden(tmp_path):
    mid, high, low, last, _, volume = _bar_columns()
    lines = ["timestamp,open,high,low,close,volume"] + [
        f"{i},{o!r},{max(hi, o, c)!r},{min(lo, o, c)!r},{c!r},{v!r}"
        for i, (o, hi, lo, c, v) in enumerate(zip(mid, high, low, last, volume))
    ]
    bars = tmp_path / "bars.csv"
    bars.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    res = invoke(["curve", "--bars", str(bars), "--quantile", "0.9",
                  "--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert {name: _digest(out / name) for name in ("curve.csv", "curve_hist.csv")} == {
        "curve.csv": "0e1f3db2d5786f6bb57f04be2decee10ae004fe82096d07f5918145a50a2bc06",
        "curve_hist.csv": "c8f5bf6f9d488ce8e0ec6e9fda32af4e8c85ded4578889d9eceaa7702c4e402a",
    }


# The quote path: one tape written three ways.  Every stamp denotes the
# same instant whether it is written as seconds or as ISO-8601 text, so the
# three tapes give the same curve; their reports differ in the input digests.
_N_TAPE = 2500
_EPOCH = 1_700_000_000  # 2023-11-14T22:13:20Z


def _numeric_stamp(i, cs):
    return f"{_EPOCH + cs // 100}.{cs % 100:02d}"


def _iso_stamp(i, cs):
    """ISO-8601 text: Z, +00:00 or naive (read as UTC), and fractions of 0-4 digits."""
    day, sec = divmod(cs // 100 + 80000, 86400)  # _EPOCH is 80000 s into its day
    text = f"2023-11-{14 + day:02d}T{sec // 3600:02d}:{sec // 60 % 60:02d}:{sec % 60:02d}"
    frac = cs % 100
    if frac:
        text += f".{frac:02d}".rstrip("0") if i % 3 else f".{frac:02d}00"
    return text + ("Z", "+00:00", "", "Z")[i % 4]


def _mixed_stamp(i, cs):
    """Seconds for the first block of rows, ISO-8601 text after it."""
    return _numeric_stamp(i, cs) if i < 2200 else _iso_stamp(i, cs)


def _write_tape(tmp_path, stamp):
    """trades.csv and quotes.csv: bursts of flow, some crossed quotes."""
    u1, u2, u3, u4 = (_uniforms(_N_TAPE, seed) for seed in (5, 6, 7, 8))
    trades, quotes, cs = ["timestamp,price,size"], ["timestamp,bid,ask"], 0
    for i, (a, b, c, d) in enumerate(zip(u1, u2, u3, u4)):
        cs += 1 + int(2000 * a ** 4)
        price = 100.0 + 5.0 * c
        trades.append(f"{stamp(i, cs)},{price!r},{1 + int(100 * b)}")
        half = 0.005 + 0.1 * d * d
        bid, ask = (price + half, price - half) if i % 53 == 0 else (price - half, price + half)
        quotes.append(f"{stamp(i, cs + 37)},{bid!r},{ask!r}")
    for name, lines in (("trades.csv", trades), ("quotes.csv", quotes)):
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


_CURVE_DIGEST = "5871808e179427e3931e8575e6b5c7fe7732fad32260b810d9fb02e0fbbd0f90"
_HIST_DIGEST = "1e7854f5374bf1abc9ac8441cf1035d555c81437f6a0aa39a12a04f91c767be9"
_QUOTE_TAPES = {
    "iso": (_iso_stamp, "ff670f36da3742580b3cbfb0db3004ff6e2107d9c5ee075867e7c6b974834a0a"),
    "numeric": (_numeric_stamp,
                "b43f226fab5f308146f4e3519f44007e8ce6e5a371f28b745a8965e0b7f96659"),
    "mixed": (_mixed_stamp, "7c19e9084737c9f29aab98c4eb1d5becb2c608228879c29596b9c6255551d689"),
}


@pytest.mark.parametrize("case", sorted(_QUOTE_TAPES))
def test_curve_from_quotes_golden(tmp_path, monkeypatch, case):
    for key in [k for k in os.environ if k.startswith("SPREADWAVE_")]:
        monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    stamp, report_digest = _QUOTE_TAPES[case]
    _write_tape(tmp_path, stamp)
    res = invoke([
        "curve", "--quotes", "quotes.csv", "--trades", "trades.csv", "--window", "30",
        "--buckets", "8", "--min-count", "5"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert {name: _digest(name) for name in
            ("curve.csv", "curve_hist.csv", "curve_report.json")} == {
        "curve.csv": _CURVE_DIGEST,
        "curve_hist.csv": _HIST_DIGEST,
        "curve_report.json": report_digest,
    }


_README_PIPELINE = (
    ["simulate", "--steps", "5000", "--seed", "42", "--sigma-step", "0.0002",
     "--xi-std", "0.05", "--kappa-std", "0.05", "--s0", "100"],
    ["curve", "--bars", "bars.csv", "--quantile", "0.9"],
    ["calibrate", "--curve", "curve.csv", "--kind", "bar", "--horizon", "1.0",
     "--n", "100", "--sigma", "0.02", "--price", "100"],
    ["optimize", "--calibration", "calibration.json", "--alpha", "0.001",
     "--lambda0", "3.0"],
)

_README_DIGESTS = {
    "bars.csv": "d1d955460aa0ba00a0562ef71c295e15cdae00330865e70a5e46e774dd27c428",
    "simulate_report.json": "6c47f3630c0e044efca32006e704f1b1af6b72efce863aaaf41116e510ecd81b",
    "curve.csv": "1d791f9f49bd6118f75ee47a5357cff02d06d255313be6b753d9d94a39bd2c9a",
    "curve_hist.csv": "cc763560d30e7ee952e27032bf0c1aab791da60efa1e89a5b34a5a9d1e9c053d",
    "curve_report.json": "035dcf1584b059279242eeebd7d79708ae56d50a12daba81c8c56b0e9adebe4b",
    "calibration.json": "c2046a8a3c2a83cae13cf59640a836e22451242bb6823175cdab786d0a75041f",
    "overlay.csv": "af27890e0d4be03d6b7fc025df253dac69e66e59ad8430c336a96e943b737b4a",
    "policy.csv": "99debf5b1d7efc0ce8e46c178963a1029bf8a37eac78579fec3ecba1be473d7f",
    "optimize_report.json": "5d3a31905f2cf33527423e0b5001be6164baf55013b474a89d8d1905c7b0ca95",
}


def test_readme_pipeline_golden(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("SPREADWAVE_")]:
        monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    for command in _README_PIPELINE:
        res = invoke(command, catch_exceptions=False)
        assert res.exit_code == 0, f"{command[0]}: {res.output}"
    assert {name: _digest(name) for name in _README_DIGESTS} == _README_DIGESTS


# The bid-ask calibration path: ``calibrate --kind bidask`` on a curve CSV
# built from correctly rounded arithmetic alone, followed by ``optimize
# --calibration``.  Like the pipeline golden it holds for one numpy version.
_BIDASK_CURVE_BUCKETS = 12


def _bidask_curve_text():
    """Curve CSV of the bid-ask law at n=100, sigma=0.02, price=50, lambda=3.5,
    rho*tau0=0.012, with +-5% LCG noise; the first bucket is too thin to fit."""
    noise, counts = (_uniforms(_BIDASK_CURVE_BUCKETS, seed) for seed in (9, 10))
    lines = ["v_lo,v_hi,v_mid,spread_q,count"]
    for i, (a, b) in enumerate(zip(noise, counts)):
        lo, hi = 10.0 * 3 ** i / 2 ** i, 10.0 * 3 ** (i + 1) / 2 ** (i + 1)
        mid = math.sqrt(lo * hi)
        law = math.sqrt(0.49 / mid + 2.0 * (0.012 * math.pi / 100.0) ** 2 * mid * mid)
        spread = 50.0 * law * (1.0 + 0.1 * (a - 0.5))
        lines.append(f"{lo!r},{hi!r},{mid!r},{spread!r},{5 if i == 0 else 30 + int(300 * b)}")
    return "\n".join(lines) + "\n"


_BIDASK_DIGESTS = {
    "plain": {
        "calibration.json": "7e9f94e130df536b7e7d5013a13b2548c5e1ae0545282b5a482282224c11db78",
        "overlay.csv": "2bf827132ef9616becc44c8d9350bb1f6f5d2fe4a25c3bbac5634553fa7722fe",
        "policy.csv": "efde692749e53afa23f865234fb447df95cef6510b35df14b52541afc14f697e",
        "optimize_report.json":
            "a8bafe4928f7c921b5037b4bd30b6dbeed0e45e77bd59774c39b7d0b1d51d9a3",
    },
}


@pytest.mark.parametrize("case", sorted(_BIDASK_DIGESTS))
def test_bidask_calibrate_optimize_golden(tmp_path, monkeypatch, case):
    for key in [k for k in os.environ if k.startswith("SPREADWAVE_")]:
        monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.csv").write_text(_bidask_curve_text(), encoding="utf-8")
    for command in (
        ["calibrate", "--curve", "curve.csv", "--kind", "bidask", "--n", "100",
         "--sigma", "0.02", "--price", "50", "--tau0", "0.01"],
        ["optimize", "--calibration", "calibration.json", "--alpha", "0.001",
         "--lambda0", "3.0"],
    ):
        res = invoke(command, catch_exceptions=False)
        assert res.exit_code == 0, f"{command[0]}: {res.output}"
    assert {name: _digest(name) for name in _BIDASK_DIGESTS[case]} == _BIDASK_DIGESTS[case]


_README_SCALE = {
    "table": (["scale", "--base-spread", "2.0", "--eta", "0.8", "--lam", "1.6",
               "--t2-max", "1e6"], {
        "scale.csv": "2df8632ac89a8f3c75d1fc6b08465abdc6fe67e65a1b82f0f4ca74a7463fe5a2",
        "scale_report.json": "91c6de9d12346c10e8ffc1547c915d02c4c4452b1bf993044604f4fbf984af14",
    }),
    "surface": (["scale", "--surface", "true", "--lambda-risk", "1.5", "--rho-risk", "1.0",
                 "--sigma-tau", "0.02", "--n", "100", "--tau0", "0.01",
                 "--v-lo", "1", "--v-hi", "100", "--t-lo", "1", "--t-hi", "10"], {
        "surface.csv": "1be49fe6a58827f59ea3abb110acac58322b090d7875b3bc6cc3061ee674cfcd",
        "scale_report.json": "1f2a68e88bbe9ba25347fd9f42c1ee5f14a628603cb3530ea9ee498657c086f5",
    }),
}


@pytest.mark.parametrize("case", sorted(_README_SCALE))
def test_readme_scale_golden(tmp_path, monkeypatch, case):
    for key in [k for k in os.environ if k.startswith("SPREADWAVE_")]:
        monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    command, digests = _README_SCALE[case]
    res = invoke(command, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert {name: _digest(name) for name in digests} == digests


# The numeric optimizer path: no CLI output reaches it, so its columns are
# pinned directly.  Like the pipeline golden these hold for one numpy version.

class _SaturatingLaw:
    """A non-linear law without ``ddelta_dlam``: the finite-difference search."""

    lambda_ref = 1.2

    def delta(self, lam, v):
        return np.sqrt(10.0 / v + v * v) * (2.0 / 1.2) * np.tanh(np.asarray(lam) / 2.0)


class _NumericOnly:
    """A linear law without ``optimal_lambda``: the analytic-slope search."""

    def __init__(self, law):
        self.lambda_ref, self.delta, self.ddelta_dlam = \
            law.lambda_ref, law.delta, law.ddelta_dlam


_POLICY_COLUMNS = ("v", "lambda_opt", "spread_opt", "exec_rate", "pnl_opt",
                   "pnl_naive", "halt")

_NUMERIC_POLICY_DIGESTS = {
    "saturating": {
        "v": "35c762a68bb28005151ad1ee1a0bc3158646b7dc66501415e23b6ee8697fd689",
        "lambda_opt": "6010694825122a42854ffdde7a354a851844aecd726454edb82e0267e86d2788",
        "spread_opt": "7cdab49ac4fe594926a3bd99616c3f6ac4dccdf4ba2fb78d36122af0da71c1a2",
        "exec_rate": "42afe4be27438212142c330a39f45c95e442e6d860461bcc00796951cb222828",
        "pnl_opt": "f57cf5bbfca7bac326873b4a41e394a839971788f84d6850a9abe67b52e139f7",
        "pnl_naive": "e4f4d87fc83dc630ebbb0bb10280aeefcadc2238de55e48dc816f8bc01aa9188",
        "halt": "cd00e292c5970d3c5e2f0ffa5171e555bc46bfc4faddfb4a418b6840b86e79a3",
    },
    "numeric_only": {
        "v": "35c762a68bb28005151ad1ee1a0bc3158646b7dc66501415e23b6ee8697fd689",
        "lambda_opt": "427cab67b40bed75fa54b6a3698909cc3ccdd86f9cc48b29e4ed61d30c57cb51",
        "spread_opt": "34702e037e5678d56d293bbf44ad7b4c6a38bd84f651ab1bef6a98756a62ea95",
        "exec_rate": "b106d2eaeacf26bf1f0174f5323afa652d1fa3f7b08c85a47e56f253b338022b",
        "pnl_opt": "3a486bf2ca8681c6bd2540cce0c72ea9a4039929bf19f7bc2ef9fe395ba3ceb4",
        "pnl_naive": "aac00285fdc47522d90255da2f015d95464a533a59864f0955c00283f1543f46",
        "halt": "cd00e292c5970d3c5e2f0ffa5171e555bc46bfc4faddfb4a418b6840b86e79a3",
    },
}


def _numeric_policy(case):
    from spreadwave import ExecutionModel, dimensionless_law, policy_curve

    grid = np.geomspace(0.4, 6.8, 100)
    if case == "saturating":
        return policy_curve(grid, ExecutionModel(lambda0=3.0), _SaturatingLaw(), 1.0)
    law = _NumericOnly(dimensionless_law(10.0, lambda_ref=1.2))
    return policy_curve(grid, ExecutionModel(lambda0=3.0), law, 3.0)


@pytest.mark.parametrize("case", sorted(_NUMERIC_POLICY_DIGESTS))
def test_numeric_policy_golden(case):
    policy = _numeric_policy(case)
    assert policy.failures == () and not policy.halt.any()
    assert {name: hashlib.sha256(np.asarray(getattr(policy, name)).tobytes()).hexdigest()
            for name in _POLICY_COLUMNS} == _NUMERIC_POLICY_DIGESTS[case]
