"""Seeded quote/trade tape for the quote_pipeline workload (numpy only).

The tape is written by the benchmark itself, not by ``spreadwave.synthetic``,
so the program under test only ever sees the generated files.

The arrival rate swings over three decades along the tape, so the trailing
traded volume spans both regimes of the bid-ask law: the liquidity term
(spread ~ V^-1/2) at low volume and the impact term (spread ~ V) at high
volume.  With a flat rate only one regime is sampled and the law's two
parameters cannot be told apart.  The impact coefficient rho is chosen so
the curve's minimum sits at the geometric middle of the sampled volume range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPOCH_US = 1_700_000_000_000_000    # 2023-11-14T22:13:20Z, in microseconds
LOG10_RATE = (-1.0, 2.0)            # trades per second, low and high
RATE_CYCLES = 8                     # swings of the rate along the tape
MEAN_SIZE = 100.0
SIZE_LOG_STD = 0.5
PRICE = 100.0
SIGMA = 0.01                        # log-price volatility per sqrt(second)
LAMBDA = 1.0
TAU0 = 1.0
SPREAD_NOISE = 0.02                 # log-normal multiplicative noise
WINDOW = 60.0                       # trailing volume window, seconds


@dataclass(frozen=True)
class Tape:
    """Generating parameters of a written tape, for checking the fit."""

    n_trades: int
    rho: float
    sigma: float = SIGMA
    mean_size: float = MEAN_SIZE
    price: float = PRICE
    window: float = WINDOW


def bidask_law(V: np.ndarray, lam: float, rho: float) -> np.ndarray:
    """Dimensionless bid-ask law, written out independently of the package."""
    return np.sqrt(lam ** 2 * SIGMA ** 2 * MEAN_SIZE / V
                   + 2.0 * (rho * math.pi * TAU0 / MEAN_SIZE) ** 2 * V ** 2)


def rho_for_minimum_at(v_star: float) -> float:
    """Impact coefficient that puts the bid-ask law's minimum at volume v_star."""
    return math.sqrt(LAMBDA ** 2 * SIGMA ** 2 * MEAN_SIZE ** 3 / (4.0 * v_star ** 3)) \
        / (math.pi * TAU0)


def _write(path: str, header: str, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write("".join(
            f"{t},{a!r},{b!r}\n" for t, a, b in zip(*(c.tolist() for c in columns))
        ))


def write_tape(seed: int, n_trades: int, trades_path: str, quotes_path: str) -> Tape:
    """Write trades.csv and quotes.csv (one quote per trade, ISO-8601 stamps)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    u = np.arange(n_trades) / n_trades
    lo, hi = LOG10_RATE
    log_rate = lo + (hi - lo) * 0.5 * (
        1.0 + np.sin(2.0 * math.pi * RATE_CYCLES * u + rng.uniform(0.0, 2.0 * math.pi))
    )
    gaps_us = np.maximum(
        np.rint(rng.exponential(1.0, n_trades) / 10.0 ** log_rate * 1e6), 1
    ).astype(np.int64)
    stamps_us = EPOCH_US + np.cumsum(gaps_us)
    # Same float the reader gets from the ISO text: integer microseconds / 1e6.
    times = stamps_us / 1e6
    sizes = rng.lognormal(math.log(MEAN_SIZE) - 0.5 * SIZE_LOG_STD ** 2,
                          SIZE_LOG_STD, n_trades)
    prices = PRICE * np.exp(np.cumsum(
        SIGMA * np.sqrt(gaps_us / 1e6) * rng.standard_normal(n_trades)
    ))

    # Trailing volume exactly as the curve command pairs it with each quote.
    cum = np.concatenate(([0.0], np.cumsum(sizes)))
    upto = np.searchsorted(times, times, side="right")
    after = np.searchsorted(times, times - WINDOW, side="right")
    volume = (cum[upto] - cum[after]) / WINDOW
    rho = rho_for_minimum_at(
        math.sqrt(np.percentile(volume, 1.0) * np.percentile(volume, 99.0)))
    spread = PRICE * bidask_law(volume, LAMBDA, rho) \
        * np.exp(SPREAD_NOISE * rng.standard_normal(n_trades))

    stamps = np.datetime_as_string(stamps_us.astype("datetime64[us]"),
                                   unit="us", timezone="UTC")
    _write(trades_path, "timestamp,price,size", (stamps, prices, sizes))
    _write(quotes_path, "timestamp,bid,ask",
           (stamps, prices - 0.5 * spread, prices + 0.5 * spread))
    return Tape(n_trades=n_trades, rho=rho)
