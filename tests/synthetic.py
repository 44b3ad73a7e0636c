"""Synthetic data generators: test support for the fit round-trips and the
flow statistics, not part of the package.

Two layers of realism:

* bucket-level spread curves drawn straight from a spread law plus
  multiplicative noise (fast, used for fit round-trips),
* trade tapes with exponential arrival times and a multiplicative
  random-walk price.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from spreadwave.calibration import (CurveBucket, CurveSource, FlowStats, SpreadVolumeCurve,
                                    spread_law)
from spreadwave.data_io import TradeColumns
from spreadwave.errors import DomainError


def _rng(seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(extra)))


def synthetic_spread_curve(
    flow: FlowStats,
    lam: float,
    rho: float,
    tau0: float,
    v_edges: Sequence[float],
    noise_rel: float = 0.05,
    seed: int = 0,
    count: int = 400,
    source: CurveSource = CurveSource.BID_ASK,
    horizon_T: float | None = None,
) -> SpreadVolumeCurve:
    """Bucketed spread-volume curve sampled from a known spread law.

    Each bucket's quantile spread is the law at the bucket's geometric
    midpoint times a (1 + noise_rel * z) factor, z standard normal.  The
    curve carries ``count`` in every bucket so fit weighting is uniform.
    """
    edges = np.asarray(list(v_edges), dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0.0) or edges[0] <= 0.0:
        raise DomainError("v_edges must be >= 2 strictly ascending positive values")
    if noise_rel < 0.0:
        raise DomainError(f"noise_rel must be >= 0, got {noise_rel!r}")
    law = spread_law(source, flow, tau0, horizon_T)

    rng = _rng(seed)
    buckets = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = math.sqrt(lo * hi)
        spread = law(mid, lam, rho) * (1.0 + noise_rel * rng.standard_normal())
        buckets.append(CurveBucket(
            v_lo=float(lo), v_hi=float(hi), v_mid=mid,
            spread_q=float(spread), count=count, flagged=spread <= 0.0,
        ))
    return SpreadVolumeCurve(
        buckets=tuple(buckets),
        quantile_level=0.9,
        source=source,
        n_accepted=count * (edges.size - 1),
        n_rejected=0,
    )


def synthetic_trades(
    n_trades: int,
    s0: float = 100.0,
    sigma_per_trade: float = 1e-3,
    mean_spacing: float = 1.0,
    mean_size: float = 100.0,
    size_log_std: float = 0.5,
    seed: int = 0,
) -> TradeColumns:
    """Trade tape: exponential arrivals, multiplicative random-walk price."""
    if n_trades < 1:
        raise DomainError(f"n_trades must be >= 1, got {n_trades!r}")
    if min(s0, sigma_per_trade, mean_spacing, mean_size) <= 0.0:
        raise DomainError("s0, sigma_per_trade, mean_spacing, mean_size must be > 0")
    rng = _rng(seed)
    gaps = rng.exponential(mean_spacing, size=n_trades)
    times = np.cumsum(gaps)
    # Multiplicative steps are clipped away from zero; the generator is a
    # texture source, not a pricing model.
    steps = 1.0 + sigma_per_trade * rng.standard_normal(n_trades)
    prices = s0 * np.cumprod(np.clip(steps, 0.2, None))
    mu = math.log(mean_size) - 0.5 * size_log_std ** 2
    sizes = rng.lognormal(mu, size_log_std, size=n_trades)
    return TradeColumns(timestamp=times, price=prices, size=sizes)
