"""Two-level coupled-wave price simulator.

Prices are modeled as eigenvalues of a fluctuating Hermitian 2x2 price
operator [[s_mid + xi/2, kappa/2], [kappa/2, s_mid - xi/2]]: the high and
low are s_mid +/- h/2, and the eigenvalue gap is the bar height
h = hypot(xi, kappa).  The mid-price performs a multiplicative random walk;
the last price is placed inside the bar by a configurable rule.  The
``impact`` volume mode inverts the impact price h = 2 pi tau0 s_mid V / n.
Probability amplitudes on the two levels evolve unitarily, with the bar
height setting the oscillation frequency between the high and low levels.

Reproducibility contract: every path is generated from substreams derived
from (seed, path_index), so results are bit-identical no matter how paths
are distributed across workers.  Within one stream layout (``STREAM_LAYOUT``)
a seed reproduces the same bars byte for byte.  Layout 1 (spreadwave 0.1.0)
drew all four variates of a step in turn from the single (seed, path_index)
stream; layout 2 draws each variate kind from its own substream (whole
arrays and blocks of one give the same values); layout 3 draws what layout 2
draws and runs the price walk as a scan, so its bars differ from layout 2's
in the last bits.  ``evolve_fluctuating`` draws from substreams of the same
keys; ``step_price`` draws from the generators it is given.

Both walks are prefix products, so they run as array scans over blocks of
``_BLOCK_ROWS`` steps (Blelloch, "Prefix sums and their applications",
1990); a block whose scan meets a price that is not positive re-walks step
by step with its redraws.  ``simulate_blocks`` re-walks with the arithmetic,
redraws and per-step redraw cap of ``step_price``, its scalar oracle, which
a scanned block matches within rounding, not bit for bit.  The volatility
diagnostics take the columns they reduce (``path_volatility(s_last, s0)``,
``bar_height_rayleigh_scale(h)``), so a caller that keeps only those
columns, such as the ``simulate`` command, uses them directly.
``evolve_fluctuating``'s scanned mid walk equals a per-step loop bit for
bit.  It multiplies each block's step unitaries, held as SU(2) triples by
``_step_matrices``, so its amplitudes match a loop of ``evolve_amplitudes``
calls, which runs ``_step_matrices`` for one step, within 1e-12, not bit
for bit; their draws are the same.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError, check_count, check_finite, row_blocks

logger = logging.getLogger(__name__)

# Redraw rate above which a parameter set is considered suspicious.
_REDRAW_WARN_RATE = 1e-3

# Version of the substream layout simulate_path draws from, and the spawn
# subkeys of its substreams under (seed, path_index); evolve_fluctuating
# draws dz, (xi, kappa) and redraws under the same keys.  Subkey 1 holds the
# lognormal volumes in every layout.
STREAM_LAYOUT = 3
_VOLUME_STREAM = 1
_DZ_STREAM = 2
_XI_KAPPA_STREAM = 3
_PLACEMENT_STREAM = 4
_REDRAW_STREAM = 5
# Largest rotation angle per amplitude step that suggest_amplitude_dt allows.
_MAX_ROTATION = 0.1
# Positivity redraws allowed per step before the step is declared hopeless.
_MAX_REDRAWS = 10_000
_PRICE_OVERFLOW = ("simulated prices overflowed; step volatility or bar height is "
                   "too large for this price")
_ANGLE_OVERFLOW = ("an amplitude step's phase or rotation angle is not finite; "
                   "the step is too long for this tau0 and price scale")


class LastPriceRule(str, Enum):
    """Placement rule for the last price inside a bar."""

    UNIFORM_IN_BAR = "uniform"      # uniform between low and high
    NORMAL_HALF_BAR = "normal"      # normal around mid, std = h/2

    @property
    def placement_alpha(self) -> float:
        """Variance coefficient of the placement rule (var = alpha * h^2 / 4)."""
        return 1.0 / 3.0 if self is LastPriceRule.UNIFORM_IN_BAR else 1.0


@dataclass(frozen=True)
class CoupledWaveParams:
    """Generative parameters of the two-level price process.

    Attributes:
        sigma_step: Per-step mid-price volatility, already scaled for the
            step length (sigma * sqrt(dt) for a physical volatility sigma).
        xi_mean, xi_std: Moments of the level-splitting draw xi.
        kappa_mean, kappa_std: Moments of the level-coupling draw kappa.
        tau0: Time constant of the amplitude evolution.
        last_price_rule: How the last price is placed inside the bar.
        seed: Root seed for the per-path substreams.
    """

    sigma_step: float = 0.0
    xi_mean: float = 0.0
    xi_std: float = 0.0
    kappa_mean: float = 0.0
    kappa_std: float = 0.0
    tau0: float = 1.0
    last_price_rule: LastPriceRule = LastPriceRule.UNIFORM_IN_BAR
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_step", "xi_std", "kappa_std"):
            check_finite(name, getattr(self, name), at_least=0.0)
        check_finite("xi_mean", self.xi_mean)
        check_finite("kappa_mean", self.kappa_mean)
        check_finite("tau0", self.tau0, above=0.0)
        check_finite("seed", self.seed, at_least=0)
        if self._h_sq_mean() == 0.0:
            # Fully degenerate bars (h == 0) are allowed for frozen-dynamics
            # checks but are not a meaningful market configuration.
            logger.debug("both xi and kappa are degenerate at 0; bars collapse")

    def _h_sq_mean(self) -> float:
        return (self.xi_mean ** 2 + self.xi_std ** 2
                + self.kappa_mean ** 2 + self.kappa_std ** 2)


@dataclass(frozen=True)
class BarSample:
    """One simulated bar: mid/high/low/last prices and the bar height."""

    s_mid: float
    s_high: float
    s_low: float
    s_last: float
    h: float


@dataclass(frozen=True)
class AmplitudeState:
    """Probability amplitudes on the high and low levels."""

    psi_high: complex
    psi_low: complex

    def __post_init__(self) -> None:
        for name in ("psi_high", "psi_low"):
            value = getattr(self, name)
            check_finite(name, (value.real, value.imag))

    def norm_sq(self) -> float:
        return abs(self.psi_high) ** 2 + abs(self.psi_low) ** 2

    def populations(self) -> tuple[float, float]:
        return (abs(self.psi_high) ** 2, abs(self.psi_low) ** 2)


@dataclass(frozen=True)
class VolumeConfig:
    """How the per-step volume column of a simulated path is produced.

    Modes:
        "impact": deterministic inversion of the impact-price relation,
            V = avg_trade_size * h / (2 pi tau0 s_mid); no extra randomness.
        "lognormal": iid lognormal draws from a dedicated substream, so the
            bar stream itself is identical across volume modes.
        "none": all zeros.
    """

    mode: str = "impact"
    avg_trade_size: float = 100.0
    log_mean: float = 0.0
    log_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("impact", "lognormal", "none"):
            raise DomainError(f"unknown volume mode {self.mode!r}")
        check_finite("avg_trade_size", self.avg_trade_size,
                     above=0.0 if self.mode == "impact" else None)
        check_finite("log_mean", self.log_mean)
        check_finite("log_sigma", self.log_sigma,
                     at_least=0.0 if self.mode == "lognormal" else None)


@dataclass
class BarSeries:
    """Columnar container for a simulated or ingested path of bars."""

    s_mid: np.ndarray
    s_high: np.ndarray
    s_low: np.ndarray
    s_last: np.ndarray
    h: np.ndarray
    volume: np.ndarray
    s0: float
    redraws: int = 0

    def __len__(self) -> int:
        return len(self.s_mid)


@dataclass
class RedrawCounter:
    """Mutable counter for rejected mid-price draws."""

    count: int = 0


def path_rng(seed: int, path_index: int = 0, *extra: int) -> np.random.Generator:
    """Deterministic substream for (seed, path_index) plus optional subkeys."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(path_index, *extra))
    )


# --------------------------------------------------------------------------
# bars
# --------------------------------------------------------------------------

def _guarded(value: float, redraw, used: int, max_redraws: int) -> tuple[float, int]:
    """Redraw ``value`` until it is positive.

    ``used`` counts the redraws already spent in the current step; the
    updated count is returned with the value.
    """
    while value <= 0.0:
        used += 1
        if used > max_redraws:
            raise DomainError(
                "positive-price redraw limit exceeded; "
                "step volatility or bar height is too large for this price"
            )
        value = redraw()
    return value, used


def step_price(
    s_last: float,
    params: CoupledWaveParams,
    rng: np.random.Generator,
    redraw_counter: RedrawCounter | None = None,
    max_redraws: int = _MAX_REDRAWS,
    *,
    redraw_rng: np.random.Generator | None = None,
) -> BarSample:
    """Advance the process by one step and return the resulting bar.

    Draw order per step is fixed (dz, xi, kappa, placement).  Prices must
    stay positive: a non-positive mid redraws dz, a non-positive last price
    redraws the placement, both incrementing ``redraw_counter``.  Redraws
    come from ``redraw_rng`` when given, else from ``rng``.  The bar
    envelope itself may touch zero when h is comparable to the price; only
    traded prices (mid, last) are constrained.
    """
    check_finite("s_last", s_last, above=0.0)
    source = rng if redraw_rng is None else redraw_rng

    def mid(gen: np.random.Generator) -> float:
        return s_last * (1.0 + params.sigma_step * gen.standard_normal())

    s_mid, redraws = _guarded(mid(rng), lambda: mid(source), 0, max_redraws)

    xi = params.xi_mean + params.xi_std * rng.standard_normal()
    kappa = params.kappa_mean + params.kappa_std * rng.standard_normal()
    # np.hypot, as the simulator's blocks: math.hypot differs from it in
    # the last bit for some inputs.
    h = float(np.hypot(xi, kappa))
    s_high = s_mid + 0.5 * h
    s_low = s_mid - 0.5 * h

    if params.last_price_rule is LastPriceRule.UNIFORM_IN_BAR:
        def place(gen: np.random.Generator) -> float:
            return gen.uniform(s_low, s_high)
    else:
        def place(gen: np.random.Generator) -> float:
            return s_mid + 0.5 * h * gen.standard_normal()

    s_next, redraws = _guarded(place(rng), lambda: place(source), redraws, max_redraws)

    if redraw_counter is not None:
        redraw_counter.count += redraws
    return BarSample(s_mid=s_mid, s_high=s_high, s_low=s_low, s_last=s_next, h=h)


def simulate_blocks(
    params: CoupledWaveParams,
    s0: float,
    n_steps: int,
    path_index: int = 0,
    volume: VolumeConfig | None = None,
) -> Iterator[BarSeries]:
    """Simulate a path of bars (stream layout 3) as consecutive row blocks.

    Yields one ``BarSeries`` per ``_BLOCK_ROWS`` rows; its ``s0`` is the last
    price before the block and its ``redraws`` the block's own.  The
    arguments are checked on the call, before any block is drawn.

    dz, (xi, kappa), the placement variate and the lognormal volumes each
    come from their own (seed, path_index, k) substream.  All but the xi
    normals are drawn one block at a time, which gives the values a whole-
    array draw gives; the xi normals come first in their substream, ahead of
    every kappa, so they are drawn whole and are the only per-row state
    besides the block.  A block's mid/last walk runs as a scan
    (``_scanned_walk``).  Where the scan meets a mid, a last price or a
    cumulative growth that is not positive and finite, the block re-walks
    step by step (``_walked_block``) with exactly the arithmetic of
    ``step_price``: a non-positive mid redraws its normal, then a
    non-positive last price redraws its placement.  The redraws come from
    one more substream, capped per step as in ``step_price``.  The volume
    column never draws from the price streams (see VolumeConfig), so
    changing the volume mode never perturbs the bars.
    """
    check_finite("s0", s0, above=0.0)
    check_count("n_steps", n_steps)
    check_finite("path_index", path_index, at_least=0)
    return _simulated_blocks(params, float(s0), n_steps, path_index,
                             volume if volume is not None else VolumeConfig(mode="none"))


def _scanned_walk(s_last: float, growth: np.ndarray, offsets: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """The mids and last prices of a block without redraws, as a scan.

    The last price follows L_k = g_k L_{k-1} + c_k, so L = G (L_0 +
    cumsum(c / G)) with G = cumprod(g), and each mid is L_{k-1} g_k.
    Returns None where a mid, a last price or G is not positive and finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cum_growth = np.multiply.accumulate(growth)
        lasts = cum_growth * (s_last + np.cumsum(offsets / cum_growth))
        mids = growth * np.concatenate(([s_last], lasts[:-1]))
    for prices in (cum_growth, lasts, mids):
        if not ((prices > 0.0) & (prices < math.inf)).all():
            return None
    return mids, lasts


def _walked_block(s_last: float, growth: np.ndarray, halves: np.ndarray,
                  placement: np.ndarray, uniform: bool, sigma: float,
                  redraw_rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """The mids, last prices and redraw count of a block, walked step by step
    with the arithmetic and the redraws of ``step_price``.  Over bars of no
    height (zero ``halves`` and ``placement``, the normal rule) each last
    price is its mid: the amplitude walk's re-walk."""
    mids: list[float] = []
    lasts: list[float] = []
    redraws = 0
    for growth_i, half_i, variate in zip(growth.tolist(), halves.tolist(), placement.tolist()):
        used = 0
        s_mid = s_last * growth_i
        if s_mid <= 0.0:
            s_mid, used = _guarded(
                s_mid, lambda: s_last * (1.0 + sigma * redraw_rng.standard_normal()),
                used, _MAX_REDRAWS)
        s_low, s_high = s_mid - half_i, s_mid + half_i
        s_next = s_low + (s_high - s_low) * variate if uniform else s_mid + half_i * variate
        if s_next <= 0.0:
            place = ((lambda: redraw_rng.uniform(s_low, s_high)) if uniform
                     else (lambda: s_mid + half_i * redraw_rng.standard_normal()))
            s_next, used = _guarded(s_next, place, used, _MAX_REDRAWS)
        redraws += used
        mids.append(s_mid)
        lasts.append(s_next)
        s_last = s_next
    return np.array(mids), np.array(lasts), redraws


def _simulated_blocks(params: CoupledWaveParams, s_last: float, n_steps: int,
                      path_index: int, volume: VolumeConfig) -> Iterator[BarSeries]:
    def substream(key: int) -> np.random.Generator:
        return path_rng(params.seed, path_index, key)

    dz_rng = substream(_DZ_STREAM)
    xi_kappa_rng = substream(_XI_KAPPA_STREAM)
    xi_normals = xi_kappa_rng.standard_normal(n_steps)
    placement_rng = substream(_PLACEMENT_STREAM)
    volume_rng = substream(_VOLUME_STREAM)
    redraw_rng = substream(_REDRAW_STREAM)
    uniform = params.last_price_rule is LastPriceRule.UNIFORM_IN_BAR
    sigma = params.sigma_step
    redraws = 0
    for rows in row_blocks(n_steps):
        size = rows.stop - rows.start
        growth = 1.0 + sigma * dz_rng.standard_normal(size)
        xi = params.xi_mean + params.xi_std * xi_normals[rows]
        kappa = params.kappa_mean + params.kappa_std * xi_kappa_rng.standard_normal(size)
        heights = np.hypot(xi, kappa)
        halves = 0.5 * heights
        placement = (placement_rng.random(size) if uniform
                     else placement_rng.standard_normal(size))
        block_s0, block_redraws = s_last, 0
        # The placement's offset from the mid: s_low + (s_high - s_low) u for
        # the uniform rule, s_mid + (h/2) z for the normal one.
        offsets = halves * (2.0 * placement - 1.0) if uniform else halves * placement
        scanned = _scanned_walk(s_last, growth, offsets)
        if scanned is None:
            s_mids, s_lasts, block_redraws = _walked_block(
                s_last, growth, halves, placement, uniform, sigma, redraw_rng)
            if not np.isfinite(s_lasts).all():
                raise DomainError(_PRICE_OVERFLOW)
        else:
            s_mids, s_lasts = scanned
        s_last = float(s_lasts[-1])
        if volume.mode == "impact":
            volumes = volume.avg_trade_size * heights / (
                2.0 * math.pi * params.tau0 * s_mids
            )
        elif volume.mode == "lognormal":
            volumes = volume_rng.lognormal(volume.log_mean, volume.log_sigma, size)
        else:
            volumes = np.zeros(size)
        if not np.isfinite(volumes).all():
            raise DomainError(
                "simulated volumes overflowed; the volume parameters are too large "
                "for these bars"
            )
        redraws += block_redraws
        yield BarSeries(
            s_mid=s_mids, s_high=s_mids + halves, s_low=s_mids - halves,
            s_last=s_lasts, h=heights, volume=volumes, s0=block_s0, redraws=block_redraws,
        )
    if redraws > _REDRAW_WARN_RATE * n_steps:
        logger.warning(
            "mid-price redraw rate %.3g exceeds %.3g; results may be biased",
            redraws / n_steps, _REDRAW_WARN_RATE,
        )


def simulate_path(
    params: CoupledWaveParams,
    s0: float,
    n_steps: int,
    path_index: int = 0,
    volume: VolumeConfig | None = None,
) -> BarSeries:
    """Simulate a path of bars (stream layout 3): ``simulate_blocks``, collected.

    Beyond the six result columns, the working memory is the stream's: one
    block and the xi normals.
    """
    blocks = simulate_blocks(params, s0, n_steps, path_index, volume)
    columns = [np.empty(n_steps) for _ in range(6)]
    redraws = 0
    for block, rows in zip(blocks, row_blocks(n_steps)):
        for column, part in zip(columns, (block.s_mid, block.s_high, block.s_low,
                                          block.s_last, block.h, block.volume)):
            column[rows] = part
        redraws += block.redraws
    return BarSeries(*columns, s0=s0, redraws=redraws)


# --------------------------------------------------------------------------
# volatility diagnostics
# --------------------------------------------------------------------------

def path_volatility(s_last: np.ndarray, s0: float) -> float:
    """Empirical per-step volatility: standard deviation of the last-price
    moves of a path's ``s_last`` column, starting from the price ``s0``."""
    if len(s_last) < 1000:
        raise InsufficientDataError(
            f"need >= 1000 bars for a stable estimate, got {len(s_last)}"
        )
    increments = np.diff(np.concatenate(([s0], s_last)))
    return float(np.std(increments, ddof=1))


def predicted_volatility(params: CoupledWaveParams, s):
    """Analytic per-step volatility of last prices.

    eta = sqrt(s^2 sigma_step^2 + alpha * E[h^2] / 4), where alpha is the
    placement-rule variance coefficient (1/3 uniform, 1 normal) and E[h^2]
    the analytic moment of the xi/kappa draws.  ``s`` may be an array.
    """
    check_finite("s", s, above=0.0)
    alpha = params.last_price_rule.placement_alpha
    # np.square, not ``** 2``: on a float that is C pow, which can misround.
    return np.sqrt(np.square(s * params.sigma_step) + alpha * params._h_sq_mean() / 4.0)


def bar_height_rayleigh_scale(h: np.ndarray) -> float:
    """Maximum-likelihood Rayleigh scale of a column of bar heights ``h``."""
    if len(h) == 0:
        raise InsufficientDataError("empty series")
    return float(math.sqrt(np.mean(h ** 2) / 2.0))


# --------------------------------------------------------------------------
# amplitude evolution
# --------------------------------------------------------------------------

def evolve_amplitudes(
    state0: AmplitudeState,
    s_mid: float,
    xi: float,
    kappa: float,
    s: float,
    tau0: float,
    t: float,
) -> AmplitudeState:
    """Closed-form unitary evolution under constant operator coefficients.

    One step of ``evolve_fluctuating``'s kernel, ``_step_matrices``: the
    rotation angle is h * t / (2 tau0 s) with h = sqrt(xi^2 + kappa^2);
    s_mid contributes only a global phase.  Norm is conserved exactly up to
    rounding.  For h = 0 the evolution is a pure phase.  ``s`` and ``tau0``
    must be finite and > 0, and a phase or rotation angle that is not finite
    raises ``DomainError``.
    """
    check_finite("s", s, above=0.0)
    check_finite("tau0", tau0, above=0.0)
    coefficients = (np.array([x], dtype=float) for x in (s_mid, xi, kappa))
    highs, lows = _apply(_step_matrices(*coefficients, s, tau0, t),
                         state0.psi_high, state0.psi_low)
    return AmplitudeState(complex(highs[0]), complex(lows[0]))


def suggest_amplitude_dt(params: CoupledWaveParams, s_scale: float) -> float:
    """Step size keeping the per-step rotation below ``_MAX_ROTATION`` radians.

    Piecewise-constant coefficients stay accurate when each step rotates the
    state only slightly; the characteristic bar height sets the rate.
    ``s_scale`` must be finite and > 0.
    """
    check_finite("s_scale", s_scale, above=0.0)
    h_char = math.sqrt(params._h_sq_mean())
    if h_char == 0.0:
        raise DomainError("bar height is identically zero; any dt works")
    return _MAX_ROTATION * 2.0 * params.tau0 * s_scale / h_char


def _coefficient_blocks(params: CoupledWaveParams, s_mid: float, n_steps: int,
                        path_index: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The (s_mid, xi, kappa) of ``n_steps`` amplitude steps, as arrays per
    block of ``_BLOCK_ROWS`` steps.

    dz, the (xi, kappa) pairs and the positivity redraws each come from
    their own (seed, path_index, k) substream, under ``simulate_path``'s
    keys.  A block draws its dz and its (xi, kappa) pairs as one array each,
    which hold the values of per-step draws.  Its mids are the running
    product of the carried mid and each step's growth 1 + sigma dz, which
    equals a per-step loop of s_mid (1 + sigma dz) bit for bit.  A block
    with a non-positive mid re-walks with that loop: ``_walked_block`` over
    bars of no height, whose last price is each step's mid, so a
    non-positive mid redraws its dz, at most ``_MAX_REDRAWS`` times per
    step.  A mid that overflows stays non-finite, so a block whose last mid
    is not finite raises ``DomainError``.
    """
    dz_rng, xi_kappa_rng, redraw_rng = (path_rng(params.seed, path_index, key) for key in
                                        (_DZ_STREAM, _XI_KAPPA_STREAM, _REDRAW_STREAM))
    sigma = params.sigma_step
    for rows in row_blocks(n_steps):
        growth = 1.0 + sigma * dz_rng.standard_normal(rows.stop - rows.start)
        with np.errstate(over="ignore", invalid="ignore"):
            mids = np.multiply.accumulate(np.concatenate(([s_mid], growth)))[1:]
        if (mids <= 0.0).any():
            zeros = np.zeros(growth.size)
            mids = _walked_block(s_mid, growth, zeros, zeros, False, sigma, redraw_rng)[0]
        s_mid = float(mids[-1])
        if not math.isfinite(s_mid):
            raise DomainError(_PRICE_OVERFLOW)
        xi_kappa = xi_kappa_rng.standard_normal((growth.size, 2))
        yield (mids, params.xi_mean + params.xi_std * xi_kappa[:, 0],
               params.kappa_mean + params.kappa_std * xi_kappa[:, 1])


def _step_matrices(mids: np.ndarray, xis: np.ndarray, kappas: np.ndarray,
                   s: float, tau0: float, t: float) -> tuple[np.ndarray, ...]:
    """Each step's unitary as an SU(2) triple (phase, a, b) of complex arrays:
    psi' = U psi with psi = (psi_high, psi_low), and

        U = phase [[a, b], [-conj(b), conj(a)]],
        phase = exp(-i s_mid t / (tau0 s)),
        a = cos theta - i (xi/h) sin theta,   b = -i (kappa/h) sin theta,

    with the rotation angle theta = h t / (2 tau0 s), h = hypot(xi, kappa).

    Raises ``DomainError`` if a step's phase or rotation angle is not finite.
    """
    h = np.hypot(xis, kappas)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        angle = mids * t / (tau0 * s)
        theta = h * t / (2.0 * tau0 * s)
    if not (np.isfinite(angle).all() and np.isfinite(theta).all()):
        raise DomainError(_ANGLE_OVERFLOW)
    # h == 0 only where xi == kappa == 0: the step is a pure phase.
    with np.errstate(invalid="ignore"):
        sin_h = np.where(h == 0.0, 0.0, np.sin(theta) / h)
    return (np.exp(-1j * angle), np.cos(theta) - 1j * (xis * sin_h), -1j * (kappas * sin_h))


def _mul(x: Sequence[np.ndarray], y: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Element-wise products x @ y of unitaries given as SU(2) triples
    (phase, a, b): five complex products, where four entries would take eight."""
    p1, a1, b1 = x
    p2, a2, b2 = y
    return p1 * p2, a1 * a2 - b1 * b2.conj(), a1 * b2 + b1 * a2.conj()


def _apply(u: Sequence[np.ndarray], psi_high: complex,
           psi_low: complex) -> tuple[np.ndarray, np.ndarray]:
    """The states U psi for each SU(2) triple (phase, a, b) of ``u``."""
    phase, a, b = u
    return (phase * (a * psi_high + b * psi_low),
            phase * (a.conj() * psi_low - b.conj() * psi_high))


def _reduce(m: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """The product m[n-1] @ ... @ m[0] of a block's triples, as one-element
    arrays, by pairwise reduction."""
    # Operands are lists: tuple() of a generator over-allocates and shrinks,
    # and each shrunk tuple joins the interpreter's free list, which then
    # grows with the number of steps.
    while m[0].size > 1:
        even = m[0].size // 2 * 2
        pairs = _mul([x[1:even:2] for x in m], [x[:even:2] for x in m])
        m = pairs if even == m[0].size else \
            [np.concatenate((p, x[even:])) for p, x in zip(pairs, m)]
    return m


def evolve_fluctuating(
    state0: AmplitudeState,
    params: CoupledWaveParams,
    s_scale: float,
    dt: float,
    n_steps: int,
    path_index: int = 0,
) -> AmplitudeState:
    """Chain the closed-form evolution over per-step redrawn coefficients.

    Each step draws (dz, xi, kappa), advances the mid-price walk, and
    applies the constant-coefficient solution for ``dt``.  A non-positive
    mid redraws dz, at most ``_MAX_REDRAWS`` times per step.  The caller is
    responsible for a dt small enough that coefficients are effectively
    constant within a step (see suggest_amplitude_dt).

    dz, (xi, kappa) and the redraws come from their own substreams, in
    blocks of ``_BLOCK_ROWS`` steps (see ``_coefficient_blocks``), so the
    (s_mid, xi, kappa) of every step equal those of a per-step loop that
    draws from the same substreams, bit for bit.  Each block's per-step
    unitaries (``_step_matrices``) are multiplied together as SU(2) triples,
    by a pairwise reduction.  The products are reassociated, so the
    amplitudes match those of a loop of ``evolve_amplitudes`` calls within
    1e-12, not bit for bit.  A step whose phase or rotation angle is not
    finite raises ``DomainError``, as in ``evolve_amplitudes``.

    Returns the final state only; populations step by step come from a loop
    of ``evolve_amplitudes``, the one-step kernel.
    """
    check_finite("s_scale", s_scale, above=0.0)
    check_finite("dt", dt, above=0.0)
    check_count("n_steps", n_steps)
    check_finite("path_index", path_index, at_least=0)

    psi_high, psi_low = state0.psi_high, state0.psi_low
    for mids, xis, kappas in _coefficient_blocks(params, s_scale, n_steps, path_index):
        steps = _step_matrices(mids, xis, kappas, s_scale, params.tau0, dt)
        highs, lows = _apply(_reduce(steps), psi_high, psi_low)
        psi_high, psi_low = complex(highs[0]), complex(lows[0])
    return AmplitudeState(psi_high, psi_low)
