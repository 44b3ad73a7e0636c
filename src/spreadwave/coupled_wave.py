"""Two-level coupled-wave price simulator.

Prices are modeled as eigenvalues of a fluctuating Hermitian 2x2 price
operator.  The eigenvalue gap is the bar height h (high minus low); the
mid-price performs a multiplicative random walk; the last price is placed
inside the bar by a configurable rule.  Probability amplitudes on the two
levels evolve unitarily, with the bar height setting the oscillation
frequency between the high and low levels.

Reproducibility contract: every path is generated from substreams derived
from (seed, path_index), so results are bit-identical no matter how paths
are distributed across workers.  Within one stream layout (``STREAM_LAYOUT``)
a seed reproduces the same bars byte for byte; layout 2 draws each variate
kind of ``simulate_path`` from its own substream (whole arrays and blocks of
one give the same values), so its bars differ from those of spreadwave 0.1.0
(layout 1, which drew all four variates of a step in turn from the single
(seed, path_index) stream).
``step_price`` and ``evolve_fluctuating`` still draw from one stream.

``simulate_blocks`` advances the mid and last prices in one guarded walk:
the arithmetic, the redraws and the per-step redraw cap of ``step_price``,
which stays its scalar oracle.  The volatility diagnostics take the columns
they reduce (``path_volatility(s_last, s0)``, ``bar_height_rayleigh_scale(h)``),
so a caller that keeps only those columns, such as the ``simulate`` command,
uses them directly.

``evolve_fluctuating`` draws its (dz, xi, kappa) normals in blocks of
``_BLOCK_ROWS`` steps, which hold the values of its per-step scalar draws.
At a non-positive mid it rewinds the generator to the block's start, draws
the block's normals up to that dz again and finishes the step with scalar
redraws, so the stream stays that of the per-step loop and the draws equal
those of a loop of ``evolve_amplitudes`` calls bit for bit.  It builds each
block's per-step unitaries as arrays and multiplies them together, so its
amplitudes match that loop's within 1e-12, not bit for bit.  ``_rotate``
and ``evolve_amplitudes`` stay the scalar arithmetic of one step.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError, check_finite

logger = logging.getLogger(__name__)

# Redraw rate above which a parameter set is considered suspicious.
_REDRAW_WARN_RATE = 1e-3

# Version of the substream layout simulate_path draws from, and the spawn
# subkeys of its substreams under (seed, path_index).  Subkey 1 holds the
# lognormal volumes in every layout.
STREAM_LAYOUT = 2
_VOLUME_STREAM = 1
_DZ_STREAM = 2
_XI_KAPPA_STREAM = 3
_PLACEMENT_STREAM = 4
_REDRAW_STREAM = 5
# Positivity redraws allowed per step before the step is declared hopeless.
_MAX_REDRAWS = 10_000
# Rows per block of the simulator stream, the bar reader and the columnar
# CSV writers: their working memory is bounded by this, not by the row count.
_BLOCK_ROWS = 2048
_PRICE_OVERFLOW = ("simulated prices overflowed; step volatility or bar height is "
                   "too large for this price")


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
class PriceOperator2x2:
    """Hermitian 2x2 price operator; the off-diagonal pair is real-equal."""

    s11: float
    s22: float
    s12: float


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
# price operator and bars
# --------------------------------------------------------------------------

def eigen_decompose(op: PriceOperator2x2) -> tuple[float, float, float, float]:
    """Eigenvalues of the price operator as bar quantities.

    Returns:
        (s_high, s_low, h, s_mid) with s_high/low = s_mid +/- h/2 and
        h = sqrt((s11 - s22)^2 + 4 |s12|^2).
    """
    s_mid = 0.5 * (op.s11 + op.s22)
    h = math.hypot(op.s11 - op.s22, 2.0 * op.s12)
    return (s_mid + 0.5 * h, s_mid - 0.5 * h, h, s_mid)


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
    if not (s_last > 0.0):
        raise DomainError(f"s_last must be > 0, got {s_last!r}")
    source = rng if redraw_rng is None else redraw_rng

    def mid(gen: np.random.Generator) -> float:
        return s_last * (1.0 + params.sigma_step * gen.standard_normal())

    s_mid, redraws = _guarded(mid(rng), lambda: mid(source), 0, max_redraws)

    xi = params.xi_mean + params.xi_std * rng.standard_normal()
    kappa = params.kappa_mean + params.kappa_std * rng.standard_normal()
    h = math.hypot(xi, kappa)
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


def row_blocks(n: int):
    """Slices of ``_BLOCK_ROWS`` consecutive rows covering range(n)."""
    return (slice(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def simulate_blocks(
    params: CoupledWaveParams,
    s0: float,
    n_steps: int,
    path_index: int = 0,
    volume: VolumeConfig | None = None,
) -> Iterator[BarSeries]:
    """Simulate a path of bars (stream layout 2) as consecutive row blocks.

    Yields one ``BarSeries`` per ``_BLOCK_ROWS`` rows; its ``s0`` is the last
    price before the block and its ``redraws`` the block's own.  The
    arguments are checked on the call, before any block is drawn.

    dz, (xi, kappa), the placement variate and the lognormal volumes each
    come from their own (seed, path_index, k) substream.  All but the xi
    normals are drawn one block at a time, which gives the values a whole-
    array draw gives; the xi normals come first in their substream, ahead of
    every kappa, so they are drawn whole and are the only per-row state
    besides the block.  Only the positivity-guarded mid/last walk runs step
    by step, with exactly the arithmetic of ``step_price``: a non-positive
    mid redraws its normal, then a non-positive last price redraws its
    placement.  The redraws come from one more substream, capped per step
    as in ``step_price``.  The volume column never draws from the price streams
    (see VolumeConfig), so changing the volume mode never perturbs the bars.
    """
    check_finite("s0", s0, above=0.0)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps!r}")
    check_finite("path_index", path_index, at_least=0)
    return _simulated_blocks(params, float(s0), n_steps, path_index,
                             volume if volume is not None else VolumeConfig(mode="none"))


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
        # math.hypot as in step_price: np.hypot differs from it in the last
        # bit for some inputs.
        heights = np.array(list(map(math.hypot, xi.tolist(), kappa.tolist())))
        placement = (placement_rng.random(size) if uniform
                     else placement_rng.standard_normal(size))
        block_s0, block_redraws = s_last, 0
        mids: list[float] = []
        lasts: list[float] = []
        for growth_i, half_i, variate in zip(growth.tolist(), (0.5 * heights).tolist(),
                                             placement.tolist()):
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
            block_redraws += used
            mids.append(s_mid)
            lasts.append(s_next)
            s_last = s_next
        s_mids, s_lasts = np.array(mids), np.array(lasts)
        if not np.isfinite(s_lasts).all():
            raise DomainError(_PRICE_OVERFLOW)
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
        half_h = 0.5 * heights
        redraws += block_redraws
        yield BarSeries(
            s_mid=s_mids, s_high=s_mids + half_h, s_low=s_mids - half_h,
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
    """Simulate a path of bars (stream layout 2): ``simulate_blocks``, collected.

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


def predicted_volatility(
    params: CoupledWaveParams,
    s: float,
    h_sq_mean: float | None = None,
) -> float:
    """Analytic per-step volatility of last prices.

    eta = sqrt(s^2 sigma_step^2 + alpha * E[h^2] / 4), where alpha is the
    placement-rule variance coefficient (1/3 uniform, 1 normal).  E[h^2]
    defaults to the analytic moment of the xi/kappa draws.
    """
    if not (s > 0.0):
        raise DomainError(f"s must be > 0, got {s!r}")
    if h_sq_mean is None:
        h_sq_mean = params._h_sq_mean()
    alpha = params.last_price_rule.placement_alpha
    return math.sqrt((s * params.sigma_step) ** 2 + alpha * h_sq_mean / 4.0)


def bar_height_rayleigh_scale(h: np.ndarray) -> float:
    """Maximum-likelihood Rayleigh scale of a column of bar heights ``h``."""
    if len(h) == 0:
        raise InsufficientDataError("empty series")
    return float(math.sqrt(np.mean(h ** 2) / 2.0))


# --------------------------------------------------------------------------
# amplitude evolution
# --------------------------------------------------------------------------

def _rotate(psi_high: complex, psi_low: complex, s_mid: float, xi: float, kappa: float,
            s: float, tau0: float, t: float) -> tuple[complex, complex]:
    """The amplitudes (psi_high, psi_low) after ``evolve_amplitudes``' step,
    on plain numbers and unchecked."""
    phase = cmath.exp(-1j * s_mid * t / (tau0 * s))
    h = math.hypot(xi, kappa)
    if h == 0.0:
        return phase * psi_high, phase * psi_low
    theta = h * t / (2.0 * tau0 * s)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    xi_h = xi / h
    kappa_h = kappa / h
    return (phase * ((cos_t - 1j * xi_h * sin_t) * psi_high
                     - 1j * kappa_h * sin_t * psi_low),
            phase * (-1j * kappa_h * sin_t * psi_high
                     + (cos_t + 1j * xi_h * sin_t) * psi_low))


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

    The rotation angle is h * t / (2 tau0 s) with h = sqrt(xi^2 + kappa^2);
    s_mid contributes only a global phase.  Norm is conserved exactly up to
    rounding.  For h = 0 the evolution is a pure phase.
    """
    if not (s > 0.0):
        raise DomainError(f"s must be > 0, got {s!r}")
    if not (tau0 > 0.0):
        raise DomainError(f"tau0 must be > 0, got {tau0!r}")
    return AmplitudeState(*_rotate(state0.psi_high, state0.psi_low,
                                   s_mid, xi, kappa, s, tau0, t))


def suggest_amplitude_dt(
    params: CoupledWaveParams,
    s_scale: float,
    max_rotation: float = 0.1,
) -> float:
    """Step size keeping the per-step rotation below ``max_rotation`` radians.

    Piecewise-constant coefficients stay accurate when each step rotates the
    state only slightly; the characteristic bar height sets the rate.
    """
    h_char = math.sqrt(params._h_sq_mean())
    if h_char == 0.0:
        raise DomainError("bar height is identically zero; any dt works")
    return max_rotation * 2.0 * params.tau0 * s_scale / h_char


def _coefficient_blocks(rng: np.random.Generator, params: CoupledWaveParams,
                        s_mid: float, n_steps: int):
    """The (s_mid, xi, kappa) of ``n_steps`` amplitude steps, as arrays per block.

    A block draws the (dz, xi, kappa) normals of up to ``_BLOCK_ROWS`` steps
    as one array, which holds the values that three scalar draws per step
    give, and runs the mid walk over them until a mid is non-positive.  There
    the generator is rewound to the block's start, the normals of the steps
    taken and that dz are drawn again, ``_guarded`` redraws dz, and the
    step's xi and kappa normals follow.  The block ends with that step and
    the next one starts after it.  A mid that overflows stays non-finite, so
    a block whose last mid is not finite raises ``DomainError``.
    """
    sigma = params.sigma_step
    while n_steps:
        start = rng.bit_generator.state
        normals = rng.standard_normal((min(n_steps, _BLOCK_ROWS), 3))
        mids: list[float] = []
        for dz in normals[:, 0].tolist():
            s_next = s_mid + s_mid * sigma * dz
            if s_next <= 0.0:
                break
            mids.append(s_next)
            s_mid = s_next
        taken = len(mids)
        if taken < len(normals):
            rng.bit_generator.state = start
            rng.standard_normal(3 * taken + 1)
            s_next, _ = _guarded(
                s_next, lambda: s_mid + s_mid * sigma * rng.standard_normal(),
                0, _MAX_REDRAWS)
            s_mid = s_next
            mids.append(s_mid)
            normals[taken, 1:] = rng.standard_normal(2)
        if not math.isfinite(s_mid):
            raise DomainError(_PRICE_OVERFLOW)
        rows = normals[:len(mids)]
        n_steps -= len(mids)
        yield (np.array(mids), params.xi_mean + params.xi_std * rows[:, 1],
               params.kappa_mean + params.kappa_std * rows[:, 2])


def _step_matrices(mids: np.ndarray, xis: np.ndarray, kappas: np.ndarray,
                   s: float, tau0: float, t: float) -> tuple[np.ndarray, ...]:
    """The entries (u00, u01, u10, u11) of each step's ``_rotate`` matrix,
    as complex arrays: psi' = U psi with psi = (psi_high, psi_low)."""
    phase = np.exp(-1j * (mids * t / (tau0 * s)))
    h = np.hypot(xis, kappas)
    theta = h * t / (2.0 * tau0 * s)
    # h == 0 only where xi == kappa == 0: the step is a pure phase.
    with np.errstate(invalid="ignore"):
        sin_h = np.where(h == 0.0, 0.0, np.sin(theta) / h)
    cos_t = np.cos(theta)
    off = phase * (-1j * kappas * sin_h)
    return (phase * (cos_t - 1j * xis * sin_h), off, off, phase * (cos_t + 1j * xis * sin_h))


def _mul(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Element-wise 2x2 products a @ b of matrices given as their four entries."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _reduce(m: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """The product m[n-1] @ ... @ m[0] of a block's matrices, as one-element
    entries, by pairwise reduction."""
    # Operands are lists: tuple() of a generator over-allocates and shrinks,
    # and each shrunk tuple joins the interpreter's free list, which then
    # grows with the number of steps.
    while m[0].size > 1:
        even = m[0].size // 2 * 2
        pairs = _mul([x[1:even:2] for x in m], [x[:even:2] for x in m])
        m = pairs if even == m[0].size else \
            [np.concatenate((p, x[even:])) for p, x in zip(pairs, m)]
    return m


def _scan(m: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """The inclusive prefix products m[i] @ ... @ m[0] of a block's matrices,
    by a Hillis-Steele scan."""
    d = 1
    while d < m[0].size:
        pairs = _mul([x[d:] for x in m], [x[:-d] for x in m])
        m = [np.concatenate((x[:d], p)) for x, p in zip(m, pairs)]
        d *= 2
    return m


def evolve_fluctuating(
    state0: AmplitudeState,
    params: CoupledWaveParams,
    s_scale: float,
    dt: float,
    n_steps: int,
    path_index: int = 0,
    return_trajectory: bool = False,
) -> AmplitudeState | tuple[AmplitudeState, np.ndarray]:
    """Chain the closed-form evolution over per-step redrawn coefficients.

    Each step draws (dz, xi, kappa), advances the mid-price walk, and
    applies the constant-coefficient solution for ``dt``.  A non-positive
    mid redraws dz, at most ``_MAX_REDRAWS`` times per step.  The caller is
    responsible for a dt small enough that coefficients are effectively
    constant within a step (see suggest_amplitude_dt).

    The normals come in blocks of ``_BLOCK_ROWS`` steps, rewound at a
    redraw (see ``_coefficient_blocks``), so the (s_mid, xi, kappa) of every
    step equal those of a loop of ``evolve_amplitudes`` calls with three
    scalar draws per step bit for bit.  Each block's per-step unitaries
    (``_step_matrices``) are multiplied together as arrays, by a pairwise
    reduction, or by a prefix scan when the trajectory is wanted.  The
    products are reassociated, so the amplitudes match that loop's within
    1e-12, not bit for bit.

    Returns the final state, plus the (n_steps+1, 2) population trajectory
    when ``return_trajectory`` is set.
    """
    check_finite("s_scale", s_scale, above=0.0)
    check_finite("dt", dt, above=0.0)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps!r}")
    check_finite("path_index", path_index, at_least=0)

    rng = path_rng(params.seed, path_index)
    psi_high, psi_low = state0.psi_high, state0.psi_low
    trajectory = np.empty((n_steps + 1, 2)) if return_trajectory else None
    if trajectory is not None:
        trajectory[0] = state0.populations()
    row = 1
    for mids, xis, kappas in _coefficient_blocks(rng, params, s_scale, n_steps):
        steps = _step_matrices(mids, xis, kappas, s_scale, params.tau0, dt)
        u00, u01, u10, u11 = _reduce(steps) if trajectory is None else _scan(steps)
        highs, lows = u00 * psi_high + u01 * psi_low, u10 * psi_high + u11 * psi_low
        if trajectory is not None:
            trajectory[row:row + mids.size, 0] = highs.real ** 2 + highs.imag ** 2
            trajectory[row:row + mids.size, 1] = lows.real ** 2 + lows.imag ** 2
            row += mids.size
        psi_high, psi_low = complex(highs[-1]), complex(lows[-1])

    state = AmplitudeState(psi_high, psi_low)
    if trajectory is not None:
        return state, trajectory
    return state


def impact_price(s: float, tau: float, tau0: float) -> float:
    """Impact component of the spread: h = 2 pi tau0 s / tau.

    s / tau is the money flow per share per transaction; the bar height is
    proportional to it with the model time constant tau0.
    """
    if not (s > 0.0 and tau > 0.0 and tau0 > 0.0):
        raise DomainError("s, tau and tau0 must all be > 0")
    return 2.0 * math.pi * tau0 * s / tau
