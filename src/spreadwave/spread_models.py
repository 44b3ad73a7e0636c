"""Closed-form bid-ask spread laws.

The spread of a traded security is modeled as the combination of two
components: a liquidity price (price uncertainty accumulated while a position
of average transaction size is worked off at the current volume) and an
impact price (price displacement caused by the order flow itself).  The
liquidity component alone gives the basic square-root law; adding the impact
component gives the general law, which is U-shaped in volume and admits an
analytic minimum.

Each law is written once, in array form (the kernels ``bidask_spread_model``
and ``bar_spread_model``, and the laws over them), and broadcasts: a scalar
call returns a float equal bit for bit to its element of an array call.
``inverse_spread_volumes`` takes one level; it raises for a level below the
minimum, and its trigonometry is libm's, which numpy's may differ from in
the last bit.  All functions here are pure and safe to call concurrently.  Volatility
``sigma`` and volume ``V`` must always refer to the same reference time unit;
the library performs no unit conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError, check_finite

# Implied risk-aversion multiplier of the straddle-replication argument.
STRADDLE_LAMBDA = math.sqrt(8.0 / math.pi)

# Relative distance from the minimum within which an inverse query returns
# the double root (delta_min scales as a^(1/3), so the band must too).
_MIN_SPREAD_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class SpreadModelParams:
    """Parameters of the closed-form spread laws.

    Attributes:
        price_s: Security price s (money per share).
        sigma: Volatility per unit reference time (1/sqrt(time)).
        lambda_risk: Dimensionless risk-aversion multiplier on the liquidity term.
        rho_risk: Dimensionless impact multiplier on the impact term.
        avg_trade_size_n: Average transaction size n (shares).
        tau0: Time constant of the impact-price relation.
    """

    price_s: float
    sigma: float
    lambda_risk: float
    rho_risk: float
    avg_trade_size_n: float
    tau0: float

    def __post_init__(self) -> None:
        for name in ("price_s", "sigma", "lambda_risk", "rho_risk",
                     "avg_trade_size_n", "tau0"):
            check_finite(name, getattr(self, name), above=0.0)


@dataclass(frozen=True)
class DimensionlessSpreadParams:
    """Dimensionless reduction of the general spread law.

    ``a_coeff`` collapses all risk/volatility constants into one number and
    ``v0_scale`` is the volume unit; in these variables the spread per unit
    price is delta(v) = sqrt(a/v + v^2) with v = V / v0_scale.
    """

    a_coeff: float
    v0_scale: float

    def __post_init__(self) -> None:
        check_finite("a_coeff", self.a_coeff, above=0.0)
        check_finite("v0_scale", self.v0_scale, above=0.0)

    @classmethod
    def from_model(cls, params: SpreadModelParams) -> "DimensionlessSpreadParams":
        """Build (a, V0) from dimensional model parameters."""
        root2_rho = math.sqrt(2.0) * params.rho_risk
        a = root2_rho * params.lambda_risk ** 2 * params.sigma ** 2 * math.pi * params.tau0
        v0 = params.avg_trade_size_n / (root2_rho * math.pi * params.tau0)
        return cls(a_coeff=a, v0_scale=v0)


@dataclass(frozen=True)
class SpreadMinimum:
    """Location and value of the minimum of the dimensionless spread curve."""

    v_min: float
    delta_min: float


def _liquidity_spread(lam, s, sigma, tau):
    # Single shared multiplication path: keeps the straddle law bit-identical
    # to the basic law at lam = STRADDLE_LAMBDA.
    return lam * s * sigma * np.sqrt(tau)


# --------------------------------------------------------------------------
# basic laws
# --------------------------------------------------------------------------

def transaction_time(n: float, V: float) -> float:
    """Average time to trade n shares at volume V: tau = n / V.

    Args:
        n: Transaction size in shares.
        V: Trading volume in shares per unit reference time.

    Returns:
        Transaction time in reference time units.
    """
    check_finite("n", n, above=0.0)
    check_finite("V", V, above=0.0)
    return n / V


def basic_spread(params: SpreadModelParams, V):
    """Liquidity-only spread: lambda * s * sigma * sqrt(n / V); ``V`` may be an array.

    Monotone increasing in volatility and decreasing in volume.
    """
    check_finite("V", V, above=0.0)
    tau = params.avg_trade_size_n / V
    return _liquidity_spread(params.lambda_risk, params.price_s, params.sigma, tau)


def straddle_spread(s, sigma, tau):
    """Spread implied by straddle replication over the transaction time.

    Equals the basic law with the implied multiplier sqrt(8/pi) ~ 1.6.
    ``tau`` may be zero (zero-horizon limit yields a zero spread).  Broadcasts
    over ``s``, ``sigma`` and ``tau``.
    """
    check_finite("s", s, above=0.0)
    check_finite("sigma", sigma, above=0.0)
    check_finite("tau", tau, at_least=0.0)
    return _liquidity_spread(STRADDLE_LAMBDA, s, sigma, tau)


# --------------------------------------------------------------------------
# law kernels (array-native; broadcast over every argument)
# --------------------------------------------------------------------------

def bidask_spread_model(V, lam, rho, sigma, n, tau0):
    """Dimensionless bid-ask law: sqrt(lam^2 sigma^2 n / V + 2 rho^2 (pi tau0 / n)^2 V^2)."""
    V = np.asarray(V, dtype=float)
    return np.sqrt(
        lam * lam * sigma * sigma * n / V
        + 2.0 * (rho * math.pi * tau0 / n) ** 2 * V * V
    )


def bar_spread_model(V, lam, rho, sigma_T, n, tau0, T):
    """Dimensionless bar law with the horizon-volatility floor."""
    V = np.asarray(V, dtype=float)
    pi_tau0 = math.pi * tau0
    return np.sqrt(
        lam * lam * sigma_T * sigma_T
        + (rho * pi_tau0 / n) ** 2 * V * V
        + rho * rho * pi_tau0 ** 2 * T * V ** 3 / n ** 3
    )


# --------------------------------------------------------------------------
# general law (liquidity + impact)
# --------------------------------------------------------------------------

def general_spread(params: SpreadModelParams, V):
    """Full spread law combining liquidity and impact components.

    Delta(V) = sqrt(lambda^2 s^2 sigma^2 n / V + 2 rho^2 (pi s tau0 / n)^2 V^2).
    Agrees with price_s * general_spread_dimensionless(a, V / V0) to
    relative 1e-12.
    """
    check_finite("V", V, above=0.0)
    return params.price_s * bidask_spread_model(
        V, params.lambda_risk, params.rho_risk, params.sigma,
        params.avg_trade_size_n, params.tau0)


def general_spread_dimensionless(a: float, v):
    """Dimensionless spread delta(v) = sqrt(a / v + v^2); ``v`` may be an array.

    Behaves as sqrt(a/v) for small v (liquidity regime) and as v for large v
    (impact regime).
    """
    check_finite("a", a, above=0.0)
    check_finite("v", v, above=0.0)
    return np.sqrt(a / v + v * v)


def spread_minimum(a: float) -> SpreadMinimum:
    """Analytic minimum of the dimensionless spread curve.

    The curve sqrt(a/v + v^2) has a single interior minimum at
    v_min = (a/2)^(1/3) with value delta_min = sqrt(3) * v_min.
    """
    check_finite("a", a, above=0.0)
    v_min = (a / 2.0) ** (1.0 / 3.0)
    return SpreadMinimum(v_min=v_min, delta_min=math.sqrt(3.0) * v_min)


def inverse_spread_volumes(a: float, delta: float) -> tuple[float, float]:
    """Both volumes at which the dimensionless spread equals ``delta``.

    The spread curve is strictly decreasing below its minimum and strictly
    increasing above it, so every level above the minimum is attained twice.
    Both are positive roots of v^3 - delta^2 v + a = 0: the larger comes from
    the trigonometric solution of the cubic, the smaller from Vieta's
    formulas (the three roots sum to 0 and multiply to -a), which avoids the
    cancellation of the trigonometric form near v = 0.

    Args:
        a: Dimensionless spread-law coefficient.
        delta: Target dimensionless spread level.

    Returns:
        (v_low, v_high) with v_low <= v_min <= v_high; (v_min, v_min) for a
        level within a relative 1e-9 of the minimum.

    Raises:
        NoSolutionError: If delta is below the curve minimum.
    """
    check_finite("a", a, above=0.0)
    check_finite("delta", delta, above=0.0)
    minimum = spread_minimum(a)
    tie = _MIN_SPREAD_TIE_RTOL * minimum.delta_min
    if delta < minimum.delta_min - tie:
        raise NoSolutionError(
            f"spread {delta!r} is below the minimum {minimum.delta_min!r}"
        )
    if delta <= minimum.delta_min + tie:
        return (minimum.v_min, minimum.v_min)

    # Written so that no intermediate overflows where the roots do not.
    cos_arg = max(-1.0, -1.5 * math.sqrt(3.0) * (a / delta) / (delta * delta))
    v_high = 2.0 * delta / math.sqrt(3.0) * math.cos(math.acos(cos_arg) / 3.0)
    q = a / v_high
    v_low = 2.0 * q / (v_high + math.hypot(v_high, 2.0 * math.sqrt(q)))
    return (v_low, v_high)
