"""Spread modeling, simulation, calibration, and quoting-policy toolkit.

The package models the bid-ask spread as a risk compensation: a liquidity
term growing with the square root of the transaction time and an impact
term growing with traded volume.  A two-level coupled-wave simulator
generates price bars consistent with the same law, calibration fits the
law's two risk parameters to percentile spread-volume curves, scaling maps
spreads across time horizons, and the optimizer turns a calibrated curve
into an operating quoting policy.
"""

__version__ = "0.1.0"

from .calibration import (
    BarColumns,
    BucketSpec,
    CalibrationResult,
    CurveBucket,
    CurveSource,
    FlowStats,
    QuoteColumns,
    Rejections,
    SpreadSamples,
    SpreadVolumeCurve,
    TradeColumns,
    bar_spread_model,
    bars_to_samples,
    bidask_spread_model,
    build_spread_volume_curve,
    fit_bar_curve,
    fit_bid_ask_curve,
    fit_execution_scale,
    measure_flow_stats,
    quotes_to_samples,
)
from .coupled_wave import (
    AmplitudeState,
    BarSample,
    BarSeries,
    CoupledWaveParams,
    LastPriceRule,
    PriceOperator2x2,
    VolumeConfig,
    bar_height_rayleigh_scale,
    eigen_decompose,
    evolve_amplitudes,
    evolve_fluctuating,
    impact_price,
    path_volatility,
    predicted_volatility,
    simulate_path,
    step_price,
    suggest_amplitude_dt,
)
from .errors import (
    DomainError,
    FitConvergenceError,
    InputFormatError,
    InsufficientDataError,
    NoSolutionError,
    SpreadwaveError,
)
from .optimizer import (
    DEFAULT_LAMBDA_REF_FRACTION,
    ExecutionModel,
    LinearSpreadLaw,
    OptimizeResult,
    PnLParams,
    QuotePolicy,
    calibrated_law,
    dimensionless_law,
    execution_density,
    execution_rate,
    optimize_spread,
    policy_curve,
    spread_pnl,
    stationarity_residual,
)
from .scaling import (
    PiecewiseConstantTable,
    SpreadSurfaceParams,
    bar_spread_dimensionless,
    bar_spread_with_volume,
    classical_scale,
    default_surface_grids,
    scale_spread_time,
    spread_surface,
)
from .spread_models import (
    STRADDLE_LAMBDA,
    DimensionlessSpreadParams,
    SpreadMinimum,
    SpreadModelParams,
    basic_spread,
    general_spread,
    general_spread_dimensionless,
    inverse_spread_volumes,
    spread_minimum,
    straddle_spread,
    transaction_time,
)

__all__ = [
    "__version__",
    # errors
    "SpreadwaveError", "DomainError", "NoSolutionError",
    "InsufficientDataError", "InputFormatError", "FitConvergenceError",
    # spread models
    "STRADDLE_LAMBDA", "SpreadModelParams", "DimensionlessSpreadParams",
    "SpreadMinimum", "transaction_time", "basic_spread", "straddle_spread",
    "general_spread", "general_spread_dimensionless", "spread_minimum",
    "inverse_spread_volumes",
    # coupled wave
    "LastPriceRule", "CoupledWaveParams", "PriceOperator2x2", "BarSample",
    "AmplitudeState", "VolumeConfig", "BarSeries", "eigen_decompose",
    "step_price", "simulate_path", "path_volatility", "predicted_volatility",
    "bar_height_rayleigh_scale", "evolve_amplitudes", "evolve_fluctuating",
    "suggest_amplitude_dt", "impact_price",
    # scaling
    "PiecewiseConstantTable", "SpreadSurfaceParams",
    "scale_spread_time", "classical_scale", "bar_spread_with_volume",
    "bar_spread_dimensionless", "spread_surface", "default_surface_grids",
    # calibration
    "TradeColumns", "QuoteColumns", "BarColumns", "CurveSource", "FlowStats",
    "Rejections", "SpreadSamples", "CurveBucket", "BucketSpec", "SpreadVolumeCurve",
    "CalibrationResult", "measure_flow_stats", "bars_to_samples",
    "quotes_to_samples", "build_spread_volume_curve", "bidask_spread_model",
    "bar_spread_model", "fit_bid_ask_curve", "fit_bar_curve",
    "fit_execution_scale",
    # optimizer
    "DEFAULT_LAMBDA_REF_FRACTION", "ExecutionModel", "LinearSpreadLaw",
    "PnLParams", "OptimizeResult", "QuotePolicy", "execution_rate",
    "execution_density", "spread_pnl", "stationarity_residual",
    "optimize_spread", "policy_curve", "dimensionless_law", "calibrated_law",
]
