"""Spread modeling, simulation, calibration, and quoting-policy toolkit.

The package models the bid-ask spread as a risk compensation: a liquidity
term growing with the square root of the transaction time and an impact
term growing with traded volume.  A two-level coupled-wave simulator
generates price bars consistent with the same law, calibration fits the
law's two risk parameters to percentile spread-volume curves, scaling maps
spreads across time horizons, and the optimizer turns a calibrated curve
into an operating quoting policy.
"""

from types import ModuleType as _ModuleType

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

# The public names are the ones imported above, declared there once.
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
