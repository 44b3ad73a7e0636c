"""Spread modeling, simulation, calibration, and quoting-policy toolkit.

The package models the bid-ask spread as a risk compensation: a liquidity
term growing with the square root of the transaction time and an impact
term growing with traded volume.  A two-level coupled-wave simulator
generates price bars consistent with the same law, calibration fits the
law's two risk parameters to percentile spread-volume curves, scaling maps
spreads across time horizons, and the optimizer turns a calibrated curve
into an operating quoting policy.

Importing the package loads none of its modules: each public name is
imported from the module that defines it on first use (PEP 562), so a
command that needs only the simulator never builds the fit.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Each public name after the module that defines it, in the order of __all__.
_PUBLIC = (
    ("data_io", "BarColumns"),
    ("calibration", "BucketSpec CalibrationResult CurveBucket CurveSource FlowStats"),
    ("data_io", "QuoteColumns"),
    ("calibration", "Rejections SpreadSamples SpreadVolumeCurve"),
    ("data_io", "TradeColumns"),
    ("spread_models", "bar_spread_model"),
    ("calibration", "bars_to_samples"),
    ("spread_models", "bidask_spread_model"),
    ("calibration", "build_spread_volume_curve fit_bar_curve fit_bid_ask_curve "
                    "measure_flow_stats quotes_to_samples"),
    ("coupled_wave", "AmplitudeState BarSample BarSeries CoupledWaveParams LastPriceRule "
                     "VolumeConfig bar_height_rayleigh_scale evolve_amplitudes "
                     "evolve_fluctuating path_volatility predicted_volatility simulate_path "
                     "step_price suggest_amplitude_dt"),
    ("errors", "DomainError FitConvergenceError InputFormatError InsufficientDataError "
               "NoSolutionError SpreadwaveError"),
    ("optimizer", "DEFAULT_LAMBDA_REF_FRACTION ExecutionModel LinearSpreadLaw "
                  "OptimizeResult PnLParams QuotePolicy calibrated_law dimensionless_law "
                  "execution_density execution_rate optimize_spread policy_curve "
                  "spread_pnl stationarity_residual"),
    ("scaling", "PiecewiseConstantTable SpreadSurfaceParams bar_spread_dimensionless "
                "bar_spread_with_volume classical_scale default_surface_grids "
                "scale_spread_time spread_surface"),
    ("spread_models", "STRADDLE_LAMBDA DimensionlessSpreadParams SpreadMinimum "
                      "SpreadModelParams basic_spread general_spread "
                      "general_spread_dimensionless inverse_spread_volumes spread_minimum "
                      "straddle_spread transaction_time"),
)
_MODULE_OF = {name: module for module, names in _PUBLIC for name in names.split()}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
