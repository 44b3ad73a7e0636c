"""Batch command-line front-end.

Five commands wire the library end to end: ``simulate`` (bar generator),
``curve`` (percentile spread-volume curve from quotes or bars),
``calibrate`` (law fit), ``scale`` (horizon scaling table or surface), and
``optimize`` (quoting policy).  Every command is deterministic given its
resolved config: reruns produce byte-identical CSV and JSON outputs.

Config precedence is file < environment (SPREADWAVE_<KEY>) < flags; unknown
config keys are rejected.  Exit codes: 0 success, 2 I/O failure, 3 invalid
input or config, 4 numerical failure.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from typing import Callable

import click
import numpy as np

from . import __version__
from .calibration import (
    BucketSpec,
    CalibrationResult,
    CurveSource,
    FlowStats,
    bar_blocks_to_samples,
    build_spread_volume_curve,
    fit_bar_curve,
    fit_bid_ask_curve,
    quotes_to_samples,
)
from .coupled_wave import (
    STREAM_LAYOUT,
    CoupledWaveParams,
    LastPriceRule,
    VolumeConfig,
    predicted_volatility,
    row_blocks,
    simulate_blocks,
)
from .data_io import (
    read_bar_blocks,
    read_curve,
    read_json_report,
    read_quotes,
    read_trades,
    replaced_on_success,
    sha256_file,
    write_bar_blocks,
    write_curve_csv,
    write_histogram_csv,
    write_json_report,
    write_overlay_csv,
    write_policy_csv,
    write_scale_csv,
    write_surface_csv,
)
from .errors import (
    EXIT_INVALID_INPUT,
    EXIT_IO,
    EXIT_NUMERICAL,
    DomainError,
    FitConvergenceError,
    InputFormatError,
    InsufficientDataError,
    check_finite,
)
from .optimizer import (
    DEFAULT_LAMBDA_REF_FRACTION,
    ExecutionModel,
    calibrated_law,
    dimensionless_law,
    policy_curve,
)
from .scaling import (SpreadSurfaceParams, classical_scale, default_surface_grids,
                      scale_spread_time, spread_surface)

_ENV_PREFIX = "SPREADWAVE_"

_GLOBAL_SPEC: dict[str, type] = {
    "seed": int,
    "out": str,
    "quantile": float,
    "horizon": float,
}
_GLOBAL_DEFAULTS: dict = {
    "seed": 0,
    "out": ".",
    "quantile": 0.9,
    "horizon": 1.0,
}

_COMMAND_SPEC: dict[str, dict[str, type]] = {
    "simulate": {
        "steps": int, "s0": float, "sigma_step": float,
        "xi_mean": float, "xi_std": float,
        "kappa_mean": float, "kappa_std": float,
        "tau0": float, "rule": str, "path_index": int,
        "volume_mode": str, "avg_trade_size": float,
        "log_mean": float, "log_sigma": float,
    },
    "curve": {
        "bars": str, "quotes": str, "trades": str, "window": float,
        "buckets": int, "min_count": int,
        "lo_percentile": float, "hi_percentile": float,
    },
    "calibrate": {
        "curve": str, "kind": str, "n": float, "sigma": float,
        "price": float, "volume": float, "tau0": float,
        "strict_product": bool, "min_count": int,
    },
    "scale": {
        "base_spread": float, "eta": float, "lam": float,
        "t2_max": float, "t_steps": int, "surface": bool,
        "lambda_risk": float, "rho_risk": float, "sigma_tau": float,
        "n": float, "tau0": float, "price": float,
        "v_lo": float, "v_hi": float, "nv": int,
        "t_lo": float, "t_hi": float, "nt": int,
    },
    "optimize": {
        "a_coeff": float, "alpha": float, "lambda0": float,
        "lambda_ref": float, "calibration": str,
        "v_lo": float, "v_hi": float, "v_points": int,
    },
}

_COMMAND_DEFAULTS: dict[str, dict] = {
    "simulate": {
        "steps": 1000, "s0": 100.0, "sigma_step": 1e-4,
        "xi_mean": 0.0, "xi_std": 0.5, "kappa_mean": 0.0, "kappa_std": 0.5,
        "tau0": 1.0, "rule": "uniform", "path_index": 0,
        "volume_mode": "impact", "avg_trade_size": 100.0,
        "log_mean": 0.0, "log_sigma": 1.0,
    },
    "curve": {
        "bars": None, "quotes": None, "trades": None, "window": 60.0,
        "buckets": 25, "min_count": 20,
        "lo_percentile": 1.0, "hi_percentile": 99.0,
    },
    "calibrate": {
        "curve": None, "kind": "bidask", "n": None, "sigma": None,
        "price": None, "volume": 0.0, "tau0": 1.0,
        "strict_product": False, "min_count": 20,
    },
    "scale": {
        "base_spread": None, "eta": None, "lam": None,
        "t2_max": None, "t_steps": 50, "surface": False,
        "lambda_risk": None, "rho_risk": None, "sigma_tau": None,
        "n": None, "tau0": 1.0, "price": 1.0,
        "v_lo": None, "v_hi": None, "nv": 50,
        "t_lo": None, "t_hi": None, "nt": 20,
    },
    "optimize": {
        "a_coeff": None, "alpha": 0.0, "lambda0": None,
        "lambda_ref": None, "calibration": None,
        "v_lo": None, "v_hi": None, "v_points": 41,
    },
}


# --------------------------------------------------------------------------
# config resolution
# --------------------------------------------------------------------------

def _coerce(key: str, value, typ: type):
    try:
        if typ is bool:
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in ("1", "true", "yes", "on"):
                return True
            if text in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if typ is int:
            if isinstance(value, bool):
                raise ValueError(value)
            if isinstance(value, float) and value != int(value):
                raise ValueError(value)
            return int(value)
        if typ is float:
            return float(value)
        return str(value)
    except (TypeError, ValueError):
        raise InputFormatError(
            f"config key {key!r}: cannot interpret {value!r} as {typ.__name__}"
        ) from None


def _load_config_file(path: str) -> dict:
    import yaml  # imported on use: only a --config file needs it

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith((".yaml", ".yml")):
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise InputFormatError(f"{path}: invalid YAML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise InputFormatError(
                    f"{path}: neither valid JSON nor valid YAML: {exc}"
                ) from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: config must be a mapping")
    return data


def resolve_config(
    command: str,
    config_path: str | None,
    flags: dict,
) -> dict:
    """Merge defaults, config file, environment, and explicit flags.

    Raises DomainError for a horizon that is not finite and > 0, or a
    quantile outside (0, 1].
    """
    spec = {**_GLOBAL_SPEC, **_COMMAND_SPEC[command]}
    resolved = {**_GLOBAL_DEFAULTS, **_COMMAND_DEFAULTS[command]}

    if config_path is not None:
        data = _load_config_file(config_path)
        unknown = sorted(set(data) - set(spec))
        if unknown:
            raise InputFormatError(
                f"unknown config keys for {command}: {', '.join(unknown)}"
            )
        for key, value in data.items():
            resolved[key] = _coerce(key, value, spec[key])

    for key, typ in spec.items():
        env_value = os.environ.get(_ENV_PREFIX + key.upper())
        if env_value is not None:
            resolved[key] = _coerce(key, env_value, typ)

    for key, value in flags.items():
        if value is not None:
            resolved[key] = value

    # The global numeric settings, checked once for every command.
    check_finite("horizon", resolved["horizon"], above=0.0)
    if not 0.0 < resolved["quantile"] <= 1.0:
        raise DomainError(f"quantile must be in (0, 1], got {resolved['quantile']!r}")
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    missing = [k for k in keys if resolved.get(k) is None]
    if missing:
        raise InputFormatError(f"missing required config: {', '.join(missing)}")


def _require_count(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved[key] < 1:
            raise InputFormatError(f"{key} must be >= 1, got {resolved[key]!r}")


def _require_finite(what: str, *values) -> None:
    """Refuse to write results that overflowed to infinity or NaN."""
    if not all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values):
        raise FloatingPointError(f"{what} overflowed to a non-finite value")


def _report_envelope(command: str, resolved: dict, inputs: list[str]) -> dict:
    """The report fields every command writes, the resolved config among them.

    Every number the config echoes must be finite, whether or not the
    command's mode reads it: call this before writing any output.
    """
    for key, value in sorted(resolved.items()):
        if isinstance(value, float):
            check_finite(key, value)
    return {
        "command": command,
        "tool": {"name": "spreadwave", "version": __version__},
        "config": resolved,
        "inputs": {path: sha256_file(path) for path in inputs},
    }


def _out_path(resolved: dict, name: str) -> str:
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _run_body(command: str, body: Callable[[], None]) -> None:
    # Floating-point warnings stay off stderr: an overflow that reaches an
    # output is refused by ``_require_finite`` with one error line instead.
    # A warnings filter rather than np.errstate: errstate raised simulate's
    # peak RSS by about 0.35 MB.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            body()
    except FitConvergenceError as exc:
        click.echo(f"error: numerical failure: {exc}", err=True)
        raise SystemExit(EXIT_NUMERICAL)
    except (InputFormatError, InsufficientDataError, DomainError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_INVALID_INPUT)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_IO)
    except OverflowError:
        # Python-float arithmetic on an extreme parameter (e.g. x ** 2).
        click.echo(f"error: numerical failure: {command}: a parameter overflowed "
                   "double precision", err=True)
        raise SystemExit(EXIT_NUMERICAL)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        click.echo(f"error: numerical failure: {exc}", err=True)
        raise SystemExit(EXIT_NUMERICAL)


def _global_options(fn):
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(), help="JSON or YAML config file.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Root seed for all randomness.")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default=None,
                      help="Output directory (default: current).")(fn)
    fn = click.option("--quantile", type=float, default=None,
                      help="Quantile level for spread curves.")(fn)
    fn = click.option("--horizon", type=float, default=None,
                      help="Horizon T (bars) where a command needs one.")(fn)
    return fn


def _flags(kwargs: dict) -> dict:
    kwargs = dict(kwargs)
    kwargs.pop("config_path", None)
    return kwargs


@click.group()
@click.version_option(version=__version__, prog_name="spreadwave")
def main() -> None:
    """Spread modeling, calibration, and quoting-policy toolkit."""


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

@main.command("simulate")
@_global_options
@click.option("--steps", type=int, default=None, help="Number of bars.")
@click.option("--s0", type=float, default=None, help="Starting price.")
@click.option("--sigma-step", type=float, default=None,
              help="Per-step mid-price volatility.")
@click.option("--xi-mean", type=float, default=None)
@click.option("--xi-std", type=float, default=None)
@click.option("--kappa-mean", type=float, default=None)
@click.option("--kappa-std", type=float, default=None)
@click.option("--tau0", type=float, default=None)
@click.option("--rule", type=click.Choice(["uniform", "normal"]), default=None,
              help="Last-price placement rule.")
@click.option("--path-index", type=int, default=None)
@click.option("--volume-mode", type=click.Choice(["impact", "lognormal", "none"]),
              default=None)
@click.option("--avg-trade-size", type=float, default=None)
@click.option("--log-mean", type=float, default=None)
@click.option("--log-sigma", type=float, default=None)
def cmd_simulate(config_path, **kwargs) -> None:
    """Generate a bar series and a summary report."""

    def body() -> None:
        cfg = resolve_config("simulate", config_path, _flags(kwargs))
        params = CoupledWaveParams(
            sigma_step=cfg["sigma_step"],
            xi_mean=cfg["xi_mean"], xi_std=cfg["xi_std"],
            kappa_mean=cfg["kappa_mean"], kappa_std=cfg["kappa_std"],
            tau0=cfg["tau0"],
            last_price_rule=LastPriceRule(cfg["rule"]),
            seed=cfg["seed"],
        )
        volume = VolumeConfig(
            mode=cfg["volume_mode"], avg_trade_size=cfg["avg_trade_size"],
            log_mean=cfg["log_mean"], log_sigma=cfg["log_sigma"],
        )
        n = cfg["steps"]
        blocks = simulate_blocks(params, cfg["s0"], n, path_index=cfg["path_index"],
                                 volume=volume)
        report = _report_envelope("simulate", cfg, [])
        bars_path = _out_path(cfg, "bars.csv")
        # bars.csv appears only once the whole path and its summary are good.
        with replaced_on_success(bars_path) as tmp_path:
            summary = _write_and_summarize(tmp_path, blocks, params, cfg["s0"], n)
            # Squares of finite bars can overflow: refuse before writing anything.
            _require_finite("simulate summary",
                            *(v for v in summary.values() if v is not None))

        report["outputs"] = {"bars": "bars.csv"}
        report["units"] = {"prices": "input money units", "volume": "shares per bar"}
        report["summary"] = summary
        write_json_report(_out_path(cfg, "simulate_report.json"), report)
        click.echo(f"wrote {bars_path} ({n} bars)")

    _run_body("simulate", body)


def _write_and_summarize(path: str, blocks, params: CoupledWaveParams, s0: float,
                         n: int) -> dict:
    """Write ``n`` bars from ``blocks`` as they are drawn; the report's summary of them.

    Beyond one block, only the two columns the summary reduces over are
    kept: the heights and the last prices.  The heights are reduced and
    released before the volatility estimate, so their temporaries never
    coexist.  The arithmetic is that of ``bar_height_rayleigh_scale`` and
    ``path_volatility`` on the whole series.
    """
    heights, lasts = np.empty(n), np.empty(n)
    redraws = 0

    def kept():
        nonlocal redraws
        for block, rows in zip(blocks, row_blocks(n)):
            heights[rows], lasts[rows] = block.h, block.s_last
            redraws += block.redraws
            yield block

    write_bar_blocks(path, kept())
    mean_bar_height = float(np.mean(heights))
    rayleigh_scale = float(math.sqrt(np.mean(heights ** 2) / 2.0))
    del heights
    predicted = predicted_volatility(params, s0)
    empirical = closure = None
    if n >= 1000:
        empirical = float(np.std(np.diff(np.concatenate(([s0], lasts))), ddof=1))
        if predicted > 0.0:
            closure = empirical / predicted
    return {
        "steps": n,
        "stream_layout": STREAM_LAYOUT,
        "empirical_volatility": empirical,
        "predicted_volatility": predicted,
        "closure_ratio": closure,
        "mean_bar_height": mean_bar_height,
        "rayleigh_scale": rayleigh_scale,
        "redraws": redraws,
        "redraw_rate": redraws / n,
        "final_price": float(lasts[-1]),
    }


# --------------------------------------------------------------------------
# curve
# --------------------------------------------------------------------------

@main.command("curve")
@_global_options
@click.option("--bars", type=click.Path(), default=None,
              help="Bar CSV input (high-low spreads).")
@click.option("--quotes", type=click.Path(), default=None,
              help="Quote CSV input (bid-ask spreads); requires --trades.")
@click.option("--trades", type=click.Path(), default=None,
              help="Trade CSV used for trailing volume.")
@click.option("--window", type=float, default=None,
              help="Trailing volume window (time units).")
@click.option("--buckets", type=int, default=None)
@click.option("--min-count", type=int, default=None)
@click.option("--lo-percentile", type=float, default=None)
@click.option("--hi-percentile", type=float, default=None)
def cmd_curve(config_path, **kwargs) -> None:
    """Build the quantile spread-volume curve from quotes or bars."""

    def body() -> None:
        cfg = resolve_config("curve", config_path, _flags(kwargs))
        # Checked for bars too, which do not use it: the report echoes it.
        check_finite("window", cfg["window"], above=0.0)
        have_bars = cfg["bars"] is not None
        have_quotes = cfg["quotes"] is not None
        if have_bars == have_quotes:
            raise InputFormatError(
                "provide exactly one input: --bars, or --quotes with --trades"
            )
        if have_quotes:
            _require(cfg, "trades")
        spec = BucketSpec(
            n_buckets=cfg["buckets"],
            lo_percentile=cfg["lo_percentile"],
            hi_percentile=cfg["hi_percentile"],
        )
        inputs = [cfg["bars"]] if have_bars else [cfg["quotes"], cfg["trades"]]
        report = _report_envelope("curve", cfg, inputs)
        if have_bars:
            samples = bar_blocks_to_samples(read_bar_blocks(cfg["bars"]))
        else:
            samples = quotes_to_samples(
                read_quotes(cfg["quotes"]), read_trades(cfg["trades"]),
                window=cfg["window"],
            )
        curve = build_spread_volume_curve(
            samples, bucket_spec=spec,
            quantile_level=cfg["quantile"], min_count=cfg["min_count"],
        )
        curve_path = _out_path(cfg, "curve.csv")
        write_curve_csv(curve_path, curve)
        write_histogram_csv(_out_path(cfg, "curve_hist.csv"), curve)

        report["outputs"] = {"curve": "curve.csv", "histogram": "curve_hist.csv"}
        report["units"] = {"spread_q": "input money units",
                           "volume": "input volume units"}
        report["summary"] = {
            "source": curve.source.value,
            "n_accepted": curve.n_accepted,
            "n_rejected": curve.n_rejected,
            "n_buckets": len(curve.buckets),
            "n_usable": len(curve.usable()),
        }
        write_json_report(_out_path(cfg, "curve_report.json"), report)
        click.echo(f"wrote {curve_path} ({len(curve.usable())} usable buckets)")

    _run_body("curve", body)


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------

def _calibration_payload(result: CalibrationResult) -> dict:
    return {
        "lambda_hat": result.lambda_hat,
        "rho_hat": result.rho_hat,
        "tau0_hat": result.tau0_hat,
        "rho_tau0_product": result.rho_tau0_product,
        "residual_norm": result.residual_norm,
        "covariance_diag": list(result.covariance_diag),
        "uncertainties": {
            "lambda": math.sqrt(max(result.covariance_diag[0], 0.0)),
            "rho": math.sqrt(max(result.covariance_diag[1], 0.0)),
        },
        "converged": result.converged,
    }


@main.command("calibrate")
@_global_options
@click.option("--curve", "curve_path", type=click.Path(), default=None,
              help="Curve CSV produced by the curve command.")
@click.option("--kind", type=click.Choice(["bidask", "bar"]), default=None)
@click.option("--n", type=float, default=None, help="Average trade size.")
@click.option("--sigma", type=float, default=None,
              help="Volatility (per reference time, or per horizon for bars).")
@click.option("--price", type=float, default=None, help="Price scale.")
@click.option("--volume", type=float, default=None, help="Volume rate (optional).")
@click.option("--tau0", type=float, default=None, help="Fixed time constant.")
@click.option("--strict-product", type=click.BOOL, default=None,
              help="Fit rho*tau0 as a single parameter.")
@click.option("--min-count", type=int, default=None)
def cmd_calibrate(config_path, curve_path, **kwargs) -> None:
    """Fit the spread law to a curve CSV and write the result JSON."""

    def body() -> None:
        flags = _flags(kwargs)
        flags["curve"] = curve_path
        cfg = resolve_config("calibrate", config_path, flags)
        _require(cfg, "curve", "n", "sigma", "price")
        source = CurveSource.BAR if cfg["kind"] == "bar" else CurveSource.BID_ASK
        curve = read_curve(cfg["curve"], quantile_level=cfg["quantile"],
                           source=source, min_count=cfg["min_count"])
        flow = FlowStats(n=cfg["n"], V=cfg["volume"], sigma=cfg["sigma"],
                         mean_price=cfg["price"])

        report = _report_envelope("calibrate", cfg, [cfg["curve"]])
        report["units"] = {"lambda_hat": "dimensionless",
                           "rho_hat": "dimensionless",
                           "spread_model": "input money units"}
        result_path = _out_path(cfg, "calibration.json")
        try:
            if source is CurveSource.BAR:
                result = fit_bar_curve(curve, horizon_T=cfg["horizon"],
                                       flow=flow, tau0=cfg["tau0"],
                                       strict_product=cfg["strict_product"])
            else:
                result = fit_bid_ask_curve(curve, flow=flow, tau0=cfg["tau0"],
                                           strict_product=cfg["strict_product"])
        except FitConvergenceError as exc:
            report["error"] = str(exc)
            if exc.best_so_far is not None:
                report["result"] = _calibration_payload(exc.best_so_far)
            write_json_report(result_path, report)
            click.echo(f"error: numerical failure: {exc}", err=True)
            raise SystemExit(EXIT_NUMERICAL)

        usable = curve.usable()
        # Only the fitted curve delta_ref is used; lambda_ref plays no part.
        fitted = calibrated_law(result, flow, source, 1.0, horizon_T=cfg["horizon"])
        model_values = flow.mean_price * fitted.delta_ref(np.array([b.v_mid for b in usable]))
        write_overlay_csv(_out_path(cfg, "overlay.csv"), curve,
                          [float(m) for m in model_values])

        report["outputs"] = {"calibration": "calibration.json",
                             "overlay": "overlay.csv"}
        report["result"] = _calibration_payload(result)
        report["flow"] = {"n": flow.n, "sigma": flow.sigma,
                          "price": flow.mean_price, "volume": flow.V}
        report["kind"] = cfg["kind"]
        report["horizon"] = cfg["horizon"] if source is CurveSource.BAR else None
        report["v_range"] = {"lo": usable[0].v_lo, "hi": usable[-1].v_hi}
        write_json_report(result_path, report)
        click.echo(
            f"lambda_hat={result.lambda_hat:.6g} rho_hat={result.rho_hat:.6g} "
            f"residual={result.residual_norm:.6g}"
        )

    _run_body("calibrate", body)


# --------------------------------------------------------------------------
# scale
# --------------------------------------------------------------------------

@main.command("scale")
@_global_options
@click.option("--base-spread", type=float, default=None,
              help="Spread at the base horizon.")
@click.option("--eta", type=float, default=None,
              help="Per-sqrt-horizon volatility at the base horizon.")
@click.option("--lam", type=float, default=None, help="Risk-aversion level.")
@click.option("--t2-max", type=float, default=None, help="Largest horizon.")
@click.option("--t-steps", type=int, default=None)
@click.option("--surface", type=click.BOOL, default=None,
              help="Emit the (T, v) spread surface instead of the table.")
@click.option("--lambda-risk", type=float, default=None)
@click.option("--rho-risk", type=float, default=None)
@click.option("--sigma-tau", type=float, default=None)
@click.option("--n", type=float, default=None)
@click.option("--tau0", type=float, default=None)
@click.option("--price", type=float, default=None)
@click.option("--v-lo", type=float, default=None)
@click.option("--v-hi", type=float, default=None)
@click.option("--nv", type=int, default=None)
@click.option("--t-lo", type=float, default=None)
@click.option("--t-hi", type=float, default=None)
@click.option("--nt", type=int, default=None)
def cmd_scale(config_path, **kwargs) -> None:
    """Scale a spread across horizons, or emit the full (T, v) surface."""

    def body() -> None:
        cfg = resolve_config("scale", config_path, _flags(kwargs))
        if cfg["surface"]:
            _require(cfg, "lambda_risk", "rho_risk", "sigma_tau", "n",
                     "v_lo", "v_hi", "t_lo", "t_hi")
            _require_count(cfg, "nv", "nt")
            params = SpreadSurfaceParams(
                lambda_risk=cfg["lambda_risk"], rho_risk=cfg["rho_risk"],
                sigma_tau=cfg["sigma_tau"], n=cfg["n"], tau0=cfg["tau0"],
            )
            v_grid, t_grid = default_surface_grids(
                cfg["v_lo"], cfg["v_hi"], cfg["t_lo"], cfg["t_hi"], cfg["nv"], cfg["nt"])
            surface = spread_surface(params, cfg["price"], v_grid, t_grid)
            _require_finite("surface", surface)
            report = _report_envelope("scale", cfg, [])
            out_path = _out_path(cfg, "surface.csv")
            write_surface_csv(out_path, t_grid, v_grid, surface)
            report["outputs"] = {"surface": "surface.csv"}
            report["units"] = {"delta": "input money units"}
            report["summary"] = {"nv": int(cfg["nv"]), "nt": int(cfg["nt"])}
        else:
            _require(cfg, "base_spread", "eta", "lam", "t2_max")
            _require_count(cfg, "t_steps")
            t1 = cfg["horizon"]
            check_finite("t2_max", cfg["t2_max"], at_least=t1)
            # geomspace can round interior points an ulp outside [t1, t2_max].
            t_grid = np.clip(np.geomspace(t1, cfg["t2_max"], cfg["t_steps"]),
                             t1, cfg["t2_max"])
            rows = [
                (
                    float(t2),
                    scale_spread_time(cfg["base_spread"], cfg["eta"],
                                      cfg["lam"], t1, float(t2)),
                    classical_scale(cfg["base_spread"], t1, float(t2)),
                )
                for t2 in t_grid
            ]
            final_ratio = rows[-1][1] / rows[-1][2]
            _require_finite("scale table", rows, final_ratio)
            report = _report_envelope("scale", cfg, [])
            out_path = _out_path(cfg, "scale.csv")
            write_scale_csv(out_path, rows)
            report["outputs"] = {"scale": "scale.csv"}
            report["units"] = {"delta_quantum": "input money units",
                               "delta_classical": "input money units"}
            report["summary"] = {
                "t1": t1,
                "t2_max": cfg["t2_max"],
                "rows": len(rows),
                "final_ratio": final_ratio,
            }
        write_json_report(_out_path(cfg, "scale_report.json"), report)
        click.echo(f"wrote {out_path}")

    _run_body("scale", body)


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

@main.command("optimize")
@_global_options
@click.option("--a-coeff", type=float, default=None,
              help="Dimensionless curve coefficient a (analytic law mode).")
@click.option("--alpha", type=float, default=None,
              help="Round-trip commission in spread units.")
@click.option("--lambda0", type=float, default=None, help="Execution scale.")
@click.option("--lambda-ref", type=float, default=None,
              help="Reference level the market curve is anchored at.")
@click.option("--calibration", type=click.Path(), default=None,
              help="calibration.json from the calibrate command.")
@click.option("--v-lo", type=float, default=None)
@click.option("--v-hi", type=float, default=None)
@click.option("--v-points", type=int, default=None)
def cmd_optimize(config_path, **kwargs) -> None:
    """Compute the optimal quoting policy over a volume grid."""

    def body() -> None:
        cfg = resolve_config("optimize", config_path, _flags(kwargs))
        _require(cfg, "lambda0")
        have_a = cfg["a_coeff"] is not None
        have_cal = cfg["calibration"] is not None
        if have_a == have_cal:
            raise InputFormatError(
                "provide exactly one of --a-coeff or --calibration"
            )
        lambda0 = cfg["lambda0"]
        lambda_ref = cfg["lambda_ref"]
        if lambda_ref is None:
            lambda_ref = DEFAULT_LAMBDA_REF_FRACTION * lambda0
        inputs: list[str] = []

        if have_a:
            a = cfg["a_coeff"]
            check_finite("a_coeff", a, above=0.0)
            law = dimensionless_law(a, lambda_ref)
            v_min = (0.5 * a) ** (1.0 / 3.0)
            v_lo = cfg["v_lo"] if cfg["v_lo"] is not None else v_min / 4.0
            v_hi = cfg["v_hi"] if cfg["v_hi"] is not None else 4.0 * v_min
        else:
            inputs.append(cfg["calibration"])
            rep = read_json_report(cfg["calibration"])
            try:
                res = rep["result"]
                fit = {key: float(res[key]) for key in
                       ("lambda_hat", "rho_hat", "tau0_hat", "residual_norm")}
                measured = {key: float(rep["flow"][key])
                            for key in ("n", "volume", "sigma", "price")}
                kind = rep["kind"]
                v_range = {key: float(rep["v_range"][key]) for key in ("lo", "hi")}
                horizon = rep.get("horizon")
                horizon = None if horizon is None else float(horizon)
            except KeyError as exc:
                raise InputFormatError(
                    f"{cfg['calibration']}: missing key {exc} "
                    "(not a calibration report?)"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise InputFormatError(
                    f"{cfg['calibration']}: a field is not a number: {exc}"
                ) from exc
            flow = FlowStats(n=measured["n"], V=measured["volume"],
                             sigma=measured["sigma"], mean_price=measured["price"])
            result = CalibrationResult(**fit, n_used=flow.n, sigma_used=flow.sigma,
                                       covariance_diag=(0.0, 0.0))
            check_finite("lambda_hat", result.lambda_hat, at_least=0.0)
            check_finite("rho_hat", result.rho_hat, at_least=0.0)
            check_finite("tau0_hat", result.tau0_hat, above=0.0)
            source = CurveSource.BAR if kind == "bar" else CurveSource.BID_ASK
            if source is CurveSource.BAR:
                horizon = cfg["horizon"] if horizon is None else horizon
                check_finite("horizon", horizon, above=0.0)
            law = calibrated_law(result, flow, source, lambda_ref,
                                 horizon_T=horizon)
            v_lo = cfg["v_lo"] if cfg["v_lo"] is not None else v_range["lo"]
            v_hi = cfg["v_hi"] if cfg["v_hi"] is not None else v_range["hi"]

        check_finite("v_lo", v_lo, above=0.0)
        check_finite("v_hi", v_hi, above=v_lo)
        _require_count(cfg, "v_points")
        grid = np.geomspace(v_lo, v_hi, cfg["v_points"])
        model = ExecutionModel(lambda0=lambda0)
        policy = policy_curve(grid, model, law, cfg["alpha"])
        ratio = policy.spread_opt / law.delta(lambda_ref, policy.v)
        _require_finite("policy", policy.lambda_opt, policy.spread_opt, policy.exec_rate,
                        policy.pnl_opt, policy.pnl_naive, ratio)

        report = _report_envelope("optimize", cfg, inputs)
        policy_path = _out_path(cfg, "policy.csv")
        write_policy_csv(policy_path, policy)
        report["outputs"] = {"policy": "policy.csv"}
        report["units"] = {"spread_opt": "dimensionless spread",
                           "pnl": "dimensionless spread x volume"}
        report["summary"] = {
            "lambda0": lambda0,
            "lambda_ref": lambda_ref,
            "alpha": cfg["alpha"],
            "v_lo": v_lo,
            "v_hi": v_hi,
            "halt_fraction": float(np.mean(policy.halt)),
            "n_failures": len(policy.failures),
            "median_spread_ratio": float(np.nanmedian(ratio)),
            "median_exec_rate": float(np.nanmedian(policy.exec_rate)),
        }
        write_json_report(_out_path(cfg, "optimize_report.json"), report)
        click.echo(f"wrote {policy_path} ({len(grid)} volume points)")

    _run_body("optimize", body)


if __name__ == "__main__":
    main()
