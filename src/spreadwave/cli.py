"""Batch command-line front-end.

Five commands wire the library end to end: ``simulate`` (bar generator),
``curve`` (percentile spread-volume curve from quotes or bars),
``calibrate`` (law fit), ``scale`` (horizon scaling table or surface), and
``optimize`` (quoting policy).  Every command is deterministic given its
resolved config: reruns produce byte-identical CSV and JSON outputs.

Config precedence is file < environment (SPREADWAVE_<KEY>) < flags; unknown
config keys are rejected.  Exit codes: 0 success, 2 I/O failure, 3 invalid
input or config, 4 numerical failure.

Every command runs in a process of its own, so start-up is part of its time.
Loading this module loads only what parses a command line and reports a
failure (numpy, ``errors`` and ``data_io``): ``main`` reads the flags, the
``--help`` text and the commands from the same key table as the config, with
no parser library.  Each command imports the model modules it runs in its own
body, so ``simulate`` never builds the fit and ``calibrate`` builds neither
the simulator nor the optimizer.  ``curve`` and ``calibrate`` take their
rules from ``calibration``: which samples count and which buckets are usable
(``SpreadVolumeCurve.usable``, the count both print), and the law of each
curve kind (``spread_law``), which ``calibrate`` also evaluates for its
overlay.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn

import numpy as np

from . import __version__
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
    row_blocks,
)

if TYPE_CHECKING:
    from .coupled_wave import CoupledWaveParams

_ENV_PREFIX = "SPREADWAVE_"


class _Key(NamedTuple):
    """A config key: its type, default, flag help and, where it has them, choices."""

    type: type
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


# The only declaration of each config key: the flags, the SPREADWAVE_<KEY>
# variables and the config-file keys are all built from and parsed by it.
# The global keys belong to every command.
_GLOBAL_KEYS: dict[str, _Key] = {
    "seed": _Key(int, 0, "Root seed for all randomness."),
    "out": _Key(str, ".", "Output directory (default: current)."),
    "quantile": _Key(float, 0.9, "Quantile level for spread curves."),
    "horizon": _Key(float, 1.0, "Horizon T (bars) where a command needs one."),
}

_COMMAND_KEYS: dict[str, dict[str, _Key]] = {
    "simulate": {
        "steps": _Key(int, 1000, "Number of bars."),
        "s0": _Key(float, 100.0, "Starting price."),
        "sigma_step": _Key(float, 1e-4, "Per-step mid-price volatility."),
        "xi_mean": _Key(float, 0.0), "xi_std": _Key(float, 0.5),
        "kappa_mean": _Key(float, 0.0), "kappa_std": _Key(float, 0.5),
        "tau0": _Key(float, 1.0),
        "rule": _Key(str, "uniform", "Last-price placement rule.", ("uniform", "normal")),
        "path_index": _Key(int, 0),
        "volume_mode": _Key(str, "impact", None, ("impact", "lognormal", "none")),
        "avg_trade_size": _Key(float, 100.0),
        "log_mean": _Key(float, 0.0), "log_sigma": _Key(float, 1.0),
    },
    "curve": {
        "bars": _Key(str, None, "Bar CSV input (high-low spreads)."),
        "quotes": _Key(str, None, "Quote CSV input (bid-ask spreads); requires --trades."),
        "trades": _Key(str, None, "Trade CSV used for trailing volume."),
        "window": _Key(float, 60.0, "Trailing volume window (time units)."),
        "buckets": _Key(int, 25), "min_count": _Key(int, 20),
        "lo_percentile": _Key(float, 1.0), "hi_percentile": _Key(float, 99.0),
    },
    "calibrate": {
        "curve": _Key(str, None, "Curve CSV produced by the curve command."),
        # calibration.REPORT_KINDS' keys, which a test checks.
        "kind": _Key(str, "bidask", None, ("bidask", "bar")),
        "n": _Key(float, None, "Average trade size."),
        "sigma": _Key(float, None,
                      "Volatility (per reference time, or per horizon for bars)."),
        "price": _Key(float, None, "Price scale."),
        "volume": _Key(float, 0.0, "Volume rate; only recorded in calibration.json "
                       "(flow.volume), since no fit reads it."),
        "tau0": _Key(float, 1.0, "Fixed time constant; rho is reported at it, and "
                     "rho*tau0 is the identified quantity."),
        "min_count": _Key(int, 20),
    },
    "scale": {
        "base_spread": _Key(float, None, "Spread at the base horizon."),
        "eta": _Key(float, None, "Per-sqrt-horizon volatility at the base horizon."),
        "lam": _Key(float, None, "Risk-aversion level."),
        "t2_max": _Key(float, None, "Largest horizon."),
        "t_steps": _Key(int, 50),
        "surface": _Key(bool, False, "Emit the (T, v) spread surface instead of the table."),
        "lambda_risk": _Key(float), "rho_risk": _Key(float), "sigma_tau": _Key(float),
        "n": _Key(float), "tau0": _Key(float, 1.0), "price": _Key(float, 1.0),
        "v_lo": _Key(float), "v_hi": _Key(float), "nv": _Key(int, 50),
        "t_lo": _Key(float), "t_hi": _Key(float), "nt": _Key(int, 20),
    },
    "optimize": {
        "a_coeff": _Key(float, None, "Dimensionless curve coefficient a (analytic law mode)."),
        "alpha": _Key(float, 0.0, "Round-trip commission in spread units."),
        "lambda0": _Key(float, None, "Execution scale."),
        "lambda_ref": _Key(float, None, "Reference level the market curve is anchored at."),
        "calibration": _Key(str, None, "calibration.json from the calibrate command."),
        "v_lo": _Key(float), "v_hi": _Key(float), "v_points": _Key(int, 41),
    },
}

# The largest count a float64 array of that many elements can be sized for.
_MAX_COUNT = np.iinfo(np.intp).max // 8


# --------------------------------------------------------------------------
# config resolution
# --------------------------------------------------------------------------

def _coerce(key: str, value, spec: _Key):
    """``value`` of config key ``key`` as its type; the one parser of flags,
    environment variables and config-file values."""
    typ = spec.type
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
        if not isinstance(value, str):  # a file's null, list or number
            raise TypeError(value)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise InputFormatError(
            f"config key {key!r}: cannot interpret {value!r} as {typ.__name__}"
        ) from None
    if spec.choices is not None and value not in spec.choices:
        raise InputFormatError(
            f"config key {key!r}: {value!r} is not one of {', '.join(spec.choices)}")
    return value


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

    Every value, whatever its source, is parsed by ``_coerce``: one that its
    key's type or choices refuse raises InputFormatError.  Raises
    DomainError for a horizon that is not finite and > 0, or a quantile
    outside (0, 1].
    """
    keys = {**_GLOBAL_KEYS, **_COMMAND_KEYS[command]}
    resolved = {key: spec.default for key, spec in keys.items()}

    data = {} if config_path is None else _load_config_file(config_path)
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise InputFormatError(
            f"unknown config keys for {command}: {', '.join(unknown)}"
        )
    env = {key: os.environ[_ENV_PREFIX + key.upper()] for key in keys
           if _ENV_PREFIX + key.upper() in os.environ}
    given = {key: value for key, value in flags.items() if value is not None}
    for source in (data, env, given):  # later sources override earlier ones
        for key, value in source.items():
            resolved[key] = _coerce(key, value, keys[key])

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
        if not 1 <= resolved[key] <= _MAX_COUNT:
            raise InputFormatError(
                f"{key} must be between 1 and {_MAX_COUNT}, got {resolved[key]!r}")


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


def _fail(message: str, code: int) -> NoReturn:
    # One line whatever the message quotes (a parser's report, an argument,
    # a path): each line break becomes the two characters \n.
    print("error: " + "\\n".join(message.splitlines()), file=sys.stderr)
    raise SystemExit(code)


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
        _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)
    except (InputFormatError, InsufficientDataError, DomainError) as exc:
        _fail(str(exc), EXIT_INVALID_INPUT)
    except OSError as exc:
        _fail(str(exc), EXIT_IO)
    except MemoryError:
        _fail(f"{command}: not enough memory for the requested sizes", EXIT_INVALID_INPUT)
    except OverflowError:
        # Python-float arithmetic on an extreme parameter (e.g. x ** 2).
        _fail(f"numerical failure: {command}: a parameter overflowed double precision",
              EXIT_NUMERICAL)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        raise SystemExit(1) from None


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def _usage_error(message: str, name: str | None = None, names=()) -> NoReturn:
    """Exit 3 with one line, as invalid config does (2 is the I/O-failure
    code), suggesting the ``names`` close to a misspelled ``name``."""
    if name is not None:
        import difflib  # imported on use: only a misspelled name needs it

        close = sorted(difflib.get_close_matches(name, names))
        quoted = ", ".join(map(repr, close))
        if len(close) == 1:
            message += f" Did you mean {quoted}?"
        elif close:
            message += f" (Did you mean one of: {quoted}?)"
    _fail(message, EXIT_INVALID_INPUT)


def _parse_flags(command: str, args: list[str]) -> dict[str, str] | None:
    """``command``'s flags as {key: text}, or None if ``--help`` is among them.

    A flag takes its value as ``--flag VALUE`` or ``--flag=VALUE``, as
    written even when it starts with ``-``; a repeated flag's last value
    wins, and ``--`` ends the flags.  The text is parsed by ``_coerce``
    later, as environment and file values are.
    """
    names = {"--config": "config"}
    names.update(("--" + key.replace("_", "-"), key)
                 for key in (*_GLOBAL_KEYS, *_COMMAND_KEYS[command]))
    flags, extra, error = {}, [], None
    rest = iter(args)
    for arg in rest:
        if arg == "--help":
            return None
        if arg == "--":
            extra += rest
        elif not arg.startswith("-") or arg == "-":
            extra.append(arg)
        else:
            name, eq, value = arg.partition("=")
            if name not in names:
                error = error or (f"No such option {name!r}.", name)
            elif eq or (value := next(rest, None)) is not None:
                flags[names[name]] = value
            else:
                error = error or (f"Option {name!r} requires an argument.", None)
    if error is not None:
        _usage_error(*error, [*names, "--help"])
    if extra:
        _usage_error(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                     f"({' '.join(extra)})")
    return flags


def _help(command: str | None) -> str:
    """The ``--help`` text of ``command``, or of ``spreadwave`` itself."""
    if command is None:
        usage, doc = "[OPTIONS] COMMAND [ARGS]...", (main.__doc__ or "").split("\n")[0]
        sections = {"Options": [("--version", "Show the version and exit.")],
                    "Commands": [(name, body.__doc__) for name, body in _BODIES.items()]}
    else:
        usage, doc = f"{command} [OPTIONS]", _BODIES[command].__doc__  # None under -OO
        rows = [("--config FILE", "JSON or YAML config file.")]
        for key, spec in {**_GLOBAL_KEYS, **_COMMAND_KEYS[command]}.items():
            metavar = (f"[{'|'.join(spec.choices)}]" if spec.choices
                       else spec.type.__name__.upper())
            rows.append((f"--{key.replace('_', '-')} {metavar}", spec.help))
        sections = {"Options": rows}
    sections["Options"].append(("--help", "Show this message and exit."))
    text = [f"Usage: spreadwave {usage}", "", f"  {doc or ''}".rstrip()]
    for title, rows in sections.items():
        width = max(len(name) for name, _ in rows)
        text += ["", f"{title}:"]
        text += [f"  {name:<{width}}  {about or ''}".rstrip() for name, about in rows]
    return "\n".join(text)


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Spread modeling, calibration, and quoting-policy toolkit.

    Runs the command line ``args`` (default: ``sys.argv[1:]``) and returns
    on success; any other outcome raises SystemExit with its exit code.  A
    usage error (an unknown command or flag, a flag without its value, or
    an extra argument) exits 3 with one ``error:`` line, and Ctrl-C exits 1
    after ``Aborted!``.  ``standalone_mode`` is accepted for callers of
    click's ``main`` signature and never read: a failure always raises.
    """
    args = sys.argv[1:] if args is None else list(args)
    command = args[0] if args else "--help"
    if command == "--help":
        print(_help(None))
    elif command == "--version":
        print(f"spreadwave, version {__version__}")
    elif command.startswith("-"):
        _usage_error(f"No such option {command!r}.", command, ("--help", "--version"))
    elif command not in _COMMAND_KEYS:
        _usage_error(f"No such command {command!r}.", command, _COMMAND_KEYS)
    elif (flags := _parse_flags(command, args[1:])) is None:
        print(_help(command))
    else:
        config_path = flags.pop("config", None)
        _run_body(command,
                  lambda: _BODIES[command](resolve_config(command, config_path, flags)))


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(cfg: dict) -> None:
    """Generate a bar series and a summary report."""
    from .coupled_wave import CoupledWaveParams, LastPriceRule, VolumeConfig, simulate_blocks

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
    _require_count(cfg, "steps")
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
    print(f"wrote {bars_path} ({n} bars)")


def _write_and_summarize(path: str, blocks, params: CoupledWaveParams, s0: float,
                         n: int) -> dict:
    """Write ``n`` bars from ``blocks`` as they are drawn; the report's summary of them.

    Beyond one block, only the two columns the summary reduces over are
    kept: the heights and the last prices.  The heights are reduced and
    released before the volatility estimate, so their temporaries never
    coexist.
    """
    from .coupled_wave import (STREAM_LAYOUT, bar_height_rayleigh_scale, path_volatility,
                               predicted_volatility)

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
    rayleigh_scale = bar_height_rayleigh_scale(heights)
    del heights
    predicted = predicted_volatility(params, s0)
    empirical = closure = None
    if n >= 1000:
        empirical = path_volatility(lasts, s0)
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

def cmd_curve(cfg: dict) -> None:
    """Build the quantile spread-volume curve from quotes or bars."""
    from .calibration import (BucketSpec, bar_blocks_to_samples, build_spread_volume_curve,
                              quotes_to_samples)

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
    _require_count(cfg, "buckets")
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
        "rejected_by": curve.rejected._asdict(),
        "n_buckets": len(curve.buckets),
        "n_usable": len(curve.usable()),
    }
    write_json_report(_out_path(cfg, "curve_report.json"), report)
    print(f"wrote {curve_path} ({len(curve.usable())} usable buckets)")


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------

def cmd_calibrate(cfg: dict) -> None:
    """Fit the spread law to a curve CSV and write the result JSON."""
    from .calibration import (REPORT_KINDS, CurveSource, FlowStats, calibration_report,
                              fit_bar_curve, fit_bid_ask_curve, spread_law)

    _require(cfg, "curve", "n", "sigma", "price")
    source = REPORT_KINDS[cfg["kind"]]
    curve = read_curve(cfg["curve"], quantile_level=cfg["quantile"],
                       source=source, min_count=cfg["min_count"])
    flow = FlowStats(n=cfg["n"], V=cfg["volume"], sigma=cfg["sigma"],
                     mean_price=cfg["price"])

    report = _report_envelope("calibrate", cfg, [cfg["curve"]])
    result_path = _out_path(cfg, "calibration.json")
    try:
        if source is CurveSource.BAR:
            result = fit_bar_curve(curve, cfg["horizon"], flow, cfg["tau0"])
        else:
            result = fit_bid_ask_curve(curve, flow, cfg["tau0"])
    except FitConvergenceError as exc:
        report["error"] = str(exc)
        report.update(calibration_report(exc.best_so_far))
        write_json_report(result_path, report)
        raise

    usable = curve.usable()
    law = spread_law(source, flow, result.tau0_hat, cfg["horizon"])
    model_values = law(np.array([b.v_mid for b in usable]), result.lambda_hat, result.rho_hat)
    write_overlay_csv(_out_path(cfg, "overlay.csv"), curve, model_values)

    report["outputs"] = {"calibration": "calibration.json", "overlay": "overlay.csv"}
    report.update(calibration_report(result, flow, source, cfg["horizon"],
                                     (usable[0].v_lo, usable[-1].v_hi)))
    write_json_report(result_path, report)
    print(f"lambda_hat={result.lambda_hat:.6g} rho_hat={result.rho_hat:.6g} "
               f"residual={result.residual_norm:.6g}")


# --------------------------------------------------------------------------
# scale
# --------------------------------------------------------------------------

def cmd_scale(cfg: dict) -> None:
    """Scale a spread across horizons, or emit the full (T, v) surface."""
    from .scaling import (SpreadSurfaceParams, classical_scale, default_surface_grids,
                          scale_spread_time, spread_surface)

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
        quantum = scale_spread_time(cfg["base_spread"], cfg["eta"], cfg["lam"], t1, t_grid)
        classical = classical_scale(cfg["base_spread"], t1, t_grid)
        final_ratio = quantum[-1] / classical[-1]
        _require_finite("scale table", quantum, classical, final_ratio)
        report = _report_envelope("scale", cfg, [])
        out_path = _out_path(cfg, "scale.csv")
        write_scale_csv(out_path, t_grid, quantum, classical)
        report["outputs"] = {"scale": "scale.csv"}
        report["units"] = {"delta_quantum": "input money units",
                           "delta_classical": "input money units"}
        report["summary"] = {
            "t1": t1,
            "t2_max": cfg["t2_max"],
            "rows": len(t_grid),
            "final_ratio": final_ratio,
        }
    write_json_report(_out_path(cfg, "scale_report.json"), report)
    print(f"wrote {out_path}")


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

def cmd_optimize(cfg: dict) -> None:
    """Compute the optimal quoting policy over a volume grid."""
    from .calibration import parse_calibration_report
    from .optimizer import (DEFAULT_LAMBDA_REF_FRACTION, ExecutionModel, calibrated_law,
                            dimensionless_law, policy_curve)
    from .spread_models import spread_minimum

    _require(cfg, "lambda0")
    have_a = cfg["a_coeff"] is not None
    have_cal = cfg["calibration"] is not None
    if have_a == have_cal:
        raise InputFormatError("provide exactly one of --a-coeff or --calibration")
    lambda0 = cfg["lambda0"]
    lambda_ref = cfg["lambda_ref"]
    if lambda_ref is None:
        lambda_ref = DEFAULT_LAMBDA_REF_FRACTION * lambda0
    inputs = [] if have_a else [cfg["calibration"]]

    if have_a:
        a = cfg["a_coeff"]
        check_finite("a_coeff", a, above=0.0)
        law = dimensionless_law(a, lambda_ref)
        v_min = spread_minimum(a).v_min
        v_bounds = (v_min / 4.0, 4.0 * v_min)
    else:
        result, flow, source, horizon, v_bounds = parse_calibration_report(
            read_json_report(cfg["calibration"]), cfg["calibration"], cfg["horizon"])
        law = calibrated_law(result, flow, source, lambda_ref, horizon_T=horizon)
    v_lo = cfg["v_lo"] if cfg["v_lo"] is not None else v_bounds[0]
    v_hi = cfg["v_hi"] if cfg["v_hi"] is not None else v_bounds[1]

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
        "median_spread_ratio": _nan_median(ratio),
        "median_exec_rate": _nan_median(policy.exec_rate),
    }
    write_json_report(_out_path(cfg, "optimize_report.json"), report)
    print(f"wrote {policy_path} ({len(grid)} volume points)")


def _nan_median(values: np.ndarray) -> float:
    """``np.nanmedian``'s value, without the numpy.ma module that it imports:
    the middle of the sorted values that are not NaN, the mean of the two
    middle ones for an even count, and NaN where every value is NaN."""
    kept = np.sort(values[~np.isnan(values)])
    middle = kept.size // 2
    if kept.size % 2:
        return float(kept[middle])
    return float((kept[middle - 1] + kept[middle]) / 2.0) if kept.size else float("nan")


# The command bodies, in the order ``--help`` lists them.
_BODIES: dict[str, Callable[[dict], None]] = {
    "simulate": cmd_simulate, "curve": cmd_curve, "calibrate": cmd_calibrate,
    "scale": cmd_scale, "optimize": cmd_optimize,
}

if __name__ == "__main__":
    main()
