"""Batch command surface wiring the library together.

Nine subcommands cover the analytic distributions (params, dist), the
fidelity study (optimize, curve, table1), the Monte Carlo oracle (mc),
histogram fitting (fit), and the imager model (ccd-sim, crosstalk).
Inputs arrive as flags plus an optional JSON config document whose keys
carry units in their names (tau_d_us, delta_mhz, wavelength_nm); every
unknown key is rejected by name. Exit codes: 0 success, 2 validation
error, 1 runtime error. Output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .angular import Scheme
from .ccd import (
    CcdParams,
    conditional_correlations,
    crosstalk_ratio,
    format_readouts_csv,
    simulate_register_batch,
)
from .detmodel import (
    DetectionConfig,
    LeakParams,
    detection_params,
    get_species,
    pmf_arrays,
    species_from_dict,
)
from .errors import ConfigError, DomainError, IonReadError
from .fidelity import fidelity_curve, format_curve_csv, optimize_detection
from .fitkit import (
    fit_histograms,
    format_fit_result,
    format_model_csv,
    model_vs_data_rows,
)
from .mcsim import (
    InitialState,
    McConfig,
    McMode,
    format_histogram_csv,
    read_histogram_csv,
    simulate_histogram,
)

_F = "%.9g"


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ionread-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out_path) -> None:
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _check_keys(doc: dict, allowed, command: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key {sorted(unknown)[0]!r} for command {command!r}"
        )


def _as_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _as_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _number(doc: dict, key: str, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigError(f"config key {key!r} is required")
        return default
    return _as_number(key, doc[key])


def _resolve_species(args, doc):
    spec = getattr(args, "species", None) or doc.get("species")
    if spec is None:
        raise ConfigError("config key 'species' is required (or pass --species)")
    if isinstance(spec, str):
        try:
            return get_species(spec)
        except DomainError as exc:
            raise ConfigError(f"config key 'species': {exc}") from exc
    if isinstance(spec, dict):
        return species_from_dict(spec.get("name", "inline"), {
            k: v for k, v in spec.items() if k != "name"
        })
    raise ConfigError("config key 'species' must be a name or a definition object")


def _resolve_scheme(args, doc) -> Scheme:
    raw = getattr(args, "scheme", None) or doc.get("scheme") or "p32"
    try:
        return Scheme(str(raw).lower())
    except ValueError:
        raise ConfigError(f"config key 'scheme' must be p32 or p12, got {raw!r}") from None


_DETECTION_KEYS = ("species", "scheme", "s", "delta_mhz", "tau_d_us", "eta", "p_pi", "p_minus")
_LEAK_KEYS = ("lambda0", "alpha1", "alpha2", "eta")


def _leak_from_config(args, doc, command: str):
    """Either direct LeakParams overrides or a species + detection config.

    Returns (LeakParams, eta). The two styles are mutually exclusive.
    """
    direct = "lambda0" in doc
    if direct:
        _check_keys(doc, _LEAK_KEYS + _extra_keys(command), command)
        eta = getattr(args, "eta", None)
        if eta is None:
            eta = _number(doc, "eta", required=True)
        leak = LeakParams(
            lambda0=_number(doc, "lambda0", required=True),
            alpha1=_number(doc, "alpha1", default=0.0),
            alpha2=_number(doc, "alpha2", default=0.0),
        )
        return leak, float(eta)
    _check_keys(doc, _DETECTION_KEYS + _extra_keys(command), command)
    species = _resolve_species(args, doc)
    scheme = _resolve_scheme(args, doc)
    eta = getattr(args, "eta", None)
    if eta is None:
        eta = _number(doc, "eta", required=True)
    config = DetectionConfig(
        scheme=scheme,
        s=_number(doc, "s", required=True),
        delta=2.0 * math.pi * 1e6 * _number(doc, "delta_mhz", default=0.0),
        tau_d=1e-6 * _number(doc, "tau_d_us", required=True),
        eta=float(eta),
        p_pi=_number(doc, "p_pi", default=0.0),
        p_minus=_number(doc, "p_minus", default=0.0),
    )
    return detection_params(species, config), float(eta)


def _extra_keys(command: str):
    return {
        "params": (),
        "dist": ("n_max",),
        "mc": ("trials", "seed", "mode", "initial"),
    }.get(command, ())


def _cmd_params(args) -> int:
    doc = _load_config(args.config)
    leak, eta = _leak_from_config(args, doc, "params")
    lines = [
        "lambda0: " + _F % leak.lambda0,
        "alpha1: " + _F % leak.alpha1,
        "alpha2: " + _F % leak.alpha2,
        "eta: " + _F % eta,
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dist(args) -> int:
    doc = _load_config(args.config)
    leak, eta = _leak_from_config(args, doc, "dist")
    n_max = doc.get("n_max")
    if n_max is not None and _as_int("n_max", n_max) < 0:
        raise ConfigError(f"config key 'n_max' must be a non-negative integer, got {n_max!r}")
    dark, bright = pmf_arrays(leak, eta, n_max)
    lines = ["n,p_dark,p_bright"]
    for n, (pd, pb) in enumerate(zip(dark, bright)):
        lines.append(("%d," + _F + "," + _F) % (n, pd, pb))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _format_discrimination(res) -> str:
    lines = [
        "d: %d" % res.d,
        "lambda0_opt: " + _F % res.lambda0_opt,
        "fidelity: " + _F % res.fidelity,
        "dark_fidelity: " + _F % res.dark_fidelity,
        "bright_fidelity: " + _F % res.bright_fidelity,
    ]
    return "\n".join(lines) + "\n"


def _cmd_optimize(args) -> int:
    doc = _load_config(args.config)
    _check_keys(doc, ("species", "scheme", "eta"), "optimize")
    species = _resolve_species(args, doc)
    scheme = _resolve_scheme(args, doc)
    eta = args.eta if args.eta is not None else _number(doc, "eta", required=True)
    res = optimize_detection(species, scheme, float(eta))
    _emit(_format_discrimination(res), args.out)
    return 0


def _cmd_curve(args) -> int:
    doc = _load_config(args.config)
    _check_keys(doc, ("species", "scheme", "eta_grid"), "curve")
    species = _resolve_species(args, doc)
    scheme = _resolve_scheme(args, doc)
    grid = doc.get("eta_grid", [1e-3, 1e-2, 0.1, 0.3])
    if not isinstance(grid, list) or not grid:
        raise ConfigError("config key 'eta_grid' must be a non-empty list of numbers")
    rows = fidelity_curve(species, scheme, [_as_number("eta_grid", v) for v in grid])
    _emit(format_curve_csv(rows), args.out)
    return 0


_TABLE1_CASES = [("cd111", 0.001), ("cd111", 0.01), ("cd111", 0.3),
                 ("yb171", 0.001), ("yb171", 0.01), ("yb171", 0.3),
                 ("hg199", 0.001), ("hg199", 0.01), ("hg199", 0.3)]


def _cmd_table1(args) -> int:
    lines = ["species,eta,fidelity_percent,lambda0_opt,d_opt"]
    for name, eta in _TABLE1_CASES:
        res = optimize_detection(get_species(name), Scheme.P12, eta)
        lines.append(
            ("%s," + _F + "," + _F + "," + _F + ",%d")
            % (name, eta, 100.0 * res.fidelity, res.lambda0_opt, res.d)
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _int_option(args, doc, key: str, default=None, required=False) -> int | None:
    value = getattr(args, key, None)
    if value is None:
        value = doc.get(key, default)
    if value is None:
        if required:
            raise ConfigError(f"config key {key!r} is required (or pass --{key})")
        return None
    return _as_int(key, value)


def _cmd_mc(args) -> int:
    doc = _load_config(args.config)
    leak, eta = _leak_from_config(args, doc, "mc")
    trials = _int_option(args, doc, "trials", required=True)
    seed = _int_option(args, doc, "seed", default=0)
    mode = doc.get("mode", "rate_equation")
    initial = doc.get("initial", "dark")
    try:
        config = McConfig(trials=trials, seed=seed, mode=McMode(mode), initial=InitialState(initial))
    except (ValueError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    hist = simulate_histogram(leak, eta, config)
    _emit(format_histogram_csv(hist), args.out)
    return 0


def _cmd_fit(args) -> int:
    doc = _load_config(args.config)
    _check_keys(
        doc,
        ("dark_csv", "bright_csv", "species", "scheme", "tau_d_us", "fit_background", "model_csv"),
        "fit",
    )
    if "dark_csv" not in doc:
        raise ConfigError("config key 'dark_csv' is required")
    for key in ("dark_csv", "bright_csv", "model_csv"):
        if not isinstance(doc.get(key, ""), str):
            raise ConfigError(f"config key {key!r} must be a file path, got {doc[key]!r}")
    species = _resolve_species(args, doc)
    scheme = _resolve_scheme(args, doc)
    tau_d = 1e-6 * _number(doc, "tau_d_us", required=True)
    fit_background = doc.get("fit_background", False)
    if not isinstance(fit_background, bool):
        raise ConfigError("config key 'fit_background' must be true or false")
    dark = read_histogram_csv(doc["dark_csv"])
    bright = read_histogram_csv(doc["bright_csv"]) if doc.get("bright_csv") else None
    result = fit_histograms(dark, bright, species, tau_d, fit_background=fit_background, scheme=scheme)
    # the model file first: it can still fail, and a printed result cannot be taken back
    if doc.get("model_csv"):
        rows = model_vs_data_rows(result, dark, bright, species, tau_d, scheme=scheme)
        _atomic_write(doc["model_csv"], format_model_csv(rows))
    _emit(format_fit_result(result), args.out)
    return 0


_CCD_SIM_KEYS = ("positions", "lambda0", "alpha1", "alpha2", "eta", "crosstalk_eps",
                 "thresholds", "trials", "seed", "states", "frame_width", "frame_height",
                 "ccd", "readouts_out", "report_out")


def _per_ion_numbers(doc, key: str, n_ions: int) -> list:
    values = doc.get(key)
    if not isinstance(values, list) or len(values) != n_ions:
        raise ConfigError(f"config key {key!r} must list one number per ion")
    return [_as_number(key, v) for v in values]


def _cmd_ccd_sim(args) -> int:
    doc = _load_config(args.config)
    if not doc:
        raise ConfigError("ccd-sim requires --config with the register layout")
    _check_keys(doc, _CCD_SIM_KEYS, "ccd-sim")
    for key in ("readouts_out", "report_out"):
        if not isinstance(doc.get(key, ""), str):
            raise ConfigError(f"config key {key!r} must be a file path, got {doc[key]!r}")
    readouts_out = doc.get("readouts_out") or args.out
    if not readouts_out:
        raise ConfigError("declare 'readouts_out' (or --out) for the per-trial readouts")
    positions = doc.get("positions")
    if not (isinstance(positions, list) and positions
            and all(isinstance(xy, list) and len(xy) == 2 for xy in positions)):
        raise ConfigError("config key 'positions' must be a non-empty list of [x, y] pairs")
    positions = [(_as_int("positions", x), _as_int("positions", y)) for x, y in positions]
    n_ions = len(positions)
    per_ion = (_per_ion_numbers(doc, "lambda0", n_ions) if isinstance(doc.get("lambda0"), list)
               else [_number(doc, "lambda0", required=True)] * n_ions)
    states = doc.get("states", "random")
    if isinstance(states, list):
        states = [_as_int("states", b) for b in states]
    elif not isinstance(states, str):
        raise ConfigError(f"config key 'states' must be a 0/1 string, a list of bits or 'random', got {states!r}")
    ccd_doc = doc.get("ccd", {})
    if not isinstance(ccd_doc, dict):
        raise ConfigError("config key 'ccd' must be an object")
    _check_keys(ccd_doc, CcdParams.__dataclass_fields__, "ccd-sim")
    for key, value in ccd_doc.items():
        if key != "gain_dist":
            _as_number(f"ccd.{key}", value)
    try:
        ccd = CcdParams(**ccd_doc)
        leak = LeakParams(max(per_ion), _number(doc, "alpha1", default=0.0),
                          _number(doc, "alpha2", default=0.0))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    eta = args.eta if args.eta is not None else _number(doc, "eta", default=1.0)
    batch = simulate_register_batch(
        _int_option(args, doc, "trials", required=True),
        positions,
        per_ion,
        leak,
        eta,
        ccd,
        _number(doc, "crosstalk_eps", default=0.0),
        _per_ion_numbers(doc, "thresholds", n_ions),
        _int_option(args, doc, "seed", default=0),
        states=states,
        frame_width=_int_option(args, doc, "frame_width"),
        frame_height=_int_option(args, doc, "frame_height"),
    )
    # built before the first write, so a register it rejects leaves no file
    report = conditional_correlations(batch)
    _atomic_write(readouts_out, format_readouts_csv(batch))
    _emit(report.format_csv(), doc.get("report_out"))
    return 0


def _cmd_crosstalk(args) -> int:
    doc = _load_config(args.config)
    _check_keys(doc, ("wavelength_nm", "spacing_um"), "crosstalk")
    wavelength = _number(doc, "wavelength_nm", required=True) * 1e-9
    spacing = _number(doc, "spacing_um", required=True) * 1e-6
    ratio = crosstalk_ratio(wavelength, spacing)
    _emit(("crosstalk_ratio: " + _F + "\n") % ratio, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionread",
        description="photon-count statistics and readout modeling for hyperfine ion qubits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, seed=False, trials=False, eta=True, species=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", help="output file (default: stdout)")
        if species:
            p.add_argument("--species", help="built-in species name")
            p.add_argument("--scheme", choices=["p32", "p12"], help="detection scheme")
        if eta:
            p.add_argument("--eta", type=float, help="collection efficiency")
        if seed:
            p.add_argument("--seed", type=int, help="random seed (default 0)")
        if trials:
            p.add_argument("--trials", type=int, help="number of trials")
        p.set_defaults(func=func)
        return p

    add("params", _cmd_params, "print leak parameters for a detection configuration")
    add("dist", _cmd_dist, "write the analytic dark/bright count distributions as CSV")
    add("optimize", _cmd_optimize, "optimal threshold and fidelity at one efficiency")
    add("curve", _cmd_curve, "fidelity versus efficiency table as CSV")
    add("table1", _cmd_table1, "nine-entry species/efficiency fidelity table",
        eta=False, species=False)
    add("mc", _cmd_mc, "Monte Carlo count histogram as CSV", seed=True, trials=True)
    add("fit", _cmd_fit, "maximum-likelihood fit of dark/bright histogram CSVs", eta=False)
    add("ccd-sim", _cmd_ccd_sim, "synthesize imager frames and read out a register",
        seed=True, trials=True, species=False)
    add("crosstalk", _cmd_crosstalk, "diffraction-limited neighbor crosstalk ratio",
        eta=False, species=False)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ionread: config error: {exc}", file=sys.stderr)
        return 2
    except (IonReadError, OSError) as exc:
        print(f"ionread: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("ionread: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
