"""Batch command surface wiring the library together.

Nine subcommands cover the analytic distributions (params, dist), the
fidelity study (optimize, curve, table1), the Monte Carlo oracle (mc),
histogram fitting (fit), and the imager model (ccd-sim, crosstalk).
Inputs arrive as flags plus an optional JSON config document, checked
against one key table per subcommand; the flags and the --help key
listing come from the same table. Keys carry units in their names
(tau_d_us, delta_mhz, wavelength_nm) and are converted to SI by that
suffix; every unknown key is rejected by name. Exit codes: 0 success, 2
validation error, 1 runtime error. Output files are written atomically.

A subcommand's handler imports the modules that run it, so ``params``,
``crosstalk``, every ``--help`` and every config error load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Callable, NamedTuple

from ._text import _record, _table
from .angular import Scheme
from .detmodel import (
    MAX_BINS,
    DetectionConfig,
    LeakParams,
    _leak_fractions,
    detection_params,
    get_species,
    histogram_cutoff,
    pmf_arrays,
    species_from_dict,
)
from .errors import ConfigError, DomainError, IonReadError, _is_integer, _is_real
from .settings import CcdParams, InitialState, McMode, crosstalk_ratio


def _emit(text, out_path) -> None:
    """Write text, a str or an iterable of str chunks, to stdout or to the file out_path,
    which appears only if every chunk arrives."""
    chunks = [text] if isinstance(text, str) else text
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)), prefix=".ionread-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


# Value parsers: each returns the parsed value, raises TypeError or
# ValueError for a wrong shape, which its docstring names in messages and
# --help, or passes on the library's DomainError. Ranges are the library's.


def _parser(doc: str, accepts=None, convert=None):
    """The parser named doc: the value, or convert(value), if accepts(value)."""
    def parse(value):
        if accepts and not accepts(value):
            raise TypeError
        return convert(value) if convert else value

    parse.__doc__ = doc
    return parse


_real = _parser("a number", _is_real, float)
_integer = _parser("an integer", _is_integer)
_boolean = _parser("true or false", lambda v: isinstance(v, bool))
_text = _parser("a string", lambda v: isinstance(v, str))
_path = _parser("a file path", lambda v: isinstance(v, str))
_numbers = _parser("a non-empty list of numbers", lambda v: isinstance(v, list) and len(v) > 0,
                   lambda v: [_real(x) for x in v])
_per_ion = _parser("a number or a list of one number per ion",
                   convert=lambda v: _numbers(v) if isinstance(v, list) else _real(v))
_positions = _parser("a non-empty list of [x, y] pairs",
                     lambda v: isinstance(v, list) and len(v) > 0
                     and all(isinstance(xy, list) and len(xy) == 2 for xy in v),
                     lambda v: [(_integer(x), _integer(y)) for x, y in v])
_states = _parser("a 0/1 string, a list of bits or 'random'", lambda v: isinstance(v, (str, list)),
                  lambda v: v if isinstance(v, str) else [_integer(b) for b in v])


def _choice(enum):
    return _parser(" or ".join(member.value for member in enum), convert=lambda v: enum(str(v).lower()))


def _species(value):
    """a built-in species name or a definition object"""
    if isinstance(value, dict):
        return species_from_dict(value.get("name", "inline"),
                                 {k: v for k, v in value.items() if k != "name"})
    return get_species(_text(value))


REQUIRED = object()


class Key(NamedTuple):
    """A config key: its value parser, its default (None: left out when
    absent) and, for a key that sizes count tables, the top count a value
    needs, checked against MAX_BINS."""

    type: Callable
    default: object = None
    bins: Callable | None = None


# Units by key-name suffix, to SI (angular frequency for _mhz)
_UNITS = {"_us": 1e-6, "_mhz": 2.0 * math.pi * 1e6, "_nm": 1e-9, "_um": 1e-6}


def _parse(doc: dict, table: dict, where: str, prefix: str = "") -> dict:
    """The typed values of doc's keys in SI units, with the table's defaults filled in."""
    for key in doc:
        if key not in table:
            raise ConfigError(f"unknown config key {key!r} {where}")
    values = {}
    for key, spec in table.items():
        name, raw = prefix + key, doc.get(key, spec.default)
        if raw is REQUIRED:
            flag = f" (or pass --{key})" if key in _FLAGS else ""
            raise ConfigError(f"config key {name!r} is required{flag}")
        if raw is None and key not in doc:
            continue
        try:
            value = spec.type(raw)
        except ConfigError:
            raise
        except DomainError as exc:  # the library's constructor rejected the value
            raise ConfigError(f"config key {name!r}: {exc}") from exc
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config key {name!r} must be {spec.type.__doc__}, got {raw!r}") from None
        scale = _UNITS.get(key[key.rfind("_"):])
        if scale:
            value = scale * value
        # a value outside the model's domain is left to the library to report
        if spec.bins and any(0 < v < math.inf and spec.bins(v) > MAX_BINS
                             for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"config key {name!r} = {raw!r} needs counts above the cap of {MAX_BINS}")
        values[key] = value
    return values


def _pick_table(doc: dict, tables: list) -> dict:
    """The table of the one style whose own keys doc uses, else the last."""
    own = [[k for k in doc if k in table and sum(k in t for t in tables) == 1] for table in tables]
    used = [keys[0] for keys in own if keys]
    if len(used) > 1:
        raise ConfigError(f"config keys {used[0]!r} and {used[1]!r} cannot be combined")
    return next((table for table, keys in zip(tables, own) if keys), tables[-1])


def _config(args) -> dict:
    """The subcommand's config document and flags, parsed against its table."""
    doc = _load_config(args.config)
    table = _pick_table(doc, args.tables)
    flags = {key: getattr(args, key) for key in _FLAGS
             if getattr(args, key, None) is not None and key in table}
    return _parse({**doc, **flags}, table, f"for command {args.command!r}")


def _leak(cfg: dict) -> LeakParams:
    """Leak parameters given directly or by a species and detection settings."""
    if "lambda0" in cfg:
        return LeakParams(cfg["lambda0"], cfg["alpha1"], cfg["alpha2"])
    config = DetectionConfig(cfg["scheme"], cfg["s"], cfg["delta_mhz"], cfg["tau_d_us"],
                             cfg["eta"], cfg["p_pi"], cfg["p_minus"])
    return detection_params(cfg["species"], config)


def _cmd_params(args, cfg) -> int:
    leak, eta = _leak(cfg), cfg["eta"]
    _leak_fractions(leak, eta)  # the model's domain, as dist and mc apply it
    _emit(_record(dict(lambda0=leak.lambda0, alpha1=leak.alpha1, alpha2=leak.alpha2, eta=eta)), args.out)
    return 0


def _cmd_dist(args, cfg) -> int:
    import numpy as np

    dark, bright = pmf_arrays(_leak(cfg), cfg["eta"], cfg.get("n_max"))
    _emit(_table("n,p_dark,p_bright", [np.arange(len(dark)), dark, bright]), args.out)
    return 0


def _cmd_optimize(args, cfg) -> int:
    from .fidelity import optimize_detection

    res = optimize_detection(cfg["species"], cfg["scheme"], cfg["eta"])
    _emit(_record(dict(d=res.d, lambda0_opt=res.lambda0_opt, fidelity=res.fidelity,
                       dark_fidelity=res.dark_fidelity, bright_fidelity=res.bright_fidelity)), args.out)
    return 0


def _cmd_curve(args, cfg) -> int:
    from .fidelity import fidelity_curve, format_curve_csv

    rows = fidelity_curve(cfg["species"], cfg["scheme"], cfg["eta_grid"])
    _emit(format_curve_csv(rows), args.out)
    return 0


_TABLE1_CASES = [(name, eta) for name in ("cd111", "yb171", "hg199") for eta in (0.001, 0.01, 0.3)]


def _cmd_table1(args, cfg) -> int:
    from .fidelity import optimize_detection

    results = [optimize_detection(get_species(name), Scheme.P12, eta) for name, eta in _TABLE1_CASES]
    _emit(_table("species,eta,fidelity_percent,lambda0_opt,d_opt", [
        *zip(*_TABLE1_CASES), [100.0 * r.fidelity for r in results], [r.lambda0_opt for r in results],
        [r.d for r in results]]), args.out)
    return 0


def _cmd_mc(args, cfg) -> int:
    from .mcsim import McConfig, format_histogram_csv, simulate_histogram

    config = McConfig(cfg["trials"], cfg["seed"], cfg["mode"], cfg["initial"])
    hist = simulate_histogram(_leak(cfg), cfg["eta"], config)
    _emit(format_histogram_csv(hist), args.out)
    return 0


def _cmd_fit(args, cfg) -> int:
    from .fitkit import fit_histograms, format_fit_result, format_model_csv
    from .mcsim import read_histogram_csv

    species, scheme, tau_d = cfg["species"], cfg["scheme"], cfg["tau_d_us"]
    dark = read_histogram_csv(cfg["dark_csv"])
    bright = read_histogram_csv(cfg["bright_csv"]) if cfg.get("bright_csv") else None
    result = fit_histograms(dark, bright, species, tau_d, fit_background=cfg["fit_background"], scheme=scheme)
    # the model file first: it can still fail, and a printed result cannot be taken back
    if cfg.get("model_csv"):
        _emit(format_model_csv(result, dark, bright, species, tau_d, scheme), cfg["model_csv"])
    _emit(format_fit_result(result), args.out)
    return 0


def _cmd_ccd_sim(args, cfg) -> int:
    from .ccd import _check_report, _readout_chunks, conditional_correlations, simulate_register_batch

    readouts_out = cfg.get("readouts_out") or args.out
    if not readouts_out:
        raise ConfigError("declare 'readouts_out' (or --out) for the per-trial readouts")
    lambda0 = cfg["lambda0"]
    per_ion = lambda0 if isinstance(lambda0, list) else [lambda0] * len(cfg["positions"])
    leak = LeakParams(max(per_ion), cfg["alpha1"], cfg["alpha2"])
    _check_report(cfg["trials"], len(cfg["positions"]))  # before sampling, not after
    batch = simulate_register_batch(
        cfg["trials"], cfg["positions"], per_ion, leak, cfg["eta"], cfg["ccd"], cfg["crosstalk_eps"],
        cfg["thresholds"], cfg["seed"], states=cfg["states"])
    # built before the first write, so a register it rejects leaves no file
    report = conditional_correlations(batch)
    _emit(_readout_chunks(batch), readouts_out)
    _emit(report.format_csv(), cfg.get("report_out"))
    return 0


def _cmd_crosstalk(args, cfg) -> int:
    ratio = crosstalk_ratio(cfg["wavelength_nm"], cfg["spacing_um"])
    _emit(_record(dict(crosstalk_ratio=ratio)), args.out)
    return 0


# Config keys that a flag of the same name also sets, the flag winning
_FLAGS = {
    "species": dict(help="built-in species name"),
    "scheme": dict(choices=["p32", "p12"], help="detection scheme"),
    "eta": dict(type=float, help="collection efficiency"),
    "seed": dict(type=int, help="random seed (default 0)"),
    "trials": dict(type=int, help="number of trials"),
}

_SPECIES = Key(_species, REQUIRED)
_SCHEME = Key(_choice(Scheme), "p32")
_ETA = Key(_real, REQUIRED)
_DIRECT_STYLE = {"lambda0": Key(_real, REQUIRED, histogram_cutoff), "alpha1": Key(_real, 0.0),
                 "alpha2": Key(_real, 0.0)}
_SPECIES_STYLE = {"species": _SPECIES, "scheme": _SCHEME, "s": Key(_real, REQUIRED),
                  "delta_mhz": Key(_real, 0.0), "tau_d_us": Key(_real, REQUIRED),
                  "p_pi": Key(_real, 0.0), "p_minus": Key(_real, 0.0)}


def _leak_tables(**keys) -> list:
    """A leak command's two styles: lambda0 and the alphas, or a species and detection settings."""
    return [{**style, "eta": _ETA, **keys} for style in (_DIRECT_STYLE, _SPECIES_STYLE)]


# gain_g enters only the SNR law, which ccd-sim does not report, so it is no key
_CCD_KEYS = {name: Key({"float": _real, "int": _integer, "str": _text}[f.type])
             for name, f in CcdParams.__dataclass_fields__.items() if name != "gain_g"}
_CCD = _parser("an object with keys " + ", ".join(_CCD_KEYS), lambda v: isinstance(v, dict),
               lambda v: CcdParams(**_parse(v, _CCD_KEYS, "in 'ccd'", prefix="ccd.")))

# name: (function, help, the tables of its config styles)
_COMMANDS = {
    "params": (_cmd_params, "print leak parameters for a detection configuration", _leak_tables()),
    "dist": (_cmd_dist, "write the analytic dark/bright count distributions as CSV",
             _leak_tables(n_max=Key(_integer, None, int))),
    "optimize": (_cmd_optimize, "optimal threshold and fidelity at one efficiency",
                 [{"species": _SPECIES, "scheme": _SCHEME, "eta": _ETA}]),
    "curve": (_cmd_curve, "fidelity versus efficiency table as CSV",
              [{"species": _SPECIES, "scheme": _SCHEME,
                "eta_grid": Key(_numbers, [1e-3, 1e-2, 0.1, 0.3])}]),
    "table1": (_cmd_table1, "nine-entry species/efficiency fidelity table", [{}]),
    "mc": (_cmd_mc, "Monte Carlo count histogram as CSV",
           _leak_tables(trials=Key(_integer, REQUIRED), seed=Key(_integer, 0),
                        mode=Key(_choice(McMode), "rate_equation"),
                        initial=Key(_choice(InitialState), "dark"))),
    "fit": (_cmd_fit, "maximum-likelihood fit of dark/bright histogram CSVs",
            [{"dark_csv": Key(_path, REQUIRED), "bright_csv": Key(_path), "species": _SPECIES,
              "scheme": _SCHEME, "tau_d_us": Key(_real, REQUIRED),
              "fit_background": Key(_boolean, False), "model_csv": Key(_path)}]),
    "ccd-sim": (_cmd_ccd_sim, "synthesize imager frames and read out a register",
                [{"positions": Key(_positions, REQUIRED),
                  "lambda0": Key(_per_ion, REQUIRED, histogram_cutoff),
                  "alpha1": Key(_real, 0.0), "alpha2": Key(_real, 0.0), "eta": Key(_real, 1.0),
                  "crosstalk_eps": Key(_real, 0.0), "thresholds": Key(_numbers, REQUIRED),
                  "trials": Key(_integer, REQUIRED), "seed": Key(_integer, 0),
                  "states": Key(_states, "random"), "ccd": Key(_CCD, {}),
                  "readouts_out": Key(_path), "report_out": Key(_path)}]),
    "crosstalk": (_cmd_crosstalk, "diffraction-limited neighbor crosstalk ratio",
                  [{"wavelength_nm": Key(_real, REQUIRED), "spacing_um": Key(_real, REQUIRED)}]),
}


def _key_listing(tables: list) -> str:
    """The --help listing of a subcommand's config keys, one table per style."""
    lines = []
    for i, table in enumerate(tables):
        lines.append(f"config keys, style {i + 1} of {len(tables)}:" if len(tables) > 1 else "config keys:")
        for key, spec in table.items():
            default = ("required" if spec.default is REQUIRED else "optional" if spec.default is None
                       else "default " + json.dumps(spec.default))
            cap = f"; counts capped at {MAX_BINS}" if spec.bins else ""
            lines.append(f"  {key:<15} {spec.type.__doc__}; {default}{cap}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(  # one usage line: argparse wraps a long one differently by Python version
        prog="ionread", usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
        description="photon-count statistics and readout modeling for hyperfine ion qubits",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="ionread")  # not the usage line above
    for name, (func, help_text, tables) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=_key_listing(tables),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", help="output file (default: stdout)")
        for key, kwargs in _FLAGS.items():
            if any(key in table for table in tables):
                p.add_argument("--" + key, **kwargs)
        p.set_defaults(func=func, tables=tables)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, _config(args))
    except ConfigError as exc:
        print(f"ionread: config error: {exc}", file=sys.stderr)
        return 2
    except (IonReadError, OSError) as exc:
        print(f"ionread: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("ionread: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"ionread: {args.command} needs numpy, which is not installed", file=sys.stderr)
        return 1


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
