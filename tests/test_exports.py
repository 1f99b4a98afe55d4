"""The package's public surface: its export list, who uses it, and the
error an unknown enum string or a malformed input raises."""

import ast
import dataclasses
import inspect
import math
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ionread
from ionread import fidelity, fitkit, mcsim

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_once():
    assert len(ionread.__all__) == len(set(ionread.__all__))
    missing = [name for name in ionread.__all__ if not hasattr(ionread, name)]
    assert missing == []


def test_lazy_exports_are_the_home_objects():
    for name in ionread.__all__:
        if name == "__version__":
            continue
        home = import_module(f"ionread.{ionread._HOME[name]}")
        obj = getattr(ionread, name)
        assert vars(home)[name] is obj, name
        # the home module defines it, not re-exports it
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_dir_lists_every_export():
    assert set(ionread.__all__) <= set(dir(ionread))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ionread import *", namespace)
    assert {name: namespace[name] for name in ionread.__all__} == {name: getattr(ionread, name) for name in ionread.__all__}


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ionread.no_such_name  # noqa: B018


def used_names() -> set:
    """Every identifier read in the package, the scripts, the benchmark and
    the acceptance tests, plus every name in a fenced README code block.
    Prose code spans do not count: naming a function is not using it."""
    paths = [*ROOT.glob("src/ionread/*.py"), *ROOT.glob("scripts/*.py"),
             *ROOT.glob("perfbench/*.py"), ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    for block in re.findall(r"^```\w*\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S):
        names.update(re.findall(r"\w+", block))
    return names


def test_every_public_name_has_a_user():
    public = set(ionread.__all__) - {"__version__"}
    for info in pkgutil.iter_modules(ionread.__path__):
        module = import_module(f"ionread.{info.name}")
        public.update(name for name, obj in vars(module).items()
                      if inspect.isfunction(obj) and obj.__module__ == module.__name__
                      and not name.startswith("_"))
    assert sorted(public - used_names()) == []


def test_no_unused_imports():
    # every name a package module imports is read in that module, unless "# noqa: F401" marks a re-export
    unused = []
    for path in sorted(ROOT.glob("src/ionread/*.py")):
        source = path.read_text(encoding="utf-8")
        lines, tree = source.splitlines(), ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])):
                continue
            unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                       if (alias.asname or alias.name).partition(".")[0] not in read]
    assert unused == []


CD = ionread.get_species("cd111")
HIST = ionread.PhotonHistogram(values=(1.0,))
LEAK = ionread.LeakParams(12.0, 1e-3, 1e-3)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ionread.branching_ratios(0.5, "bogus"), id="branching_ratios"),
    pytest.param(lambda: ionread.DetectionConfig("bogus", 0.25, 0.0, 1e-4, 1e-3), id="DetectionConfig"),
    pytest.param(lambda: ionread.optimize_detection(CD, "bogus", 1e-3), id="optimize_detection"),
    pytest.param(lambda: ionread.fidelity_curve(CD, "bogus", [1e-3]), id="fidelity_curve"),
    pytest.param(lambda: ionread.fit_histograms(HIST, HIST, CD, 1e-4, scheme="bogus"), id="fit_histograms"),
    pytest.param(lambda: ionread.McConfig(1, mode="bogus"), id="McConfig.mode"),
    pytest.param(lambda: ionread.McConfig(1, initial="bogus"), id="McConfig.initial"),
])
def test_unknown_enum_string_is_a_domain_error(call):
    with pytest.raises(ionread.DomainError, match="must be one of '.*, got 'bogus'"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ionread.snr(math.inf, ionread.CcdParams()), id="snr-inf"),
    pytest.param(lambda: ionread.snr(True, ionread.CcdParams()), id="snr-bool"),
    pytest.param(lambda: ionread.CcdParams(roi_super_pixels=True), id="CcdParams-bool-k"),
    pytest.param(lambda: ionread.CcdParams(gain_g="1"), id="CcdParams-string-gain"),
    pytest.param(lambda: ionread.crosstalk_ratio("a", 1), id="crosstalk_ratio-string"),
    pytest.param(lambda: ionread.equal_error_threshold([[1.0, 2.0]], [3.0]), id="equal_error_threshold-2d"),
    pytest.param(lambda: ionread.equal_error_threshold(["a"], [3.0]), id="equal_error_threshold-string"),
    pytest.param(lambda: ionread.equal_error_threshold([[1.0], [2.0, 3.0]], [3.0]), id="equal_error_threshold-ragged"),
    pytest.param(lambda: ionread.get_species([]), id="get_species-list"),
    pytest.param(lambda: ionread.histogram_cutoff("a"), id="histogram_cutoff-string"),
    pytest.param(lambda: ionread.DetectionConfig("p32", "1", 0, 1e-4, 1e-3), id="DetectionConfig-string-s"),
    pytest.param(lambda: ionread.DetectionConfig("p32", 0.25, 0, 1e-4, "1"), id="DetectionConfig-string-eta"),
    pytest.param(lambda: ionread.pmf_arrays(LEAK, "a"), id="pmf_arrays-string-eta"),
    pytest.param(lambda: ionread.p_dark(1, LEAK, "a"), id="p_dark-string-eta"),
    pytest.param(lambda: ionread.best_threshold(LEAK, "a"), id="best_threshold-string-eta"),
    pytest.param(lambda: ionread.simulate_histogram(LEAK, "a", ionread.McConfig(10)), id="simulate_histogram-string-eta"),
    pytest.param(lambda: ionread.PhotonHistogram(values=("a",)), id="PhotonHistogram-string-bin"),
    pytest.param(lambda: ionread.PhotonHistogram((1.0,), trials="3"), id="PhotonHistogram-string-trials"),
    pytest.param(lambda: ionread.detection_params(CD, "x"), id="detection_params-string-config"),
    pytest.param(lambda: ionread.approx_fidelity(1, "a"), id="approx_fidelity-string-alpha1"),
    pytest.param(lambda: ionread.max_clock_fidelity("a", 1), id="max_clock_fidelity-string-gamma"),
    pytest.param(lambda: ionread.max_clock_fidelity(1, "a"), id="max_clock_fidelity-string-omega"),
    pytest.param(lambda: ionread.fidelity_curve(CD, "p32", ["a"]), id="fidelity_curve-string-eta"),
    pytest.param(lambda: ionread.fit_histograms(HIST, None, CD, "a"), id="fit_histograms-string-tau_d"),
    pytest.param(lambda: ionread.histogram_cutoff(10**400), id="histogram_cutoff-huge-int"),
    pytest.param(lambda: ionread.LeakParams(10**400, 0, 0), id="LeakParams-huge-int"),
    pytest.param(lambda: ionread.snr(10**400, ionread.CcdParams()), id="snr-huge-int"),
    pytest.param(lambda: ionread.optimize_detection(CD, "p32", True), id="optimize_detection-bool-eta"),
    pytest.param(lambda: ionread.IonSpecies("x", 0.5, omega_hfs=True), id="IonSpecies-bool-omega_hfs"),
    pytest.param(lambda: ionread.IonSpecies("x", 0.5, omega_hfs=math.inf), id="IonSpecies-inf-omega_hfs"),
    pytest.param(lambda: ionread.DetectionConfig("p32", math.inf, 0, 1e-4, 0.5), id="DetectionConfig-inf-s"),
    pytest.param(lambda: ionread.DetectionConfig("p32", 0.25, 0, math.inf, 0.5), id="DetectionConfig-inf-tau_d"),
    pytest.param(lambda: ionread.approx_fidelity(True, 1e-4), id="approx_fidelity-bool-eta"),
    pytest.param(lambda: ionread.max_clock_fidelity(1, math.inf), id="max_clock_fidelity-inf-omega"),
    pytest.param(lambda: ionread.max_clock_fidelity(1e200, 1e-200), id="max_clock_fidelity-overflow"),
    pytest.param(lambda: ionread.PhotonHistogram((1e308, 1e308)), id="PhotonHistogram-sum-overflow"),
    pytest.param(lambda: ionread.PhotonHistogram((1.0,), trials=10**400), id="PhotonHistogram-huge-trials"),
    pytest.param(lambda: ionread.detection_params(ionread.IonSpecies("x", 0.5, 1e10, gamma_p32=1e200, omega_hfp32=1e-200),
                                                  ionread.DetectionConfig("p32", 0.25, 0, 1e-4, 0.5)),
                 id="detection_params-overflow"),
    pytest.param(lambda: ionread.fit_histograms(HIST, None, ionread.IonSpecies("x", 0.5, 1e308, gamma_p32=1e308,
                                                                               omega_hfp32=1e-300), 1e-4),
                 id="fit_histograms-leak-underflow"),
    pytest.param(lambda: ionread.simulate_register_batch(100, [(3, 3), (10, 3)], [12.0] * 2, LEAK, 1.0,
                                                         ionread.CcdParams(), 0.0, [10**400, 1.0], 1),
                 id="simulate_register_batch-huge-threshold"),
    pytest.param(lambda: ionread.simulate_register_batch(100, [(3, 3), (10, 3)], [12.0] * 2, LEAK, 1.0,
                                                         ionread.CcdParams(offset=1e308), 0.0, [1.0, 1.0], 1),
                 id="simulate_register_batch-sums-overflow"),
    pytest.param(lambda: ionread.p_dark(10**400, LEAK, 1.0), id="p_dark-huge-n"),
    pytest.param(lambda: ionread.simulate_histogram(ionread.LeakParams(12.0, 0.0, 2.0), 1.0,
                                                    ionread.McConfig(100, 1, "photon_level", "bright")),
                 id="simulate_histogram-photon-alpha2-above-1"),
    pytest.param(lambda: ionread.simulate_histogram(ionread.LeakParams(12.0, 0.0, 0.0), 1e-18,
                                                    ionread.McConfig(100, 1, "photon_level")),
                 id="simulate_histogram-photon-slots-overflow"),
    pytest.param(lambda: ionread.pmf_arrays(ionread.LeakParams(12.0, 0.0, 0.05), 5e-324), id="pmf_arrays-a2-overflow"),
])
def test_malformed_input_is_a_domain_error(call):
    with pytest.raises(ionread.DomainError):
        call()


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: ionread.IonSpecies.from_frequencies("x", 0.5, omega_hfs_ghz=1e300), "omega_hfs_ghz",
                 id="from_frequencies-overflow"),
    pytest.param(lambda: ionread.IonSpecies.from_frequencies("x", 0.5, omega_hfs_ghz=14.5, gamma_p32_mhz=True),
                 "gamma_p32_mhz", id="from_frequencies-bool"),
    pytest.param(lambda: ionread.optimize_detection(
        ionread.IonSpecies("x", 0.5, 1e10, gamma_p32=math.inf, omega_hfp32=5e9), "p32", 0.5), "gamma_p32",
                 id="optimize_detection-inf-gamma_p32"),
])
def test_malformed_species_value_is_named(call, named):
    with pytest.raises(ionread.DomainError, match=named):
        call()


# The numeric-input contract, as a fuzz over the public surface: each
# call returns a result whose every float is finite, or raises an
# IonReadError. Each argument mixes valid values with the malformed ones
# below; read_histogram_csv may also raise FileNotFoundError, an I/O
# error that the CLI maps to exit 1.
MALFORMED = [math.nan, math.inf, -math.inf, 1e308, 10**400, 5e-324, -0.0, True, "1", None, [],
             np.ones((2, 2))]


def arg(*valid):
    return st.sampled_from(valid) | st.sampled_from(MALFORMED)


def items(*valid, size=(0, 3)):
    """A list of valid and malformed items, or a malformed value in place of the list."""
    return st.lists(arg(*valid), min_size=size[0], max_size=size[1]) | st.sampled_from(MALFORMED)


def finite_floats(obj) -> bool:
    """Whether every float inside obj (containers, arrays, records) is finite;
    a CorrelationReport marks its undefined entries NaN, and flags them."""
    if isinstance(obj, ionread.CorrelationReport):
        defined = [(i, j) for i, row in enumerate(obj.defined) for j, ok in enumerate(row) if ok]
        return finite_floats(obj.marginals) and all(
            math.isfinite(table[i][j]) for table in (obj.cond_probs, obj.deviation, obj.stderr) for i, j in defined)
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind != "f" or bool(np.isfinite(obj).all())
    if isinstance(obj, dict):
        return all(map(finite_floats, obj.values()))
    if isinstance(obj, (list, tuple)):
        return all(map(finite_floats, obj))
    if dataclasses.is_dataclass(obj):
        return all(finite_floats(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return True


YB = ionread.get_species("yb171")
P32 = ionread.DetectionConfig("p32", 0.25, 0.0, 150e-6, 1.4e-3, 7.5e-4, 7.5e-4)
FIT_LEAK = ionread.detection_params(CD, P32)
DARK = ionread.simulate_histogram(FIT_LEAK, 1.4e-3, ionread.McConfig(2000, 1))
BRIGHT = ionread.simulate_histogram(FIT_LEAK, 1.4e-3, ionread.McConfig(2000, 2, initial="bright"))
FIT = ionread.FitResult(1.4e-3, 0.25, 1.5e-3, None, 100.0, True, 3)
POS3 = [(3, 3), (10, 3), (17, 3)]
BATCH = ionread.simulate_register_batch(100, POS3, [12.0] * 3, LEAK, 1.0, ionread.CcdParams(), 0.0,
                                        [600.0] * 3, 1)

ETA = arg(1e-3, 0.5, 1.0)
LAMBDA0 = arg(0.0, 12.0, 300.0)
ALPHA = arg(0.0, 1e-6, 1e-3, 0.05)
LEAKS = arg(LEAK, ionread.LeakParams(0.0, 0.0, 0.0), ionread.LeakParams(5e-324, 0.05, 0.0),
            ionread.LeakParams(300.0, 0.0, 0.05), ionread.LeakParams(1e308, 1e-3, 0.0),
            ionread.LeakParams(12.0, 0.0, 1e308), ionread.LeakParams(12.0, 0.0, 0.0))
SPECIES = arg(CD, YB, ionread.IonSpecies("extreme", 0.5, 1e308, gamma_p32=1e308, omega_hfp32=1e-300,
                                          gamma_p12=1e308, omega_hfp12=1e308))
SCHEME = arg("p32", "p12")
HISTOGRAMS = arg(DARK, BRIGHT)
CCD = arg(ionread.CcdParams(), ionread.CcdParams(roi_super_pixels=9, gain_dist="fixed"),
          ionread.CcdParams(readout_rms_r=1e308))

# name: (callable, strategies of its keyword arguments, examples)
CALLS = {
    "branching_ratios": (ionread.branching_ratios, dict(nuclear_spin=arg(0.5, 1.5, 0), scheme=SCHEME), 30),
    "DetectionConfig": (ionread.DetectionConfig, dict(
        scheme=SCHEME, s=arg(0.0, 0.25), delta=arg(0.0, -1e7), tau_d=arg(150e-6), eta=ETA,
        p_pi=arg(0.0, 0.4), p_minus=arg(0.0, 0.4)), 60),
    "IonSpecies": (ionread.IonSpecies, dict(
        name=arg("x"), nuclear_spin=arg(0.5, 1.5), omega_hfs=arg(1e10), gamma_p32=arg(3.7e8),
        omega_hfp32=arg(5e9), wavelength_p32_nm=arg(214.5), gamma_p12=arg(3.1e8)), 60),
    "IonSpecies.from_frequencies": (ionread.IonSpecies.from_frequencies, dict(
        name=arg("x"), nuclear_spin=arg(0.5), omega_hfs_ghz=arg(14.5), gamma_p32_mhz=arg(60.0),
        omega_hfp32_ghz=arg(0.8), gamma_p12_mhz=arg(50.0), omega_hfp12_ghz=arg(2.0)), 60),
    "LeakParams": (ionread.LeakParams, dict(lambda0=LAMBDA0, alpha1=ALPHA, alpha2=ALPHA), 40),
    "PhotonHistogram": (ionread.PhotonHistogram, dict(
        values=items(0, 3, 7.5), trials=arg(None, 10), meta=arg({}, {"seed": 1})), 60),
    "detection_params": (ionread.detection_params, dict(species=SPECIES, config=arg(P32)), 20),
    "get_species": (ionread.get_species, dict(name=arg("cd111", "xe999")), 20),
    "histogram_cutoff": (ionread.histogram_cutoff, dict(lambda0=LAMBDA0), 20),
    "p_dark": (ionread.p_dark, dict(n=arg(0, 5, 10**6), params=LEAKS, eta=ETA), 40),
    "p_bright": (ionread.p_bright, dict(n=arg(0, 5, 10**6), params=LEAKS, eta=ETA), 40),
    "pmf_arrays": (ionread.pmf_arrays, dict(params=LEAKS, eta=ETA, n_max=arg(None, 0, 50)), 40),
    "approx_fidelity": (ionread.approx_fidelity, dict(eta=arg(1e-3, 0.5), alpha1=arg(1e-6, 1e-4)), 30),
    "best_threshold": (ionread.best_threshold, dict(params=LEAKS, eta=ETA), 40),
    "fidelity_curve": (ionread.fidelity_curve, dict(
        species=SPECIES, scheme=SCHEME, eta_grid=items(1e-3, 0.3, size=(0, 2))), 20),
    "max_clock_fidelity": (ionread.max_clock_fidelity, dict(gamma=arg(3.7e8), omega_hfp=arg(5e9)), 30),
    "optimize_detection": (ionread.optimize_detection, dict(species=SPECIES, scheme=SCHEME, eta=ETA), 20),
    "fit_histograms": (ionread.fit_histograms, dict(
        dark_hist=HISTOGRAMS, bright_hist=HISTOGRAMS, species=SPECIES, tau_d=arg(150e-6),
        fit_background=arg(False), scheme=SCHEME), 15),
    "model_distributions": (ionread.model_distributions, dict(
        species=SPECIES, tau_d=arg(150e-6), eta=ETA, s=arg(0.25), p_impure=arg(0.0, 1.5e-3),
        lambda_bg=arg(None, 0.2), n_top=arg(None, 30), scheme=SCHEME), 40),
    "McConfig": (ionread.McConfig, dict(
        trials=arg(1, 100), seed=arg(0, 2**64 - 1), mode=arg("photon_level"), initial=arg("bright")), 40),
    "read_histogram_csv": (ionread.read_histogram_csv, dict(path=arg("hist.csv", "missing.csv")), 20),
    "simulate_histogram": (ionread.simulate_histogram, dict(
        params=LEAKS, eta=ETA, config=arg(ionread.McConfig(100, 3), ionread.McConfig(100, 1, "photon_level"),
                                          ionread.McConfig(100, 2, "photon_level", "bright"))), 40),
    "conditional_correlations": (ionread.conditional_correlations, dict(batch=arg(BATCH)), 15),
    "equal_error_threshold": (ionread.equal_error_threshold, dict(
        dark_sums=items(1.0, 2.0, size=(1, 3)), bright_sums=items(5.0, size=(1, 3))), 30),
    "simulate_register_batch": (ionread.simulate_register_batch, dict(
        trials=arg(1, 20), positions=arg(POS3, [(3.5, 3), (10, 3), (17, 3)]) | items((3, 3), (10, 3), size=(3, 3)),
        per_ion_lambda0=items(12.0, 300.0, size=(3, 3)),
        leak=LEAKS, eta=ETA, ccd=CCD, crosstalk_eps=arg(0.0, 0.016), thresholds=items(600.0, size=(3, 3)),
        seed=arg(0, 7), states=arg("random", "101", [1, 0, 1])), 40),
    "CcdParams": (ionread.CcdParams, dict(
        gain_g=arg(100.0), readout_rms_r=arg(0.0, 2.0), roi_super_pixels=arg(49, 9), offset=arg(20.0),
        counts_per_photon=arg(100.0), psf_sigma=arg(1.0), gain_dist=arg("exponential", "fixed")), 40),
    "crosstalk_ratio": (ionread.crosstalk_ratio, dict(wavelength=arg(214.5e-9), spacing=arg(4e-6)), 30),
    "snr": (ionread.snr, dict(lambda0=LAMBDA0, params=CCD), 30),
    "format_curve_csv": (fidelity.format_curve_csv, dict(
        rows=arg(ionread.fidelity_curve(CD, "p32", [1e-3]), [])), 10),
    "format_histogram_csv": (mcsim.format_histogram_csv, dict(hist=HISTOGRAMS), 10),
    "format_fit_result": (fitkit.format_fit_result, dict(result=arg(FIT)), 10),
    "format_model_csv": (fitkit.format_model_csv, dict(
        result=arg(FIT), dark_hist=HISTOGRAMS, bright_hist=HISTOGRAMS, species=SPECIES,
        tau_d=arg(150e-6), scheme=SCHEME), 30),
}
# Records the library returns take no input it checks, and an enum
# called with an unknown value raises ValueError by Python's enum
# protocol; the library reads enum inputs through errors._enum.
NOT_CALLED = {"ApproxFidelity", "BranchingRatios", "CorrelationReport", "DiscriminationResult",
              "FitResult", "RegisterBatch", "Scheme", "McMode", "InitialState",
              "ConfigError", "DomainError", "IonReadError", "BUILTIN_SPECIES", "__version__"}


def outside_safe_bounds(kwargs) -> bool:
    """A call that tabulates pmfs where the kernel is not yet bounded (ROADMAP
    item 2): alpha1 > 0 with alpha2/eta >= 1e6 or (1 + alpha2/eta)*lambda0 > 2e6.
    No strategy reaches item 17's register bound, lambda0 >= 1e5."""
    leak, eta = kwargs.get("params", kwargs.get("leak")), kwargs.get("eta")
    if not (isinstance(leak, ionread.LeakParams) and isinstance(eta, float) and 0 < eta <= 1):
        return False
    a2 = leak.alpha2 / eta
    return leak.alpha1 > 0 and (a2 >= 1e6 or (1.0 + a2) * leak.lambda0 > 2e6)


def test_fuzz_table_covers_the_public_callables():
    public = {name for name in ionread.__all__ if name not in NOT_CALLED}
    assert public <= set(CALLS) and not NOT_CALLED & set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_public_call_returns_finite_floats_or_raises_ionread_error(name, tmp_path, monkeypatch):
    func, strategies, examples = CALLS[name]
    monkeypatch.chdir(tmp_path)  # the file read_histogram_csv reads, and no other
    (tmp_path / "hist.csv").write_text("# trials=100\nn,count\n0,60\n1,40\n")

    @settings(max_examples=examples, deadline=None)
    @given(st.fixed_dictionaries(strategies))
    def call(kwargs):
        assume(not outside_safe_bounds(kwargs))
        try:
            result = func(**kwargs)
        except ionread.IonReadError:
            return
        except FileNotFoundError:
            assert func is ionread.read_histogram_csv
            return
        assert finite_floats(result), result

    call()
