"""Models of state-dependent fluorescence readout of hyperfine ion qubits.

Every public name is imported from its home module on first access
(PEP 562), so ``import ionread`` loads no numpy and a process loads only
the modules it uses. ``from ionread import X`` and ``ionread.X`` work as
for any attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module: the public names it defines
_EXPORTS = {
    "angular": ("BranchingRatios", "Scheme", "branching_ratios"),
    "ccd": ("CorrelationReport", "RegisterBatch", "conditional_correlations", "equal_error_threshold",
            "simulate_register_batch"),
    "detmodel": ("BUILTIN_SPECIES", "DetectionConfig", "IonSpecies", "LeakParams", "PhotonHistogram",
                 "detection_params", "get_species", "histogram_cutoff", "p_bright", "p_dark", "pmf_arrays"),
    "errors": ("ConfigError", "DomainError", "IonReadError"),
    "fidelity": ("ApproxFidelity", "DiscriminationResult", "approx_fidelity", "best_threshold",
                 "fidelity_curve", "max_clock_fidelity", "optimize_detection"),
    "fitkit": ("FitResult", "fit_histograms", "model_distributions"),
    "mcsim": ("McConfig", "read_histogram_csv", "simulate_histogram"),
    "settings": ("CcdParams", "InitialState", "McMode", "crosstalk_ratio", "snr"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules reachable as attributes, as when this module imported them all eagerly
_SUBMODULES = frozenset(_EXPORTS) | {"specfun"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
