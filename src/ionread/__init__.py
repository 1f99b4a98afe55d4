"""Models of state-dependent fluorescence readout of hyperfine ion qubits."""

from .angular import BranchingRatios, Scheme, branching_ratios
from .ccd import (
    CcdParams,
    CorrelationReport,
    RegisterBatch,
    Roi,
    conditional_correlations,
    crosstalk_ratio,
    default_rois,
    equal_error_threshold,
    simulate_register_batch,
    snr,
)
from .detmodel import (
    BUILTIN_SPECIES,
    DetectionConfig,
    IonSpecies,
    LeakParams,
    PhotonHistogram,
    detection_params,
    get_species,
    histogram_cutoff,
    p_bright,
    p_dark,
    pmf_arrays,
)
from .errors import ConfigError, DomainError, IonReadError
from .fidelity import (
    ApproxFidelity,
    DiscriminationResult,
    approx_fidelity,
    best_threshold,
    fidelity_curve,
    max_clock_fidelity,
    optimize_detection,
)
from .fitkit import FitResult, fit_histograms, model_distributions
from .mcsim import (
    InitialState,
    McConfig,
    McMode,
    read_histogram_csv,
    simulate_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxFidelity",
    "BUILTIN_SPECIES",
    "BranchingRatios",
    "CcdParams",
    "ConfigError",
    "CorrelationReport",
    "DetectionConfig",
    "DiscriminationResult",
    "DomainError",
    "FitResult",
    "InitialState",
    "IonReadError",
    "IonSpecies",
    "LeakParams",
    "McConfig",
    "McMode",
    "PhotonHistogram",
    "RegisterBatch",
    "Roi",
    "Scheme",
    "approx_fidelity",
    "best_threshold",
    "branching_ratios",
    "conditional_correlations",
    "crosstalk_ratio",
    "default_rois",
    "detection_params",
    "equal_error_threshold",
    "fidelity_curve",
    "fit_histograms",
    "get_species",
    "histogram_cutoff",
    "max_clock_fidelity",
    "model_distributions",
    "optimize_detection",
    "p_bright",
    "p_dark",
    "pmf_arrays",
    "read_histogram_csv",
    "simulate_histogram",
    "simulate_register_batch",
    "snr",
    "__version__",
]
