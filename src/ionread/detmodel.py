"""Leak parameters and exact photon-count distributions for qubit readout.

The model: a hyperfine qubit is read out by driving a cycling transition
from the upper ground level ("bright" state) while the lower ground level
("dark" state) sits a hyperfine splitting away from resonance. Two small
leak processes limit the fidelity. A dark ion can be pumped into the
bright manifold through off-resonant excitation (relative strength alpha1
per cycling-rate photon), after which it fluoresces for the remaining
detection time; a bright ion can be pumped dark through off-resonant
excitation by polarization-impure light (alpha2). Detection of mean
lambda0 photons is Poissonian, so the observed count histograms are
Poisson distributions convolved with the exponential law of the leak
time.

Both leak-time convolutions integrate in closed form. With a1 = alpha1/eta
(the leak probability per detected photon) the dark-state distribution is

    p_dark(n) = exp(-a1*lambda0) * [ delta_{n,0}
                + a1/(1-a1)^(n+1) * P(n+1, (1-a1)*lambda0) ]

and with a2 = alpha2/eta the bright-state distribution is

    p_bright(n) = exp(-(1+a2)*lambda0) * lambda0^n/n!
                + a2/(1+a2)^(n+1) * P(n+1, (1+a2)*lambda0),

where P is the regularized lower incomplete gamma function. The dark form
requires a1 < 1; a1 >= 1 would mean the ion is more likely to leak than to
yield a detected photon, outside the validity of the derivation.

Unit conventions: frequencies are stored as angular frequencies in rad/s;
every file or constructor input quoted in MHz/GHz is converted by 2*pi
exactly once at parse time. Detection time in seconds, wavelengths in nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .angular import Scheme, _twice_spin, branching_ratios
from .errors import ConfigError, DomainError, _enum
from .specfun import _count, _cutoffs, log_poisson, log_upper_tails, poisson_table, tail_window

TWO_PI = 2.0 * math.pi


def _require_positive(name: str, value) -> None:
    if value is not None and not (isinstance(value, (int, float)) and value > 0):
        raise DomainError(f"{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class IonSpecies:
    """Atomic constants of one ion species, angular frequencies in rad/s.

    gamma_* are the natural linewidths of the two possible excited levels,
    omega_hfs is the ground-state hyperfine splitting, omega_hfp* are the
    excited-state hyperfine splittings. Species measured only on the lower
    excited level (no published upper-level data) leave the p32 fields
    None; requesting that scheme then raises a DomainError.
    """

    name: str
    nuclear_spin: float
    omega_hfs: float
    gamma_p32: float | None = None
    omega_hfp32: float | None = None
    wavelength_p32_nm: float | None = None
    gamma_p12: float | None = None
    omega_hfp12: float | None = None
    wavelength_p12_nm: float | None = None

    def __post_init__(self):
        if not self.name:
            raise DomainError("species name must be non-empty")
        for fname in ("nuclear_spin", "omega_hfs"):
            if getattr(self, fname) is None:
                raise DomainError(f"species {self.name!r} needs {fname}")
        _twice_spin(self.nuclear_spin)
        _require_positive("omega_hfs", self.omega_hfs)
        for fname in (
            "gamma_p32",
            "omega_hfp32",
            "wavelength_p32_nm",
            "gamma_p12",
            "omega_hfp12",
            "wavelength_p12_nm",
        ):
            _require_positive(fname, getattr(self, fname))

    @classmethod
    def from_frequencies(
        cls,
        name: str,
        nuclear_spin: float,
        *,
        omega_hfs_ghz: float,
        gamma_p32_mhz: float | None = None,
        omega_hfp32_ghz: float | None = None,
        wavelength_p32_nm: float | None = None,
        gamma_p12_mhz: float | None = None,
        omega_hfp12_ghz: float | None = None,
        wavelength_p12_nm: float | None = None,
    ) -> "IonSpecies":
        """Build a species from ordinary frequencies as usually quoted.

        This is the single place the 2*pi conversion happens.
        """

        def mhz(v):
            return None if v is None else TWO_PI * v * 1e6

        def ghz(v):
            return None if v is None else TWO_PI * v * 1e9

        return cls(
            name=name,
            nuclear_spin=nuclear_spin,
            omega_hfs=ghz(omega_hfs_ghz),
            gamma_p32=mhz(gamma_p32_mhz),
            omega_hfp32=ghz(omega_hfp32_ghz),
            wavelength_p32_nm=wavelength_p32_nm,
            gamma_p12=mhz(gamma_p12_mhz),
            omega_hfp12=ghz(omega_hfp12_ghz),
            wavelength_p12_nm=wavelength_p12_nm,
        )


BUILTIN_SPECIES: Mapping[str, IonSpecies] = {
    "cd111": IonSpecies.from_frequencies(
        "cd111",
        0.5,
        omega_hfs_ghz=14.5,
        gamma_p32_mhz=60.0,
        omega_hfp32_ghz=0.8,
        wavelength_p32_nm=214.5,
        gamma_p12_mhz=50.0,
        omega_hfp12_ghz=2.0,
        wavelength_p12_nm=226.5,
    ),
    "yb171": IonSpecies.from_frequencies(
        "yb171",
        0.5,
        omega_hfs_ghz=12.6,
        gamma_p12_mhz=23.0,
        omega_hfp12_ghz=2.1,
        wavelength_p12_nm=369.5,
    ),
    "hg199": IonSpecies.from_frequencies(
        "hg199",
        0.5,
        omega_hfs_ghz=40.5,
        gamma_p12_mhz=70.0,
        omega_hfp12_ghz=6.9,
        wavelength_p12_nm=194.0,
    ),
}


def get_species(name: str) -> IonSpecies:
    """Look up a species by name in the built-in registry."""
    try:
        return BUILTIN_SPECIES[name]
    except (KeyError, TypeError):  # a TypeError for an unhashable name
        known = sorted(BUILTIN_SPECIES)
        raise DomainError(f"unknown species {name!r}; known: {', '.join(known)}") from None


_SPECIES_KEYS = {
    "nuclear_spin",
    "omega_hfs_ghz",
    "gamma_p32_mhz",
    "omega_hfp32_ghz",
    "wavelength_p32_nm",
    "gamma_p12_mhz",
    "omega_hfp12_ghz",
    "wavelength_p12_nm",
}


def species_from_dict(name: str, fields: Mapping) -> IonSpecies:
    """Parse one species definition in the quoted-frequency key format."""
    if not isinstance(fields, Mapping):
        raise ConfigError(f"species {name!r} must map to an object")
    unknown = set(fields) - _SPECIES_KEYS
    if unknown:
        raise ConfigError(
            f"species {name!r} has unknown keys: {', '.join(sorted(unknown))}"
        )
    if fields.get("nuclear_spin") is None or fields.get("omega_hfs_ghz") is None:
        raise ConfigError(
            f"species {name!r} needs at least nuclear_spin and omega_hfs_ghz"
        )
    kwargs = dict(fields)
    spin = kwargs.pop("nuclear_spin")
    try:
        return IonSpecies.from_frequencies(name, spin, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"species {name!r}: {exc}") from exc


@dataclass(frozen=True)
class DetectionConfig:
    """Experimental settings of one detection interval.

    s is the saturation parameter of the detection beam, delta the laser
    detuning from the cycling resonance in rad/s (it only enters squared),
    tau_d the detection time in seconds, eta the overall photon collection
    plus detector efficiency, and p_pi/p_minus the fractional impurity
    power in the two unwanted polarizations.
    """

    scheme: Scheme
    s: float
    delta: float
    tau_d: float
    eta: float
    p_pi: float = 0.0
    p_minus: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "scheme", _enum(Scheme, self.scheme, "scheme"))
        if not self.s >= 0:
            raise DomainError(f"saturation parameter must be >= 0, got {self.s}")
        if not math.isfinite(self.delta):
            raise DomainError(f"detuning must be finite, got {self.delta}")
        if not self.tau_d > 0:
            raise DomainError(f"detection time must be > 0, got {self.tau_d}")
        if not 0 < self.eta <= 1:
            raise DomainError(f"collection efficiency must be in (0, 1], got {self.eta}")
        if not (self.p_pi >= 0 and self.p_minus >= 0):
            raise DomainError("polarization impurities must be >= 0")
        if self.p_pi + self.p_minus >= 1:
            raise DomainError(
                f"impurity fractions must sum below 1, got {self.p_pi + self.p_minus}"
            )


@dataclass(frozen=True)
class LeakParams:
    """The three numbers the count distributions depend on.

    lambda0 is the mean detected photon number of an ideal bright ion,
    alpha1 the dark -> bright and alpha2 the bright -> dark leak
    probability per emitted cycling photon. Divide by eta to get the leak
    probability per detected photon.
    """

    lambda0: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for fname in ("lambda0", "alpha1", "alpha2"):
            v = getattr(self, fname)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise DomainError(f"{fname} must be finite and >= 0, got {v!r}")


@dataclass
class PhotonHistogram:
    """A count histogram: values[n] is the frequency of, or number of
    trials yielding, exactly n detected photons. trials, when given, is
    the sum of the bins."""

    values: tuple
    trials: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise DomainError("histogram must have at least one bin")
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise DomainError("histogram bins must be finite and >= 0")
        self.values = vals
        total = math.fsum(vals)
        if self.trials is not None and abs(total - self.trials) > 0.5:
            raise DomainError(f"histogram bins sum to {total} but trials={self.trials}")

    @property
    def total(self) -> float:
        return math.fsum(self.values)


def _scheme_constants(species: IonSpecies, scheme: Scheme):
    """(gamma, detuning_1, detuning_2) for the requested scheme, rad/s."""
    if scheme is Scheme.P32:
        if species.gamma_p32 is None or species.omega_hfp32 is None:
            raise DomainError(
                f"species {species.name!r} has no upper-level data for the p32 scheme"
            )
        gamma = species.gamma_p32
        detuning_1 = species.omega_hfs - species.omega_hfp32
        detuning_2 = species.omega_hfp32
    else:
        if species.gamma_p12 is None or species.omega_hfp12 is None:
            raise DomainError(
                f"species {species.name!r} has no lower-level data for the p12 scheme"
            )
        gamma = species.gamma_p12
        detuning_1 = species.omega_hfs + species.omega_hfp12
        detuning_2 = species.omega_hfp12
    if detuning_1 == 0 or detuning_2 == 0:
        raise DomainError("leak detunings must be non-zero")
    return gamma, detuning_1, detuning_2


def detection_params(species: IonSpecies, config: DetectionConfig) -> LeakParams:
    """Map a species and detection settings to (lambda0, alpha1, alpha2).

    The bright scattering gives lambda0 = tau_d * eta * s*(gamma/2) /
    (1 + s + (2*delta/gamma)^2). The dark-state leak is the off-resonant
    excitation strength (gamma/2Delta1)^2 times the saturation factor and
    the branching ratio into the bright manifold. For the p32 scheme the
    bright-state leak is driven only by the impure polarization fractions;
    for the p12 scheme all polarizations are applied deliberately and the
    2/9 branching ratio applies directly.
    """
    scheme = config.scheme
    gamma, detuning_1, detuning_2 = _scheme_constants(species, scheme)
    ratios = branching_ratios(species.nuclear_spin, scheme)
    sat = 1.0 + config.s + (2.0 * config.delta / gamma) ** 2
    lambda0 = config.tau_d * config.eta * config.s * (gamma / 2.0) / sat
    alpha1 = ratios.m1 * sat * (gamma / (2.0 * detuning_1)) ** 2
    if scheme is Scheme.P32:
        impurity = config.p_pi + config.p_minus
        pumping = ratios.m2_pi * config.p_pi + ratios.m2_minus * config.p_minus
        alpha2 = sat * (gamma / (2.0 * detuning_2)) ** 2 * pumping / (1.0 - impurity)
    else:
        alpha2 = ratios.m2_pi * sat * (gamma / (2.0 * detuning_2)) ** 2
    return LeakParams(lambda0=lambda0, alpha1=alpha1, alpha2=alpha2)


def _leak_fractions(params: LeakParams, eta: float) -> tuple[float, float]:
    if not 0 < eta <= 1:
        raise DomainError(f"collection efficiency must be in (0, 1], got {eta}")
    a1 = params.alpha1 / eta
    a2 = params.alpha2 / eta
    if a1 >= 1.0:
        raise DomainError(
            f"alpha1/eta must be < 1 for the dark distribution to hold, got {a1}"
        )
    return a1, a2


def count_pmfs(n, lambda0, a1: float, a2: float):
    """Dark and bright pmfs at the counts n: the kernel behind every pmf.

    n is an integer count or a 1-D array of consecutive counts, and
    lambda0 broadcasts against it, so a column of light levels gives one
    row per level. a1 and a2 are the leak fractions per detected photon
    (alpha/eta), 0 <= a1 < 1 and a2 >= 0; nothing is validated here.
    With c = a1 for the dark and c = -a2 for the bright leak term, each
    term is combined in log space,

        exp((log P(n+1, (1-c)*lambda0) + log|c| [- a1*lambda0]) - (n+1)*log(1-c)),

    because its factors overflow separately at large counts. Both P come
    from one Poisson log-pmf table at lambda0, shifted to the mean
    (1-c)*lambda0 by k*log(1-c) + c*lambda0, through
    ``specfun.log_upper_tails``.
    """
    n = np.asarray(n, dtype=np.float64)
    lam0 = np.asarray(lambda0, dtype=np.float64)
    if a1 == 0.0 and a2 == 0.0:
        return np.where(n == 0, np.exp(-a1 * lam0), 0.0), np.exp(log_poisson(n, lam0))
    if lam0.ndim == 0:
        lam0 = lam_min = lam_max = float(lam0)
    else:
        lam_min, lam_max = float(lam0.min()), float(lam0.max())
    n_min, n_max = (int(n[0]), int(n[-1])) if n.ndim else (int(n), int(n))
    lo, top, fwd = tail_window(n_min, n_max, (1.0 - a1 if a1 > 0.0 else 1.0 + a2) * lam_min,
                               (1.0 + a2 if a2 > 0.0 else 1.0 - a1) * lam_max)
    k, lp = poisson_table(lo, top, lam0)
    pick = slice(n_min - lo, n_max + 1 - lo)
    bright = np.exp(lp[..., pick] - a2 * lam0)
    # one table row per leak term, c = a1 or -a2: log pois(k; (1 - c)*lambda0) is
    # log pois(k; lambda0) + k*log(1 - c) + c*lambda0; the row constants are
    # log(1 - c), c*lambda0 and log|c| [- a1*lambda0]
    terms = [(math.log1p(-c), c * lam0, math.log(abs(c)) - max(c, 0.0) * lam0)
             for c in (a1, -a2) if c != 0.0]
    if lp.ndim == 1:
        log_1mc, rate, log_c = np.array(terms).T[:, :, None]
    else:  # a column of light levels: rate and log_c are columns too
        log_1mc, rate, log_c = (np.array(v) for v in zip(*terms))
        log_1mc = log_1mc[:, None, None]
    log_p = log_upper_tails(lp + (k * log_1mc + rate), fwd)[..., pick]
    leak = np.exp((log_p + log_c) - (n + 1.0) * log_1mc)
    dark = leak[0] if a1 > 0.0 else np.zeros_like(bright)
    if n_min == 0:  # no leak: the point mass at n = 0
        if lp.ndim == 1:
            dark[0] += np.exp(-a1 * lam0)
        else:
            dark[:, :1] += np.exp(-a1 * lam0)
    if a2 > 0.0:
        bright += leak[-1]
    return (dark, bright) if n.ndim else (dark[..., 0], bright[..., 0])


def p_dark(n, params: LeakParams, eta: float) -> float:
    """Probability a dark ion yields exactly n detected photons."""
    a1, a2 = _leak_fractions(params, eta)
    return float(count_pmfs(_count(n), params.lambda0, a1, a2)[0])


def p_bright(n, params: LeakParams, eta: float) -> float:
    """Probability a bright ion yields exactly n detected photons."""
    a1, a2 = _leak_fractions(params, eta)
    return float(count_pmfs(_count(n), params.lambda0, a1, a2)[1])


# Cap on the top count n_max of any count table or histogram: 8 MiB per pmf, and
# above histogram_cutoff(1e6) = 1,012,030, so the documented lambda0 <= 1e6 tabulates.
MAX_BINS = 2**20


def histogram_cutoff(lambda0: float) -> int:
    """Bin count that bounds the neglected upper tail below ~1e-12."""
    if not (isinstance(lambda0, (int, float)) and math.isfinite(lambda0) and lambda0 >= 0):
        raise DomainError(f"lambda0 must be finite and >= 0, got {lambda0!r}")
    return int(_cutoffs(lambda0))


def pmf_arrays(params: LeakParams, eta: float, n_max: int | None = None):
    """Dark and bright pmfs tabulated on 0..n_max inclusive, as arrays."""
    a1, a2 = _leak_fractions(params, eta)
    if n_max is None:
        n_max = histogram_cutoff(params.lambda0)
    if _count(n_max, "n_max") > MAX_BINS:
        raise DomainError(f"a pmf table at lambda0 = {params.lambda0:.9g} needs counts up to {n_max}, "
                          f"above the cap of {MAX_BINS}")
    return count_pmfs(np.arange(n_max + 1), params.lambda0, a1, a2)
