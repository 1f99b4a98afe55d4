"""Monte Carlo trajectory sampler for detection count histograms.

Two independent samplers generate the same physics through different
mechanisms, so they can cross-validate each other and the closed forms:

rate_equation draws the leak time directly from its exponential law.  A
dark ion that leaks at time fraction x < 1 fluoresces for the remainder
and yields Poisson((1-x)*lambda0) detected photons; a bright ion emits
until its leak, Poisson(min(x,1)*lambda0).  The exponential scale comes
from inverting the per-photon leak probability: the mean leak time in
window units is eta/(alpha*lambda0).

photon_level simulates the per-photon story: the number of emission slots
in the window is Poisson(lambda0/eta), each emitted photon carries a
Bernoulli(alpha) leak check and a Bernoulli(eta) detection check.  The
first leak switches the ion's manifold; a dark ion emits from that slot
onward, a bright ion stops emitting there.  Second leaks are not
simulated (single leak event per trajectory).

Determinism: trials are partitioned into fixed blocks of 65536 and each
block gets its own counter-based generator keyed by (seed, block index).
The histogram is therefore bit-identical no matter how blocks are
scheduled; a reduction over any permutation of blocks gives the same
counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .detmodel import MAX_BINS, HistKind, LeakParams, PhotonHistogram, _leak_fractions, histogram_cutoff
from .errors import ConfigError, DomainError

CHUNK = 65536
_KEY_SALT = 0x1CE0_D1CE


class McMode(str, Enum):
    RATE_EQUATION = "rate_equation"
    PHOTON_LEVEL = "photon_level"


class InitialState(str, Enum):
    DARK = "dark"
    BRIGHT = "bright"


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 0
    mode: McMode = McMode.RATE_EQUATION
    initial: InitialState = InitialState.DARK

    def __post_init__(self):
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "mode", McMode(self.mode))
        object.__setattr__(self, "initial", InitialState(self.initial))


def _keyed_rng(seed: int, salt: int, index: int) -> np.random.Generator:
    """Generator of block index of a seeded stream, keyed by [seed, (salt << 32) + index].

    Each keyed use of a seed (the MC chunks, the register blocks) has its
    own salt, so no two uses share a key.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, (salt << 32) + index], dtype=np.uint64)))


def _rate_equation_chunk(rng, size, params, eta, initial):
    lam0 = params.lambda0
    a1, a2 = _leak_fractions(params, eta)
    a = a1 if initial is InitialState.DARK else a2
    if a * lam0 == 0.0:
        x = np.full(size, np.inf)
    else:
        # leak time in units of the window: Exponential(mean 1/(a*lambda0))
        x = rng.exponential(scale=1.0 / (a * lam0), size=size)
    no_leak = int(np.count_nonzero(x >= 1.0))
    # the mean count, in place: the time left dark (1 - min(x, 1)) or spent bright (min(x, 1)), times lambda0
    np.minimum(x, 1.0, out=x)
    if initial is InitialState.DARK:
        np.subtract(1.0, x, out=x)
    x *= lam0
    return rng.poisson(x), no_leak


def _photon_level_chunk(rng, size, params, eta, initial):
    lam0 = params.lambda0
    a1, a2 = _leak_fractions(params, eta)
    alpha = (a1 if initial is InitialState.DARK else a2) * eta
    slots = rng.poisson(lam0 / eta, size=size)
    if alpha == 0.0:
        leak_slot = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    else:
        leak_slot = rng.geometric(alpha, size=size)
    no_leak = leak_slot > slots
    if initial is InitialState.DARK:
        emitted = np.where(no_leak, 0, slots - leak_slot + 1)
    else:
        emitted = np.where(no_leak, slots, leak_slot - 1)
    counts = rng.binomial(emitted, eta)
    return counts, int(no_leak.sum())


def _chunk_counts(params: LeakParams, eta: float, config: McConfig, chunk_index: int):
    """Bin counts and no-leak tally of one fixed trial block.

    Block i covers trials [i*CHUNK, min((i+1)*CHUNK, trials)). Exposed so
    reductions over blocks in any order can be checked for equality.
    """
    start = chunk_index * CHUNK
    if not 0 <= start < config.trials:
        raise DomainError(f"chunk {chunk_index} is out of range for {config.trials} trials")
    size = min(CHUNK, config.trials - start)
    rng = _keyed_rng(config.seed, _KEY_SALT, chunk_index)
    if config.mode is McMode.RATE_EQUATION:
        counts, no_leak = _rate_equation_chunk(rng, size, params, eta, config.initial)
    else:
        counts, no_leak = _photon_level_chunk(rng, size, params, eta, config.initial)
    return np.bincount(counts), no_leak


def simulate_histogram(params: LeakParams, eta: float, config: McConfig) -> PhotonHistogram:
    """Sample config.trials trajectories into a count histogram.

    Deterministic for a fixed seed regardless of how the trial blocks
    would be scheduled. meta carries the configuration plus
    no_leak_trials, the number of trajectories whose leak never fired
    inside the window (the point mass of the leak-time law).
    """
    # the histogram is as wide as the largest count, almost surely below histogram_cutoff(lambda0)
    if histogram_cutoff(params.lambda0) > MAX_BINS:
        raise DomainError(f"a Monte Carlo histogram at lambda0 = {params.lambda0:.9g} needs counts up to "
                          f"{histogram_cutoff(params.lambda0)}, above the cap of {MAX_BINS}")
    n_chunks = (config.trials + CHUNK - 1) // CHUNK
    bins = np.zeros(1, dtype=np.int64)
    no_leak_total = 0
    for i in range(n_chunks):
        chunk_bins, no_leak = _chunk_counts(params, eta, config, i)
        if len(chunk_bins) > len(bins):
            chunk_bins[: len(bins)] += bins
            bins = chunk_bins
        else:
            bins[: len(chunk_bins)] += chunk_bins
        no_leak_total += no_leak
    meta = {
        "seed": config.seed,
        "mode": config.mode.value,
        "initial": config.initial.value,
        "no_leak_trials": no_leak_total,
        "lambda0": params.lambda0,
        "alpha1": params.alpha1,
        "alpha2": params.alpha2,
        "eta": eta,
    }
    return PhotonHistogram(
        values=tuple(int(v) for v in bins),
        kind=HistKind.SIMULATED,
        trials=config.trials,
        meta=meta,
    )


def format_histogram_csv(hist: PhotonHistogram) -> str:
    """CSV with a comment metadata line, then n,count rows (occupied bins)."""
    meta = hist.meta or {}
    trials = hist.trials if hist.trials is not None else int(round(hist.total))
    parts = [f"trials={trials}"]
    for key in ("seed", "mode", "initial"):
        if key in meta:
            parts.append(f"{key}={meta[key]}")
    lines = ["# " + " ".join(parts), "n,count"]
    for n, v in enumerate(hist.values):
        if v > 0:
            lines.append(f"{n},{int(v)}")
    return "\n".join(lines) + "\n"


def write_histogram_csv(path, hist: PhotonHistogram) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_histogram_csv(hist))


def parse_histogram_csv(text: str) -> PhotonHistogram:
    """Inverse of format_histogram_csv; unoccupied bins read back as 0.

    Files without the metadata comment are treated as measured data with
    trials inferred from the column sum.
    """
    meta = {}
    rows = {}
    saw_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" not in token:
                    continue
                key, _, val = token.partition("=")
                if key in ("trials", "seed"):
                    try:
                        val = int(val)
                    except ValueError:
                        raise ConfigError(f"histogram metadata {key!r} must be an integer, got {val!r}") from None
                meta[key] = val
            continue
        if line == "n,count":
            saw_header = True
            continue
        m = re.fullmatch(r"(\d+),(\d+)", line)
        if not m:
            raise ConfigError(f"bad histogram row: {line!r}")
        n, c = int(m.group(1)), int(m.group(2))
        if n in rows:
            raise ConfigError(f"duplicate histogram bin {n}")
        rows[n] = c
    if not saw_header:
        raise ConfigError("histogram CSV is missing the n,count header")
    if not rows:
        raise ConfigError("histogram CSV has no data rows")
    trials = meta.pop("trials", None)
    if max(rows) > MAX_BINS:
        raise DomainError(f"histogram CSV row needs counts up to {max(rows)}, above the cap of {MAX_BINS}")
    width = max(rows) + 1
    values = tuple(rows.get(n, 0) for n in range(width))
    kind = HistKind.SIMULATED if trials is not None else HistKind.MEASURED
    if trials is None:
        trials = sum(values)
    return PhotonHistogram(values=values, kind=kind, trials=trials, meta=meta)


def read_histogram_csv(path) -> PhotonHistogram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_histogram_csv(fh.read())
