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

import os
import re
from dataclasses import dataclass

import numpy as np

from .detmodel import MAX_BINS, LeakParams, PhotonHistogram, _leak_fractions, histogram_cutoff
from .errors import ConfigError, DomainError, _count, _enum, _instance, _real
from .settings import InitialState, McMode

CHUNK = 65536
_KEY_SALT = 0x1CE0_D1CE


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 0
    mode: McMode = McMode.RATE_EQUATION
    initial: InitialState = InitialState.DARK

    def __post_init__(self):
        _count(self.trials, "trials", 1)
        _count(self.seed, "seed", 0, 2**64)
        object.__setattr__(self, "mode", _enum(McMode, self.mode, "Monte Carlo mode"))
        object.__setattr__(self, "initial", _enum(InitialState, self.initial, "initial state"))


def _keyed_rng(seed: int, salt: int, index: int, rng: np.random.Generator | None = None) -> np.random.Generator:
    """Generator of block index of a seeded stream, keyed by [seed, (salt << 32) + index].

    Each keyed use of a seed (the MC chunks, the register blocks) has its
    own salt, so no two uses share a key. Given rng, a Philox generator,
    it is re-keyed in place to the state a new one would start in (zero
    counter, empty buffer) and returned: a new Philox first draws OS
    entropy for a seed that the key then discards. The caller checks the
    seed, a 64-bit unsigned integer.
    """
    key = np.array([seed, (salt << 32) + index], dtype=np.uint64)
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": key},
                               "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _rate_equation_chunk(rng, size, lam0, a, eta, initial):
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


def _photon_level_chunk(rng, size, lam0, a, eta, initial):
    alpha = a * eta
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

    Block i, one of the blocks simulate_histogram runs, covers trials
    [i*CHUNK, min((i+1)*CHUNK, trials)).
    """
    start = chunk_index * CHUNK
    size = min(CHUNK, config.trials - start)
    rng = _keyed_rng(config.seed, _KEY_SALT, chunk_index)
    # the leak fraction per detected photon of the initial state
    a = _leak_fractions(params, eta)[config.initial is InitialState.BRIGHT]
    chunk = _rate_equation_chunk if config.mode is McMode.RATE_EQUATION else _photon_level_chunk
    counts, no_leak = chunk(rng, size, params.lambda0, a, eta, config.initial)
    return np.bincount(counts), no_leak


def simulate_histogram(params: LeakParams, eta: float, config: McConfig) -> PhotonHistogram:
    """Sample config.trials trajectories into a count histogram.

    Deterministic for a fixed seed regardless of how the trial blocks
    would be scheduled. meta carries the configuration plus
    no_leak_trials, the number of trajectories whose leak never fired
    inside the window (the point mass of the leak-time law).
    """
    _leak_fractions(params, eta)
    if _instance(config, McConfig, "Monte Carlo config").mode is McMode.PHOTON_LEVEL:
        # each trial draws Poisson(lambda0/eta) emission slots, each slot a Bernoulli(alpha) leak check
        _real(params.lambda0 / eta, "lambda0/eta, the mean emission slots of a photon-level trial", 0, 1e18)
        if config.initial is InitialState.BRIGHT:
            _real(params.alpha2, "alpha2, the leak probability per emitted photon", 0, 1)
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
    return PhotonHistogram(values=tuple(int(v) for v in bins), trials=config.trials, meta=meta)


def format_histogram_csv(hist: PhotonHistogram) -> str:
    """CSV with a comment metadata line, then n,count rows (occupied bins)."""
    meta = _instance(hist, PhotonHistogram, "histogram").meta
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


def parse_histogram_csv(text: str) -> PhotonHistogram:
    """Inverse of format_histogram_csv; unoccupied bins read back as 0.

    Files without the metadata comment take trials from the column sum.
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
    if max(rows) > MAX_BINS:
        raise DomainError(f"histogram CSV row needs counts up to {max(rows)}, above the cap of {MAX_BINS}")
    values = tuple(rows.get(n, 0) for n in range(max(rows) + 1))
    return PhotonHistogram(values=values, trials=meta.pop("trials", sum(values)), meta=meta)


def read_histogram_csv(path) -> PhotonHistogram:
    """The histogram in the CSV file at path; a file that cannot be read raises OSError."""
    with open(_instance(path, (str, os.PathLike), "histogram path"), "r", encoding="utf-8") as fh:
        return parse_histogram_csv(fh.read())
