#!/usr/bin/env python3
"""ionread benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
A single client drives the public library API in a closed loop: each job
starts when the previous one has finished and been checked. A timed run
executes a fixed number of jobs: ``--seconds`` divided by the workload's
job slot (JOB_SLOT_S), rounded to whole stratified blocks (BLOCK_JOBS),
or less than one block, at least one job, when ``--seconds`` is short.
For a seed every run does the same jobs however fast the host or the
library is.

``--trace 0`` prints the end-to-end metrics: setup_s (fresh interpreter
until ``import ionread.cli`` returns, median of three), jobs_per_s, the
median and 90th-percentile job latency, and the peak resident memory of
this process. Job latency covers the library calls only; the output
checks run outside it. Failed jobs (raised, non-finite, or failed their
output check) are the ``failed`` count of the result line.

``--trace 1`` runs a fixed number of jobs untraced, then the same jobs
again under the tracer (see tracing.py), and prints the per-layer
metrics; the fixed count makes every count repeat exactly for a seed,
so ``--seconds`` does not apply. Spans go to perfbench/out/.

The last stdout line is the JSON result; the line before it is the
provenance record, which is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
# Seconds of --seconds allotted to one job: about today's mean job time
# on a 2-core x86 VM. A 30 s run holds 96 design jobs, 3 fits and 70
# register jobs.
JOB_SLOT_S = {"design_sweep": 0.30, "calibration_fit": 9.0, "register_readout": 0.41}
# Jobs per stratified block: a run of whole blocks holds the same mix of
# input sizes whatever the seed (workloads.py).
BLOCK_JOBS = {"design_sweep": 32, "calibration_fit": 1, "register_readout": 10}
# Traced runs replay a fixed number of jobs, so that for a given seed
# every count repeats exactly.
TRACE_JOBS = {"design_sweep": 16, "calibration_fit": 1, "register_readout": 10}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(samples: int) -> list:
    """Seconds from spawning a fresh interpreter until ionread.cli is imported."""
    code = "import time, ionread.cli; print(repr(time.time()))"
    out = []
    for _ in range(samples):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def measure_import_profile() -> dict:
    """cli.import_s and cli.import_scipy_s from a ``-X importtime`` child."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ionread.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    # children print before their parent, indented two spaces per level;
    # scipy's inclusive cost is the cumulative time of its outermost entries
    cli_us = 0
    scipy = []  # (level, cumulative us)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative = parts[1].strip()
        if not cumulative.isdigit():
            continue  # the header line
        raw = parts[2][1:]
        name = raw.strip()
        if name == "ionread.cli":
            cli_us = int(cumulative)
        if name == "scipy" or name.startswith("scipy."):
            scipy.append((len(raw) - len(raw.lstrip()), int(cumulative)))
    outer = min((level for level, _ in scipy), default=0)
    scipy_us = sum(us for level, us in scipy if level == outer)
    return {"cli.import_s": cli_us * 1e-6, "cli.import_scipy_s": scipy_us * 1e-6}


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile of the sample, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def job_count(workload: str, seconds: float) -> int:
    slots = seconds / JOB_SLOT_S[workload]
    block = BLOCK_JOBS[workload]
    if slots < block:
        return max(1, int(slots + 1e-9))
    return block * round(slots / block)


def run_jobs(workload, jobs, count, *, tracer=None):
    """Closed loop over the first count jobs; returns (jobs, latencies, failures)."""
    from workloads import CheckFailed

    done, latencies, failures = [], [], []
    for job in itertools.islice(jobs, count):
        token = tracer.begin_job(job["kind"]) if tracer else None
        t0 = time.perf_counter()
        try:
            output, error = workload.run(job), None
        except Exception:  # a raising job is a failed job; keep going
            output, error = None, traceback.format_exc(limit=-3)
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_job(token)
        if error is None:
            try:
                workload.check(job, output)
            except CheckFailed as exc:
                error = f"CheckFailed: {exc}"
        done.append(job)
        if error is not None:
            failures.append({"job": len(done) - 1, "error": error})
    return done, latencies, failures


def src_stats() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, nproc) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "commit": commit(),
        **src_stats(),
        "clients": 1,
        "loop": "closed",
    }


def timed_run(args, workload_cls):
    setup = measure_setup(SETUP_SAMPLES)
    workload = workload_cls(args.workload)
    workload.warm_up()
    count = job_count(args.workload, args.seconds)
    done, lat, failures = run_jobs(workload, workload.jobs(args.seed), count)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "setup_samples_s": setup,
        "job_samples": len(lat),
        "latencies_ms": [round(x * 1e3, 3) for x in lat],
        "p90_samples_beyond": len(lat) - math.ceil(0.9 * len(lat)),
        "failed_frac": len(failures) / len(lat),
        "failures": failures[:5],
        "job_kinds": {k: sum(j["kind"] == k for j in done) for k in {j["kind"] for j in done}},
    }
    return metrics, len(lat), len(failures), extra


def traced_run(args, workload_cls):
    import ionread
    from tracing import Tracer
    import layer_metrics

    workload = workload_cls(args.workload)
    workload.warm_up()
    done, lat_plain, fail_plain = run_jobs(workload, workload.jobs(args.seed),
                                           TRACE_JOBS[args.workload])

    tracer = Tracer()
    layer_metrics.add_observers(tracer)
    workload = workload_cls(args.workload)
    tracer.install(ionread)
    try:
        _, lat_traced, fail_traced = run_jobs(workload, done, len(done), tracer=tracer)
    finally:
        tracer.uninstall()

    values = layer_metrics.compute(tracer)
    values.update(measure_import_profile())
    plain_rate = len(lat_plain) / sum(lat_plain)
    traced_rate = len(lat_traced) / sum(lat_traced)
    values["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    metrics = {name: (value, layer_metrics.UNITS[name]) for name, value in values.items()}

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                             "jobs": len(done)})
    extra = {
        "job_samples": len(done),
        "untraced_jobs_per_s": plain_rate,
        "traced_jobs_per_s": traced_rate,
        "layer_self_s": tracer.layer_self_s(),
        "job_wall_s": tracer.total_s["job"],
        "gap_s": tracer.self_s["job"],
        "trace_file": str(trace_path.relative_to(ROOT)),
        "failures": (fail_plain + fail_traced)[:5],
    }
    attempted = len(lat_plain) + len(lat_traced)
    return metrics, attempted, len(fail_plain) + len(fail_traced), extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ionread" / "cli.py").is_file():
        print(f"error: no ionread sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))

    import ionread
    import workloads

    if Path(ionread.__file__).resolve().parent != SRC / "ionread":
        print(f"error: imported ionread from {ionread.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = provenance(args, nproc)
    record["started_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.trace:
        metrics, attempted, failed, extra = traced_run(args, workloads.Workload)
    else:
        metrics, attempted, failed, extra = timed_run(args, workloads.Workload)
    record.update(extra)
    record["ended_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": record, "result": result}, fh, indent=1)
        fh.write("\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:34s} {value:14.6g} {unit}")
    print("provenance " + json.dumps(record, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
