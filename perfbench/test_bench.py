"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q -s perfbench/test_bench.py

They run one timed job per workload through run.py (``--seconds`` below
one job slot) and each workload's traced run as the benchmark runs it,
check the result line against BENCHMARK.json, check that every
workload's output check rejects a wrong output, that a seed always
yields the same job list, and that in a traced run the layers' self
times account for the job wall time.
"""

from __future__ import annotations

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import CheckFailed, Workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("provenance ")
    return json.loads(lines[-2][len("provenance "):]), json.loads(lines[-1])


def expected_metrics(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_job_result_schema(workload):
    record, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["failures"]
    assert result["attempted"] == 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("python", "numpy", "scipy", "nproc", "commit", "seed", "src_lines",
                "job_samples"):
        assert key in record
    assert record["seed"] == 3 and record["job_samples"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    def first(seed):
        return list(itertools.islice(Workload(workload).jobs(seed), 40))

    assert first(11) == first(11)
    assert first(11) != first(12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_accounts_for_job_time(workload):
    record, result = bench(workload, trace=1)
    assert result["correct"] is True, record["failures"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected_metrics("per_layer")
    layers = sum(record["layer_self_s"].values())
    wall = record["job_wall_s"]
    assert abs(layers + record["gap_s"] - wall) <= 1e-6 * wall
    gap = result["metrics"]["trace.gap_frac"]["value"]
    overhead = result["metrics"]["trace.overhead_frac"]["value"]
    print(f"\n{workload}: layers {layers:.3f} s of {wall:.3f} s job wall, "
          f"gap {gap:.2%}, trace overhead {overhead:.2%}")
    assert 0.0 <= gap <= 0.05


def first_job(workload, kind=None):
    wl = Workload(workload)
    for job in wl.jobs(5):
        if kind is None or job["kind"] == kind:
            return wl, job
    raise AssertionError("unreachable")


def test_design_check_rejects_changed_ninth_digit():
    wl, job = first_job("design_sweep")
    best = wl.run(job)
    wl.check(job, best)
    shifted = best.__class__(**{**best.__dict__, "fidelity": best.fidelity * (1 + 5e-9)})
    with pytest.raises(CheckFailed):
        wl.check(job, shifted)


def test_fit_check_rejects_converged_fit_off_truth():
    wl, job = first_job("calibration_fit")
    leak = workloads._fit_leak(job["truth"])
    truth = job["truth"]
    good = workloads.fitkit.FitResult(truth["eta"], truth["s"], truth["p_impure"], None,
                                      1.0, True, 1)
    wl.check(job, (good, leak))
    bad = good.__class__(**{**good.__dict__, "eta": truth["eta"] * 1.2})
    with pytest.raises(CheckFailed):
        wl.check(job, (bad, leak))
    # an honest converged=false is not a failure
    wl.check(job, (bad.__class__(**{**bad.__dict__, "converged": False}), leak))


def test_register_check_rejects_flipped_bits():
    wl, job = first_job("register_readout")
    job = dict(job, frames=400)
    readouts, report, csv = wl.run(job)
    wl.check(job, (readouts, report, csv))
    flipped = [copy.copy(r) for r in readouts]
    for r in flipped[: len(flipped) // 5]:
        object.__setattr__(r, "truth", tuple(1 - b for b in r.truth))
    with pytest.raises(CheckFailed):
        wl.check(job, (flipped, report, csv))
