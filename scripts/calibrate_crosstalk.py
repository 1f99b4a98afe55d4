#!/usr/bin/env python3
"""Sweep the ROI crosstalk fraction and report the induced correlations.

For each candidate eps this trains per-ion equal-error thresholds on
all-bright/all-dark batches, then measures the adjacent-pair conditional
probability deviation and per-qubit fidelity on a random-state batch.
The eps whose deviation lands nearest the target is printed last; the
frozen acceptance fixture (eps=0.016) came from this sweep at 20000
evaluation trials.
"""

import argparse
import statistics
import sys

from ionread.ccd import (
    CcdParams,
    conditional_correlations,
    equal_error_threshold,
    simulate_register_batch,
)
from ionread.detmodel import LeakParams

POSITIONS = [(3, 3), (10, 3), (17, 3)]


def train_thresholds(lambda0, leak, eps, trials, seed):
    bright = simulate_register_batch(
        trials, POSITIONS, [lambda0] * 3, leak, 1.0, CcdParams(), eps,
        [0.0] * 3, seed, states="111")
    dark = simulate_register_batch(
        trials, POSITIONS, [lambda0] * 3, leak, 1.0, CcdParams(), eps,
        [1e18] * 3, seed + 1, states="000")
    return [equal_error_threshold(dark.roi_sums[:, i], bright.roi_sums[:, i]) for i in range(3)]


def evaluate(lambda0, leak, eps, thresholds, trials, seed):
    readouts = simulate_register_batch(
        trials, POSITIONS, [lambda0] * 3, leak, 1.0, CcdParams(), eps,
        thresholds, seed, states="random")
    rep = conditional_correlations(readouts)
    adjacent = [rep.deviation[i][j] for i, j in ((0, 1), (1, 0), (1, 2), (2, 1))]
    fidelities = (readouts.bits == readouts.truth).mean(axis=0)
    return statistics.fmean(adjacent), statistics.fmean(fidelities)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lambda0", type=float, default=12.0)
    parser.add_argument("--alpha", type=float, default=1e-3,
                        help="both leak fractions alpha1/eta and alpha2/eta")
    parser.add_argument("--target", type=float, default=0.012,
                        help="adjacent-pair deviation to match")
    parser.add_argument("--train-trials", type=int, default=5000)
    parser.add_argument("--eval-trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--eps-grid", type=float, nargs="+",
                        default=[0.0, 0.004, 0.008, 0.012, 0.016, 0.020,
                                 0.024, 0.032])
    args = parser.parse_args(argv)

    leak = LeakParams(args.lambda0, args.alpha, args.alpha)
    print("eps,threshold_0,threshold_1,threshold_2,mean_adjacent_dev,mean_fidelity")
    best = None
    for eps in args.eps_grid:
        thresholds = train_thresholds(
            args.lambda0, leak, eps, args.train_trials, args.seed)
        dev, fid = evaluate(
            args.lambda0, leak, eps, thresholds, args.eval_trials, 777)
        print("%.4g,%.6g,%.6g,%.6g,%.6g,%.6g"
              % (eps, *thresholds, dev, fid))
        if best is None or abs(dev - args.target) < abs(best[1] - args.target):
            best = (eps, dev, fid, thresholds)
    eps, dev, fid, thresholds = best
    print(f"# closest to target {args.target:.4g}: eps={eps:.4g} "
          f"(deviation {dev:.4g}, fidelity {fid:.4g}, "
          f"thresholds {[round(t, 1) for t in thresholds]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
