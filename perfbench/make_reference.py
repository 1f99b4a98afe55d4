#!/usr/bin/env python3
"""Record the design_sweep reference table.

Runs ``optimize_detection`` on every (species, scheme, eta) point of the
design_sweep grid and writes fidelity, lambda0_opt and the threshold d,
formatted at the CLI's 9 significant digits, to design_reference.json
beside this file. The committed table was recorded once, from the
library as it stood when the benchmark was added; the benchmark checks
later versions against it. Run from the repository root:

    python3 perfbench/make_reference.py
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ionread import Scheme, get_species, optimize_detection  # noqa: E402

COMBOS = [("cd111", "p32"), ("cd111", "p12"), ("yb171", "p12"), ("hg199", "p12")]
ETA_LO, ETA_HI, ETA_POINTS = 1e-3, 0.3, 64


def eta_grid():
    """Log-uniform grid of collection efficiencies, endpoints included."""
    step = math.log(ETA_HI / ETA_LO) / (ETA_POINTS - 1)
    return [ETA_LO * math.exp(k * step) for k in range(ETA_POINTS)]


def main():
    entries = []
    for species, scheme in COMBOS:
        for k, eta in enumerate(eta_grid()):
            best = optimize_detection(get_species(species), Scheme(scheme), eta)
            entries.append({
                "species": species,
                "scheme": scheme,
                "eta_index": k,
                "eta": eta,
                "fidelity": "%.9g" % best.fidelity,
                "lambda0_opt": "%.9g" % best.lambda0_opt,
                "d": best.d,
            })
    doc = {"eta_points": ETA_POINTS, "entries": entries}
    with open(HERE / "design_reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
