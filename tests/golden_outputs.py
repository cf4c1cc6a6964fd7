"""Short Monte Carlo runs whose per-trial outputs are committed as goldens.

    python tests/golden_outputs.py [--out FILE]

regenerates tests/golden_outputs.json from the coveig in the src/ of this
checkout; tests/test_golden_outputs.py reruns every cell and compares. Each
cell is 8 trials of a benchmark workload at its default master seed, or of
a path those workloads leave out:

  sweep_split    mse-sweep of criterion 3 (rho 1, 3, 5; 30 x 80 .. 150 x 400;
                 known multiplicities and Mestre, projected, quadrature)
  clt_wide       clt-check of criterion 6 (rho 1, 3, 10; 240 x 2400; Mestre)
  clt_full       clt-check of criterion 5 (rho 1, 3; 60 x 120; full moments)
  residues       an mse-sweep cell on the residue route, both inversions
  tall_mestre    an mse-sweep cell of Mestre at N > M

A sweep cell stores `ExperimentReport.estimates`, a clt cell
`CltHistogram.deviations` and `predicted_var`, every float as `float.hex`
(NaN rows for failed trials). Regenerate only when outputs change on
purpose, and declare the largest change. A deliberate change of the Monte
Carlo stream (the trial seeds or the generator's seeding) regenerates
every cell but the CLT predicted variances, which draw nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
TRIALS = 8

THIRDS = [1 / 3, 1 / 3, 1 / 3]
CELLS = {
    "sweep_split": {
        "command": "mse-sweep",
        "model": {"rho": [1.0, 3.0, 5.0], "weights": THIRDS, "aspect": 0.375},
        "sizes": [[30, 80], [60, 160], [90, 240], [120, 320], [150, 400]],
        "master_seed": 2026,
        "methods": ["moment_known_mult", "mestre"],
        "infeasible": "project",
        "moment_route": "quadrature",
    },
    "clt_wide": {
        "command": "clt-check",
        "model": {"rho": [1.0, 3.0, 10.0], "weights": THIRDS, "aspect": 0.1},
        "N": 240, "M": 2400, "master_seed": 606, "method": "mestre",
    },
    "clt_full": {
        "command": "clt-check",
        "model": {"rho": [1.0, 3.0], "weights": [0.5, 0.5], "aspect": 0.5},
        "N": 60, "M": 120, "master_seed": 505, "method": "moment_full",
    },
    "residues": {
        "command": "mse-sweep",
        "model": {"rho": [1.0, 3.0, 5.0], "weights": THIRDS, "aspect": 0.375},
        "sizes": [[60, 160]],
        "master_seed": 2026,
        "methods": ["moment_full", "moment_known_mult"],
        "infeasible": "exclude",
        "moment_route": "residues",
    },
    "tall_mestre": {
        "command": "mse-sweep",
        "model": {"rho": [1.0, 3.0], "weights": [0.5, 0.5], "aspect": 1.5},
        "sizes": [[90, 60]],
        "master_seed": 2026,
        "methods": ["mestre"],
        "infeasible": "exclude",
        "moment_route": "quadrature",
    },
}


def run_cell(cell: dict) -> dict:
    """The cell's outputs: {name: float array} with one name per sweep
    (method, N) or the clt deviations and predicted variances."""
    from coveig import (
        ExperimentConfig,
        PopulationModel,
        run_clt_histogram,
        run_mse_sweep,
    )

    raw = cell["model"]
    model = PopulationModel(rho=tuple(raw["rho"]),
                            weights=tuple(raw["weights"]),
                            aspect=raw["aspect"])
    if cell["command"] == "mse-sweep":
        report = run_mse_sweep(ExperimentConfig(
            model=model, sizes=tuple(map(tuple, cell["sizes"])),
            trials=TRIALS, master_seed=cell["master_seed"],
            methods=tuple(cell["methods"]), infeasible=cell["infeasible"],
            moment_route=cell["moment_route"]))
        return {f"{method} N={N}": arr
                for (method, N), arr in report.estimates.items()}
    hist = run_clt_histogram(model, cell["N"], cell["M"], TRIALS,
                             cell["master_seed"], method=cell["method"])
    return {"deviations": hist.deviations,
            "predicted_var": hist.predicted_var}


def _hex(values) -> list:
    """The rows of values, 1-D as one row, each a line of float.hex."""
    import numpy as np

    rows = np.atleast_2d(np.asarray(values, dtype=float))
    return [" ".join(map(float.hex, row.tolist())) for row in rows]


def read_golden(path=GOLDEN) -> dict:
    """{cell: {name: 2-D float array}} from a file `main` wrote."""
    import numpy as np

    cells = json.loads(Path(path).read_text())["cells"]
    return {cell: {name: np.array([[float.fromhex(x) for x in row.split()]
                                   for row in rows])
                   for name, rows in outputs.items()}
            for cell, outputs in cells.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(GOLDEN),
                        help=f"JSON file to write (default: {GOLDEN.name})")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    golden = {"trials": TRIALS, "cells": {}}
    for name, cell in CELLS.items():
        outputs = run_cell(cell)
        golden["cells"][name] = {key: _hex(value)
                                 for key, value in outputs.items()}
        print(f"{name}: {', '.join(outputs)}")
    Path(args.out).write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
