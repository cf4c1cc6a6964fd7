from dataclasses import replace

import numpy as np
import pytest

from coveig import ExperimentConfig, PopulationModel, run_clt_histogram, run_mse_sweep
from perfbench.mirror import (
    MESTRE,
    QUADRATURE,
    SIMULATE,
    mirror_clt_histogram,
    mirror_deviation,
    mirror_mse_sweep,
    route_gap,
)
from perfbench.spans import Recorder
from perfbench.workloads import WORKLOADS


def test_mirror_reproduces_run_mse_sweep():
    wl = replace(WORKLOADS["sweep_split"], sizes=((30, 80),), trials=3)
    model = PopulationModel(rho=wl.rho, weights=wl.weights, aspect=wl.aspect)
    report = run_mse_sweep(ExperimentConfig(
        model=model, sizes=wl.sizes, trials=wl.trials, master_seed=11,
        methods=wl.methods, infeasible="project",
    ))
    rec = Recorder()
    rows, kept = mirror_mse_sweep(rec, wl, 11)
    for method in wl.methods:
        ref = report.row(method, 30)
        row = rows[(method, 30)]
        assert row["mse_db"] == ref.mse_db
        np.testing.assert_array_equal(row["bias"], ref.bias)
        np.testing.assert_array_equal(row["variance"], ref.variance)
        assert row["failure_count"] == ref.failure_count
        assert row["projected_count"] == ref.projected_count
    assert len(rec.named(SIMULATE)) == len(rec.named(MESTRE)) == 3
    assert [s.trial for s in rec.named(QUADRATURE)] == ["30x80:0", "30x80:1", "30x80:2"]
    assert len(kept) == 3 and route_gap(kept, 3) < 1e-8

    cli = {key: dict(row, var_scaled=row["variance"]) for key, row in rows.items()}
    assert mirror_deviation(wl, rows, cli) == 0.0
    key = ("mestre", 30)
    cli[key] = dict(cli[key], mse_db=cli[key]["mse_db"] + 0.5)
    # relative above 1 in magnitude: 0.5 dB on |mse_db| > 1
    assert mirror_deviation(wl, rows, cli) == pytest.approx(
        0.5 / abs(cli[key]["mse_db"])
    )


def test_mirror_reproduces_run_clt_histogram():
    wl = replace(WORKLOADS["clt_full"], sizes=((30, 60),), trials=8)
    model = PopulationModel(rho=wl.rho, weights=wl.weights, aspect=wl.aspect)
    hist = run_clt_histogram(model, 30, 60, trials=8, master_seed=5,
                             method="moment_full")
    out, _ = mirror_clt_histogram(Recorder(), wl, 5)
    ref = {"failure_count": hist.failure_count,
           "predicted_var": hist.predicted_var,
           "empirical_var": hist.empirical_var,
           "ks_statistic": hist.ks_statistic}
    assert mirror_deviation(wl, out, ref) == 0.0
