import csv
import json

import pytest

from perfbench.check import check_outputs, read_output
from perfbench.workloads import MSE_DB_TARGETS, WORKLOADS


def _write_sweep(path, wl, shift=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "N", "M", "mse_db", "failure_count",
                         "projected_count", "wall_time_s", "bias_1", "bias_2",
                         "bias_3", "var_scaled_1", "var_scaled_2",
                         "var_scaled_3"])
        for method in wl.methods:
            for N, M in wl.sizes:
                db = MSE_DB_TARGETS[method][N]
                if shift and shift[0] == (method, N):
                    db += shift[1]
                writer.writerow([method, N, M, f"{db:.6f}", 0, 0, "0.1",
                                 0, 0, 0, 1, 1, 1])


def _write_clt(path, wl, **changes):
    L = len(wl.rho)
    (N, M), = wl.sizes
    out = {"schema_version": 1, "method": wl.methods[0], "N": N, "M": M,
           "trials": wl.trials, "failure_count": 0,
           "predicted_var": [2.0] * L, "empirical_var": [2.0] * L,
           "ks_statistic": [0.03] * L}
    out.update(changes)
    path.write_text(json.dumps(out))


def _passes(wl, path):
    return all(ok for ok, _ in check_outputs(wl, [read_output(wl, path)]))


def test_sweep_check_accepts_targets_and_rejects_a_shifted_cell(tmp_path):
    wl = WORKLOADS["sweep_split"]
    path = tmp_path / "sweep.csv"
    _write_sweep(path, wl)
    assert _passes(wl, path)
    _write_sweep(path, wl, shift=(("moment_known_mult", 150), 10.0))
    assert not _passes(wl, path)


def test_sweep_check_rejects_a_missing_row(tmp_path):
    wl = WORKLOADS["sweep_split"]
    path = tmp_path / "sweep.csv"
    _write_sweep(path, wl)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert not _passes(wl, path)


@pytest.mark.parametrize("name", ["clt_wide", "clt_full"])
def test_clt_check_rejects_a_perturbed_variance(tmp_path, name):
    wl = WORKLOADS[name]
    L = len(wl.rho)
    path = tmp_path / "clt.json"
    _write_clt(path, wl)
    assert _passes(wl, path)
    _write_clt(path, wl, empirical_var=[2.0] * (L - 1) + [8.0])
    assert not _passes(wl, path)


def test_clt_check_rejects_a_large_ks_statistic(tmp_path):
    wl = WORKLOADS["clt_full"]
    path = tmp_path / "clt.json"
    _write_clt(path, wl, ks_statistic=[0.03, 0.4])
    assert not _passes(wl, path)


def test_clt_check_rejects_all_trials_failed(tmp_path):
    wl = WORKLOADS["clt_wide"]
    path = tmp_path / "clt.json"
    _write_clt(path, wl, failure_count=wl.trials)
    assert not _passes(wl, path)
