"""The layer bench (bench/layers.py) runs and writes a complete file."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_quick_layer_bench_writes_every_record(tmp_path):
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, str(LAYERS), "--quick", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    bench = json.loads(out.read_text())
    assert {"environment", "protocol", "layers", "setups", "trial_seeds",
            "fixed_cost", "import"} <= set(bench)
    assert bench["layers"] and bench["setups"]
    # the inversions time the rows whose quadrature moments they got
    assert all(row["ms_per_trial"] for row in bench["layers"]
               if row["layer"] not in ("invert_rows", "invert_known_rows"))
    # every layer at every size, the secular roots, the residue moments
    # and the known-multiplicity inversion included, each timed once per
    # repeat after its warm-up call, with its minor page faults per call
    sizes = {(row["N"], row["M"]) for row in bench["layers"]}
    assert len(sizes) == 5
    for size in sizes:
        assert [row["layer"] for row in bench["layers"]
                if (row["N"], row["M"]) == size] == [
            "simulate_rows", "simulate_rows.draw", "simulate_rows.gram",
            "simulate_rows.eigensolve", "secular_rows", "quadrature_rows",
            "residue_rows", "invert_rows", "invert_known_rows", "mestre_rows"]
    assert all(row["ms_per_trial"]["n"] == 1 for row in bench["layers"]
               if row["ms_per_trial"])
    assert all(row["minflt_per_call"]["p50"] >= 0
               for row in bench["layers"] if row["ms_per_trial"])
    assert all(row["minflt_per_call"]["p50"] >= 0 for row in bench["setups"])
    # criterion 6's Mestre model, two clusters at N > M, criterion 5's model
    assert [(row["layer"], row["rho"], row["aspect"]) for row in bench["setups"]] == [
        ("theta_mestre", [1.0, 3.0, 10.0], 0.1),
        ("theta_mestre", [1.0, 50.0], 1.5),
        ("theta_moment_estimator", [1.0, 3.0], 0.5)]
    assert all(row["ms_per_call"]["n"] == 1 for row in bench["setups"])
    # the per-call SplitMix64 pass over every trial's index
    seeding = bench["trial_seeds"]["rows"]
    assert [row["trials"] for row in seeding] == [40, 300, 2000]
    for row in seeding:
        assert row["ms_per_call"]["n"] == 1
        assert row["ms_per_call"]["p50"] > 0
        assert row["us_per_trial"] == pytest.approx(
            1e3 * row["ms_per_call"]["p50"] / row["trials"])
    fixed = bench["fixed_cost"]
    assert (fixed["N"], fixed["M"]) == (60, 120)
    assert fixed["method"] == "moment_full"
    assert [row["layer"] for row in fixed["layers"]] == [
        "simulate_rows", "quadrature_rows", "residue_rows", "invert_rows",
        "invert_known_rows", "mestre_rows", "_trials"]
    for row in fixed["layers"]:
        assert [cell["rows"] for cell in row["rows"]] == [1, 5, 64]
        assert [cell["ms_per_call"]["n"] for cell in row["rows"]] == [5, 5, 1]
        assert all(cell["minflt_per_call"]["p50"] >= 0 for cell in row["rows"])
        assert all(cell["ms_per_call"]["p50"] > 0 for cell in row["rows"])
        assert row["ms_per_row"] == pytest.approx(
            (row["rows"][2]["ms_per_call"]["p50"]
             - row["rows"][0]["ms_per_call"]["p50"]) / 63)
        assert row["fixed_ms"] == pytest.approx(
            row["rows"][0]["ms_per_call"]["p50"] - row["ms_per_row"])
    # `import coveig`, a CLI process's imports and clt_full's set-up, each
    # in one fresh interpreter; only the CLI reaches scipy's wrappers
    imported = bench["import"]
    assert imported["interpreters"] == 1
    assert set(imported) == {"interpreters", "coveig", "cli", "clt_full_setup"}
    for name in ("coveig", "cli", "clt_full_setup"):
        probe = imported[name]
        assert probe["ms"]["n"] == 1
        assert probe["ms"]["p50"] > 0
        assert probe["maxrss_mb"]["p50"] > 0
        assert probe["heavy_modules"] == []
    assert imported["coveig"]["scipy_modules"] == []
    assert imported["clt_full_setup"]["scipy_modules"] == []
    assert "scipy.linalg._flapack" in imported["cli"]["scipy_modules"]
