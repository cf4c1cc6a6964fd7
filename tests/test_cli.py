from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import coveig
from coveig import cli


def _write_model(tmp_path, rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "rho": list(rho), "weights": list(weights), "aspect": aspect,
    }))
    return str(path)


def _simulate(tmp_path, model, N=60, M=120, seed=11):
    obs = tmp_path / "obs.bin"
    rc = cli.main([
        "simulate", "--model", model, "--N", str(N), "--M", str(M),
        "--seed", str(seed), "--out", str(obs),
    ])
    assert rc == 0
    return str(obs)


def test_simulate_then_estimate_full(tmp_path):
    model = _write_model(tmp_path)
    obs = _simulate(tmp_path, model)
    out = tmp_path / "est.json"
    rc = cli.main([
        "estimate", "--obs", obs, "--L", "2", "--json", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 2
    assert data["N"] == 60 and data["M"] == 120 and data["seed"] == 11
    assert data["method"] == "full"
    # moment orders 0 through 2L - 1 feed the full inversion
    assert len(data["gamma_hat"]) == 4
    assert data["gamma_hat"][0] == 1.0
    assert len(data["rho_hat"]) == 2
    assert len(data["c_hat"]) == 2
    assert data["projected"] is False
    # sanity, not accuracy: the point estimate lands in the right ballpark
    rho_hat = np.array(data["rho_hat"])
    assert abs(rho_hat[0] - 1.0) < 0.5 and abs(rho_hat[1] - 3.0) < 1.0


def test_estimate_writes_json_to_stdout_by_default(tmp_path, capsys):
    model = _write_model(tmp_path)
    obs = _simulate(tmp_path, model)
    capsys.readouterr()
    rc = cli.main(["estimate", "--obs", obs, "--L", "2", "--moments-only"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 2
    assert "gamma_hat" in data and "rho_hat" not in data
    assert data["moment_route"] == "quadrature"
    # order l divided by lambda_max^l, as the quadrature's check compares
    assert data["imag_leakage"] < 1e-8



def test_estimate_leakage_is_scale_free(tmp_path, capsys):
    # the reported leakage is the scaled value the check compares, so rho
    # (1e10, 3e10) reads at rounding level like rho (1, 3), not near 1e15
    leakage = []
    for scale in (1.0, 1e10):
        model = _write_model(tmp_path, rho=(scale, 3.0 * scale))
        obs = _simulate(tmp_path, model, seed=1)
        capsys.readouterr()
        rc = cli.main(["estimate", "--obs", obs, "--L", "2", "--moments-only"])
        assert rc == 0
        leakage.append(json.loads(capsys.readouterr().out)["imag_leakage"])
    assert max(leakage) <= 1e-14
    assert abs(leakage[0] - leakage[1]) <= 1e-14


def test_estimate_routes_agree(tmp_path):
    model = _write_model(tmp_path)
    obs = _simulate(tmp_path, model)
    outs = []
    for route in ("quadrature", "residues"):
        out = tmp_path / f"{route}.json"
        rc = cli.main([
            "estimate", "--obs", obs, "--L", "2", "--route", route,
            "--moments-only", "--json", str(out),
        ])
        assert rc == 0
        outs.append(json.loads(out.read_text()))
    np.testing.assert_allclose(
        outs[0]["gamma_hat"], outs[1]["gamma_hat"], rtol=1e-8
    )
    assert outs[1]["moment_route"] == "residues"


def test_estimate_known_mult_and_mestre(tmp_path):
    model = _write_model(tmp_path)
    obs = _simulate(tmp_path, model)
    km = tmp_path / "km.json"
    rc = cli.main([
        "estimate", "--obs", obs, "--model", model,
        "--method", "known-mult", "--json", str(km),
    ])
    assert rc == 0
    km_data = json.loads(km.read_text())
    assert len(km_data["rho_hat"]) == 2

    me = tmp_path / "me.json"
    rc = cli.main([
        "estimate", "--obs", obs, "--model", model,
        "--method", "mestre", "--json", str(me),
    ])
    assert rc == 0
    me_data = json.loads(me.read_text())
    assert me_data["multiplicities"] == [30, 30]
    assert len(me_data["rho_hat"]) == 2
    assert abs(me_data["rho_hat"][1] - 3.0) < 1.0


def test_estimate_error_paths_exit_nonzero(tmp_path, capsys):
    model = _write_model(tmp_path)
    obs = _simulate(tmp_path, model, N=20, M=40)
    # no --L and no --model: the number of eigenvalues is unknown
    rc = cli.main(["estimate", "--obs", obs])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # mestre needs the model for multiplicities
    rc = cli.main(["estimate", "--obs", obs, "--L", "2", "--method", "mestre"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_density_outputs(tmp_path):
    model = _write_model(tmp_path, rho=(1.0, 3.0, 10.0),
                         weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
    out_csv = tmp_path / "density.csv"
    out_json = tmp_path / "density.json"
    rc = cli.main([
        "density", "--model", model, "--out-csv", str(out_csv),
        "--out-json", str(out_json),
    ])
    assert rc == 0
    data = json.loads(out_json.read_text())
    assert data["schema_version"] == 2
    assert len(data["clusters"]) == 3
    assert data["separable"] is True
    assert abs(data["total_mass"] - 1.0) < 0.01
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "density"]
    values = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert values.shape[0] > 100
    assert np.all(values[:, 1] >= 0)
    assert "threshold" not in data


@pytest.mark.parametrize("step", ["-0.01", "0", "1e-9"])
def test_density_rejects_bad_step(tmp_path, capsys, step):
    model = _write_model(tmp_path)
    rc = cli.main([
        "density", "--model", model, "--step", step,
        "--out-csv", str(tmp_path / "density.csv"),
        "--out-json", str(tmp_path / "density.json"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_mse_sweep_csv(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "model": {"rho": [1.0, 3.0], "weights": [0.5, 0.5], "aspect": 0.5},
        "N": [20],
        "trials": 4,
        "master_seed": 1,
        "methods": ["mestre"],
    }))
    out_csv = tmp_path / "sweep.csv"
    rc = cli.main(["mse-sweep", "--config", str(config),
                   "--out-csv", str(out_csv)])
    assert rc == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["method", "N", "M", "mse_db"]
    assert len(rows) == 2
    assert rows[1][0] == "mestre" and rows[1][1] == "20" and rows[1][2] == "40"
    float(rows[1][3])


def test_clt_check_json_and_csv(tmp_path):
    config = tmp_path / "clt.json"
    config.write_text(json.dumps({
        "model": {"rho": [1.0, 3.0], "weights": [0.5, 0.5], "aspect": 0.5},
        "N": 40, "M": 80, "trials": 30, "master_seed": 2,
        "method": "moment_full", "bins": 8,
    }))
    out_json = tmp_path / "clt_out.json"
    hist_csv = tmp_path / "hist.csv"
    rc = cli.main(["clt-check", "--config", str(config),
                   "--json", str(out_json), "--hist-csv", str(hist_csv)])
    assert rc == 0
    data = json.loads(out_json.read_text())
    assert data["schema_version"] == 2
    assert data["method"] == "moment_full"
    assert len(data["predicted_var"]) == 2
    assert len(data["ks_statistic"]) == 2
    assert data["failure_count"] >= 0
    with open(hist_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["component", "bin_lo", "bin_hi", "density"]
    assert len(rows) == 1 + 2 * 8


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_model_file_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rho": [1.0, 2.0], "aspect": 0.5}))
    obs = _simulate(tmp_path, _write_model(tmp_path), N=20, M=40)
    rc = cli.main(["estimate", "--obs", obs, "--model", str(bad)])
    assert rc == 1
    assert "missing model field" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("mse-sweep", "aspect"), ("mse-sweep", "trials"),
    ("clt-check", "aspect"), ("clt-check", "trials"),
    ("clt-check", "N"), ("clt-check", "M"),
])
def test_config_missing_field_is_an_input_error(tmp_path, capsys, command, key):
    raw = {
        "model": {"rho": [1.0, 3.0], "weights": [0.5, 0.5], "aspect": 0.5},
        "N": [20] if command == "mse-sweep" else 20, "M": 40, "trials": 4,
    }
    if key == "aspect":
        del raw["model"]["aspect"]
    else:
        del raw[key]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = ["--out-csv", str(tmp_path / "out.csv")] if command == "mse-sweep" \
        else ["--json", str(tmp_path / "out.json")]
    rc = cli.main([command, "--config", str(config)] + out)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and f"missing config field '{key}'" in err
    assert "Traceback" not in err


def test_closed_stdout_exits_quietly(tmp_path):
    # as in `coveig estimate ... | head -5`: the reader is gone before the
    # JSON is written
    model = _write_model(tmp_path)
    obs = _simulate(tmp_path, model, N=20, M=40)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coveig.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            # what the `coveig` console script runs
            [sys.executable, "-c",
             "import sys; from coveig.cli import main; sys.exit(main())",
             "estimate", "--obs", obs, "--L", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
