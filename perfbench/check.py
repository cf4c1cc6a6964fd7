"""Correctness of the CLI's own outputs against the frozen acceptance targets.

Calls of one run are pooled before comparing, so a run with more calls is
checked more tightly; every tolerance is sized for the trials actually
pooled (see workloads.py). Failed trials stay in the counts: a cell whose
trials all failed is itself a failure, never a skipped check.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .workloads import (
    MSE_DB_TARGETS,
    Workload,
    ks_tolerance,
    log_var_ratio_tolerance,
    mse_db_tolerance,
)


def read_sweep_csv(path) -> dict:
    """mse-sweep CSV as {(method, N): row}, bias and variance as arrays."""
    rows = {}
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            key = (raw["method"], int(raw["N"]))
            if key in rows:
                raise ValueError(f"{path}: duplicate row {key}")
            rows[key] = {
                "M": int(raw["M"]),
                "mse_db": float(raw["mse_db"]),
                "failure_count": int(raw["failure_count"]),
                "projected_count": int(raw["projected_count"]),
                "bias": np.array([float(v) for k, v in raw.items()
                                  if k.startswith("bias_")]),
                "var_scaled": np.array([float(v) for k, v in raw.items()
                                        if k.startswith("var_scaled_")]),
            }
    return rows


def read_clt_json(path) -> dict:
    """clt-check JSON with its per-component lists as arrays."""
    with open(path) as fh:
        out = json.load(fh)
    for key in ("predicted_var", "empirical_var", "ks_statistic"):
        out[key] = np.asarray(out[key], dtype=float)
    return out


def read_output(wl: Workload, path) -> dict:
    return read_sweep_csv(path) if wl.command == "mse-sweep" else read_clt_json(path)


def failure_count(wl: Workload, output: dict) -> int:
    """Failed estimates in one call's output, one per (method, size, trial)."""
    if wl.command == "mse-sweep":
        return sum(row["failure_count"] for row in output.values())
    return int(output["failure_count"])


def check_sweep(wl: Workload, outputs: list[dict]) -> list[tuple[bool, str]]:
    """Pooled criterion-3 dB per (method, N) within the sized tolerance."""
    results = []
    want = {(m, n) for m in wl.methods for n, _ in wl.sizes}
    for i, out in enumerate(outputs):
        if set(out) != want:
            results.append((False, f"call {i}: rows {sorted(out)} != {sorted(want)}"))
            return results
    L = len(wl.rho)
    for method in wl.methods:
        for N, M in wl.sizes:
            cells = [out[(method, N)] for out in outputs]
            n_ok = [wl.trials - c["failure_count"] for c in cells]
            shapes_ok = all(
                c["M"] == M and c["bias"].shape == (L,)
                and c["var_scaled"].shape == (L,) for c in cells
            )
            n = sum(n_ok)
            finite = all(
                math.isfinite(c["mse_db"]) and np.all(np.isfinite(c["bias"]))
                for c, k in zip(cells, n_ok) if k
            )
            if not shapes_ok or n == 0 or not finite:
                results.append((False, f"{method} N={N}: malformed or all "
                                f"{len(cells) * wl.trials} trials failed"))
                continue
            mse = sum(k * 10.0 ** (c["mse_db"] / 10.0)
                      for c, k in zip(cells, n_ok)) / n
            db = 10.0 * math.log10(mse)
            target = MSE_DB_TARGETS[method][N]
            tol = mse_db_tolerance(n)
            ok = abs(db - target) <= tol
            results.append((ok, f"{method} N={N}: {db:.2f} dB vs {target:.2f} "
                            f"+-{tol:.2f} over {n} trials"))
    return results


def check_clt(wl: Workload, outputs: list[dict]) -> list[tuple[bool, str]]:
    """Pooled variance ratios per component; KS per call for moment_full."""
    results = []
    (N, M), = wl.sizes
    L = len(wl.rho)
    first = outputs[0]["predicted_var"]
    for i, out in enumerate(outputs):
        header = (out["method"], out["N"], out["M"], out["trials"])
        if header != (wl.methods[0], N, M, wl.trials):
            results.append((False, f"call {i}: header {header} does not match"))
        shapes = [out[k].shape for k in
                  ("predicted_var", "empirical_var", "ks_statistic")]
        if shapes != [(L,)] * 3 or not 0 <= out["failure_count"] <= wl.trials - 2:
            results.append((False, f"call {i}: malformed output"))
            return results
        if not (np.all(first > 0) and np.all(np.isfinite(first))
                and np.allclose(out["predicted_var"], first, rtol=1e-9, atol=0)):
            results.append((False, f"call {i}: predicted variance "
                            f"{out['predicted_var']} differs from {first} "
                            "or is not positive"))
    dof = [wl.trials - out["failure_count"] - 1 for out in outputs]
    pooled = sum(d * out["empirical_var"] for d, out in zip(dof, outputs)) / sum(dof)
    tol = log_var_ratio_tolerance(sum(dof) + 1)
    for k in range(L):
        ratio = pooled[k] / first[k]
        ok = bool(np.isfinite(ratio) and ratio > 0 and abs(math.log(ratio)) <= tol)
        results.append((ok, f"component {k + 1}: variance ratio {ratio:.3f} "
                        f"within exp(+-{tol:.3f}) over {sum(dof)} dof"))
    if wl.methods[0] == "moment_full":
        for i, (d, out) in enumerate(zip(dof, outputs)):
            bound = ks_tolerance(d + 1)
            ks = out["ks_statistic"]
            ok = bool(np.all(np.isfinite(ks)) and np.all(ks <= bound))
            results.append((ok, f"call {i}: KS {np.round(ks, 3).tolist()} "
                            f"<= {bound:.3f}"))
    return results


def check_outputs(wl: Workload, outputs: list[dict]) -> list[tuple[bool, str]]:
    if wl.command == "mse-sweep":
        return check_sweep(wl, outputs)
    return check_clt(wl, outputs)
