"""Command line interface.

Subcommands:
  simulate    draw an observation matrix and store it in the binary format
  estimate    estimate moments / eigenvalues from stored observations
  density     limiting density curve and support clusters, as CSV + JSON
  mse-sweep   Monte Carlo MSE sweep over problem sizes, as CSV
  clt-check   compare scaled-deviation histograms with the predicted law

Model files are JSON: {"rho": [...], "weights": [...], "aspect": c}.
All JSON outputs carry "schema_version": 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .empirical import secular_zeros
from .ensemble import (
    generate_observations,
    read_observations,
    sample_spectrum,
    write_observations,
)
from .errors import CoveigError, InputError
from .experiments import ExperimentConfig, run_clt_histogram, run_mse_sweep
from .inversion import invert_moments, invert_moments_known_multiplicities
from .limiting import density_curve, is_separable
from .mestre import mestre_estimate
from .model import PopulationModel, multiplicities
from .moments import moments_by_quadrature, moments_by_residues

SCHEMA_VERSION = 2


def _model(raw) -> PopulationModel:
    return PopulationModel(
        rho=tuple(raw["rho"]),
        weights=tuple(raw["weights"]),
        aspect=float(raw["aspect"]),
    )


def _load(path, build=_model, kind="model"):
    """build(raw) on the JSON document at path; a missing key is an
    InputError naming the file and the key, not a KeyError traceback."""
    with open(path) as fh:
        raw = json.load(fh)
    try:
        return build(raw)
    except KeyError as exc:
        raise InputError(f"{path}: missing {kind} field {exc}") from exc


def _dump_json(obj, path):
    text = json.dumps(obj, indent=2)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_simulate(args) -> int:
    model = _load(args.model)
    Y = generate_observations(model, args.N, args.M, args.seed)
    write_observations(args.out, Y, seed=args.seed)
    print(f"wrote {args.N} x {args.M} observations to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    Y, seed = read_observations(args.obs)
    spectrum = sample_spectrum(Y, seed=seed)
    model = _load(args.model) if args.model else None
    L = args.L if args.L is not None else (model.L if model else None)
    if L is None:
        raise InputError("need --L or --model to fix the number of eigenvalues")

    out = {
        "schema_version": SCHEMA_VERSION,
        "N": spectrum.N,
        "M": spectrum.M,
        "seed": seed,
        "method": args.method,
    }
    secular = secular_zeros(spectrum)
    if args.method == "mestre":
        if model is None:
            raise InputError("--method mestre needs --model for multiplicities")
        counts = multiplicities(model, spectrum.N)
        rho_hat = mestre_estimate(spectrum, counts, secular)
        out["rho_hat"] = list(rho_hat)
        out["multiplicities"] = [int(c) for c in counts]
        _dump_json(out, args.json)
        return 0

    if args.route == "residues":
        est = moments_by_residues(spectrum, L, secular=secular)
    else:
        est = moments_by_quadrature(spectrum, L, secular=secular)
    out["gamma_hat"] = list(est.gamma_hat)
    out["moment_route"] = est.method
    out["imag_leakage"] = est.imag_leakage
    out["node_count"] = est.node_count
    if args.moments_only:
        _dump_json(out, args.json)
        return 0

    if args.method == "known-mult":
        if model is None:
            raise InputError("--method known-mult needs --model for weights")
        counts = multiplicities(model, spectrum.N)
        result = invert_moments_known_multiplicities(
            est, counts / spectrum.N, project=args.project
        )
    else:
        result = invert_moments(est, L, project=args.project)
    out.update(
        rho_hat=list(result.rho_hat),
        c_hat=list(result.c_hat),
        method_detail=result.method,
        projected=result.projected,
        cond_gamma=None if np.isnan(result.cond_gamma) else result.cond_gamma,
        weight_residual_max=float(result.weight_residuals.max()),
    )
    _dump_json(out, args.json)
    return 0


def _cmd_density(args) -> int:
    model = _load(args.model)
    curve = density_curve(
        model, model.aspect, grid_spec=args.step, epsilon=args.epsilon
    )
    with open(args.out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "density"])
        for x, d in zip(curve.grid, curve.density):
            writer.writerow([f"{x:.12g}", f"{d:.12g}"])
    _dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "clusters": [list(c) for c in curve.clusters],
            "mass_at_zero": curve.mass_at_zero,
            "epsilon": curve.epsilon,
            "separable": is_separable(curve, model.L),
            "total_mass": curve.total_mass(),
        },
        args.out_json,
    )
    print(
        f"wrote {curve.grid.size} density samples to {args.out_csv}; "
        f"{len(curve.clusters)} cluster(s)"
    )
    return 0


def _sizes_from_config(raw, model) -> tuple[tuple[int, int], ...]:
    if "sizes" in raw:
        return tuple((int(n), int(m)) for n, m in raw["sizes"])
    if "N" in raw:
        return tuple(
            (int(n), int(round(int(n) / model.aspect))) for n in raw["N"]
        )
    raise InputError("sweep config needs 'sizes' ([[N, M], ...]) or 'N' list")


def _sweep_config(raw) -> ExperimentConfig:
    model = _model(raw["model"])
    return ExperimentConfig(
        model=model,
        sizes=_sizes_from_config(raw, model),
        trials=int(raw["trials"]),
        master_seed=int(raw.get("master_seed", 0)),
        methods=tuple(raw.get("methods", ["moment_full", "mestre"])),
        infeasible=raw.get("infeasible", "exclude"),
        moment_route=raw.get("moment_route", "quadrature"),
    )


def _cmd_mse_sweep(args) -> int:
    config = _load(args.config, _sweep_config, "config")
    log = print if args.verbose else None
    report = run_mse_sweep(config, log=log)
    L = config.model.L
    with open(args.out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["method", "N", "M", "mse_db", "failure_count",
                  "projected_count", "wall_time_s"]
        header += [f"bias_{k + 1}" for k in range(L)]
        header += [f"var_scaled_{k + 1}" for k in range(L)]
        writer.writerow(header)
        for row in report.rows:
            record = [row.method, row.N, row.M, f"{row.mse_db:.6f}",
                      row.failure_count, row.projected_count,
                      f"{row.wall_time:.3f}"]
            record += [f"{b:.6g}" for b in row.bias]
            record += [f"{v:.6g}" for v in row.variance]
            writer.writerow(record)
    print(f"wrote {len(report.rows)} sweep rows to {args.out_csv}")
    return 0


def _clt_config(raw) -> dict:
    """Keyword arguments of run_clt_histogram."""
    return dict(
        model=_model(raw["model"]),
        N=int(raw["N"]),
        M=int(raw["M"]),
        trials=int(raw["trials"]),
        master_seed=int(raw.get("master_seed", 0)),
        method=raw.get("method", "moment_full"),
        bins=int(raw.get("bins", 40)),
    )


def _cmd_clt_check(args) -> int:
    config = _load(args.config, _clt_config, "config")
    hist = run_clt_histogram(**config)
    out = {
        "schema_version": SCHEMA_VERSION,
        "method": hist.method,
        "N": hist.N,
        "M": hist.M,
        "trials": config["trials"],
        "failure_count": hist.failure_count,
        "predicted_var": list(hist.predicted_var),
        "empirical_var": list(hist.empirical_var),
        "ks_statistic": list(hist.ks_statistic),
        "overlay_x": [list(x) for x in hist.overlay_x],
        "overlay_pdf": [list(p) for p in hist.overlay_pdf],
    }
    _dump_json(out, args.json)
    if args.hist_csv:
        with open(args.hist_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["component", "bin_lo", "bin_hi", "density"])
            for k in range(hist.counts.shape[0]):
                for i in range(hist.counts.shape[1]):
                    writer.writerow([
                        k + 1,
                        f"{hist.bin_edges[k, i]:.9g}",
                        f"{hist.bin_edges[k, i + 1]:.9g}",
                        f"{hist.counts[k, i]:.9g}",
                    ])
        print(f"wrote histogram bins to {args.hist_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coveig",
        description="Estimate distinct population covariance eigenvalues "
        "from large sample spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw and store an observation matrix")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .bin path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate from stored observations")
    p.add_argument("--obs", required=True, help="observation .bin file")
    p.add_argument("--model", help="model JSON (for known-mult/mestre)")
    p.add_argument("--L", type=int, help="number of distinct eigenvalues")
    p.add_argument(
        "--method", choices=["full", "known-mult", "mestre"], default="full"
    )
    p.add_argument(
        "--route", choices=["quadrature", "residues"], default="quadrature"
    )
    p.add_argument("--moments-only", action="store_true",
                   help="stop after moment estimation")
    p.add_argument("--project", action="store_true",
                   help="project infeasible inversions instead of failing")
    p.add_argument("--json", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("density", help="limiting density and clusters")
    p.add_argument("--model", required=True)
    p.add_argument("--step", type=float, help="grid step (default: auto)")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", default="-")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("mse-sweep", help="Monte Carlo MSE sweep")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_mse_sweep)

    p = sub.add_parser("clt-check", help="normality check of scaled errors")
    p.add_argument("--config", required=True, help="clt config JSON")
    p.add_argument("--json", default="-", help="output path (default: stdout)")
    p.add_argument("--hist-csv", help="optional histogram CSV")
    p.set_defaults(func=_cmd_clt_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # flush inside the try, so that a reader gone early is met here
        sys.stdout.flush()
        return status
    except CoveigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early (`coveig estimate ... | head -5`); point it
        # at devnull so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
