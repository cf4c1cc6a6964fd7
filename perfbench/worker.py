"""One benchmark process: `python3 -m perfbench.worker MODE WORKLOAD SEED
SECONDS OUTDIR`, run from the checkout root by run.py in a fresh
interpreter with BLAS pinned to one thread.

Modes:
  setup    time `import coveig` and, on the CLT workloads, one call of the
           predicted-covariance function clt-check uses (the set-up a user
           waits for before the first trial)
  measure  the same set-up sample, then untraced `coveig.cli.main` calls
           until SECONDS have passed
  trace    the set-up split (import, density_curve, v_matrix, theta_*),
           then pairs of one untraced CLI call and one traced mirror call
           with the same master seed, until SECONDS have passed

The process writes OUTDIR/result.json; it prints nothing of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

# stdlib only, so importing it leaves `import coveig` to pay for numpy/scipy
from .workloads import CLT_NODES, WORKLOADS


def _timed_import() -> float:
    t0 = time.perf_counter()
    import coveig  # noqa: F401
    return time.perf_counter() - t0


def _theta_call(wl):
    """The covariance set-up clt-check performs, with its arguments."""
    import coveig

    model = coveig.PopulationModel(rho=wl.rho, weights=wl.weights,
                                   aspect=wl.aspect)
    return getattr(coveig, wl.theta)(model, nodes=CLT_NODES)


def _setup_sample(wl) -> dict:
    """Wall time of the import plus, on CLT workloads, the theta call."""
    t0 = time.perf_counter()
    import_s = _timed_import()
    if wl.theta:
        _theta_call(wl)
    return {"import_s": import_s, "setup_s": time.perf_counter() - t0}


def _cli_call(wl, master_seed: int, outdir, tag: str):
    """One untraced `coveig.cli.main` call; returns its record for run.py."""
    from coveig.cli import main

    cfg = outdir / f"{tag}.config.json"
    cfg.write_text(json.dumps(wl.cli_config(master_seed)))
    if wl.command == "mse-sweep":
        out = outdir / f"{tag}.csv"
        argv = ["mse-sweep", "--config", str(cfg), "--out-csv", str(out)]
    else:
        out = outdir / f"{tag}.json"
        argv = ["clt-check", "--config", str(cfg), "--json", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"coveig {wl.command} exited with {rc}")
    return {"master_seed": master_seed, "wall_s": wall, "path": str(out)}


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(wl, seed: int, seconds: float, outdir) -> dict:
    return _setup_sample(wl)


def measure(wl, seed: int, seconds: float, outdir) -> dict:
    result = _setup_sample(wl)
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        calls.append(_cli_call(wl, seed + len(calls), outdir, f"call{len(calls)}"))
    result.update(calls=calls, peak_rss_mb=_peak_rss_mb(), versions=_versions())
    return result


def _split(wl) -> dict:
    """Set-up timed layer by layer from outside, in this fresh process."""
    out = {"coveig.import_s": _timed_import()}
    import coveig

    names = ("limiting.density_curve.busy_s", "limiting.density_curve.clusters",
             "clt.v_matrix.busy_s", "clt.v_matrix.nodes")
    out.update(dict.fromkeys(names, 0.0))
    for theta in ("theta_mestre", "theta_moment_estimator"):
        out[f"clt.{theta}.busy_s"] = out[f"clt.{theta}.self_s"] = 0.0
    if not wl.theta:
        return out
    model = coveig.PopulationModel(rho=wl.rho, weights=wl.weights,
                                   aspect=wl.aspect)
    t0 = time.perf_counter()
    curve = coveig.density_curve(model, model.aspect)
    density_s = time.perf_counter() - t0
    out["limiting.density_curve.busy_s"] = density_s
    out["limiting.density_curve.clusters"] = len(curve.clusters)
    if wl.theta == "theta_moment_estimator":
        t0 = time.perf_counter()
        _, meta = coveig.v_matrix(model, model.L, nodes=CLT_NODES)
        out["clt.v_matrix.busy_s"] = time.perf_counter() - t0
        out["clt.v_matrix.nodes"] = meta["nodes"]
    t0 = time.perf_counter()
    _theta_call(wl)
    theta_s = time.perf_counter() - t0
    out[f"clt.{wl.theta}.busy_s"] = theta_s
    out[f"clt.{wl.theta}.self_s"] = theta_s - density_s
    return out


def trace(wl, seed: int, seconds: float, outdir) -> dict:
    metrics = _split(wl)
    from .check import read_output
    from .mirror import layer_metrics, mirror_deviation, route_gap, run_mirror
    from .spans import Recorder

    rec = Recorder()
    calls, kept, devs = [], [], []
    untraced = traced = 0.0
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        master = seed + len(calls)
        record = _cli_call(wl, master, outdir, f"call{len(calls)}")
        calls.append(record)
        n_spans = len(rec.spans)
        mirrored, kept_now = run_mirror(rec, wl, master)
        traced += rec.spans[n_spans].duration  # the root span just recorded
        untraced += record["wall_s"]
        kept += kept_now
        devs.append(mirror_deviation(wl, mirrored, read_output(wl, record["path"])))
    metrics.update(layer_metrics(rec))
    metrics["moments.route_gap_max"] = route_gap(kept, len(wl.rho))
    metrics["trace.mirror_max_dev"] = max(devs)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    rec.dump(outdir / "spans.json")
    return {"calls": calls, "layers": metrics, "versions": _versions()}


def main(argv) -> int:
    mode, name, seed, seconds, outdir = argv
    wl = WORKLOADS[name]
    outdir = Path(outdir)
    run = {"setup": setup, "measure": measure, "trace": trace}[mode]
    result = run(wl, int(seed), float(seconds), outdir)
    (outdir / "result.json").write_text(
        json.dumps(result, default=lambda v: v.item())  # numpy scalars
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
