"""Per-layer timings of coveig's row kernels at fixed sizes.

    python bench/layers.py [--quick] [--out BENCH.json]

Run from anywhere; coveig is imported from the src/ of this checkout, and
BLAS is pinned to one thread. Every size draws one block of trials (64
rows, or 4 with --quick) and times, per trial:

  simulate_rows                 the sampling kernel, from the trials'
                                seeds, and its three steps timed in a
  simulate_rows.draw              copy of its loop: the state set from the
  simulate_rows.gram              seed, gammas and normals, the scaled
  simulate_rows.eigensolve        factor and its Gram matrix, zhetrd + dsterf
  secular_rows                  all N secular roots and their brackets
  quadrature_rows               the moments by quadrature
  residue_rows                  the moments by residues
  invert_rows                   the full inversion of the quadrature moments
  invert_known_rows             their known-multiplicity inversion
  mestre_rows                   Mestre's estimate

and, once per call, the CLT set-ups theta_mestre on criterion 6's model and
on two clusters a decade and a half apart at N > M (THETA_MESTRE_TALL, whose
first cluster's ellipse holds the origin), and theta_moment_estimator on
criterion 5's. Each layer is called once
untimed and then 7 times in a row (1 with --quick), and the file holds the
median and quartiles of the timed calls in ms per trial (per call for the
set-ups), with nproc, the numpy, scipy and BLAS versions and the git SHA.
Every layer, here and in the "fixed_cost" record, also holds the minor page
faults of a call (the ru_minflt delta; for the three sampling steps, their
faults in one call of the loop copy): a call whose temporaries pass the
allocator's trim threshold faults its heap in again each time. Since every
timed call follows a call of its own layer, its faults do not depend on
the layer timed before it.

The "trial_seeds" record times `ensemble._trial_seeds`, the per-call
SplitMix64 pass that derives every trial's seed, at TRIAL_SEED_COUNTS
trials, in ms per call: one untimed call, then 7 timed ones (1 with
--quick).

The "fixed_cost" record times one call of each row kernel on the trial
path, and of a whole `experiments._trials` chunk (moment_full), at 60 x 120
on criterion 5's model with 1, 5 and 64 rows (FIXED_ROWS), in ms per call:
35 calls per cell at 1 and 5 rows and 7 at 64 (5 and 1 with --quick), the
cells taking turns, so that each call follows another kernel's, as in a
chunk. Its fixed part is the 1-row time less the per-row slope between 1
and 64 rows, the cost a chunk pays however few trials it holds.

The "import" record runs three probes (IMPORT_PROBES), each with
perf_counter inside 7 fresh interpreters (1 with --quick): `import coveig`
alone; `import coveig.cli`, what every CLI process pays before its first
call; and `import coveig` plus `theta_moment_estimator` on criterion 5's
model, the set-up of clt-check's moment estimator. Each holds the peak
RSS right after it, the heavy modules (HEAVY_MODULES) that it loaded and
every scipy module that it loaded.
"""

from __future__ import annotations

import os

# before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from coveig import (  # noqa: E402
    PopulationModel,
    multiplicities,
    theta_mestre,
    theta_moment_estimator,
)
from coveig import ensemble, experiments  # noqa: E402
from coveig._lapack import blas, lapack  # noqa: E402
from coveig.empirical import secular_rows  # noqa: E402
from coveig.inversion import invert_known_rows, invert_rows  # noqa: E402
from coveig.mestre import mestre_rows  # noqa: E402
from coveig.moments import quadrature_rows, residue_rows  # noqa: E402

# (rho, N, M): N < M, N = M and N > M; the aspect is N / M
SIZES = [((1.0, 3.0), 60, 120), ((1.0, 3.0, 5.0), 150, 400),
         ((1.0, 3.0, 10.0), 240, 2400), ((1.0, 3.0), 120, 120),
         ((1.0, 3.0), 240, 120)]
# the CLT set-ups of acceptance criteria 6 (Mestre) and 5 (moments)
THETA_MESTRE_MODEL = PopulationModel(rho=(1.0, 3.0, 10.0),
                                     weights=(1 / 3,) * 3, aspect=0.1)
# rho (1, 50) at c = 1.5: the double integral over cluster pairs did not
# converge there by 1024 nodes
THETA_MESTRE_TALL = PopulationModel(rho=(1.0, 50.0), weights=(0.5, 0.5),
                                    aspect=1.5)
THETA_MOMENT_MODEL = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5),
                                     aspect=0.5)
MASTER_SEED = 2026
# the layers timed at every size, in the order they run
LAYERS = ("simulate_rows", "simulate_rows.draw", "simulate_rows.gram",
          "simulate_rows.eigensolve", "secular_rows", "quadrature_rows",
          "residue_rows", "invert_rows", "invert_known_rows", "mestre_rows")
# trials per call of the trial_seeds record: a clt_wide call, a clt_full
# call and an acceptance run
TRIAL_SEED_COUNTS = (40, 300, 2000)
# rows per call of the fixed-cost record
FIXED_ROWS = (1, 5, 64)
# modules no probe may load; coveig reaches LAPACK, BLAS and the normal CDF
# without them
HEAVY_MODULES = ("scipy.linalg", "scipy.special", "numpy.f2py", "numpy.testing")
# the statements each import probe times in its fresh interpreters
IMPORT_PROBES = {
    "coveig": "import coveig",
    "cli": "import coveig.cli",
    "clt_full_setup": (
        "import coveig\n"
        "coveig.theta_moment_estimator(coveig.PopulationModel(\n"
        "    rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5))"),
}
# the peak RSS is VmHWM where /proc has it: after exec, ru_maxrss still
# holds the bench process's own high-water mark when that is higher
_IMPORT_PROBE = """
import json, resource, sys, time
t0 = time.perf_counter()
{statement}
seconds = time.perf_counter() - t0
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "seconds": seconds,
    "peak_kb": peak,
    "heavy": [name for name in {heavy!r} if name in sys.modules],
    "scipy": [name for name in sys.modules if name.split(".")[0] == "scipy"]}}))
"""


def _model(rho, N: int, M: int) -> PopulationModel:
    return PopulationModel(rho=rho, weights=(1 / len(rho),) * len(rho),
                           aspect=N / M)


def _mark():
    """(perf_counter, minor page faults, perf_counter): a step ends at the
    first reading and the next begins at the last, so that neither times
    the getrusage call between them."""
    t0 = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return t0, faults, time.perf_counter()


def _sampling_steps(model, N: int, M: int, seeds):
    """`ensemble.simulate_rows`'s loop with each step timed: returns its
    rows, and the seconds spent and minor page faults taken setting each
    state from its seed and drawing, forming the Gram matrices and
    diagonalizing them."""
    scale, lower = ensemble._sampling_layout(model, N, M)
    n = min(N, M)
    rng = np.random.Generator(np.random.SFC64(0))
    states = np.repeat(seeds[:, None], 4, axis=1)
    states[:, 3] = 1
    out = np.empty((len(states), n))
    diag = np.arange(n)
    below = n * (n - 1) // 2
    root_half = np.sqrt(0.5)
    lwork = ensemble._workspace(n)
    top = np.zeros((n, n), dtype=np.complex128, order="F")
    tail = np.empty((N - n, n), dtype=np.complex128, order="F")
    spent = np.zeros(3)
    faults = np.zeros(3, dtype=np.int64)
    for t, state in enumerate(states):
        marks = [_mark()]
        rng.bit_generator.state = {"bit_generator": "SFC64",
                                   "state": {"state": state},
                                   "has_uint32": 0, "uinteger": 0}
        rng.bit_generator.random_raw(ensemble._SFC64_WARMUP)
        top[diag, diag] = np.sqrt(rng.standard_gamma(M - diag))
        draws = rng.standard_normal(2 * (below + tail.size))
        draws *= root_half
        draws = draws.view(np.complex128)
        marks.append(_mark())
        top[lower] = draws[:below]
        top *= scale[:n, None]
        gram, _ = lapack.zlauum(top, lower=1, overwrite_c=1)
        if tail.size:
            tail[:] = draws[below:].reshape(tail.shape)
            tail *= scale[n:, None]
            gram = blas.zherk(1.0, tail, beta=1.0, c=gram, trans=2,
                              lower=1, overwrite_c=1)
        marks.append(_mark())
        out[t] = ensemble._gram_eigenvalues(gram, lwork)
        marks.append(_mark())
        for k, (start, end) in enumerate(zip(marks, marks[1:])):
            spent[k] += end[0] - start[2]
            faults[k] += end[1] - start[1]
    return out, spent, faults


def _timed(fn, *args):
    """Seconds and minor page faults of the call fn(*args)."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    fn(*args)
    seconds = time.perf_counter() - t0
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _size_layers(rho, N: int, M: int, rows: int, repeats: int):
    """Seconds per trial and minor page faults per call of every layer,
    one list of repeats each."""
    model = _model(rho, N, M)
    L = model.L
    counts = multiplicities(model, N)
    seeds = ensemble._trial_seeds(MASTER_SEED, np.arange(rows))
    pos = ensemble.simulate_rows(model, N, M, seeds)
    copied, _, _ = _sampling_steps(model, N, M, seeds)
    if not np.array_equal(copied, pos):
        raise SystemExit(f"the sampling loop's copy differs at {N}x{M}")
    gamma, _, _, errors = quadrature_rows(pos, N, M, L)
    gamma = gamma[[e is None for e in errors]]
    weights = counts / N

    def timed(name, fn, *args):
        return lambda: [(name, *_timed(fn, *args))]

    def sampling_steps():
        _, spent, taken = _sampling_steps(model, N, M, seeds)
        return [(f"simulate_rows.{step}", seconds, minflt) for step, seconds,
                minflt in zip(("draw", "gram", "eigensolve"), spent, taken)]

    # (trials per call, a call returning (layer, seconds, faults) records)
    calls = [
        (rows, timed("simulate_rows", ensemble.simulate_rows, model, N, M,
                     seeds)),
        (rows, sampling_steps),
        (rows, timed("secular_rows", secular_rows, pos, N, M, N)),
        (rows, timed("quadrature_rows", quadrature_rows, pos, N, M, L)),
        (rows, timed("residue_rows", residue_rows, pos, N, M, L)),
        (len(gamma), timed("invert_rows", invert_rows, gamma, L)),
        (len(gamma), timed("invert_known_rows", invert_known_rows, gamma,
                           weights)),
        (rows, timed("mestre_rows", mestre_rows, pos, N, M, counts)),
    ]
    samples = {name: [] for name in LAYERS}
    faults = {name: [] for name in LAYERS}
    for trials, call in calls:
        if not trials:
            continue
        call()  # untimed, so that the first timed call follows its own layer
        for _ in range(repeats):
            for name, seconds, minflt in call():
                samples[name].append(seconds / trials)
                faults[name].append(minflt)
    return samples, faults


def _fixed_cost(repeats: int) -> dict:
    """ms per call of each trial-path kernel, and of a moment_full chunk of
    `experiments._trials`, at 60 x 120 with FIXED_ROWS rows; see the module
    docstring."""
    model, N, M = THETA_MOMENT_MODEL, 60, 120
    L = model.L
    counts = multiplicities(model, N)
    seeds = ensemble._trial_seeds(MASTER_SEED, np.arange(max(FIXED_ROWS)))
    pos = ensemble.simulate_rows(model, N, M, seeds)
    gamma, _, _, errors = quadrature_rows(pos, N, M, L)
    if any(errors):
        raise SystemExit("the fixed-cost draws must all have moments")
    calls = {
        "simulate_rows": lambda T: ensemble.simulate_rows(model, N, M,
                                                          seeds[:T]),
        "quadrature_rows": lambda T: quadrature_rows(pos[:T], N, M, L),
        "residue_rows": lambda T: residue_rows(pos[:T], N, M, L),
        "invert_rows": lambda T: invert_rows(gamma[:T], L),
        "invert_known_rows": lambda T: invert_known_rows(gamma[:T],
                                                         counts / N),
        "mestre_rows": lambda T: mestre_rows(pos[:T], N, M, counts),
        "_trials": lambda T: experiments._trials(
            model, N, M, counts, seeds[:T], ("moment_full",)),
    }
    samples = {(name, T): [] for name in calls for T in FIXED_ROWS}
    for rep in range(5 * repeats):
        for T in FIXED_ROWS:
            if T == max(FIXED_ROWS) and rep % 5:
                continue
            for name, call in calls.items():
                samples[name, T].append(_timed(call, T))
    layers = []
    for name in calls:
        cells = {T: _summary([s for s, _ in samples[name, T]])
                 for T in FIXED_ROWS}
        least, most = min(FIXED_ROWS), max(FIXED_ROWS)
        one, many = cells[least]["p50"], cells[most]["p50"]
        per_row = (many - one) / (most - least)
        layers.append({"layer": name,
                       "rows": [{"rows": T, "ms_per_call": cells[T],
                                 "minflt_per_call": _summary(
                                     [f for _, f in samples[name, T]], 1)}
                                for T in FIXED_ROWS],
                       "ms_per_row": per_row,
                       "fixed_ms": one - least * per_row})
    return {"N": N, "M": M, "rho": list(model.rho), "method": "moment_full",
            "layers": layers}


def _trial_seeds_record(repeats: int) -> dict:
    """ms per call of `ensemble._trial_seeds` at each of TRIAL_SEED_COUNTS
    trials; see the module docstring."""
    rows = []
    for n in TRIAL_SEED_COUNTS:
        indices = np.arange(n)
        ensemble._trial_seeds(MASTER_SEED, indices)
        stats = _summary([_timed(ensemble._trial_seeds, MASTER_SEED,
                                 indices)[0] for _ in range(repeats)])
        rows.append({"trials": n, "ms_per_call": stats,
                     "us_per_trial": 1e3 * stats["p50"] / n})
    return {"master_seed": MASTER_SEED, "rows": rows}


def _summary(values: list, scale: float = 1e3) -> dict | None:
    """Median and quartiles of the values times scale (seconds to ms by
    default; 1 for page faults)."""
    if not values:
        return None
    p25, p50, p75 = np.percentile(np.asarray(values) * scale, [25, 50, 75])
    return {"p25": p25, "p50": p50, "p75": p75, "n": len(values)}


def _import_record(interpreters: int) -> dict:
    """Each import probe in fresh interpreters, the probes taking turns: its
    wall time, the peak RSS right after it, and the heavy and the scipy
    modules it loaded."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    runs = {name: [] for name in IMPORT_PROBES}
    for _ in range(interpreters):
        for name, statement in IMPORT_PROBES.items():
            code = _IMPORT_PROBE.format(statement=statement,
                                        heavy=HEAVY_MODULES)
            runs[name].append(json.loads(subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True).stdout))
    record = {"interpreters": interpreters}
    for name, probes in runs.items():
        record[name] = {
            "statement": IMPORT_PROBES[name],
            "ms": _summary([run["seconds"] for run in probes]),
            "maxrss_mb": _summary([run["peak_kb"] for run in probes],
                                  1 / 1024),
            "heavy_modules": sorted({module for run in probes
                                     for module in run["heavy"]}),
            "scipy_modules": sorted({module for run in probes
                                     for module in run["scipy"]}),
        }
    return record


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _blas(config) -> str | None:
    try:
        blas_info = config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return blas_info.get("openblas configuration") or " ".join(
        str(blas_info.get(key, "")) for key in ("name", "version")).strip()


def _environment() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "affinity": (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "blas_threads": 1,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="4-row blocks and one repeat, to check that "
                             "every layer runs")
    parser.add_argument("--out", default="BENCH.json",
                        help="JSON file to write (default: BENCH.json)")
    args = parser.parse_args(argv)
    rows, repeats = (4, 1) if args.quick else (64, 7)

    imported = _import_record(repeats)
    seeding = _trial_seeds_record(repeats)
    fixed = _fixed_cost(repeats)
    layers = []
    for rho, N, M in SIZES:
        samples, faults = _size_layers(rho, N, M, rows, repeats)
        for name, seconds in samples.items():
            layers.append({"layer": name, "N": N, "M": M, "rho": list(rho),
                           "ms_per_trial": _summary(seconds),
                           "minflt_per_call": _summary(faults[name], 1)})
    setups = []
    for fn, model in ((theta_mestre, THETA_MESTRE_MODEL),
                      (theta_mestre, THETA_MESTRE_TALL),
                      (theta_moment_estimator, THETA_MOMENT_MODEL)):
        fn(model)  # warm caches outside the timing
        calls = [_timed(fn, model) for _ in range(repeats)]
        setups.append({"layer": fn.__name__, "rho": list(model.rho),
                       "aspect": model.aspect,
                       "ms_per_call": _summary([s for s, _ in calls]),
                       "minflt_per_call": _summary([f for _, f in calls], 1)})
    result = {
        "environment": _environment(),
        "protocol": {"rows": rows, "repeats": repeats,
                     "master_seed": MASTER_SEED,
                     "statistics": "median and quartiles of the repeats"},
        "layers": layers,
        "setups": setups,
        "trial_seeds": seeding,
        "fixed_cost": fixed,
        "import": imported,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")

    for row in layers:
        stats, faults = row["ms_per_trial"], row["minflt_per_call"]
        cell = ("-" if stats is None else
                f"{stats['p50']:.4f} [{stats['p25']:.4f}, {stats['p75']:.4f}]"
                f" ms/trial, {faults['p50']:.0f} faults/call")
        print(f"{row['N']:>4} x {row['M']:<5} {row['layer']:<26} {cell}")
    for row in setups:
        stats, faults = row["ms_per_call"], row["minflt_per_call"]
        print(f"{'set-up':<12} {row['layer']:<26} rho {row['rho']} c "
              f"{row['aspect']}: {stats['p50']:.3f} "
              f"[{stats['p25']:.3f}, {stats['p75']:.3f}] ms/call, "
              f"{faults['p50']:.0f} faults/call")
    for row in seeding["rows"]:
        print(f"{'seeding':<12} {'_trial_seeds':<26} {row['trials']:>5} "
              f"trials: {row['ms_per_call']['p50']:.4f} ms/call "
              f"({row['us_per_trial']:.3f} us/trial)")
    for row in fixed["layers"]:
        cells = " ".join(f"{cell['rows']}: {cell['ms_per_call']['p50']:.4f}"
                         for cell in row["rows"])
        print(f"{fixed['N']:>4} x {fixed['M']:<5} {row['layer']:<26} ms/call "
              f"{cells}; fixed {row['fixed_ms']:.4f}, per row "
              f"{row['ms_per_row']:.4f}")
    for name in IMPORT_PROBES:
        probe = imported[name]
        stats, rss = probe["ms"], probe["maxrss_mb"]
        print(f"{'import':<12} {name:<26} {stats['p50']:.1f} "
              f"[{stats['p25']:.1f}, {stats['p75']:.1f}] ms, "
              f"{rss['p50']:.1f} MB peak RSS, heavy modules "
              f"{probe['heavy_modules'] or 'none'}, "
              f"{len(probe['scipy_modules'])} scipy modules")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
