"""Benchmark of coveig through the entry points its users call.

    python3 perfbench/run.py --workload {sweep_split,clt_wide,clt_full}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout root is the parent of this directory and
coveig is imported from its src/. Every workload runs in fresh processes
with BLAS pinned to one thread through their environment.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: untraced
`coveig.cli.main` calls (trials per second), the set-up a user waits for
(median of several fresh processes), peak memory and the share of
estimates that succeeded. --trace 1 gives the per-layer metrics from a
separate run: the set-up timed layer by layer, and a traced mirror of the
harness's trial loop next to untraced calls with the same seeds.

Every CLI output is checked against the frozen acceptance targets (see
check.py). The script prints the environment, each check, each metric by
name with its unit, and as its last line one JSON object; it exits 1 when
an output is wrong and 2 when the run itself fails, then without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import the benchmark as the perfbench package

from perfbench.check import check_outputs, failure_count, read_output  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Fresh processes whose set-up wall times give setup_s as their median; the
# measuring process is one of them.
SETUP_SAMPLES = 3
# Whole-run limit, below the 180 s a run may take.
TIME_LIMIT_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
RUNS_DIR = ROOT / ".perfbench_runs"


class BenchError(Exception):
    """The run could not produce trustworthy numbers."""


def _worker_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(mode, wl, seed, seconds, outdir: Path, deadline: float) -> dict:
    """One fresh worker process; returns the result it wrote."""
    outdir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "perfbench.worker", mode, wl.name, str(seed),
           str(seconds), str(outdir)]
    try:
        # on timeout, run() kills the worker and waits for it before raising
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker overran the {TIME_LIMIT_S:.0f} s "
                         "limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads((outdir / "result.json").read_text())


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(wl, seed, seconds, rundir, deadline):
    setups = [
        run_worker("setup", wl, seed, seconds, rundir / f"setup{i}",
                   deadline)["setup_s"]
        for i in range(SETUP_SAMPLES - 1)
    ]
    res = run_worker("measure", wl, seed, seconds, rundir / "measure", deadline)
    setups.append(res["setup_s"])
    calls = res["calls"]
    metrics = {
        "trials_per_s": wl.trials_per_call * len(calls)
        / sum(c["wall_s"] for c in calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return metrics, res


def per_layer(wl, seed, seconds, rundir, deadline):
    res = run_worker("trace", wl, seed, seconds, rundir / "trace", deadline)
    spans = rundir / "trace" / "spans.json"
    shutil.copy(spans, RUNS_DIR / f"spans-{wl.name}-{seed}.json")
    return res["layers"], res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="master seed of the first CLI call (default: the "
                        "seed of the acceptance criterion the workload mirrors)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed

    if not (ROOT / "src" / "coveig" / "__init__.py").is_file():
        print(f"error: no coveig package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    rundir = RUNS_DIR / f"{wl.name}-{seed}-{args.trace}-{os.getpid()}"
    try:
        run = per_layer if args.trace else end_to_end
        metrics, res = run(wl, seed, args.seconds, rundir, deadline)
        outputs = [read_output(wl, c["path"]) for c in res["calls"]]
        checks = check_outputs(wl, outputs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(outputs) * wl.attempts_per_call
    failed = sum(failure_count(wl, out) for out in outputs)
    if args.trace:
        metrics["experiments.failed_frac"] = failed / attempted
    else:
        metrics["ok_frac"] = 1.0 - failed / attempted

    env = {
        "workload": wl.name,
        "seeds": [c["master_seed"] for c in res["calls"]],
        "trials_per_call": wl.trials_per_call,
        "call_wall_s": [round(c["wall_s"], 4) for c in res["calls"]],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        **res["versions"],
    }
    print("env " + json.dumps(env))
    for ok, text in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {text}")

    result = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            print(f"error: metric {entry['name']} is {value}", file=sys.stderr)
            return 2
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = all(ok for ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
