"""Monte Carlo experiment harness.

Reproduces the package's headline numbers: mean-squared-error sweeps of the
competing estimators across problem sizes, and histogram checks of the
asymptotic normality predictions. Every trial draws its seed from
(master_seed, trial_index), so runs are reproducible: its seed is
``trial_seed(master_seed, index)``, which a call derives for all of its
trial indices in one SplitMix64 pass (`ensemble._trial_seeds`) before any
worker forks, and its draws come from SFC64 seeded from that one word
(see `coveig.ensemble`).

Trials run in chunks of consecutive trials of one (N, M). Trial 0 runs
alone first. On Linux, when its time projects the rest to more than a
tenth of a second, the calling process forks (`os.fork`) one worker per
further CPU in its affinity mask (`taskset -c 0 ...` keeps it on one) and
runs the set-up of the call, such as a CLT covariance, while they start;
then it and the workers each take the next chunk of a guided plan (guided
self-scheduling, Polychronopoulos & Kuck 1987) from one counter in shared
memory, locked by a pipe holding one byte, until none is left. A chunk
holds ceil(remaining / 2W) trials for W processes, never fewer than about
10 ms of trial 0's time nor more than 64, so chunks shrink toward the end
and a slow process holds up the others for at most one small chunk. Serially the same plan runs with W = 1. Pin
BLAS to one thread (OPENBLAS_NUM_THREADS=1) so that the processes do not
oversubscribe the CPUs. A chunk runs through the row kernels: the draws
and their eigenvalues through `ensemble.simulate_rows`, the moments on
either route and both inversions through those of `moments` and
`inversion`, and Mestre through `mestre.mestre_rows`, on cluster contours
where a trial's sample clusters separate and on the secular roots below its
last block where they do not. A row of a kernel equals its one-row call bit for
bit, so outputs depend neither on the worker count nor on the chunks. A
chunk returns one structured array, a row per trial, and the chunks'
arrays are concatenated in trial order. `SweepRow.wall_time` (the CSV's
wall_time_s) is busy time summed over trials, not elapsed time; a chunk's
kernel time, the sampling included, is split evenly over its trials.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .clt import theta_mestre, theta_moment_estimator
from .ensemble import _dimensions, _integer, _trial_seeds, simulate_rows
from .errors import (
    ConditioningError,
    ContourError,
    ConvergenceError,
    CoveigError,
    InputError,
    InvalidRootsError,
    InvalidWeightsError,
)
from .inversion import invert_known_rows, invert_rows
from .mestre import mestre_rows
from .model import PopulationModel, multiplicities
from .moments import quadrature_rows, residue_rows

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "ExperimentReport",
    "CltHistogram",
    "run_mse_sweep",
    "run_clt_histogram",
]

_METHODS = ("moment_full", "moment_known_mult", "mestre")
_TRIAL_FAILURES = (
    InvalidRootsError,
    InvalidWeightsError,
    ConditioningError,
    ConvergenceError,
    ContourError,
)
# a smaller projected serial remainder is not worth forking workers for
_PARALLEL_MIN_S = 0.1
# a chunk of trials takes at least this long, by trial 0's time, so that
# the row kernels' per-call overhead stays small beside it
_CHUNK_MIN_S = 0.01
# most trials of one chunk, which go through the row kernels at once; it
# bounds the memory a chunk takes
_CHUNK_MAX = 64


def _trial_count(trials) -> int:
    """trials as an int (`_integer`), or an InputError if it is below 1 or
    too large for an array of its seeds."""
    trials = _integer(trials, "trials")
    if trials < 1:
        raise InputError("need at least one trial")
    if trials > np.iinfo(np.intp).max // 8:
        raise InputError(f"{trials} trials are too many to seed")
    return trials


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for a Monte Carlo sweep.

    sizes are (N, M) pairs. infeasible selects what happens when a moment
    inversion leaves the feasible cone: "exclude" drops the trial from the
    statistics (counted as a failure), "project" keeps the flagged
    projection.
    """

    model: PopulationModel
    sizes: tuple[tuple[int, int], ...]
    trials: int
    master_seed: int
    methods: tuple[str, ...] = _METHODS
    infeasible: str = "exclude"
    moment_route: str = "quadrature"

    def __post_init__(self):
        if isinstance(self.methods, str):
            raise InputError("methods must be a list of method names, "
                             f"not the string {self.methods!r}")
        sizes = tuple((_integer(n, "sizes"), _integer(m, "sizes"))
                      for n, m in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "trials", _trial_count(self.trials))
        object.__setattr__(self, "master_seed",
                           _integer(self.master_seed, "master_seed"))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not sizes:
            raise InputError("need at least one (N, M) size")
        for n, m in sizes:
            _dimensions(n, m)
        bad = set(self.methods) - set(_METHODS)
        if bad or not self.methods:
            raise InputError(f"unknown methods {sorted(bad)}; pick from {_METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise InputError(f"methods repeat: {list(self.methods)}")
        if self.infeasible not in ("exclude", "project"):
            raise InputError("infeasible must be 'exclude' or 'project'")
        if self.moment_route not in ("quadrature", "residues"):
            raise InputError("moment_route must be 'quadrature' or 'residues'")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated results for one (method, size) cell."""

    method: str
    N: int
    M: int
    mse_db: float
    bias: NDArray[np.float64]
    variance: NDArray[np.float64]  # empirical variance of M * (est - true)
    failure_count: int
    projected_count: int
    # busy seconds summed over the cell's trials, wherever each ran; a
    # chunk's kernel time (sampling included) is split evenly over its
    # trials, so this is not elapsed time
    wall_time: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[SweepRow, ...]
    # per-trial estimates, NaN rows for failed trials: (method, N) -> array
    estimates: dict = field(default_factory=dict)

    def row(self, method: str, N: int) -> SweepRow:
        for r in self.rows:
            if r.method == method and r.N == N:
                return r
        raise KeyError((method, N))


def _estimated(errors) -> np.ndarray:
    """Mask of the rows a row kernel estimated, from its per-row errors. A
    trial failure leaves its row NaN; any other error is raised, as the
    one-row call would raise it."""
    for err in errors:
        if err is not None and not isinstance(err, _TRIAL_FAILURES):
            raise err
    return np.array([err is None for err in errors], dtype=bool)


def _trials(model, N, M, counts, seeds, methods, project=False,
            route="quadrature"):
    """A block of Monte Carlo trials of every method at one (N, M).

    seeds holds each trial's seed, a uint64 array (`ensemble._trial_seeds`).
    Returns a structured array with one row per trial and the columns
    "estimates", (methods, L) with NaN rows where a method failed;
    "projected", the flags of projected inversions; and "seconds", the
    trial's share of each stage: "sampling", "moments" and each method.
    Every stage runs once over the block's stacked rows, its time split
    evenly over the trials: the draws and their eigenvalues, the moments on
    either route, each inversion, and Mestre, with the secular roots of the
    trials whose clusters do not separate, which no other method reads;
    such a trial solves only the roots below its last block. A trial's
    results do not depend on the block it is in.
    """
    L = model.L
    T = len(seeds)
    record = np.zeros(T, dtype=[
        ("estimates", float, (len(methods), L)),
        ("projected", bool, (len(methods),)),
        ("seconds", [(s, float) for s in ("sampling", "moments", *methods)]),
    ])
    est, projected, seconds = (record[name] for name in record.dtype.names)
    est[:] = np.nan
    t0 = time.perf_counter()
    lam = simulate_rows(model, N, M, seeds)
    seconds["sampling"] = (time.perf_counter() - t0) / T
    if (lam[:, 0] <= 0).any():
        raise InputError("sample spectrum is rank deficient")

    if any(m.startswith("moment") for m in methods):
        t0 = time.perf_counter()
        if route == "residues":
            gamma, errors = residue_rows(lam, N, M, L), [None] * T
        else:
            gamma, _, errors = quadrature_rows(lam, N, M, L)
        # a failed trial leaves every moment method's row NaN
        ok = np.flatnonzero(_estimated(errors))
        seconds["moments"] = (time.perf_counter() - t0) / T

    for i, method in enumerate(methods):
        t0 = time.perf_counter()
        if method == "mestre":
            est[:, i] = mestre_rows(lam, N, M, counts)
        elif ok.size:
            if method == "moment_full":
                rows = invert_rows(gamma[ok], L, project=project)
            else:
                rows = invert_known_rows(gamma[ok], counts / N,
                                         project=project)
            good = _estimated(rows.errors)
            est[ok[good], i] = rows.rho_hat[good]
            projected[ok[good], i] = rows.projected[good]
        seconds[method] = (time.perf_counter() - t0) / T
    return record


def _cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where trials stay serial."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _chunk_end(start: int, n: int, takers: int, floor: int,
               cell_size: int) -> int:
    """End of the chunk of the guided plan that begins at trial start:
    ceil(remaining / (2 takers)) trials, never fewer than floor nor more
    than _CHUNK_MAX, cut at the end of start's cell. The plan depends on
    the start alone, not on who takes the chunk."""
    size = min(_CHUNK_MAX, max(floor, -(-(n - start) // (2 * takers))))
    return min(n, start + size, (start // cell_size + 1) * cell_size)


def _take_chunks(run, take) -> dict:
    """run(chunk) for every chunk take() hands out until it hands out an
    empty one; returns {chunk start: its record}."""
    done = {}
    while chunk := take():
        done[chunk.start] = run(list(chunk))
    return done


def _worker(run, take, stop, fd):
    """Forked worker: write to fd the pickled _take_chunks(run, take), or
    the error run raised after stopping the plan so that no one takes
    another chunk, and exit; a result that cannot be pickled writes nothing."""
    try:
        try:
            got = _take_chunks(run, take)
        except Exception as exc:
            stop()
            got = exc
        data = pickle.dumps(got, pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as fh:
            fh.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def _may_fork() -> bool:
    """False in a daemonic process, which may have no children, and in one
    running other threads, whose locks a fork would copy held. Only a
    loaded `multiprocessing` can have made this process daemonic."""
    import threading

    mp = sys.modules.get("multiprocessing")
    return not ((mp is not None and mp.current_process().daemon)
                or threading.active_count() > 1)


def _map_trials(run, n: int, cell_size: int, setup=lambda: None):
    """run(chunk) for the trial indices 0 .. n - 1, n >= 1, spread over this
    process's CPUs, and setup() once in this process; returns (setup(),
    the records of every chunk concatenated in index order). run takes a
    list of consecutive indices of one cell (indices j with one
    j // cell_size) and returns a structured array with one row per index.

    Trial 0 runs alone here. When its time, times the n - 1 trials left,
    exceeds _PARALLEL_MIN_S and the process may run on more than one CPU,
    W = min(CPUs, n - 1) processes take the rest: this one and W - 1
    workers from `os.fork`, which start while this one runs setup(). Each
    takes the next chunk of the guided plan (`_chunk_end`, with a floor of
    _CHUNK_MIN_S of trial 0's time) from one shared counter until none is
    left, so a slow process takes fewer chunks and none waits long for the
    last. Serially the same plan runs with W = 1. A row must depend on its
    index alone, not on the chunk it ran in, so the rows are the serial
    loop's whatever the worker count. A worker pickles its records, or its
    error, into a pipe of its own; one that sends nothing is a CoveigError
    with its exit code. An error run or setup raises reaches the caller as
    raised, after every worker has been stopped and reaped. Forking is
    skipped where `_may_fork` says no.
    """
    t0 = time.perf_counter()
    done = {0: run([0])}
    elapsed = time.perf_counter() - t0
    floor = max(1, math.ceil(_CHUNK_MIN_S / max(elapsed, 1e-9)))
    takers = min(_cpus(), n - 1)
    if takers < 2 or elapsed * (n - 1) <= _PARALLEL_MIN_S or not _may_fork():
        takers = 1
    # the next trial to take, in memory that forked workers share, locked
    # by a pipe holding one byte: read it to take the lock, write it back
    next_trial = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    next_trial[0] = 1
    lock = os.pipe()
    os.write(lock[1], b"\0")

    @contextlib.contextmanager
    def locked():
        os.read(lock[0], 1)
        try:
            yield
        finally:
            os.write(lock[1], b"\0")

    def take():
        with locked():
            start = int(next_trial[0])
            end = (_chunk_end(start, n, takers, floor, cell_size)
                   if start < n else n)
            next_trial[0] = end
        return range(start, end)

    def stop():
        with locked():
            next_trial[0] = n

    pids, pipes = {}, {}  # worker k's pid and the reading end of its pipe
    try:
        for k in range(takers - 1):
            pipes[k], send = os.pipe()
            try:
                pids[k] = os.fork()
                if not pids[k]:
                    _worker(run, take, stop, send)
            finally:
                # only the worker may hold the sending end, so that its
                # death reads as end-of-file here
                os.close(send)
        made = setup()
        done.update(_take_chunks(run, take))
        for k in range(takers - 1):
            with open(pipes.pop(k), "rb") as fh:
                data = fh.read()
            status = os.waitpid(pids[k], 0)[1]
            del pids[k]
            if not data:
                raise CoveigError(f"trial worker {k} exited with code "
                                  f"{os.waitstatus_to_exitcode(status)} "
                                  "before sending its results")
            got = pickle.loads(data)
            if isinstance(got, Exception):
                raise got
            done.update(got)
    finally:
        for fd in (*pipes.values(), *lock):
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
    return made, np.concatenate([done[k] for k in sorted(done)])


def run_mse_sweep(config: ExperimentConfig, log=None) -> ExperimentReport:
    """Run the full sweep; see ExperimentConfig for the knobs.

    Trials failing a feasibility check are excluded from the cell's
    statistics and counted in failure_count (unless projection is on).
    Every (size, trial) of the sweep is one trial of `_map_trials`: trial
    0 runs first and alone, the rest in chunks of trials of one size,
    taken by this process and any forked workers; the results depend on
    neither. A trial solves the secular equation only when "mestre" is
    among the methods, whichever the moment route, and only when its sample
    clusters do not separate, and then only the roots below its last block,
    the trace giving that block; where they do, Mestre integrates on
    cluster contours instead. wall_time is busy time: the sum of the cell's
    per-trial stage times, measured where each trial ran (a chunk's time in
    each stage split evenly over its trials): the method's own time,
    Mestre's with its contours or secular roots, plus the sampling
    time split evenly across the methods and, for a moment method, the
    moment-estimation time split across the moment methods. It is not
    elapsed time when trials run in parallel.
    """
    model = config.model
    L = model.L
    rho = model.rho_array()
    methods = config.methods
    moment_methods = [m for m in methods if m.startswith("moment")]
    project = config.infeasible == "project"
    trials = config.trials
    cells = [(N, M, multiplicities(model, N)) for N, M in config.sizes]
    # every size draws trial j from the same seed
    seeds = _trial_seeds(config.master_seed, np.arange(trials))

    def run(block):
        N, M, counts = cells[block[0] // trials]
        return _trials(model, N, M, counts,
                       seeds[np.remainder(block, trials)], methods, project,
                       config.moment_route)

    _, record = _map_trials(run, len(cells) * trials, trials)
    rows = []
    estimates = {}
    for c, (N, M, _) in enumerate(cells):
        cell = record[c * trials:(c + 1) * trials]
        projected = cell["projected"].sum(axis=0)
        seconds = cell["seconds"]
        for i, method in enumerate(methods):
            arr = cell["estimates"][:, i]
            ok = ~np.isnan(arr[:, 0])
            n_ok = int(ok.sum())
            wall = (seconds[method].sum()
                    + seconds["sampling"].sum() / len(methods))
            if method in moment_methods:
                wall += seconds["moments"].sum() / len(moment_methods)
            if n_ok:
                err = arr[ok] - rho
                mse_db = float(10.0 * np.log10(np.mean(np.sum(err**2, axis=1))))
                bias = err.mean(axis=0)
                scaled = M * err
                variance = (
                    scaled.var(axis=0, ddof=1)
                    if n_ok > 1
                    else np.full(L, np.nan)
                )
            else:
                mse_db = float("nan")
                bias = np.full(L, np.nan)
                variance = np.full(L, np.nan)
            row = SweepRow(
                method=method,
                N=N,
                M=M,
                mse_db=mse_db,
                bias=bias,
                variance=variance,
                failure_count=trials - n_ok,
                projected_count=int(projected[i]),
                wall_time=float(wall),
            )
            rows.append(row)
            estimates[(method, N)] = arr
            if log is not None:
                log(
                    f"{method:18s} N={N:4d} M={M:5d} mse={mse_db:8.3f} dB "
                    f"failures={row.failure_count}"
                )

    return ExperimentReport(config=config, rows=tuple(rows), estimates=estimates)


@dataclass(frozen=True)
class CltHistogram:
    """Scaled-deviation histograms with their predicted normal overlays."""

    method: str
    N: int
    M: int
    deviations: NDArray[np.float64]  # (trials, L), NaN rows for failures
    bin_edges: NDArray[np.float64]  # (L, bins + 1)
    counts: NDArray[np.float64]  # (L, bins), density normalized
    overlay_x: NDArray[np.float64]  # (L, 200)
    overlay_pdf: NDArray[np.float64]
    predicted_var: NDArray[np.float64]
    empirical_var: NDArray[np.float64]
    ks_statistic: NDArray[np.float64]
    failure_count: int


# Cephes' erf and erfc (Moshier, ndtr.c), the rational approximations
# behind scipy.special.ndtr: erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) from 8;
# Q, S and U are monic, their leading 1 left out
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): exp(-x^2) underflows past it
_SQRT_HALF = 7.07106781186547524401e-1


def _horner(x, coefs, monic=False):
    value = x + coefs[0] if monic else np.full_like(x, coefs[0])
    for c in coefs[1:]:
        value = value * x + c
    return value


def _erf(x):
    """Cephes' erf, for |x| <= 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _normal_cdf(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Phi(x) by the operations of scipy.special.ndtr, so bit for bit: with
    t = x sqrt(1/2), 1/2 + erf(t)/2 where |t| < sqrt(1/2), and otherwise
    erfc(|t|)/2, reflected above the median, so that Phi keeps its relative
    accuracy in the lower tail. exp is the C library's, through math.exp,
    as in Cephes."""
    t = np.asarray(x, dtype=np.float64) * _SQRT_HALF
    a = np.abs(t)
    erfc = np.zeros_like(t)  # of |t|; 0 where exp(-t^2) underflows
    below = a < 1.0
    erfc[below] = 1.0 - _erf(a[below])
    live = (a >= 1.0) & (np.fmin(a, 27.0) ** 2 <= _MAXLOG)  # 27^2 > _MAXLOG
    b = a[live]
    low = b < 8.0
    p = np.where(low, _horner(b, _ERFC_P), _horner(b, _ERFC_R))
    q = np.where(low, _horner(b, _ERFC_Q, monic=True),
                 _horner(b, _ERFC_S, monic=True))
    erfc[live] = np.array([math.exp(v) for v in (-b * b).tolist()]) * p / q
    cdf = np.where(t > 0, 1.0 - 0.5 * erfc, 0.5 * erfc)
    near = a < _SQRT_HALF
    cdf[near] = 0.5 + 0.5 * _erf(t[near])
    cdf[np.isnan(t)] = np.nan
    return cdf


def _ks_normal(z) -> float:
    """Kolmogorov-Smirnov distance of the sample z from the standard normal:
    max over the sorted z_(i) of i/n - Phi(z_(i)) and Phi(z_(i)) - (i-1)/n."""
    cdf = _normal_cdf(np.sort(z))
    n = cdf.size
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))


def run_clt_histogram(
    model: PopulationModel,
    N: int,
    M: int,
    trials: int,
    master_seed: int,
    method: str = "moment_full",
    bins: int = 40,
) -> CltHistogram:
    """Histogram of M * (rho_hat - rho) against the predicted normal law.

    method is "moment_full" (full estimator, covariance from the moment
    delta method) or "mestre" (baseline, per-cluster covariance).
    Kolmogorov-Smirnov statistics are computed per component on the
    deviations standardized by their own sample mean and deviation, so
    they measure shape alone; variance agreement is reported separately
    through predicted_var and empirical_var.
    """
    if method not in ("moment_full", "mestre"):
        raise InputError("method must be 'moment_full' or 'mestre'")
    N, M = _dimensions(N, M)
    trials, bins = _trial_count(trials), _integer(bins, "bins")
    master_seed = _integer(master_seed, "master_seed")
    if bins < 1:
        raise InputError("need at least one histogram bin")
    L = model.L
    rho = model.rho_array()
    counts_n = multiplicities(model, N)

    def setup():
        if method == "moment_full":
            return np.diag(theta_moment_estimator(model).Theta)[L:]
        return np.diag(theta_mestre(model))

    seeds = _trial_seeds(master_seed, np.arange(trials))

    def run(block):
        return _trials(model, N, M, counts_n, seeds[block], (method,))

    predicted, record = _map_trials(run, trials, trials, setup)
    dev = M * (record["estimates"][:, 0] - rho)
    ok = ~np.isnan(dev[:, 0])
    good = dev[ok]
    if good.shape[0] < 2:
        raise ConvergenceError("too few successful trials for a histogram")
    edges = np.empty((L, bins + 1))
    hist = np.empty((L, bins))
    ox = np.empty((L, 200))
    opdf = np.empty((L, 200))
    ks = np.empty(L)
    for k in range(L):
        sigma = np.sqrt(predicted[k])
        lo = min(good[:, k].min(), -4 * sigma)
        hi = max(good[:, k].max(), 4 * sigma)
        hist[k], edges[k] = np.histogram(
            good[:, k], bins=bins, range=(lo, hi), density=True
        )
        ox[k] = np.linspace(lo, hi, 200)
        opdf[k] = (np.exp(-0.5 * (ox[k] / sigma) ** 2)
                   / (sigma * np.sqrt(2 * np.pi)))
        spread = good[:, k].std(ddof=1)
        if spread == 0:
            raise ConvergenceError(f"deviations of component {k + 1} do not "
                                   "vary: no shape to test")
        z = (good[:, k] - good[:, k].mean()) / spread
        ks[k] = _ks_normal(z)
    return CltHistogram(
        method=method,
        N=N,
        M=M,
        deviations=dev,
        bin_edges=edges,
        counts=hist,
        overlay_x=ox,
        overlay_pdf=opdf,
        predicted_var=predicted,
        empirical_var=good.var(axis=0, ddof=1),
        ks_statistic=ks,
        failure_count=int(trials - ok.sum()),
    )
