"""Monte Carlo experiment harness.

Reproduces the package's headline numbers: mean-squared-error sweeps of the
competing estimators across problem sizes, and histogram checks of the
asymptotic normality predictions. Every trial draws its seed from
(master_seed, trial_index), so runs are reproducible.

A trial solves the secular equation only when a method reads its roots:
Mestre's estimator does, and so do moments on the residue route. Moments by
quadrature and both moment inversions do not, so a trial of the moment
methods alone on the quadrature route skips the solve.

Trials run in chunks of consecutive trials of one (N, M). Trial 0 runs
alone first. On Linux, when its time projects the rest to more than a
tenth of a second, the calling process forks one worker per further CPU in
its affinity mask (`taskset -c 0 ...` keeps it on one) and runs the
set-up of the call, such as a CLT covariance, while they start; then it
and the workers each take the next chunk of a guided plan (guided
self-scheduling, Polychronopoulos & Kuck 1987) from one shared
counter until none is left. A chunk holds ceil(remaining / 2W) trials for
W processes, never fewer than about 10 ms of trial 0's time nor more than
64, so chunks shrink toward the end and a slow process holds up the others
for at most one small chunk. Serially the same plan runs with W = 1. Pin
BLAS to one thread (OPENBLAS_NUM_THREADS=1) so that the processes do not
oversubscribe the CPUs. A chunk runs through the row kernels: the draws
and their eigenvalues through `ensemble.simulate_rows`, the quadrature
moments and both inversions through those of `moments` and `inversion`;
secular roots, residue moments and Mestre run trial by trial. A row of a
kernel equals its one-row call bit for bit, so outputs depend neither on
the worker count nor on the chunks. `SweepRow.wall_time` (the CSV's
wall_time_s) is busy time summed over trials, not elapsed time; a chunk's
kernel time, the sampling included, is split evenly over its trials.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr

from .clt import theta_mestre, theta_moment_estimator
from .ensemble import padded_spectrum, simulate_rows, trial_seed
from .empirical import secular_zeros
from .errors import (
    ConditioningError,
    ContourError,
    ConvergenceError,
    CoveigError,
    IllConditionedResidueError,
    InputError,
    InvalidRootsError,
    InvalidWeightsError,
)
from .inversion import invert_known_rows, invert_rows
from .mestre import mestre_estimate
from .model import PopulationModel, multiplicities
from .moments import moments_by_residues, quadrature_rows

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
    IllConditionedResidueError,
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
        sizes = tuple((int(n), int(m)) for n, m in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "methods", tuple(self.methods))
        if not sizes:
            raise InputError("need at least one (N, M) size")
        if any(n < 1 or m < 1 for n, m in sizes):
            raise InputError("sizes must be positive")
        if self.trials < 1:
            raise InputError("need at least one trial")
        bad = set(self.methods) - set(_METHODS)
        if bad or not self.methods:
            raise InputError(f"unknown methods {sorted(bad)}; pick from {_METHODS}")
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

    Returns one (estimates, projected, times) per seed: estimates is
    (methods, L) with NaN rows where a method failed, projected flags
    projected inversions, and times holds each method's own time, then
    the shared time of the sampling plus the secular roots when a method
    reads them (Mestre, or moments on the residue route), then the
    moment-estimation time. The draws and their eigenvalues, quadrature
    moments and both inversions run once over the block's stacked rows,
    whose time is split evenly over its trials; secular roots, residue
    moments and Mestre run trial by trial, on spectra built only for them.
    A trial's results do not depend on the block it is in.
    """
    L = model.L
    T = len(seeds)
    est = np.full((T, len(methods), L), np.nan)
    projected = np.zeros((T, len(methods)), dtype=bool)
    times = np.zeros((T, len(methods) + 2))
    # quadrature moments do not read the secular roots
    roots_read = "mestre" in methods or route == "residues"
    t0 = time.perf_counter()
    lam = simulate_rows(model, N, M, seeds)
    times[:, -2] = (time.perf_counter() - t0) / T
    spectra = secular = [None] * T
    if roots_read:
        spectra, secular = [], []
        for t, seed in enumerate(seeds):
            t0 = time.perf_counter()
            spectra.append(padded_spectrum(lam[t], N, M, seed))
            secular.append(secular_zeros(spectra[-1]))
            times[t, -2] += time.perf_counter() - t0

    gamma = None
    if any(m.startswith("moment") for m in methods):
        t0 = time.perf_counter()
        if route == "residues":
            gamma = np.empty((T, 2 * L))
            errors = [None] * T
            for t in range(T):
                try:
                    gamma[t] = moments_by_residues(
                        spectra[t], L, secular=secular[t]).gamma_hat
                except _TRIAL_FAILURES as exc:
                    errors[t] = exc
        else:
            if (lam[:, 0] <= 0).any():
                raise InputError("sample spectrum is rank deficient")
            gamma, _, _, errors = quadrature_rows(lam, N, M, L)
        # a failed trial leaves every moment method's row NaN
        ok = np.flatnonzero(_estimated(errors))
        times[:, -1] = (time.perf_counter() - t0) / T

    for i, method in enumerate(methods):
        if method == "mestre":
            for t in range(T):
                t0 = time.perf_counter()
                try:
                    est[t, i] = mestre_estimate(spectra[t], counts, secular[t])
                except _TRIAL_FAILURES:
                    pass
                times[t, i] = time.perf_counter() - t0
        elif gamma is not None and ok.size:
            t0 = time.perf_counter()
            if method == "moment_full":
                rows = invert_rows(gamma[ok], L, project=project)
            else:
                rows = invert_known_rows(gamma[ok], counts / N,
                                         project=project)
            good = _estimated(rows.errors)
            est[ok[good], i] = rows.rho_hat[good]
            projected[ok[good], i] = rows.projected[good]
            times[:, i] = (time.perf_counter() - t0) / T
    return list(zip(est, projected, times))


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
    empty one; returns {chunk start: its results}."""
    done = {}
    while chunk := take():
        done[chunk.start] = run(list(chunk))
    return done


def _worker(run, take, stop, conn):
    """Forked worker: send _take_chunks(run, take), or the error run raised
    instead, after stopping the plan so that no one takes another chunk."""
    try:
        conn.send(_take_chunks(run, take))
    except Exception as exc:
        stop()
        conn.send(exc)
    finally:
        conn.close()


def _may_fork() -> bool:
    """False in a daemonic process, which may have no children, and in one
    running other threads, whose locks a fork would copy held."""
    import multiprocessing
    import threading

    return not (multiprocessing.current_process().daemon
                or threading.active_count() > 1)


def _map_trials(run, n: int, cell_size: int, setup=lambda: None):
    """run(chunk) for the trial indices 0 .. n - 1, spread over this
    process's CPUs, and setup() once in this process; returns (setup(),
    the results in index order). run takes a list of consecutive indices of
    one cell (indices j with one j // cell_size) and returns one result per
    index.

    Trial 0 runs alone here. When its time, times the n - 1 trials left,
    exceeds _PARALLEL_MIN_S and the process may run on more than one CPU,
    W = min(CPUs, n - 1) processes take the rest: this one and W - 1
    forked workers, which start while this one runs setup(). Each takes the
    next chunk of the guided plan (`_chunk_end`, with a floor of
    _CHUNK_MIN_S of trial 0's time) from one shared counter until none is
    left, so a slow process takes fewer chunks and none waits long for the
    last. Serially the same plan runs with W = 1. A result must depend on
    its index alone, not on the chunk it ran in, so the results are the
    serial loop's whatever the worker count. An error run or setup raises
    reaches the caller as raised, after every worker has been stopped.
    Forking is skipped where `_may_fork` says no.
    """
    if n < 1:
        return setup(), []
    t0 = time.perf_counter()
    done = {0: run([0])}
    elapsed = time.perf_counter() - t0
    floor = max(1, math.ceil(_CHUNK_MIN_S / max(elapsed, 1e-9)))
    takers = min(_cpus(), n - 1)
    if takers < 2 or elapsed * (n - 1) <= _PARALLEL_MIN_S or not _may_fork():
        takers = 1
    # the next trial to take, in memory that forked workers share
    next_trial = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    next_trial[0] = 1
    lock = contextlib.nullcontext()
    if takers > 1:
        import multiprocessing
        import multiprocessing.connection

        # fork, not spawn: a spawned worker would import the package again,
        # which costs more than most calls' share of trials
        ctx = multiprocessing.get_context("fork")
        lock = ctx.Lock()

    def take():
        with lock:
            start = int(next_trial[0])
            end = (_chunk_end(start, n, takers, floor, cell_size)
                   if start < n else n)
            next_trial[0] = end
        return range(start, end)

    def stop():
        with lock:
            next_trial[0] = n

    procs, pending = [], {}
    try:
        for k in range(takers - 1):
            recv, send = ctx.Pipe(duplex=False)
            pending[recv] = k
            proc = ctx.Process(target=_worker, daemon=True,
                               args=(run, take, stop, send))
            try:
                proc.start()
            finally:
                # only the worker may hold the sending end, so that its
                # death reads as end-of-file here
                send.close()
            procs.append(proc)
        made = setup()
        done.update(_take_chunks(run, take))
        while pending:
            for conn in multiprocessing.connection.wait(list(pending)):
                k = pending.pop(conn)
                try:
                    got = conn.recv()
                except EOFError:
                    procs[k].join()
                    raise CoveigError(
                        f"trial worker {k} exited with code "
                        f"{procs[k].exitcode} before sending its results"
                    ) from None
                finally:
                    conn.close()
                if isinstance(got, Exception):
                    raise got
                done.update(got)
    finally:
        for conn in pending:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
    return made, [r for k in sorted(done) for r in done[k]]


def run_mse_sweep(config: ExperimentConfig, log=None) -> ExperimentReport:
    """Run the full sweep; see ExperimentConfig for the knobs.

    Trials failing a feasibility check are excluded from the cell's
    statistics and counted in failure_count (unless projection is on).
    Every (size, trial) of the sweep is one trial of `_map_trials`: trial
    0 runs first and alone, the rest in chunks of trials of one size,
    taken by this process and any forked workers; the results depend on
    neither. A trial solves the secular equation only when "mestre" is
    among the methods or the moment route is "residues". wall_time is busy
    time: the sum of the cell's per-trial stage times, measured where each
    trial ran (a chunk's sampling, moment and inversion times split evenly
    over its trials), with the shared time (sampling, plus the secular
    roots when a method reads them) split evenly across the methods and the
    moment-estimation time across the moment methods. It is not elapsed
    time when trials run in parallel.
    """
    model = config.model
    L = model.L
    rho = model.rho_array()
    methods = config.methods
    moment_methods = [m for m in methods if m.startswith("moment")]
    project = config.infeasible == "project"
    trials = config.trials
    cells = [(N, M, multiplicities(model, N)) for N, M in config.sizes]

    def run(block):
        N, M, counts = cells[block[0] // trials]
        seeds = [trial_seed(config.master_seed, j % trials) for j in block]
        return _trials(model, N, M, counts, seeds, methods, project,
                       config.moment_route)

    _, results = _map_trials(run, len(cells) * trials, trials)
    rows = []
    estimates = {}
    for c, (N, M, _) in enumerate(cells):
        # (trials, methods, L), (trials, methods), (trials, methods + 2)
        est, projected, times = (
            np.array(part) for part in zip(*results[c * trials:(c + 1) * trials])
        )
        projected = projected.sum(axis=0)
        times = times.sum(axis=0)
        for i, method in enumerate(methods):
            arr = est[:, i]
            ok = ~np.isnan(arr[:, 0])
            n_ok = int(ok.sum())
            wall = times[i] + times[-2] / len(methods)
            if method in moment_methods:
                wall += times[-1] / len(moment_methods)
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


def _ks_normal(z) -> float:
    """Kolmogorov-Smirnov distance of the sample z from the standard normal:
    max over the sorted z_(i) of i/n - Phi(z_(i)) and Phi(z_(i)) - (i-1)/n."""
    cdf = ndtr(np.sort(z))
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
    L = model.L
    rho = model.rho_array()
    counts_n = multiplicities(model, N)

    def setup():
        if method == "moment_full":
            return np.diag(theta_moment_estimator(model).Theta)[L:]
        return np.diag(theta_mestre(model))

    def run(block):
        seeds = [trial_seed(master_seed, t) for t in block]
        return [M * (est[0] - rho)
                for est, _, _ in _trials(model, N, M, counts_n, seeds,
                                         (method,))]

    predicted, dev = _map_trials(run, trials, trials, setup)
    dev = np.reshape(dev, (-1, L))
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
        z = (good[:, k] - good[:, k].mean()) / good[:, k].std(ddof=1)
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
