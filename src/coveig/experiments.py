"""Monte Carlo experiment harness.

Reproduces the package's headline numbers: mean-squared-error sweeps of the
competing estimators across problem sizes, and histogram checks of the
asymptotic normality predictions. Every trial draws its seed from
(master_seed, trial_index), so runs are reproducible.

A trial solves the secular equation only when a method reads its roots:
Mestre's estimator does, and so do moments on the residue route. Moments by
quadrature and both moment inversions do not, so a trial of the moment
methods alone on the quadrature route skips the solve.

On Linux, trials run in forked worker processes across the CPUs in the
process's affinity mask (`taskset -c 0 ...` keeps them on one), once the
first trial, run alone, projects the rest to more than a tenth of a
second; the rest are dealt out strided, worker k of W taking trials 1 + k,
1 + k + W, ... Pin BLAS to one thread (OPENBLAS_NUM_THREADS=1) so that
workers do not oversubscribe the CPUs. Each worker, or the serial loop,
runs its trials in blocks of at most 25 trials of one (N, M): the draws,
secular roots, residue moments and Mestre trial by trial, the quadrature
moments and both inversions once per block, through the row kernels of
`moments` and `inversion` on the block's stacked trials. A row of a kernel
equals its one-row call bit for bit, so outputs depend neither on the
worker count nor on the blocks. `SweepRow.wall_time` (the CSV's
wall_time_s) is busy time summed over trials, not elapsed time; a block's
kernel time is split evenly over its trials.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr

from .clt import theta_mestre, theta_moment_estimator
from .ensemble import simulate_spectrum, trial_seed
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
# most trials of one cell that go through the row kernels at once
_BLOCK_TRIALS = 25


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
    the shared time of the simulation plus the secular roots when a method
    reads them (Mestre, or moments on the residue route), then the
    moment-estimation time. Draws, secular roots, residue moments and
    Mestre run trial by trial; quadrature moments and both inversions run
    once over the block's stacked rows, whose time is split evenly over
    its trials. A trial's results do not depend on the block it is in.
    """
    L = model.L
    T = len(seeds)
    est = np.full((T, len(methods), L), np.nan)
    projected = np.zeros((T, len(methods)), dtype=bool)
    times = np.zeros((T, len(methods) + 2))
    # quadrature moments do not read the secular roots
    roots_read = "mestre" in methods or route == "residues"
    spectra, secular = [], []
    for t, seed in enumerate(seeds):
        t0 = time.perf_counter()
        spectra.append(simulate_spectrum(model, N, M, seed))
        secular.append(secular_zeros(spectra[-1]) if roots_read else None)
        times[t, -2] = time.perf_counter() - t0

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
            pos = np.stack([sp.positive_eigenvalues() for sp in spectra])
            gamma, _, _, errors = quadrature_rows(pos, N, M, L)
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


def _in_blocks(run, indices, cell) -> list:
    """run(block) over the indices, in blocks of at most _BLOCK_TRIALS
    consecutive indices of one cell, results concatenated in order."""
    results = []
    for _, group in itertools.groupby(indices, cell):
        group = list(group)
        for a in range(0, len(group), _BLOCK_TRIALS):
            results += run(group[a:a + _BLOCK_TRIALS])
    return results


def _run_share(run, indices, cell, conn):
    """Forked worker: send _in_blocks(run, indices, cell), or the error
    run raised instead."""
    try:
        conn.send(_in_blocks(run, indices, cell))
    except Exception as exc:
        conn.send(exc)
    finally:
        conn.close()


def _map_trials(run, n: int, cell=lambda i: 0) -> list:
    """run(block) for the trial indices 0 .. n - 1, spread over this
    process's CPUs; run takes a list of indices of one cell (cell(i) says
    which) and returns one result per index.

    Trial 0 runs alone here. When its time, times the n - 1 trials left,
    exceeds _PARALLEL_MIN_S and the process may run on more than one CPU,
    the rest are dealt out strided to W = min(CPUs, n - 1) forked workers
    (worker k runs trials 1 + k, 1 + k + W, ...) and their results are put
    back in index order. Each share, or the serial rest, runs in blocks of
    at most _BLOCK_TRIALS trials of one cell. A result must depend on its
    index alone, not on the block it ran in, so the results are the serial
    loop's whatever the worker count. An error run raises reaches the
    caller as raised, after every worker has been stopped. Forking is
    skipped in a daemonic process (which may have no children) and in one
    running other threads (whose locks a fork would copy held).
    """
    if n < 1:
        return []
    t0 = time.perf_counter()
    results = run([0])
    rest = range(1, n)
    workers = min(_cpus(), len(rest))
    if workers < 2 or (time.perf_counter() - t0) * len(rest) <= _PARALLEL_MIN_S:
        return results + _in_blocks(run, rest, cell)
    import multiprocessing
    import multiprocessing.connection
    import threading

    if multiprocessing.current_process().daemon or threading.active_count() > 1:
        return results + _in_blocks(run, rest, cell)
    # fork, not spawn: a spawned worker would import the package again,
    # which costs more than most calls' share of trials
    ctx = multiprocessing.get_context("fork")
    procs, pending, shares = [], {}, [None] * workers
    try:
        for k in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            pending[recv] = k
            proc = ctx.Process(target=_run_share, daemon=True,
                               args=(run, rest[k::workers], cell, send))
            try:
                proc.start()
            finally:
                # only the worker may hold the sending end, so that its
                # death reads as end-of-file here
                send.close()
            procs.append(proc)
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
                shares[k] = got
    finally:
        for conn in pending:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
    ordered = [None] * len(rest)
    for k, share in enumerate(shares):
        ordered[k::workers] = share
    return results + ordered


def run_mse_sweep(config: ExperimentConfig, log=None) -> ExperimentReport:
    """Run the full sweep; see ExperimentConfig for the knobs.

    Trials failing a feasibility check are excluded from the cell's
    statistics and counted in failure_count (unless projection is on).
    Every (size, trial) of the sweep is one trial of `_map_trials`: trial
    0 runs first and alone, the rest may be dealt out strided to forked
    workers, and each share runs in blocks of at most 25 trials of one
    size; the results depend on neither. A trial solves the secular
    equation only when "mestre" is among the methods or the moment route
    is "residues". wall_time is busy time: the sum of the cell's per-trial
    stage times, measured where each trial ran (a block's moment and
    inversion times split evenly over its trials), with the shared time
    (simulation, plus the secular roots when a method reads them) split
    evenly across the methods and the moment-estimation time across the
    moment methods. It is not elapsed time when trials run in parallel.
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

    results = _map_trials(run, len(cells) * trials, lambda j: j // trials)
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
    if method == "moment_full":
        predicted = np.diag(theta_moment_estimator(model).Theta)[L:]
    else:
        predicted = np.diag(theta_mestre(model))

    def run(block):
        seeds = [trial_seed(master_seed, t) for t in block]
        return [M * (est[0] - rho)
                for est, _, _ in _trials(model, N, M, counts_n, seeds,
                                         (method,))]

    dev = np.reshape(_map_trials(run, trials), (-1, L))
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
