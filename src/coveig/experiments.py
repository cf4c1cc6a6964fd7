"""Monte Carlo experiment harness.

Reproduces the package's headline numbers: mean-squared-error sweeps of the
competing estimators across problem sizes, and histogram checks of the
asymptotic normality predictions. Every trial draws its seed from
(master_seed, trial_index), so runs are reproducible.
"""

from __future__ import annotations

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
    IllConditionedResidueError,
    InputError,
    InvalidRootsError,
    InvalidWeightsError,
)
from .inversion import invert_moments, invert_moments_known_multiplicities
from .mestre import mestre_estimate
from .model import PopulationModel, multiplicities
from .moments import moments_by_quadrature, moments_by_residues

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


def _estimate_moments(spectrum, L, secular, route):
    if route == "residues":
        return moments_by_residues(spectrum, L, secular=secular)
    return moments_by_quadrature(spectrum, L, secular=secular)


def run_mse_sweep(config: ExperimentConfig, log=None) -> ExperimentReport:
    """Run the full sweep; see ExperimentConfig for the knobs.

    Trials failing a feasibility check are excluded from the cell's
    statistics and counted in failure_count (unless projection is on).
    Shared per-trial work (simulation, secular roots, moment estimation) is
    split evenly across the methods that consume it when attributing wall
    time.
    """
    model = config.model
    L = model.L
    rho = model.rho_array()
    project = config.infeasible == "project"
    moment_methods = [m for m in config.methods if m.startswith("moment")]
    rows = []
    estimates = {}

    for N, M in config.sizes:
        counts = multiplicities(model, N)
        realized_w = counts / N
        est = {m: np.full((config.trials, L), np.nan) for m in config.methods}
        times = dict.fromkeys(config.methods, 0.0)
        projected = dict.fromkeys(config.methods, 0)
        shared_time = 0.0
        moment_time = 0.0

        for t in range(config.trials):
            seed = trial_seed(config.master_seed, t)
            t0 = time.perf_counter()
            spectrum = simulate_spectrum(model, N, M, seed)
            secular = secular_zeros(spectrum)
            shared_time += time.perf_counter() - t0

            gamma = None
            if moment_methods:
                t0 = time.perf_counter()
                try:
                    gamma = _estimate_moments(
                        spectrum, L, secular, config.moment_route
                    )
                except _TRIAL_FAILURES:
                    gamma = None
                moment_time += time.perf_counter() - t0

            for method in config.methods:
                t0 = time.perf_counter()
                try:
                    if method == "mestre":
                        est[method][t] = mestre_estimate(spectrum, counts, secular)
                    elif gamma is None:
                        pass  # moment estimation failed; row stays NaN
                    elif method == "moment_full":
                        res = invert_moments(gamma, L, project=project)
                        est[method][t] = res.rho_hat
                        projected[method] += res.projected
                    else:
                        res = invert_moments_known_multiplicities(
                            gamma, realized_w, project=project
                        )
                        est[method][t] = res.rho_hat
                        projected[method] += res.projected
                except _TRIAL_FAILURES:
                    pass
                times[method] += time.perf_counter() - t0

        for method in config.methods:
            arr = est[method]
            ok = ~np.isnan(arr[:, 0])
            n_ok = int(ok.sum())
            wall = times[method] + shared_time / len(config.methods)
            if method in moment_methods:
                wall += moment_time / len(moment_methods)
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
                failure_count=config.trials - n_ok,
                projected_count=projected[method],
                wall_time=wall,
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

    dev = np.full((trials, L), np.nan)
    for t in range(trials):
        seed = trial_seed(master_seed, t)
        spectrum = simulate_spectrum(model, N, M, seed)
        secular = secular_zeros(spectrum)
        try:
            if method == "mestre":
                est = mestre_estimate(spectrum, counts_n, secular)
            else:
                gamma = moments_by_quadrature(spectrum, L, secular=secular)
                est = invert_moments(gamma, L).rho_hat
        except _TRIAL_FAILURES:
            continue
        dev[t] = M * (est - rho)

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
