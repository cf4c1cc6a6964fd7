"""The three benchmark workloads and the frozen targets their outputs meet.

Each workload sits at one of the three fixed sizes of the roadmap's bench
item (150x400, 240x2400, 60x120) and loads different layers, so an
optimisation of one layer has a workload that exercises it and one where
the prediction is "no change". Why each was chosen, and which end-to-end
metric each layer metric should move, is recorded in README.md.

One benchmark run makes repeated `coveig` CLI calls of a fixed size; call i
of a run with seed s uses master seed s + i, so call 0 at the default seed
replays the first trials of the acceptance criterion the workload mirrors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Failure classes the harness catches per trial (experiments._TRIAL_FAILURES);
# any other error aborts the command, and so the benchmark run.
TRIAL_FAILURES = (
    "InvalidRootsError",
    "InvalidWeightsError",
    "ConditioningError",
    "IllConditionedResidueError",
    "ConvergenceError",
    "ContourError",
)

# Layers (modules) at whose boundary the harness catches those failures.
FAILURE_LAYERS = ("moments", "inversion", "mestre")

CLT_NODES = 256  # clt-check's covariance node count (run_clt_histogram default)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "mse-sweep" or "clt-check"
    rho: tuple[float, ...]
    weights: tuple[float, ...]
    aspect: float
    sizes: tuple[tuple[int, int], ...]
    trials: int  # per size and CLI call
    default_seed: int  # the acceptance criterion's master seed
    methods: tuple[str, ...]
    theta: str | None  # covariance set-up clt-check runs, if any

    @property
    def model(self) -> dict:
        return {"rho": list(self.rho), "weights": list(self.weights),
                "aspect": self.aspect}

    @property
    def trials_per_call(self) -> int:
        """Monte Carlo trials in one call: one per (size, trial index)."""
        return self.trials * len(self.sizes)

    @property
    def attempts_per_call(self) -> int:
        """Estimates attempted in one call: one per (method, size, trial)."""
        return self.trials_per_call * len(self.methods)

    def cli_config(self, master_seed: int) -> dict:
        if self.command == "mse-sweep":
            return {
                "model": self.model,
                "sizes": [list(s) for s in self.sizes],
                "trials": self.trials,
                "master_seed": master_seed,
                "methods": list(self.methods),
                "infeasible": "project",
                "moment_route": "quadrature",
            }
        (N, M), = self.sizes
        return {
            "model": self.model,
            "N": N,
            "M": M,
            "trials": self.trials,
            "master_seed": master_seed,
            "method": self.methods[0],
        }


WORKLOADS = {
    w.name: w
    for w in (
        # criterion 3: whole per-trial hot path at mid sizes, known
        # multiplicities; limiting and clt unused
        Workload(
            name="sweep_split",
            command="mse-sweep",
            rho=(1.0, 3.0, 5.0),
            weights=(1 / 3, 1 / 3, 1 / 3),
            aspect=0.375,
            sizes=((30, 80), (60, 160), (90, 240), (120, 320), (150, 400)),
            trials=50,
            default_seed=2026,
            methods=("moment_known_mult", "mestre"),
            theta=None,
        ),
        # criterion 6: sampling is ~85% of each trial; moments and
        # inversion unused; set-up is theta_mestre
        Workload(
            name="clt_wide",
            command="clt-check",
            rho=(1.0, 3.0, 10.0),
            weights=(1 / 3, 1 / 3, 1 / 3),
            aspect=0.1,
            sizes=((240, 2400),),
            trials=40,
            default_seed=606,
            methods=("mestre",),
            theta="theta_mestre",
        ),
        # criterion 5: tiny arrays, so per-call Python overhead dominates;
        # full Hankel inversion; set-up is theta_moment_estimator
        Workload(
            name="clt_full",
            command="clt-check",
            rho=(1.0, 3.0),
            weights=(0.5, 0.5),
            aspect=0.5,
            sizes=((60, 120),),
            trials=300,
            default_seed=505,
            methods=("moment_full",),
            theta="theta_moment_estimator",
        ),
    )
}


# ---------------------------------------------------------------------------
# frozen targets, copied from tests/test_acceptance.py

# criterion 3: MSE in dB per (method, N), 1000 trials, within 2 dB
MSE_DB_TARGETS = {
    "moment_known_mult": {30: -6.86, 60: -13.77, 90: -17.59, 120: -19.57,
                          150: -21.62},
    "mestre": {30: -9.51, 60: -11.65, 90: -12.18, 120: -12.29, 150: -12.44},
}
MSE_DB_TOL = 2.0
# criteria 5 and 6: empirical / predicted variance within 15%, 2000 trials
VAR_RATIO_TOL = 0.15
# criterion 5: KS statistic of the standardized deviations, 2000 trials
KS_MAX = 0.05

# The benchmark runs far fewer trials than the acceptance tests, so each
# tolerance above is widened by Z standard errors of the statistic at the
# trial count actually pooled. Z = 5 keeps a false alarm below about 1e-6
# per reading, so thousands of benchmark runs stay clean, while a broken
# estimator (dB off by several units, a variance off by 2x) still fails.
Z = 5.0
# Coefficient of variation of one trial's squared error sum_k (est - rho)^2:
# at most 1.64 over the ten criterion-3 cells in a 300-trial probe (largest
# at moment_known_mult, N=30, where projections give a heavy tail); 2.0
# leaves room for the uncertainty of that estimate itself.
MSE_CV = 2.0
# Tail probability allowed for each KS reading.
KS_ALPHA = 1e-6


def mse_db_tolerance(n: int) -> float:
    """Criterion 3's 2 dB plus Z standard errors of a dB from n trials.

    The dB of a mean of n squared errors has standard error
    10 / ln(10) * CV / sqrt(n) by the delta method.
    """
    return MSE_DB_TOL + Z * (10.0 / math.log(10.0)) * MSE_CV / math.sqrt(n)


def log_var_ratio_tolerance(n: int) -> float:
    """Bound on |log(empirical / predicted variance)| from n deviations.

    A sample variance of n Gaussian deviations has relative standard error
    sqrt(2 / (n - 1)); its log has the same to first order.
    """
    return math.log1p(VAR_RATIO_TOL) + Z * math.sqrt(2.0 / (n - 1))


def ks_tolerance(n: int) -> float:
    """Criterion 5's KS bound plus the Kolmogorov tail quantile at n.

    P(sqrt(n) D > x) <= 2 exp(-2 x^2) (Dvoretzky-Kiefer-Wolfowitz), so
    x = sqrt(ln(2 / alpha) / 2) bounds the sampling part of D; fitting the
    mean and deviation only makes D smaller.
    """
    return KS_MAX + math.sqrt(math.log(2.0 / KS_ALPHA) / 2.0) / math.sqrt(n)
