"""Estimation of distinct population covariance eigenvalues and their
multiplicities from the spectrum of a large sample covariance matrix.

`import coveig` loads two modules: `errors`, the exceptions every caller
may catch, and `model`, because every entry point starts from a
`PopulationModel`; with them comes numpy. Every other public name and every
submodule is imported on its first access (PEP 562), so a call loads only
the modules it runs: `theta_mestre` and `density_curve` load neither scipy
nor the sampler and the estimators. A name, once loaded, is bound here, and
later lookups are plain attribute reads.
"""

import importlib.util

from . import errors, model
from .errors import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

# the public names loaded on first access, by the submodule that holds them
_LAZY = {
    "clt": ("CltCovariance", "theta_mestre", "theta_moment_estimator",
            "v_matrix"),
    "empirical": ("SecularRoots", "empirical_m", "secular_zeros"),
    "ensemble": ("SampleSpectrum", "generate_observations",
                 "read_observations", "sample_spectrum", "simulate_spectrum",
                 "trial_seed", "write_observations"),
    "experiments": ("CltHistogram", "ExperimentConfig", "ExperimentReport",
                    "SweepRow", "run_clt_histogram", "run_mse_sweep"),
    "inversion": ("EstimationResult", "HankelSystem", "invert_moments",
                  "invert_moments_known_multiplicities"),
    "limiting": ("DensityCurve", "density_curve", "is_separable",
                 "support_clusters"),
    "mestre": ("mestre_estimate",),
    "moments": ("MomentEstimates", "moments_by_quadrature",
                "moments_by_residues"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([*errors.__all__, *model.__all__, *_MODULE_OF])


def __getattr__(name):
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    # a submodule; importing it binds it here
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    import pkgutil

    submodules = (info.name for info in pkgutil.iter_modules(__path__))
    return sorted({*globals(), *_MODULE_OF, *submodules})
