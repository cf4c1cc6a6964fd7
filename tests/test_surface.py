from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import coveig
from coveig import cli

# names that no caller outside their own tests used, deleted on purpose
REMOVED = (
    "kernel_kappa",
    "m_underline_derivative",
    "solve_m_underline",
    "StieltjesValue",
    "hermitian_eigenvalues",
    "cluster_assignment",
    "ClusterAssignment",
    "Contour",
    "spectrum_contour",
    "cluster_contours",
)

# what perfbench/mirror.py and perfbench/worker.py take from coveig; the
# benchmark breaks if any of these goes
BENCHMARK_NAMES = (
    "errors",
    "PopulationModel",
    "density_curve",
    "invert_moments",
    "invert_moments_known_multiplicities",
    "mestre_estimate",
    "moments_by_quadrature",
    "moments_by_residues",
    "multiplicities",
    "secular_zeros",
    "simulate_spectrum",
    "theta_mestre",
    "theta_moment_estimator",
    "trial_seed",
    "v_matrix",
)


# every submodule of the package, as the file system lists them
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(coveig.__path__))

# after a bare `import coveig`: every submodule resolves as an attribute to
# the module itself, dir() lists every public name and submodule before any
# is loaded, and a star import binds every name of __all__
_ATTRIBUTES = """
import json, sys
import coveig
listed = set(dir(coveig))
submodules = {{name: getattr(coveig, name) is sys.modules["coveig." + name]
              for name in {submodules!r}}}
star = {{}}
exec("from coveig import *", star)
print(json.dumps({{"unlisted": sorted(set(coveig.__all__) - listed),
                  "unlisted_submodules": sorted(set(submodules) - listed),
                  "submodules": submodules,
                  "unbound": sorted(set(coveig.__all__) - set(star))}}))
"""


def test_public_surface():
    for name in coveig.__all__:
        assert getattr(coveig, name) is not None, name
    assert len(set(coveig.__all__)) == len(coveig.__all__)
    assert not set(REMOVED) & set(coveig.__all__)
    assert not [name for name in REMOVED if hasattr(coveig, name)]
    assert not [name for name in BENCHMARK_NAMES if not hasattr(coveig, name)]
    with pytest.raises(AttributeError, match="no_such_name"):
        coveig.no_such_name  # noqa: B018
    assert callable(cli.main)  # the benchmark's entry point
    got = _fresh_interpreter(_ATTRIBUTES.format(submodules=SUBMODULES))
    assert got == {"unlisted": [], "unlisted_submodules": [],
                   "submodules": dict.fromkeys(SUBMODULES, True),
                   "unbound": []}


# scipy modules whose import costs more than the rest of `import coveig`;
# the package reaches LAPACK and BLAS without them
HEAVY_MODULES = ("scipy.linalg", "scipy.special", "scipy.stats", "numpy.f2py",
                 "numpy.testing")

# makes importlib miss scipy's two wrapper extensions until scipy.linalg is
# being imported, so that coveig must take them through scipy.linalg
_MISS_WRAPPERS = """
import importlib.machinery
finder = importlib.machinery.PathFinder
find = finder.find_spec.__func__

def miss(cls, name, path=None, target=None):
    if name.startswith("scipy.linalg._f") and "scipy.linalg" not in sys.modules:
        return None
    return find(cls, name, path, target)

finder.find_spec = classmethod(miss)
"""

_WRAPPERS = """
import json, sys
{before}
import coveig
from coveig import empirical, ensemble
heavy = [name for name in {heavy!r} if name in sys.modules]
import scipy.linalg
from scipy.linalg import blas, lapack
same = {{
    "zhetrd": ensemble.lapack.zhetrd is lapack.zhetrd,
    "zlauum": ensemble.lapack.zlauum is lapack.zlauum,
    "dsterf": ensemble.lapack.dsterf is lapack.dsterf,
    "dlasd4": empirical.dlasd4 is lapack.dlasd4,
    "zherk": ensemble.blas.zherk is blas.zherk,
}}
print(json.dumps({{"heavy": heavy, "same": same,
                  "public": ensemble.lapack is lapack,
                  "attribute": ensemble.lapack is getattr(scipy.linalg,
                                                          "_flapack", None)}}))
"""


def _fresh_interpreter(code: str) -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coveig.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the modules the CLT set-up and the limiting density never run
ESTIMATOR_MODULES = ("_lapack", "ensemble", "empirical", "experiments",
                     "inversion", "mestre", "moments")

_LOADED = """
import json, sys
import coveig
core = sorted(name for name in sys.modules if name.split(".")[0] == "coveig")
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"coveig": core, "scipy": scipy}))
"""

_SETUPS = """
import json, sys
import coveig
# criteria 5 and 6
models = [coveig.PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5),
                                 aspect=0.5),
          coveig.PopulationModel(rho=(1.0, 3.0, 10.0), weights=(1 / 3,) * 3,
                                 aspect=0.1)]
raised = []
for k, model in enumerate(models):
    calls = {{"theta_mestre": (model,), "theta_moment_estimator": (model,),
             "v_matrix": (model, model.L),
             "density_curve": (model, model.aspect)}}
    for name, args in calls.items():
        try:
            getattr(coveig, name)(*args)
        except coveig.CoveigError as exc:
            raised.append([name, k, type(exc).__name__])
print(json.dumps({{
    "raised": raised,
    "scipy": sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy"),
    "estimators": sorted(name for name in {estimators!r}
                         if "coveig." + name in sys.modules)}}))
"""


def test_import_loads_only_errors_and_model():
    assert _fresh_interpreter(_LOADED) == {
        "coveig": ["coveig", "coveig.errors", "coveig.model"], "scipy": []}


def test_clt_setup_loads_neither_scipy_nor_the_estimators():
    # the covariance set-ups of clt-check and the limiting density need
    # numpy and clt, limiting and contours only; criterion 5's two clusters
    # merge, so Mestre's covariance stops at the separability check there
    got = _fresh_interpreter(_SETUPS.format(estimators=ESTIMATOR_MODULES))
    assert got == {"raised": [["theta_mestre", 0, "SeparabilityError"]],
                   "scipy": [], "estimators": []}


@pytest.mark.parametrize("before", ["", "import scipy.linalg", _MISS_WRAPPERS],
                         ids=["coveig-first", "scipy-linalg-first", "fallback"])
def test_wrappers_are_scipy_linalg_objects(before):
    # coveig loads scipy's LAPACK and BLAS extensions without scipy.linalg,
    # reuses them when scipy.linalg came first, and imports scipy.linalg
    # when they cannot be found; the wrappers are scipy.linalg's either way
    got = _fresh_interpreter(_WRAPPERS.format(before=before,
                                              heavy=HEAVY_MODULES))
    assert got["same"] == dict.fromkeys(got["same"], True)
    assert len(got["same"]) == 5
    if before == "":
        assert got["heavy"] == []
    assert got["public"] == (before == _MISS_WRAPPERS)
    # the package attribute exists only when scipy.linalg imported it
    assert got["attribute"] == (before == "import scipy.linalg")
