from __future__ import annotations

import json
import os
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


def test_public_surface():
    for name in coveig.__all__:
        assert getattr(coveig, name) is not None, name
    assert not set(REMOVED) & set(coveig.__all__)
    assert not [name for name in REMOVED if hasattr(coveig, name)]
    assert not [name for name in BENCHMARK_NAMES if not hasattr(coveig, name)]
    assert callable(cli.main)  # the benchmark's entry point


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
