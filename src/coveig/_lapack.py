"""The LAPACK and BLAS wrappers coveig calls, loaded without `scipy.linalg`.

Importing `scipy.linalg` costs about 0.11 s, most of it in scipy's
array-API support, which pulls in `numpy.f2py` and `numpy.testing`. The
package calls five f2py wrappers, and they live in two extension modules,
`scipy.linalg._flapack` and `scipy.linalg._fblas`, that load in a few ms.
So those two are loaded under their canonical names straight from scipy's
`linalg` directory, after `import scipy` (which keeps scipy's own start-up).
`lapack` and `blas` are those modules, and every wrapper is the very object
that `scipy.linalg.lapack` and `scipy.linalg.blas` export. Modules already
in `sys.modules`, as after an earlier `import scipy.linalg`, are reused; if
the files are not found, the public `scipy.linalg.lapack` and
`scipy.linalg.blas` are imported instead.

A later `import scipy.linalg` works and reuses the loaded modules, but the
attributes `scipy.linalg._flapack` and `scipy.linalg._fblas` are then
missing from the package; `sys.modules` holds them.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_LINALG = os.path.join(os.path.dirname(scipy.__file__), "linalg")


def _extension(name: str):
    """`scipy.linalg.<name>`, reused or loaded from its file; None when
    the file is not found."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.machinery.PathFinder.find_spec(full, [_LINALG])
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


lapack, blas = _extension("_flapack"), _extension("_fblas")
if lapack is None or blas is None:
    from scipy.linalg import blas, lapack

dlasd4 = lapack.dlasd4
