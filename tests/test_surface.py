from __future__ import annotations

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
