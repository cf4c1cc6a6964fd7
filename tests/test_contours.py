from __future__ import annotations

import numpy as np
import pytest

from coveig import (
    ContourError,
    InputError,
    PopulationModel,
    moments_by_quadrature,
    moments_by_residues,
    secular_zeros,
    simulate_spectrum,
)
from coveig.contours import cluster_ellipse, ellipse_nodes, spectrum_ellipse
from coveig.ensemble import SampleSpectrum


def _integrate(ellipse, nodes, f):
    pts, dz = ellipse_nodes(*ellipse, nodes)
    return np.sum(f(pts) * dz)


def _inside(ellipse, x) -> np.ndarray:
    """Whether the real points x lie inside the ellipse."""
    center, half_width, _ = ellipse
    return np.abs(np.asarray(x, dtype=float) - center) < half_width


def test_closed_curve_integrates_dz_to_zero():
    val = _integrate((2.0, 1.5, 0.6), 64, lambda z: np.ones_like(z))
    assert abs(val) < 1e-12


def test_residue_of_simple_pole():
    ellipse = (2.0, 1.5, 0.6)
    tol = 1e-12
    for pole in [2.0, 1.2, 2.9, 2.0 + 0.2j]:
        val = _integrate(ellipse, 256, lambda z: 1.0 / (z - pole))
        assert abs(val - 2j * np.pi) < tol * 2 * np.pi
    # pole outside: integral vanishes
    for pole in [0.2, 4.5, 2.0 + 5j]:
        val = _integrate(ellipse, 256, lambda z: 1.0 / (z - pole))
        assert abs(val) < tol * 2 * np.pi


def test_polynomials_integrate_to_zero():
    for k in range(5):
        assert abs(_integrate((1.0, 0.8, 0.3), 128, lambda z: z**k)) < 1e-12


def test_cauchy_formula_recovers_pole_location():
    pole = 3.7
    val = _integrate((3.0, 2.0, 0.9), 256, lambda z: z / (z - pole))
    val /= 2j * np.pi
    assert abs(val - pole) < 1e-12


def test_ellipse_nodes_avoid_real_axis_and_pair_up():
    for nodes in (2, 64, 1024):
        pts, dz = ellipse_nodes(2.0, 1.0, 0.4, nodes)
        assert np.abs(pts.imag).min() > 1e-3 * 64 / nodes
        # the lower half mirrors the upper exactly, so a conjugate-symmetric
        # integrand needs evaluating on the upper half only, and the rule's
        # sum of it comes out real
        assert (pts[:nodes // 2].imag > 0).all()
        assert np.array_equal(pts[::-1], np.conj(pts))
        assert np.array_equal(dz[::-1], -np.conj(dz))
        # and so does every row of a stack of ellipses
        center = np.array([[2.0], [-1.0], [1e10]])
        stack, weights = ellipse_nodes(center, 0.8 * np.abs(center),
                                       0.5 * np.abs(center), nodes)
        assert stack.shape == weights.shape == (3, nodes)
        assert np.array_equal(stack[:, ::-1], np.conj(stack))
        assert np.array_equal(weights[:, ::-1], -np.conj(weights))


@pytest.mark.parametrize("nodes", [0, 1, 63])
def test_odd_or_empty_node_counts_rejected(nodes):
    # an odd rule has no mirror, and its middle node sits on the real axis;
    # an empty one integrates nothing
    with pytest.raises(InputError):
        ellipse_nodes(2.0, 1.0, 0.4, nodes)


def test_halved_node_subset_is_consistent_rule():
    # taking every other node with doubled weights is the same family of
    # rule at half resolution; both must agree on an analytic integrand
    pts, w = ellipse_nodes(2.0, 1.2, 0.5, 512)
    f = lambda z: 1.0 / (z - 1.7)
    full = np.sum(f(pts) * w)
    half = np.sum(f(pts[::2]) * 2.0 * w[::2])
    assert abs(full - half) < 1e-12
    assert abs(full - 2j * np.pi) < 1e-12


def test_contains_and_distance():
    ellipse = (2.0, 1.0, 0.4)
    assert _inside(ellipse, 2.0)
    assert _inside(ellipse, np.array([1.5, 2.5])).all()
    assert not _inside(ellipse, 3.5)
    # distance from a real point to the discretized curve
    pts, _ = ellipse_nodes(*ellipse, 128)
    dist = lambda x: np.abs(pts - x).min()
    assert dist(2.0) > 0.35
    assert dist(1.0) < 0.1


@pytest.mark.parametrize("N,M", [(60, 600), (100, 100), (120, 60)])
def test_spectrum_contour_encloses_spectrum_and_origin(N, M):
    # no moment integrand is singular at the origin, so the contour crosses
    # the negative axis, whatever the aspect, and holds every eigenvalue
    # and secular root
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=N / M)
    spectrum = simulate_spectrum(model, N, M, seed=5)
    lam = spectrum.positive_eigenvalues()
    center, half_width, _ = ellipse = spectrum_ellipse(lam[-1])
    mu = secular_zeros(spectrum).mu_hat
    mu = mu[mu > 0]
    assert _inside(ellipse, np.concatenate([lam, mu, [0.0]])).all()
    assert moments_by_quadrature(spectrum, 3).node_count == 64
    assert center - half_width == pytest.approx(-0.3 * lam[-1])
    assert center + half_width == pytest.approx(1.3 * lam[-1])


def test_spectrum_contour_admits_near_origin_support():
    # an eigenvalue a millionth of the largest one used to leave no room
    # between the origin and the spectrum; enclosing the origin, the
    # quadrature agrees with the residues
    lam = np.array([1e-6, 1.0])
    spectrum = SampleSpectrum(N=2, M=2, lambda_hat=lam,
                              lambda_hat_companion=lam, seed=0)
    ellipse = spectrum_ellipse(spectrum.positive_eigenvalues()[-1])
    assert _inside(ellipse, np.array([0.0, 1e-6, 1.0])).all()
    np.testing.assert_allclose(moments_by_quadrature(spectrum, 2).gamma_hat,
                               moments_by_residues(spectrum, 2).gamma_hat,
                               rtol=0, atol=1e-12)


CLUSTERS = [(0.7, 1.4), (2.2, 3.4), (8.0, 12.0)]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_cluster_contour_isolates_one_cluster(k):
    ellipse = cluster_ellipse(CLUSTERS, k)
    lo, hi = CLUSTERS[k]
    assert _inside(ellipse, np.array([lo, hi])).all()
    # only the first cluster's ellipse holds the origin
    assert _inside(ellipse, 0.0) == (k == 0)
    for j, (a, b) in enumerate(CLUSTERS):
        if j != k:
            assert not _inside(ellipse, np.array([a, b])).any()


def test_cluster_contours_reject_overlap():
    with pytest.raises(ContourError):
        cluster_ellipse([(1.0, 2.0), (1.9, 3.0)], 1)
    with pytest.raises(ContourError):
        cluster_ellipse([(1.0, 2.0), (1.9, 3.0)], 0)


def test_first_cluster_contour_holds_support_at_origin():
    # at N = M the support starts at 0; the first ellipse crosses the
    # negative axis at -0.3 times the cluster's right end
    center, half_width, _ = ellipse = cluster_ellipse([(0.0, 4.0)], 0)
    assert center - half_width == pytest.approx(-1.2)
    assert _inside(ellipse, np.array([0.0, 4.0])).all()
