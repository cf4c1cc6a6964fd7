from __future__ import annotations

import numpy as np
import pytest

from coveig import (
    Contour,
    ContourError,
    PopulationModel,
    cluster_contours,
    moments_by_quadrature,
    moments_by_residues,
    secular_zeros,
    simulate_spectrum,
    spectrum_contour,
)
from coveig.ensemble import SampleSpectrum


def _integrate(cont, f):
    return np.sum(f(cont.points()) * cont.dz())


def test_closed_curve_integrates_dz_to_zero():
    cont = Contour(center=2.0, half_width=1.5, half_height=0.6, nodes=64)
    assert abs(_integrate(cont, lambda z: np.ones_like(z))) < 1e-12


def test_residue_of_simple_pole():
    cont = Contour(center=2.0, half_width=1.5, half_height=0.6, nodes=256)
    tol = 1e-12
    for pole in [2.0, 1.2, 2.9, 2.0 + 0.2j]:
        val = _integrate(cont, lambda z: 1.0 / (z - pole))
        assert abs(val - 2j * np.pi) < tol * 2 * np.pi
    # pole outside: integral vanishes
    for pole in [0.2, 4.5, 2.0 + 5j]:
        val = _integrate(cont, lambda z: 1.0 / (z - pole))
        assert abs(val) < tol * 2 * np.pi


def test_polynomials_integrate_to_zero():
    cont = Contour(center=1.0, half_width=0.8, half_height=0.3, nodes=128)
    for k in range(5):
        assert abs(_integrate(cont, lambda z: z**k)) < 1e-12


def test_cauchy_formula_recovers_pole_location():
    cont = Contour(center=3.0, half_width=2.0, half_height=0.9, nodes=256)
    pole = 3.7
    val = _integrate(cont, lambda z: z / (z - pole)) / (2j * np.pi)
    assert abs(val - pole) < 1e-12


def test_ellipse_nodes_avoid_real_axis_and_pair_up():
    cont = Contour(center=2.0, half_width=1.0, half_height=0.4, nodes=64)
    pts = cont.points()
    assert np.abs(pts.imag).min() > 1e-3
    # node set is closed under conjugation, so real integrands of conjugate
    # symmetric functions come out real
    gap = np.abs(pts[:, None] - np.conj(pts)[None, :]).min(axis=1)
    assert gap.max() < 1e-12


def test_halved_node_subset_is_consistent_rule():
    # taking every other node with doubled weights is the same family of
    # rule at half resolution; both must agree on an analytic integrand
    cont = Contour(center=2.0, half_width=1.2, half_height=0.5, nodes=512)
    pts, w = cont.points(), cont.dz()
    f = lambda z: 1.0 / (z - 1.7)
    full = np.sum(f(pts) * w)
    half = np.sum(f(pts[::2]) * 2.0 * w[::2])
    assert abs(full - half) < 1e-12
    assert abs(full - 2j * np.pi) < 1e-12


def test_contains_and_distance():
    cont = Contour(center=2.0, half_width=1.0, half_height=0.4, nodes=128)
    assert cont.contains_real(2.0)
    assert cont.contains_real(np.array([1.5, 2.5])).all()
    assert not cont.contains_real(3.5)
    # distance from a real point to the discretized curve
    dist = lambda x: np.abs(cont.points() - x).min()
    assert dist(2.0) > 0.35
    assert dist(1.0) < 0.1


def test_with_nodes():
    cont = Contour(2.0, 1.0, 0.4, 64)
    finer = cont.with_nodes(128)
    assert finer.nodes == 128
    assert (finer.center, finer.half_width, finer.half_height) == (2.0, 1.0, 0.4)


@pytest.mark.parametrize("kwargs", [
    dict(center=1.0, half_width=0.0, half_height=0.5, nodes=64),
    dict(center=1.0, half_width=-1.0, half_height=0.5, nodes=64),
    dict(center=1.0, half_width=1.0, half_height=0.0, nodes=64),
    dict(center=1.0, half_width=1.0, half_height=0.5, nodes=8),
])
def test_invalid_contours_raise(kwargs):
    with pytest.raises(ContourError):
        Contour(**kwargs)


@pytest.mark.parametrize("N,M", [(60, 600), (100, 100), (120, 60)])
def test_spectrum_contour_encloses_spectrum_and_origin(N, M):
    # no moment integrand is singular at the origin, so the contour crosses
    # the negative axis, whatever the aspect, and holds every eigenvalue
    # and secular root
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=N / M)
    spectrum = simulate_spectrum(model, N, M, seed=5)
    cont = spectrum_contour(spectrum)
    lam = spectrum.positive_eigenvalues()
    mu = secular_zeros(spectrum).positive()
    assert cont.contains_real(np.concatenate([lam, mu, [0.0]])).all()
    assert cont.nodes == 128
    assert cont.center - cont.half_width == pytest.approx(-0.3 * lam[-1])
    assert cont.center + cont.half_width == pytest.approx(1.3 * lam[-1])


def test_spectrum_contour_admits_near_origin_support():
    # an eigenvalue a millionth of the largest one used to leave no room
    # between the origin and the spectrum; enclosing the origin, the
    # quadrature agrees with the residues
    lam = np.array([1e-6, 1.0])
    spectrum = SampleSpectrum(N=2, M=2, lambda_hat=lam,
                              lambda_hat_companion=lam, seed=0)
    cont = spectrum_contour(spectrum)
    assert cont.contains_real(np.array([0.0, 1e-6, 1.0])).all()
    np.testing.assert_allclose(moments_by_quadrature(spectrum, 2).gamma_hat,
                               moments_by_residues(spectrum, 2).gamma_hat,
                               rtol=0, atol=1e-12)


CLUSTERS = [(0.7, 1.4), (2.2, 3.4), (8.0, 12.0)]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_cluster_contour_isolates_one_cluster(k):
    cont = cluster_contours(CLUSTERS, k)
    lo, hi = CLUSTERS[k]
    assert cont.contains_real(np.array([lo, hi])).all()
    # only the first cluster's ellipse holds the origin
    assert cont.contains_real(0.0) == (k == 0)
    for j, (a, b) in enumerate(CLUSTERS):
        if j != k:
            assert not cont.contains_real(np.array([a, b])).any()


def test_cluster_contours_reject_overlap():
    with pytest.raises(ContourError):
        cluster_contours([(1.0, 2.0), (1.9, 3.0)], 1)
    with pytest.raises(ContourError):
        cluster_contours([(1.0, 2.0), (1.9, 3.0)], 0)


def test_first_cluster_contour_holds_support_at_origin():
    # at N = M the support starts at 0; the first ellipse crosses the
    # negative axis at -0.3 times the cluster's right end
    cont = cluster_contours([(0.0, 4.0)], 0)
    assert cont.center - cont.half_width == pytest.approx(-1.2)
    assert cont.contains_real(np.array([0.0, 4.0])).all()
