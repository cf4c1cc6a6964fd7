from __future__ import annotations

import numpy as np
import pytest

from coveig import (
    ConditioningError,
    Contour,
    InputError,
    PopulationModel,
    SeparabilityError,
    cluster_contours,
    moments_by_quadrature,
    moments_by_residues,
    simulate_spectrum,
    support_clusters,
    theta_mestre,
    theta_moment_estimator,
    v_matrix,
)
from coveig import clt, limiting
from coveig.limiting import solve_m_underline_grid

TWO_ATOM = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
THREE_ATOM = PopulationModel(rho=(1.0, 3.0, 10.0),
                             weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
# clusters four decades apart: no single ellipse resolves all of them
WIDE_SCALES = PopulationModel(rho=(1.0, 100.0, 10000.0),
                              weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.05)


@pytest.mark.parametrize("rho,aspect", [(1.0, 0.5), (2.0, 0.5), (3.0, 0.25)])
def test_v11_closed_form_single_atom(rho, aspect):
    # gamma_hat_1 is the mean sample eigenvalue, an average of N*M scaled
    # |CN(0,1)|^2 variables, so M * (gamma_hat_1 - gamma_1) has variance
    # rho^2 * M / N = gamma_2 / c exactly; the quadrature must reproduce it
    model = PopulationModel(rho=(rho,), weights=(1.0,), aspect=aspect)
    V, meta = v_matrix(model)
    assert abs(V[0, 0] - rho**2 / aspect) < 1e-8 * (1 + rho**2 / aspect)
    assert meta["imag_leakage"] < 1e-8 * (1 + abs(V).max())
    assert meta["asymmetry"] <= 1e-10


@pytest.mark.parametrize(
    "model,atol,rtol",
    [(TWO_ATOM, 1e-7, 0.0), (WIDE_SCALES, 0.0, 1e-9)],
    ids=["two_atoms", "wide_scales"],
)
def test_v11_closed_form_model_free(model, atol, rtol):
    # the same first-moment argument is model-free: V_11 = gamma_2 / c
    V, _ = v_matrix(model)
    expected = np.dot(model.weights_array(), model.rho_array() ** 2) / model.aspect
    assert abs(V[0, 0] - expected) <= atol + rtol * expected
    assert V.shape == (2 * model.L - 1, 2 * model.L - 1)


def test_v_contour_independence():
    # kappa is analytic off the support, so one nested ellipse pair around
    # the whole support must give the same V as the per-cluster layout
    c = TWO_ATOM.aspect
    clusters = support_clusters(TWO_ATOM, c)
    lo, hi = clusters[0][0], clusters[-1][1]
    x0, x1 = 0.5 * lo, hi + 0.1 * (hi - lo)
    inner = Contour(0.5 * (x0 + x1), 0.5 * (x1 - x0), 0.25 * (x1 - x0), 512)
    grow = 0.4 * x0
    outer = Contour(inner.center, inner.half_width + grow,
                    inner.half_height + grow, 512)

    def on(cont):
        z = cont.points()
        m, _ = solve_m_underline_grid(TWO_ATOM, c, z)
        dm = 1.0 / limiting._inverse_map_derivative(
            m, c, TWO_ATOM.rho_array(), TWO_ATOM.weights_array())
        return z, cont.dz(), m, dm

    (z1, w1, m1, d1), (z2, w2, m2, d2) = on(inner), on(outer)
    kappa = (d1[:, None] * d2[None, :] / (m1[:, None] - m2[None, :]) ** 2
             - 1.0 / (z1[:, None] - z2[None, :]) ** 2)
    p = np.arange(1, 2 * TWO_ATOM.L)[:, None]
    I = (w1 * m1**-p) @ kappa @ (w2 * m2**-p).T
    V_hull = -((-1.0) ** (p + p.T)) * I.real / (4.0 * np.pi**2 * c**2)
    V, _ = v_matrix(TWO_ATOM)
    np.testing.assert_allclose(V, 0.5 * (V_hull + V_hull.T),
                               rtol=1e-9, atol=1e-9)


NEAR_SQUARE_RHO = pytest.mark.parametrize(
    "rho", [(1.0,), (1.0, 3.0), (1.0, 3.0, 10.0)],
    ids=["one_atom", "two_atoms", "three_atoms"],
)


@NEAR_SQUARE_RHO
def test_v_at_square_aspect_is_contour_independent(rho):
    # at N = M the support starts at 0 and m_u has a branch point there, so
    # the first ellipse must hold the origin; a second, differently sized
    # first ellipse must give the same V, and V_11 its closed form
    model = PopulationModel(rho=rho, weights=(1 / len(rho),) * len(rho),
                            aspect=1.0)
    clusters = support_clusters(model, 1.0)
    assert clusters[0][0] == 0.0
    V, meta = v_matrix(model)
    assert meta["nodes"] == 256

    def other(clusters, k, nodes):
        if k:
            return cluster_contours(clusters, k, nodes)
        hi = clusters[0][1]
        x1 = 0.5 * (hi + (clusters[1][0] if len(clusters) > 1 else 2 * hi))
        return Contour(0.5 * (x1 - 0.8 * hi), 0.5 * (x1 + 0.8 * hi),
                       0.3 * hi, nodes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clt, "cluster_contours", other)
        V_other, _ = v_matrix(model)
    np.testing.assert_allclose(V_other, V, rtol=1e-12, atol=0)
    gamma2 = np.dot(model.weights_array(), model.rho_array() ** 2)
    assert abs(V[0, 0] - gamma2) <= 1e-12 * gamma2


@pytest.mark.parametrize("aspect", [0.9, 0.99, 1.0, 1.01, 1.1, 2.0])
@NEAR_SQUARE_RHO
def test_v11_closed_form_near_square(rho, aspect):
    # V_11 = gamma_2 / c holds at every aspect; the first ellipse crosses
    # the negative axis, so a support edge near the origin costs no nodes
    model = PopulationModel(rho=rho, weights=(1 / len(rho),) * len(rho),
                            aspect=aspect)
    V, meta = v_matrix(model)
    expected = np.dot(model.weights_array(), model.rho_array() ** 2) / aspect
    assert abs(V[0, 0] - expected) <= 1e-12 * expected
    assert meta["nodes"] == 256


def test_scaled_self_check_sees_low_orders():
    # on clusters four decades apart V runs from about 7e8 (order 1) to
    # 1e41 (order 5); compared against 1 + the largest entry, a 1e-6
    # relative error in V_11 passes unseen, compared order by order it fails
    V, meta = v_matrix(WIDE_SCALES)
    assert meta["self_check_delta"] <= clt._SELF_CHECK_RTOL
    bumped = V.copy()
    bumped[0, 0] *= 1.0 + 1e-6
    scale = clt._order_scale(support_clusters(WIDE_SCALES, WIDE_SCALES.aspect),
                             V.shape[0])
    assert clt._scaled_gap(bumped, V, scale) > clt._SELF_CHECK_RTOL
    assert np.abs(bumped - V).max() <= clt._SELF_CHECK_RTOL * (1 + np.abs(V).max())


def test_theta_refuses_wide_scales_by_conditioning():
    # V converges here; the refusal comes from the moment Jacobian, whose
    # condition number is about 2e20
    with pytest.raises(ConditioningError):
        theta_moment_estimator(WIDE_SCALES)


def test_v_matches_monte_carlo_first_moment():
    V, _ = v_matrix(TWO_ATOM)
    vals = []
    for t in range(300):
        spectrum = simulate_spectrum(TWO_ATOM, 60, 120, seed=10_000 + t)
        vals.append(120 * spectrum.lambda_hat.mean())
    ratio = np.var(vals, ddof=1) / V[0, 0]
    assert 0.8 < ratio < 1.2


def _kappa(model, z1, z2):
    """kappa at every pair (z1[i], z2[j]), as the CLT evaluates it."""
    m1, _ = solve_m_underline_grid(model, model.aspect, z1)
    m2, _ = solve_m_underline_grid(model, model.aspect, z2)
    return clt._kappa_matrix(model, m1, m2)


def test_kernel_symmetries():
    z = np.array([1 + 1j, 2 + 0.5j, 4 - 0.7j])
    K = _kappa(TWO_ATOM, z, z)
    np.testing.assert_allclose(K, K.T, rtol=1e-12)
    np.testing.assert_allclose(_kappa(TWO_ATOM, z.conj(), z.conj()), K.conj(),
                               rtol=1e-12)
    # the diagonal blocks of the CLT integrals meet z1 == z2 at every node,
    # where kappa is analytic and the cancellation-free form finite
    near = _kappa(TWO_ATOM, z, z + 1e-9).diagonal()
    assert np.all(np.isfinite(K.diagonal()))
    assert np.all(np.abs(K.diagonal() - near) <= 1e-6 * np.abs(near))


def test_kernel_accurate_at_nearby_points():
    # kappa is analytic across z1 = z2, although both of its terms blow up
    # there; evaluated without cancellation it varies smoothly down to
    # point distances where the two-term form has lost every digit
    z = np.array([2.0 + 0.3j])
    near = [_kappa(TWO_ATOM, z, z + h)[0, 0] for h in (1e-5, 1e-7, 1e-9)]
    assert abs(near[1] - near[0]) < 1e-4 * abs(near[0])
    assert abs(near[2] - near[1]) < 1e-6 * abs(near[0])


def test_theta_structure_single_atom():
    # with one atom the weight is deterministic, so its row and column of
    # Theta vanish and the eigenvalue variance is plain V_11
    model = PopulationModel(rho=(3.0,), weights=(1.0,), aspect=0.25)
    cov = theta_moment_estimator(model)
    np.testing.assert_allclose(cov.Theta[0], 0.0, atol=1e-8)
    assert abs(cov.Theta[1, 1] - 36.0) < 1e-6
    np.testing.assert_allclose(cov.M_matrix, [[1.0, 0.0], [3.0, 1.0]])


def test_theta_blocks_and_border():
    cov = theta_moment_estimator(TWO_ATOM)
    L = 2
    assert cov.Theta.shape == (2 * L, 2 * L)
    # W embeds V behind a zero row and column for the deterministic
    # zeroth moment
    assert np.all(cov.W[0] == 0.0) and np.all(cov.W[:, 0] == 0.0)
    np.testing.assert_array_equal(cov.W[1:, 1:], cov.V)
    np.testing.assert_array_equal(cov.Theta, cov.Theta.T)
    assert np.linalg.eigvalsh(cov.Theta).min() > -1e-8 * np.abs(cov.Theta).max()
    assert np.isfinite(cov.contour_meta["jacobian_cond"])


def test_theta_annihilates_weight_sum():
    # estimated weights always sum to gamma_hat_0 = 1, so the weight-sum
    # direction carries no fluctuation at all
    cov = theta_moment_estimator(TWO_ATOM)
    u = np.array([1.0, 1.0, 0.0, 0.0])
    scale = np.abs(cov.Theta).max()
    np.testing.assert_allclose(cov.Theta @ u, 0.0, atol=1e-8 * scale)


def test_theta_mestre_single_atom_matches_v11():
    # the baseline with one block is exactly the first-moment estimator, so
    # its variance must agree with the closed form through a completely
    # different contour layout
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=0.5)
    theta = theta_mestre(model)
    assert theta.shape == (1, 1)
    assert abs(theta[0, 0] - 2.0) < 1e-6


def test_theta_mestre_separated_model():
    theta = theta_mestre(THREE_ATOM)
    np.testing.assert_array_equal(theta, theta.T)
    assert np.all(np.diag(theta) > 0)
    assert np.linalg.eigvalsh(theta).min() > -1e-6 * np.abs(theta).max()
    # larger eigenvalues fluctuate more
    assert np.diag(theta)[0] < np.diag(theta)[1] < np.diag(theta)[2]


def test_theta_mestre_requires_separability():
    merged = PopulationModel(rho=(1.0, 3.0, 5.0),
                             weights=(1 / 3, 1 / 3, 1 / 3), aspect=3 / 8)
    with pytest.raises(SeparabilityError):
        theta_mestre(merged)


def test_invalid_order():
    with pytest.raises(InputError):
        v_matrix(TWO_ATOM, L=0)


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10, 1e20])
def test_quadratures_are_scale_invariant(scale):
    # scaling the population by s scales every sample eigenvalue, secular
    # root and support edge by s and m by 1/s; no floor of either
    # quadrature may refuse a spectrum for its units
    two = PopulationModel(rho=(scale, 3.0 * scale), weights=(0.5, 0.5),
                          aspect=0.5)
    spectrum = simulate_spectrum(two, 60, 120, seed=3)
    np.testing.assert_allclose(moments_by_quadrature(spectrum, 2).gamma_hat,
                               moments_by_residues(spectrum, 2).gamma_hat,
                               rtol=1e-12, atol=0)
    k = np.arange(1, 4)
    np.testing.assert_allclose(
        v_matrix(two)[0],
        v_matrix(TWO_ATOM)[0] * scale ** (k[:, None] + k[None, :]),
        rtol=1e-12, atol=0)
    three = PopulationModel(rho=tuple(scale * r for r in THREE_ATOM.rho),
                            weights=THREE_ATOM.weights, aspect=THREE_ATOM.aspect)
    np.testing.assert_allclose(theta_mestre(three),
                               theta_mestre(THREE_ATOM) * scale**2,
                               rtol=1e-12, atol=0)


def test_v_leakage_is_scale_free():
    # V's entry of orders (p, q) grows like s^(p + q), and so does its
    # imaginary leakage; reported divided by that, as it is checked, the
    # leakage reads at rounding level on any scale
    leakage = []
    for scale in (1.0, 1e10):
        model = PopulationModel(rho=(scale, 3.0 * scale), weights=(0.5, 0.5),
                                aspect=0.5)
        leakage.append(v_matrix(model)[1]["imag_leakage"])
    assert max(leakage) <= 1e-14
    assert abs(leakage[0] - leakage[1]) <= 1e-14


def test_v_asymmetry_is_scale_free():
    # the asymmetry V - V^T is reported scaled like the leakage: unscaled
    # it read 6.8e-13 on rho (1, 3) and 1.06e38 on rho (1e10, 3e10)
    asymmetry = []
    for scale in (1.0, 1e10):
        model = PopulationModel(rho=(scale, 3.0 * scale), weights=(0.5, 0.5),
                                aspect=0.5)
        asymmetry.append(v_matrix(model)[1]["asymmetry"])
    assert max(asymmetry) <= 1e-14
    assert abs(asymmetry[0] - asymmetry[1]) <= 1e-14
