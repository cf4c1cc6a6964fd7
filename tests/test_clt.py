from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coveig import (
    ConditioningError,
    ConvergenceError,
    InputError,
    PopulationModel,
    SeparabilityError,
    moments_by_quadrature,
    moments_by_residues,
    simulate_spectrum,
    support_clusters,
    theta_mestre,
    theta_moment_estimator,
    v_matrix,
)
from coveig import clt, limiting
from coveig.contours import cluster_ellipse, ellipse_nodes
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


# clusters near merging, where a quadrature over per-cluster ellipses of
# V does not converge at 1024 nodes
MERGING_TWO = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.27)
MERGING_FIVE = PopulationModel(rho=(1.0, 2.0, 4.0, 8.0, 16.0),
                               weights=(0.2,) * 5, aspect=0.23)


def _hull_v(model, nodes):
    """V by quadrature of kappa in its two-term form over one nested
    ellipse pair around the whole support (aspect below 1)."""
    c = model.aspect
    clusters = support_clusters(model, c)
    lo, hi = clusters[0][0], clusters[-1][1]
    x0, x1 = 0.5 * lo, hi + 0.1 * (hi - lo)
    center, a, b = 0.5 * (x0 + x1), 0.5 * (x1 - x0), 0.25 * (x1 - x0)
    grow = 0.4 * x0

    def on(half_width, half_height):
        z, dz = ellipse_nodes(center, half_width, half_height, nodes)
        m, _ = solve_m_underline_grid(model, c, z)
        dm = 1.0 / limiting._inverse_map_derivative(
            m, c, model.rho_array(), model.weights_array())
        return z, dz, m, dm

    (z1, w1, m1, d1), (z2, w2, m2, d2) = on(a, b), on(a + grow, b + grow)
    kappa = (d1[:, None] * d2[None, :] / (m1[:, None] - m2[None, :]) ** 2
             - 1.0 / (z1[:, None] - z2[None, :]) ** 2)
    p = np.arange(1, 2 * model.L)[:, None]
    I = (w1 * m1**-p) @ kappa @ (w2 * m2**-p).T
    V_hull = -((-1.0) ** (p + p.T)) * I.real / (4.0 * np.pi**2 * c**2)
    return 0.5 * (V_hull + V_hull.T)


@pytest.mark.parametrize(
    "model", [TWO_ATOM, THREE_ATOM, MERGING_TWO, MERGING_FIVE],
    ids=["two_atoms", "three_atoms", "merging_two", "merging_five"],
)
def test_v_contour_independence(model):
    # kappa is analytic off the support, so a double integral over one
    # nested ellipse pair around the whole support must give the residue
    # at infinity, also where clusters nearly merge
    np.testing.assert_allclose(v_matrix(model)[0], _hull_v(model, 1024),
                               rtol=1e-12, atol=0)


def _exact_v(model):
    """The series of v_matrix in rational arithmetic, from the model's
    floats taken as exact."""
    P = 2 * model.L - 1
    s, c = Fraction(max(model.rho)), Fraction(model.aspect)
    rho = [Fraction(r) / s for r in model.rho]
    gamma = [sum(Fraction(w) * r**k for w, r in zip(model.weights, rho))
             for k in range(2 * P + 1)]
    keys = [(a, b) for a in range(1, P + 1) for b in range(1, P + 1)]
    cT = {(a, b): -c * (-1) ** (a + b) * gamma[a + b] for a, b in keys}
    log = dict.fromkeys(keys, Fraction(0))
    power = cT
    for n in range(1, P + 1):
        for key, x in power.items():
            log[key] += Fraction((-1) ** (n + 1), n) * x
        product = {}
        for (a, b), x in power.items():
            for (d, e), y in cT.items():
                if a + d <= P and b + e <= P:
                    product[a + d, b + e] = product.get((a + d, b + e), 0) + x * y
        power = product
    return [[float(-(-1) ** (p + q) * p * q / c**2 * log[p, q] * s ** (p + q))
             for q in range(1, P + 1)] for p in range(1, P + 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_v_matches_exact_arithmetic(seed):
    # the truncated series in floats against the same series in rationals
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 6))
    rho = np.sort(10.0 ** rng.uniform(0.0, 4.0, L))
    assume(np.all(np.diff(rho) > 0))
    w = rng.uniform(0.1, 1.0, L)
    model = PopulationModel(rho=tuple(rho), weights=tuple(w / w.sum()),
                            aspect=10.0 ** rng.uniform(-2.0, np.log10(5.0)))
    np.testing.assert_allclose(v_matrix(model)[0], _exact_v(model),
                               rtol=1e-13, atol=0)


NEAR_SQUARE_RHO = pytest.mark.parametrize(
    "rho", [(1.0,), (1.0, 3.0), (1.0, 3.0, 10.0)],
    ids=["one_atom", "two_atoms", "three_atoms"],
)


@NEAR_SQUARE_RHO
def test_v11_at_square_aspect(rho):
    # at N = M the support starts at 0, where m_u has a branch point; the
    # residue at infinity does not see it, and V_11 keeps its closed form
    model = PopulationModel(rho=rho, weights=(1 / len(rho),) * len(rho),
                            aspect=1.0)
    assert support_clusters(model, 1.0)[0][0] == 0.0
    V, meta = v_matrix(model)
    assert meta["nodes"] == 0
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
    assert meta["nodes"] == 0


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


def _kappa_matrix(model, m1, m2):
    """kappa at every pair (m1[i], m2[j]), in a form free of cancellation.

    With t = (0, 1/rho_1..1/rho_L) and g = (1, -c w_1..-c w_L) the inverse
    map is z(m) = -sum_i g_i / (m + t_i), so (z1 - z2) / (m1 - m2) =
    D12 = sum_i g_i q_i with q_i = 1 / ((m1 + t_i)(m2 + t_i)), and
    m_u' = 1 / D11. Both terms of kappa then carry 1 / (m1 - m2)^2, and
    Lagrange's identity divides it out exactly:

        kappa = -sum_{i<j} g_i g_j (t_i - t_j)^2 q_i^2 q_j^2 / (D11 D22 D12^2),

    which stays accurate however close the two contours come.
    """
    t = np.concatenate([[0.0], 1.0 / model.rho_array()])
    g = np.concatenate([[1.0], -model.aspect * model.weights_array()])
    phi1 = 1.0 / (m1[:, None] + t)
    phi2 = 1.0 / (m2[:, None] + t)
    i, j = np.triu_indices(t.size, 1)
    num = ((phi1[:, i] * phi1[:, j]) ** 2 * (g[i] * g[j] * (t[i] - t[j]) ** 2)
           ) @ ((phi2[:, i] * phi2[:, j]) ** 2).T
    d12 = (phi1 * g) @ phi2.T
    d11 = phi1**2 @ g
    d22 = phi2**2 @ g
    return -num / (d11[:, None] * d22[None, :] * d12**2)


def _kappa(model, z1, z2):
    """kappa at every pair (z1[i], z2[j]), as the 2-D oracle evaluates it."""
    m1, _ = solve_m_underline_grid(model, model.aspect, z1)
    m2, _ = solve_m_underline_grid(model, model.aspect, z2)
    return _kappa_matrix(model, m1, m2)


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


@pytest.mark.parametrize("aspect", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_theta_mestre_single_atom_matches_v11(aspect):
    # the baseline with one block is exactly the first-moment estimator, so
    # its variance must agree with the closed form rho^2 / c through a
    # completely different contour layout, at N = M and N > M too
    model = PopulationModel(rho=(3.0,), weights=(1.0,), aspect=aspect)
    theta = theta_mestre(model)
    assert theta.shape == (1, 1)
    assert abs(theta[0, 0] - 9.0 / aspect) <= 1e-12 * 9.0 / aspect


def test_theta_mestre_separated_model():
    theta = theta_mestre(THREE_ATOM)
    np.testing.assert_array_equal(theta, theta.T)
    assert np.all(np.diag(theta) > 0)
    assert np.linalg.eigvalsh(theta).min() > -1e-6 * np.abs(theta).max()
    # larger eigenvalues fluctuate more
    assert np.diag(theta)[0] < np.diag(theta)[1] < np.diag(theta)[2]


def _theta_mestre_2d(model, nodes=256):
    """The baseline's covariance as the double integral of kappa / (m_u
    m_u) over every pair of cluster ellipses: the transform solved at every
    node, kappa at every pair of nodes of two contours, and the half rule
    as a second pass over the even nodes."""
    clusters = support_clusters(model, model.aspect)
    transforms = []
    for k in range(len(clusters)):
        points, dz = ellipse_nodes(*cluster_ellipse(clusters, k), nodes)
        transforms.append((dz, solve_m_underline_grid(model, model.aspect,
                                                      points)[0]))

    def blocks(step):
        rows = [(m[::step], step * w[::step] * (1.0 / m[::step]))
                for w, m in transforms]
        B = np.empty((len(rows), len(rows)), dtype=complex)
        for k, (m1, p1) in enumerate(rows):
            for l, (m2, p2) in enumerate(rows[k:], start=k):
                B[k, l] = B[l, k] = p1 @ _kappa_matrix(model, m1, m2) @ p2
        return -B / (4.0 * np.pi**2 * model.aspect**2)

    full, half = blocks(1), blocks(2)
    # the reference must itself have converged at this node count
    assert clt._scaled_gap(full, half, clusters[-1][1] ** -2.0) <= 1e-8
    w = model.weights_array()
    return full.real / np.outer(w, w)


FIVE_ATOM = PopulationModel(rho=(1.0, 2.0, 4.0, 8.0, 16.0),
                            weights=(0.2,) * 5, aspect=0.02)


@pytest.mark.parametrize("model", [THREE_ATOM, WIDE_SCALES, FIVE_ATOM])
def test_theta_mestre_upper_half_kernel_matches_full_nodes(model):
    # one integral per cluster, on the upper half of its nodes, against the
    # double integral of the Bai & Silverstein kernel at every node pair;
    # two different rules, so the gap is read against sqrt(Theta_kk Theta_ll)
    theta, oracle = theta_mestre(model), _theta_mestre_2d(model)
    scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    assert np.all(np.abs(theta - oracle) <= 1e-12 * scale)


# where the double integral did not converge by 1024 nodes (scaled delta
# 1.7e-7, 1.0e-6 and 1.3e-7); the pinned values are the one-integral rule's
# at 2048 nodes. On the first two they equal the double integral started at
# 4096 nodes within 1.3e-15 of the largest entry; at c = 1.5 Monte Carlo
# reads 6.59 +- 0.15 for the first entry (4000 rows at 150 x 100)
HARD_MODELS = [
    ((1.0, 10.91), (0.356, 0.644), 0.77,
     [[9.927691058942973, -3.4713613637925453],
      [-3.4713613637925453, 241.9530321389103]]),
    ((1.0, 4.42), (0.526, 0.474), 0.466,
     [[7.098636077498997, -3.35012622359359],
      [-3.35012622359359, 92.16407498697214]]),
    ((1.0, 50.0), (0.5, 0.5), 1.5,
     [[6.579435705033167, -5.246102371699846],
      [-5.246102371699846, 3338.579435705033]]),
]


@pytest.mark.parametrize("rho,weights,aspect,expected", HARD_MODELS,
                         ids=["close_clusters", "closer_clusters", "tall"])
def test_theta_mestre_converges_on_hard_models(rho, weights, aspect, expected):
    theta = theta_mestre(PopulationModel(rho=rho, weights=weights,
                                         aspect=aspect))
    expected = np.array(expected)
    assert np.abs(theta - expected).max() <= 1e-12 * np.abs(expected).max()


def _random_separable(rng):
    """A separable model with 1 to 5 atoms, gaps of 2 to 100 times and
    aspect in [0.02, 5]. Until the support splits into one cluster per atom
    the gaps widen, up to rho_L = 1e8, and then the aspect halves."""
    L = int(rng.integers(1, 6))
    rho = np.cumprod(np.concatenate([[1.0], 10.0 ** rng.uniform(0.3, 2.0, L - 1)]))
    w = np.clip(rng.dirichlet(np.full(L, 3.0)), 0.05, None)
    w /= w.sum()
    c = 10.0 ** rng.uniform(np.log10(0.02), np.log10(5.0))
    while len(support_clusters(PopulationModel(rho=tuple(rho), weights=tuple(w),
                                               aspect=c), c)) < L:
        if rho[-1] ** 1.5 <= 1e8:
            rho = rho**1.5
        else:
            c /= 2.0
    return PopulationModel(rho=tuple(rho), weights=tuple(w), aspect=c)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_sheet_rule(seed):
    # at every node of every cluster ellipse, of the L + 1 roots v = -1/m
    # of the fixed-point equation exactly one has Im v > 0 and phi < 1, and
    # each interval (nu_2l, nu_2l+1) around rho_l between the critical
    # points holds exactly one of the others, with phi > 1 there
    model = _random_separable(np.random.default_rng(seed))
    c, L = model.aspect, model.L
    rho, w = model.rho_array(), model.weights_array()
    clusters = support_clusters(model, c)
    nu = limiting._critical_points(model, c).reshape(L, 2)
    b = 1j * rho * np.sqrt(c * w)
    for k in range(L):
        z = ellipse_nodes(*cluster_ellipse(clusters, k), 256)[0][:128]
        arrow = np.zeros((z.size, L + 1, L + 1), dtype=complex)
        arrow[:, 0, 0] = z - c * np.dot(w, rho)
        arrow[:, 0, 1:] = arrow[:, 1:, 0] = b
        arrow[:, range(1, L + 1), range(1, L + 1)] = rho
        v = np.linalg.eigvals(arrow)
        phi = c * (w * rho**2 / np.abs(v[..., None] - rho) ** 2).sum(axis=-1)
        principal = v.imag > 0
        assert np.all(principal.sum(axis=1) == 1)
        assert np.all(phi[principal] < 1) and np.all(phi[~principal] > 1)
        others = v[~principal].reshape(z.size, L).real
        inside = (nu[:, 0] < others[..., None]) & (others[..., None] < nu[:, 1])
        # one root per interval, one interval per root
        assert np.all(inside.sum(axis=1) == 1) and np.all(inside.sum(axis=2) == 1)


def test_theta_mestre_half_rule_check_bites(monkeypatch):
    # 8 nodes cannot resolve criterion 6's model: the embedded half rule
    # disagrees and the node count doubles until the rules agree at 128;
    # with fewer doublings the same typed error is raised
    seen = []
    roots = clt._roots

    def recording(model, ratio, z, sheets):
        seen.append(2 * z.shape[-1])
        return roots(model, ratio, z, sheets)

    monkeypatch.setattr(clt, "_roots", recording)
    reference = theta_mestre(THREE_ATOM)
    seen.clear()
    np.testing.assert_allclose(theta_mestre(THREE_ATOM, nodes=8), reference,
                               rtol=1e-8)
    assert seen == [8, 16, 32, 64, 128]
    monkeypatch.setattr(clt, "_MAX_DOUBLINGS", 2)
    with pytest.raises(ConvergenceError,
                       match="CLT quadrature has not converged at 32 nodes"):
        theta_mestre(THREE_ATOM, nodes=8)
    monkeypatch.setattr(clt, "_MAX_DOUBLINGS", 0)
    with pytest.raises(ConvergenceError,
                       match="CLT quadrature has not converged at 8 nodes"):
        theta_mestre(THREE_ATOM, nodes=8)


def test_theta_mestre_asymmetry_check_bites(monkeypatch):
    # row k integrates on cluster k's ellipse only, so roots taken from the
    # wrong sheets make Theta asymmetric at every node count, and that is
    # refused
    roots = clt._roots

    def swapped(model, ratio, z, sheets):
        m, res = roots(model, ratio, z, sheets)
        return m[..., [0, 2, 1, 3]], res[..., [0, 2, 1, 3]]

    monkeypatch.setattr(clt, "_roots", swapped)
    with pytest.raises(ConvergenceError,
                       match="CLT quadrature has not converged at 4096 nodes"):
        theta_mestre(THREE_ATOM)


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
