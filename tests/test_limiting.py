from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coveig import (
    InputError,
    PopulationModel,
    density_curve,
    is_separable,
    support_clusters,
)
from coveig import limiting
from coveig.limiting import _continuous_density, solve_m_underline_grid


def _mp_closed_form(rho: float, c: float, z: complex) -> complex:
    """Companion transform for a single eigenvalue, by the quadratic formula.

    rho*z*m^2 + (z + rho*(1 - c))*m + 1 = 0, branch with Im m > 0 when
    Im z > 0.
    """
    a = rho * z
    b = z + rho * (1.0 - c)
    disc = np.sqrt(b * b - 4.0 * a)
    r1, r2 = (-b + disc) / (2 * a), (-b - disc) / (2 * a)
    return r1 if r1.imag > 0 else r2


def _random_model(rng, L=None):
    L = int(rng.integers(1, 5)) if L is None else L
    gaps = rng.uniform(0.5, 3.0, L)
    rho = np.cumsum(gaps) + rng.uniform(0.1, 1.0)
    w = rng.dirichlet(np.ones(L) * 3.0)
    w = np.clip(w, 0.05, None)
    w /= w.sum()
    return PopulationModel(rho=tuple(rho), weights=tuple(w),
                           aspect=float(rng.uniform(0.05, 2.0)))


def _solve(model, c, z):
    """(m_u, residual) at the points z."""
    return solve_m_underline_grid(model, c, np.atleast_1d(z))


def test_solver_matches_mp_closed_form():
    model = PopulationModel(rho=(2.0,), weights=(1.0,), aspect=0.25)
    z = np.array([2 + 0.01j, 0.5 + 1j, -1 + 0.3j, 10 + 5j, 0.01 + 0.001j])
    m, res = _solve(model, 0.25, z)
    exact = np.array([_mp_closed_form(2.0, 0.25, zz) for zz in z])
    assert np.all(np.abs(m - exact) < 1e-11 * (1 + np.abs(exact)))
    assert res.max() <= 1e-12


def test_solver_matches_mp_heavy_aspect():
    # c > 1: the sample matrix is rank deficient but the companion
    # transform stays regular
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=4.0)
    z = np.array([1 + 0.1j, 5 + 2j, 0.2 + 0.05j])
    m, _ = _solve(model, 4.0, z)
    exact = np.array([_mp_closed_form(1.0, 4.0, zz) for zz in z])
    assert np.all(np.abs(m - exact) < 1e-11 * (1 + np.abs(exact)))


def test_derivative_matches_finite_differences():
    # dm_u/dz = 1 / z'(m_u), the inverse map's derivative the solver's
    # Newton step uses
    rng = np.random.default_rng(19)
    for _ in range(8):
        model = _random_model(rng)
        z = complex(rng.uniform(-2, 15), rng.uniform(0.05, 2.0))
        c = model.aspect
        h = 1e-6
        (m, up, down), _ = _solve(model, c, np.array([z, z + h, z - h]))
        fd = (up - down) / (2 * h)
        dv = 1.0 / limiting._inverse_map_derivative(
            m, c, model.rho_array(), model.weights_array())
        assert abs(dv - fd) < 1e-4 * (1 + abs(dv))


def test_small_aspect_limit_recovers_population_resolvent():
    # as c -> 0 the sample covariance concentrates on the population one
    model = PopulationModel(rho=(2.0,), weights=(1.0,), aspect=1e-6)
    z = 5.0 + 0.1j
    m, _ = _solve(model, 1e-6, z)
    m_value = limiting._m_from_companion(m[0], z, 1e-6)
    assert abs(m_value - (-1.0 / (z - 2.0))) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 3.0), st.floats(-5.0, 20.0),
       st.one_of(st.floats(-3.0, -0.01), st.floats(0.01, 3.0)))
def test_herglotz_property(seed, aspect, x, y):
    rng = np.random.default_rng(seed)
    model = _random_model(rng)
    z = complex(x, y)
    (m,), (res,) = _solve(model, aspect, z)
    assert np.sign(m.imag) == np.sign(y)
    assert np.sign(y) * limiting._m_from_companion(m, z, aspect).imag > -1e-13
    assert res <= 1e-12


@pytest.mark.parametrize("rho,weights,c,z", [
    ((10.0, 1000.0, 1100.0), (0.3, 0.3, 0.4), 0.07, 1040.3 - 0.01j),
    ((1.0, 100.0, 10000.0), (1 / 3, 1 / 3, 1 / 3), 0.05, 7587.2 - 1e-9j),
])
def test_lower_half_plane_is_the_conjugate(rho, weights, c, z):
    # m_u(conj z) = conj m_u(z), so Im m_u < 0 below the axis
    model = PopulationModel(rho=rho, weights=weights, aspect=c)
    (lower,), _ = _solve(model, c, z)
    (upper,), _ = _solve(model, c, np.conj(z))
    assert abs(lower - np.conj(upper)) <= 1e-12 * abs(upper)
    assert lower.imag < 0


def test_grid_solver_matches_scalar():
    # a batch of points gives what each point gives alone
    model = PopulationModel(rho=(1.0, 4.0), weights=(0.3, 0.7), aspect=0.5)
    z = np.array([0.5 + 0.2j, 3 + 1j, 8 + 0.01j, -2 + 5j])
    m, res = solve_m_underline_grid(model, 0.5, z)
    for i, zz in enumerate(z):
        (one,), _ = _solve(model, 0.5, zz)
        assert abs(m[i] - one) < 1e-10
    assert res.max() <= 1e-12


def test_solver_rejects_origin():
    # and every other real or non-finite point: inside the support (2.0),
    # outside it (3.5), NaN and infinity
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=0.5)
    for z in (0.0, 2.0, 3.5, complex(np.nan, 1.0), np.inf):
        with pytest.raises(InputError):
            _solve(model, 0.5, z)


def test_mp_density_edges():
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=0.25)
    curve = density_curve(model, 0.25)
    assert len(curve.clusters) == 1
    lo, hi = curve.clusters[0]
    assert abs(lo - 0.25) < 1e-12
    assert abs(hi - 2.25) < 1e-12
    assert np.all(curve.density >= 0)
    assert abs(curve.total_mass() - 1.0) < 0.02
    assert curve.mass_at_zero == 0.0


def test_mp_density_heavy_aspect_atom():
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=2.0)
    curve = density_curve(model, 2.0)
    assert curve.mass_at_zero == pytest.approx(0.5)
    lo, hi = curve.clusters[0]
    assert abs(lo - (1 - np.sqrt(2)) ** 2) < 1e-2
    assert abs(hi - (1 + np.sqrt(2)) ** 2) < 1e-2
    assert abs(curve.total_mass() - 1.0) < 0.02


def test_three_cluster_configuration():
    model = PopulationModel(rho=(1.0, 3.0, 10.0), weights=(1 / 3, 1 / 3, 1 / 3),
                            aspect=0.1)
    curve = density_curve(model, 0.1)
    assert len(curve.clusters) == 3
    lo, hi = curve.clusters[0]
    assert 0.6 < lo < hi < 1.5
    assert is_separable(curve, 3)
    assert abs(curve.total_mass() - 1.0) < 0.02


def test_single_cluster_configuration():
    model = PopulationModel(rho=(1.0, 3.0, 5.0), weights=(1 / 3, 1 / 3, 1 / 3),
                            aspect=3 / 8)
    curve = density_curve(model, 3 / 8)
    assert len(curve.clusters) == 1
    assert not is_separable(curve, 3)


def test_density_grid_specs():
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=0.5)
    by_step = density_curve(model, 0.5, grid_spec=0.01)
    assert by_step.grid[1] - by_step.grid[0] == pytest.approx(0.01)
    for step in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(InputError):
            density_curve(model, 0.5, grid_spec=step)
    for eps in (0.0, np.nan):
        with pytest.raises(InputError):
            density_curve(model, 0.5, epsilon=eps)


def test_cluster_edges_sharper_than_grid():
    # the clusters do not depend on the grid, however coarse
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=0.25)
    curve = density_curve(model, 0.25, grid_spec=0.05)
    lo, hi = curve.clusters[0]
    assert abs(lo - 0.25) < 5e-3
    assert abs(hi - 2.25) < 5e-3


@pytest.mark.parametrize("c", [0.25, 1.0, 2.0])
def test_support_clusters_mp_edges(c):
    # N < M, N = M (lower edge at the origin) and N > M
    (lo, hi), = support_clusters(
        PopulationModel(rho=(1.0,), weights=(1.0,), aspect=c), c)
    assert abs(lo - (1 - np.sqrt(c)) ** 2) < 1e-12
    assert abs(hi - (1 + np.sqrt(c)) ** 2) < 1e-12


SPLIT = PopulationModel(rho=(1.0, 3.0, 10.0), weights=(1 / 3, 1 / 3, 1 / 3),
                        aspect=0.1)
MERGED = PopulationModel(rho=(1.0, 3.0, 5.0), weights=(1 / 3, 1 / 3, 1 / 3),
                         aspect=0.375)
FIVE = PopulationModel(rho=(1.0, 2.0, 4.0, 8.0, 16.0), weights=(0.2,) * 5,
                       aspect=0.05)


@pytest.mark.parametrize("model,count", [(SPLIT, 3), (MERGED, 1), (FIVE, 5)])
def test_support_clusters_count_and_bound_the_density(model, count):
    clusters = support_clusters(model, model.aspect)
    assert len(clusters) == count
    edges = np.ravel(clusters)
    assert np.all(edges > 0) and np.all(np.diff(edges) > 0)
    # density as density_curve reads it, 1e-3 * edge to either side; a small
    # epsilon keeps the smoothing outside the support well below that
    eps = 1e-9
    side = np.tile([-1.0, 1.0], len(clusters))  # outward direction
    inside = edges * (1 - 1e-3 * side)
    outside = edges * (1 + 1e-3 * side)
    x = np.concatenate([inside, outside])
    m, _ = solve_m_underline_grid(model, model.aspect, x + 1j * eps)
    dens = _continuous_density(m, x + 1j * eps, model.aspect)
    d_in, d_out = dens[: edges.size], dens[edges.size:]
    assert d_in.min() > 1e-3
    assert d_out.max() < 1e-3 * d_in.min()


def test_support_clusters_resolve_narrow_clusters():
    # at c = 1e-6 cluster k is rho_k (1 +- 2 sqrt(c w_k)) + O(c), about 1e-3
    # wide; close narrow clusters are where root-finding accuracy matters
    rho = np.array([1.0, 1.1, 1.2, 1.3, 1.4])
    c = 1e-6
    clusters = support_clusters(
        PopulationModel(rho=tuple(rho), weights=(0.2,) * 5, aspect=c), c)
    half = 2 * rho * np.sqrt(c * 0.2)
    np.testing.assert_allclose(clusters, np.c_[rho - half, rho + half],
                               rtol=0, atol=2e-5)
