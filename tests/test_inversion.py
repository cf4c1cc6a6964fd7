from __future__ import annotations

import decimal
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hankel

from coveig import (
    ConditioningError,
    InputError,
    InvalidRootsError,
    InvalidWeightsError,
    PopulationModel,
    invert_moments,
    invert_moments_known_multiplicities,
    moments_by_quadrature,
    simulate_spectrum,
    theta_moment_estimator,
    true_moments,
)
from coveig import inversion

# moments of the two-atom measure with atoms (1, 3) and weights (1/2, 1/2);
# every number below is checkable by hand
TWO_ATOM = np.array([1.0, 2.0, 5.0, 14.0])


def test_two_atom_hand_example():
    res = invert_moments(TWO_ATOM)
    np.testing.assert_allclose(res.rho_hat, [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(res.c_hat, [0.5, 0.5], atol=1e-12)
    assert res.method == "moment_full"
    assert not res.projected
    # the linear system: hankel matrix of the first three moments against
    # the last two, solved by the coefficients of (X-1)(X-3) = X^2 - 4X + 3
    np.testing.assert_allclose(res.hankel.Gamma, [[1.0, 2.0], [2.0, 5.0]])
    np.testing.assert_allclose(res.hankel.b, [5.0, 14.0])
    np.testing.assert_allclose(res.hankel.s, [3.0, -4.0], atol=1e-12)
    np.testing.assert_allclose(
        res.hankel.Gamma @ res.hankel.s, -res.hankel.b, atol=1e-12
    )
    assert np.isfinite(res.cond_gamma)
    assert res.weight_residuals.max() < 1e-12


def test_newton_girard_hand_example():
    # equal weights, atoms (1, 3): power sums p = (4, 10) give elementary
    # symmetric values e = (4, 3), hence X^2 - 4X + 3 again
    res = invert_moments_known_multiplicities(np.array([1.0, 2.0, 5.0]),
                                              (0.5, 0.5))
    np.testing.assert_allclose(res.rho_hat, [1.0, 3.0], atol=1e-10)
    np.testing.assert_array_equal(res.c_hat, [0.5, 0.5])
    assert res.method == "moment_known_mult"
    assert np.isnan(res.cond_gamma)
    assert res.hankel is None


def test_known_multiplicities_consume_only_d_moments():
    # equal weights on two atoms reduce to a multiset of size 2, so only
    # gamma_1 and gamma_2 matter; garbage beyond must be ignored
    g = np.array([1.0, 2.0, 5.0, 1e6])
    res = invert_moments_known_multiplicities(g, (0.5, 0.5))
    np.testing.assert_allclose(res.rho_hat, [1.0, 3.0], atol=1e-10)


def test_unequal_weight_multiset_reduction():
    model = PopulationModel(rho=(2.0, 5.0), weights=(0.25, 0.75), aspect=0.5)
    g = true_moments(model, 4)
    res = invert_moments_known_multiplicities(g, (0.25, 0.75))
    np.testing.assert_allclose(res.rho_hat, [2.0, 5.0], rtol=1e-9)


def _random_model(rng, L):
    while True:
        rho = np.sort(rng.uniform(0.5, 12.0, size=L))
        if L == 1 or np.min(np.diff(rho) / rho[1:]) > 0.3:
            break
    w = rng.dirichlet(np.ones(L))
    if w.min() < 0.1:
        w = (w + 0.2) / (1 + 0.2 * L)
    return rho, w


@pytest.mark.parametrize("L,seed", [(1, 0), (2, 1), (3, 2), (3, 3), (4, 4)])
def test_full_inversion_round_trip(L, seed):
    rng = np.random.default_rng(seed)
    rho, w = _random_model(rng, L)
    g = np.array([np.sum(w * rho**k) for k in range(2 * L)])
    res = invert_moments(g)
    np.testing.assert_allclose(res.rho_hat, rho, rtol=1e-8)
    np.testing.assert_allclose(res.c_hat, w, atol=1e-8)
    assert res.weight_residuals.max() < 1e-8 * (1 + np.abs(g).max())


@pytest.mark.parametrize("counts,seed", [((1, 1), 0), ((1, 2), 1),
                                         ((2, 3, 1), 2), ((3, 1), 3)])
def test_known_mult_round_trip(counts, seed):
    rng = np.random.default_rng(seed)
    d = sum(counts)
    rho, _ = _random_model(rng, len(counts))
    w = np.array(counts, dtype=float) / d
    g = np.array([np.sum(w * rho**k) for k in range(d + 1)])
    res = invert_moments_known_multiplicities(g, w)
    np.testing.assert_allclose(res.rho_hat, rho, rtol=1e-7)


def test_hankel_determinant_factorization():
    # det of the moment matrix factors as prod(c) * prod of squared atom
    # gaps, which pins the full atom-recovery problem's conditioning
    rng = np.random.default_rng(7)
    for L in (2, 3):
        rho, w = _random_model(rng, L)
        g = np.array([np.sum(w * rho**k) for k in range(2 * L)])
        G = hankel(g[:L], g[L - 1 : 2 * L - 1])
        vand_sq = np.prod([
            (rho[j] - rho[i]) ** 2
            for i in range(L) for j in range(i + 1, L)
        ])
        np.testing.assert_allclose(np.linalg.det(G), np.prod(w) * vand_sq,
                                   rtol=1e-9)


def test_hankel_is_weighted_vandermonde_gram():
    rho = np.array([1.0, 2.5, 7.0])
    w = np.array([0.2, 0.5, 0.3])
    g = np.array([np.sum(w * rho**k) for k in range(6)])
    G = hankel(g[:3], g[2:5])
    A = rho[None, :] ** np.arange(3)[:, None]
    np.testing.assert_allclose(G, A @ np.diag(w) @ A.T, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_inversion_matches_construction(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 4))
    rho, w = _random_model(rng, L)
    g = np.array([np.sum(w * rho**k) for k in range(2 * L)])
    res = invert_moments(g)
    np.testing.assert_allclose(res.rho_hat, rho, rtol=1e-6)
    np.testing.assert_allclose(res.c_hat, w, atol=1e-6)


def test_complex_roots_rejected():
    with pytest.raises(InvalidRootsError):
        invert_moments(np.array([1.0, 0.0, -1.0, 0.0]))


def test_nonpositive_roots_rejected_or_projected():
    # moments of a signed measure with atoms (-1, 3)
    g = np.array([1.0, 1.0, 5.0, 13.0])
    with pytest.raises(InvalidRootsError):
        invert_moments(g)
    res = invert_moments(g, project=True)
    assert res.projected
    assert res.rho_hat[0] > 0
    np.testing.assert_allclose(res.rho_hat[1], 3.0, atol=1e-9)
    assert np.all(res.c_hat >= 0) and abs(res.c_hat.sum() - 1) < 1e-9


def test_out_of_band_weights_rejected_or_projected():
    # atoms (1, 3) with signed weights (-0.2, 1.2)
    g = np.array([1.0, 3.4, 10.6, 32.2])
    with pytest.raises(InvalidWeightsError):
        invert_moments(g)
    res = invert_moments(g, project=True)
    assert res.projected
    assert np.all((res.c_hat >= 0) & (res.c_hat <= 1))
    np.testing.assert_allclose(res.rho_hat, [1.0, 3.0], atol=1e-9)


def test_degenerate_moments_hit_condition_limit():
    rho = np.array([2.0, 2.0 + 1e-7])
    g = np.array([np.sum(0.5 * rho**k) for k in range(4)])
    with pytest.raises(ConditioningError) as err:
        invert_moments(g)
    assert err.value.cond > 1e12


def test_known_mult_double_root_rejected():
    # gamma_2 == gamma_1^2 forces a perfect double root
    with pytest.raises(InvalidRootsError):
        invert_moments_known_multiplicities(np.array([1.0, 2.0, 4.0]),
                                            (0.5, 0.5))


def test_weight_validation():
    g = np.array([1.0, 2.0, 5.0, 14.0])
    with pytest.raises(InvalidWeightsError):
        invert_moments_known_multiplicities(g, (0.5, 0.6))
    with pytest.raises(InvalidWeightsError):
        invert_moments_known_multiplicities(g, (-0.5, 1.5))
    # irrational weight has no small-denominator representation
    with pytest.raises(InvalidWeightsError):
        invert_moments_known_multiplicities(g, (1 / np.sqrt(2),
                                                1 - 1 / np.sqrt(2)))
    # representable individually, but the common denominator blows up
    with pytest.raises(InvalidWeightsError):
        invert_moments_known_multiplicities(
            np.ones(50), (1 / 16, 1 / 16, 1 / 3, 13 / 24)
        )


def test_input_validation():
    with pytest.raises(InputError):
        invert_moments(np.array([1.0, 2.0, 5.0]), L=2)  # too few moments
    with pytest.raises(InputError):
        invert_moments(np.array([2.0, 2.0, 5.0, 14.0]))  # gamma_0 != 1
    with pytest.raises(InputError):
        invert_moments(np.array([1.0, np.nan, 5.0, 14.0]))
    with pytest.raises(InputError):
        invert_moments(TWO_ATOM, L=0)


def test_moment_estimates_object_accepted():
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
    M = 2400
    spectrum = simulate_spectrum(model, 240, M, seed=11)
    est = moments_by_quadrature(spectrum, 3)
    res = invert_moments(est)  # L inferred from the estimate length
    by_array = invert_moments(est.gamma_hat, L=3)
    np.testing.assert_array_equal(res.rho_hat, by_array.rho_hat)
    np.testing.assert_array_equal(res.c_hat, by_array.c_hat)
    assert res.rho_hat.shape == (3,)
    # Theta is the covariance of M (estimate - truth), ordered (c, rho);
    # one draw of the full estimator's rho lands within 5 standard deviations
    sd_rho = np.sqrt(np.diag(theta_moment_estimator(model).Theta))[3:] / M
    assert np.all(np.abs(res.rho_hat - model.rho_array()) <= 5 * sd_rho)
    np.testing.assert_allclose(res.c_hat, [1 / 3, 1 / 3, 1 / 3], atol=0.1)
    known = invert_moments_known_multiplicities(est, (1 / 3, 1 / 3, 1 / 3))
    np.testing.assert_allclose(known.rho_hat, [1.0, 3.0, 10.0], rtol=0.15)


def _exact_solve(A, b):
    """A x = b in Fraction arithmetic, by Gauss-Jordan elimination."""
    n = len(b)
    rows = [list(row) + [x] for row, x in zip(A, b)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _exact_hankel_poly(gamma, L):
    """Coefficients, ascending and monic, of the Hankel-system polynomial of
    the exact rationals gamma."""
    coeffs = _exact_solve([[gamma[i + j] for j in range(L)] for i in range(L)],
                          [-gamma[i + L] for i in range(L)])
    return coeffs + [Fraction(1)]


def _exact_sign(poly, x):
    value = Fraction(0)
    for coeff in reversed(poly):
        value = value * x + coeff
    return value > 0


def _exact_root(poly, guess):
    """The root of poly within 1e-6 relative of guess, by exact-sign
    bisection to 1e-30 relative; the sign change proves a root inside."""
    lo = Fraction(guess) * (1 - Fraction(1, 10**6))
    hi = Fraction(guess) * (1 + Fraction(1, 10**6))
    sign_lo = _exact_sign(poly, lo)
    assert sign_lo != _exact_sign(poly, hi)
    while hi - lo > Fraction(1, 10**30) * lo:
        mid = (lo + hi) / 2
        if _exact_sign(poly, mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _rational_moments(atoms, weights):
    """Moments 0..2L-1 of a rational measure, each rounded once to a float."""
    return [float(sum(Fraction(w) * Fraction(a) ** k
                      for a, w in zip(atoms, weights)))
            for k in range(2 * len(atoms))]


F = Fraction
CERTIFIED = {
    "L2": ((1, 3), (F(1, 2), F(1, 2))),
    "L3": ((1, 3, 5), (F(1, 3), F(1, 3), F(1, 3))),
    "L4": ((F(1, 2), 2, 5, 9), (F(1, 4),) * 4),
    "L5-geometric": ((1, 2, 4, 8, 16), (F(1, 5),) * 5),
    "L5": ((1, F(5, 2), 6, 11, 20),
           (F(1, 10), F(2, 10), F(3, 10), F(15, 100), F(25, 100))),
    "L2-weights-projected": ((1, 3), (F(-1, 5), F(6, 5))),
    "L3-weights-projected": ((1, F(5, 2), 6), (F(1, 2), F(-1, 10), F(6, 10))),
}


@pytest.mark.parametrize("name", CERTIFIED)
def test_full_inversion_meets_exact_solution(name):
    # the whole inversion of a float moment vector in exact arithmetic:
    # Hankel solve, roots by exact-sign bisection, Vandermonde solve. A
    # row's relative atom error and absolute weight error stay within eps
    # times its scaled Hankel condition number (measured: at most 0.12 of
    # it), on Newton-refined rows and on weight-projected rows, which keep
    # the companion roots unrefined
    gamma = _rational_moments(*CERTIFIED[name])
    L = len(gamma) // 2
    exact = [Fraction(x) for x in gamma]
    poly = _exact_hankel_poly(exact, L)
    guesses = np.sort(np.roots([float(a) for a in reversed(poly)]).real)
    roots = [_exact_root(poly, x) for x in guesses]
    weights = _exact_solve([[r**ell for r in roots] for ell in range(L)],
                           exact[:L])
    projected = "projected" in name
    if projected:
        clipped = [min(max(w, 0), 1) for w in weights]
        weights = [w / sum(clipped) for w in clipped]
    rows = inversion.invert_rows(np.array([gamma]), L, project=projected)
    assert rows.errors[0] is None
    assert bool(rows.projected[0]) is projected
    bound = Fraction(np.finfo(float).eps * rows.cond_gamma[0])
    for got, want in zip(rows.rho_hat[0], roots):
        assert abs(Fraction(float(got)) - want) <= bound * want
    for got, want in zip(rows.c_hat[0], weights):
        assert abs(Fraction(float(got)) - want) <= bound


def test_projected_conjugate_pair_meets_exact_solution():
    # golden vector C has a conjugate pair of roots, whose real part is
    # exactly -a_1 / 2 for X^2 + a_1 X + a_0; the projection returns it
    # twice, with the minimum-norm least-squares weights of the doubled
    # atom at the scaled moments g_ell = gamma_ell / s^ell
    gamma = GOLDEN_MOMENTS["C"]
    exact = [Fraction(x) for x in gamma]
    atom = -_exact_hankel_poly(exact, 2)[1] / 2
    s = Fraction(float(np.max(np.abs(gamma[1:]) ** (1.0 / np.arange(1, 4)))))
    r = atom / s
    weight = (1 + r * exact[1] / s) / (2 * (1 + r * r))
    rows = inversion.invert_rows(np.array([gamma]), 2, project=True)
    assert rows.errors[0] is None and rows.projected[0]
    bound = Fraction(np.finfo(float).eps * rows.cond_gamma[0])
    for got in rows.rho_hat[0]:
        assert abs(Fraction(float(got)) - atom) <= bound * atom
    for got in rows.c_hat[0]:
        assert abs(Fraction(float(got)) - weight) <= bound


# Golden outputs of the inversion layer, as float.hex, for three fixed
# moment vectors: A near atoms (1, 3) with equal weights, B near (1, 3, 5)
# with weights (1/3, 1/3, 1/3), and C infeasible (gamma_2 < gamma_1^2), which
# only a projection inverts. A change to the arithmetic of the moment
# scaling, the Newton refinement, the projection's least-squares weights or
# Newton-Girard shows up here as a changed bit. The vectors were picked
# among many for bits that stay the same under every OpenBLAS kernel family
# (Core2 through SkylakeX and Zen) and every numpy SIMD level: near the
# last bit, many vectors round differently under different BLAS kernels.
GOLDEN_MOMENTS = {
    "A": [1.0, 1.971, 5.0398, 13.917],
    "B": [1.0, 3.00327, 11.691, 50.9789, 235.283, 1123.78],
    "C": [1.0, 1.63, 2.55, 3.8],
}
GOLDEN = [
    # (vector, weights or None for the full inversion, project, projected,
    #  rho_hat, c_hat)
    ("A", None, False, False,
     ["0x1.3e70fd468ba3bp-1", "0x1.69df706895fcfp+1"],
     ["0x1.8d8e11ececc6bp-2", "0x1.3938f709899cbp-1"]),
    ("B", None, False, False,
     ["0x1.d9f63d563001fp-1", "0x1.8dcd0658c7158p+1", "0x1.4504074d39acap+2"],
     ["0x1.4664b1461de71p-2", "0x1.86802399e6fc4p-2", "0x1.331b2b1ffb1cbp-2"]),
    ("C", None, True, True,
     ["0x1.aaddc141db1dfp+0", "0x1.aaddc141db1dfp+0"],
     ["0x1.fa1ed2229a0dcp-2", "0x1.fa1ed2229a0e1p-2"]),
    ("A", (0.5, 0.5), False, False,
     ["0x1.cae91ea3fb27dp-1", "0x1.85d92d136bb51p+1"],
     ["0x1.0000000000000p-1", "0x1.0000000000000p-1"]),
    ("B", (0.25, 0.25, 0.5), False, False,
     ["0x1.96621f5a821f4p-1", "0x1.2240d249555f0p+1", "0x1.1e74d03789f05p+2"],
     ["0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-1"]),
    ("C", (0.5, 0.5), True, True,
     ["0x1.a147ae147ae13p+0", "0x1.a147ae147ae13p+0"],
     ["0x1.0000000000000p-1", "0x1.0000000000000p-1"]),
]


def _decimal_moment_solve(gamma, rho, c):
    """The atoms and weights with sum_k c_k rho_k^ell = gamma_ell for the
    exact values of the floats gamma, ell < 2L, by Newton iteration from
    (rho, c) in 50-digit decimal arithmetic."""
    L = len(rho)
    with decimal.localcontext(decimal.Context(prec=50)):
        g = [Decimal(x) for x in gamma]
        x = [Decimal(float(v)) for v in rho]
        w = [Decimal(float(v)) for v in c]
        for _ in range(20):
            resid = [sum(wk * xk**ell for wk, xk in zip(w, x)) - g[ell]
                     for ell in range(2 * L)]
            jac = [[xk**ell for xk in x]
                   + [ell * wk * xk ** (ell - 1) if ell else Decimal(0)
                      for wk, xk in zip(w, x)] for ell in range(2 * L)]
            step = _exact_solve(jac, resid)
            w = [a - d for a, d in zip(w, step[:L])]
            x = [a - d for a, d in zip(x, step[L:])]
            if max(abs(d) for d in step) < Decimal(10) ** -45:
                return x, w
    raise AssertionError("the decimal Newton iteration did not converge")


@pytest.mark.parametrize("name", ["A", "B"])
def test_full_inversion_within_one_ulp_of_decimal_solution(name):
    # the Newton refinement keeps its iterate and residual in extended
    # precision and solves its steps in double: every atom and weight of
    # the golden vectors still lies within 1 ulp of the solution of the
    # moment equations (measured: 0.76 ulp at most with x86's 80-bit
    # longdouble)
    gamma = GOLDEN_MOMENTS[name]
    res = invert_moments(gamma)
    rho, c = _decimal_moment_solve(gamma, res.rho_hat, res.c_hat)
    for got, want in zip([*res.rho_hat, *res.c_hat], [*rho, *c]):
        assert abs(Decimal(float(got)) - want) <= Decimal(math.ulp(got))


@pytest.mark.parametrize(
    "name,weights,project,projected,rho_hex,c_hex", GOLDEN,
    ids=[f"{g[0]}-{'full' if g[1] is None else 'known'}" for g in GOLDEN],
)
def test_inversion_is_bit_stable(name, weights, project, projected,
                                 rho_hex, c_hex):
    gamma = GOLDEN_MOMENTS[name]
    if weights is None:
        res = invert_moments(gamma, project=project)
    else:
        res = invert_moments_known_multiplicities(gamma, weights,
                                                  project=project)
    assert res.projected is projected
    assert [float(x).hex() for x in res.rho_hat] == rho_hex
    assert [float(x).hex() for x in res.c_hat] == c_hex


@pytest.mark.parametrize("weights,top,stack", [
    (None, 3, ([1.0, 1e100, 1.7e308, 1e300], [1.0, 1e100, 1e200, 1.7e308])),
    ((0.5, 0.5), 2, ([1.0, 1.7e308, 1.0], [1.0, 1e100, 1.7e308])),
], ids=["full", "known"])
def test_moments_beyond_the_scaled_range_are_input_errors(weights, top, stack):
    # finite moments whose scale s overflows at the top order used, s^3 for
    # the full inversion at L = 2 and s^2 for two known weights, or whose
    # power sums (K - 1) gamma_ell do: an InputError, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for gamma in stack:
            with pytest.raises(InputError, match=f"overflows at order {top}"):
                if weights is None:
                    invert_moments(gamma, 2)
                else:
                    invert_moments_known_multiplicities(gamma, weights)
