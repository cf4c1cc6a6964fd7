from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coveig import (
    BracketError,
    PoleProximityError,
    PopulationModel,
    SampleSpectrum,
    empirical_m,
    secular_zeros,
    simulate_spectrum,
)
from coveig import empirical
from coveig.ensemble import padded_spectrum
from reference_draws import bartlett_eigenvalues


def _spectrum(lam, N, M):
    lam = np.asarray(lam, dtype=float)
    k = min(N, M)
    assert lam.size == k
    full = np.concatenate([np.zeros(N - k), lam])
    comp = np.concatenate([np.zeros(M - k), lam])
    return SampleSpectrum(N=N, M=M, lambda_hat=np.sort(full),
                          lambda_hat_companion=np.sort(comp), seed=0)


def test_secular_single_eigenvalue_more_samples():
    # one eigenvalue 2, twice as many samples: the equation
    # (1/N) * 2/(2 - mu) = 2 has the root mu = 1
    roots = secular_zeros(_spectrum([2.0], N=1, M=2))
    np.testing.assert_allclose(roots.mu_hat, [1.0], atol=1e-14)
    assert roots.residuals.max() <= 1e-12


def test_secular_square_case_zero_convention():
    roots = secular_zeros(_spectrum([2.0], N=1, M=1))
    np.testing.assert_array_equal(roots.mu_hat, [0.0])


def test_secular_two_eigenvalues_quadratic_oracle():
    # lambda = (1, 3), N=2, M=4: roots of 2 mu^2 - 6 mu + 3
    roots = secular_zeros(_spectrum([1.0, 3.0], N=2, M=4))
    exact = np.array([(3 - np.sqrt(3)) / 2, (3 + np.sqrt(3)) / 2])
    np.testing.assert_allclose(roots.mu_hat, exact, rtol=1e-14)


def test_secular_tall_case_counts():
    # N=3, M=2: one structural zero in lambda_hat, K-1=1 secular root,
    # N-M+1=2 convention zeros
    roots = secular_zeros(_spectrum([1.0, 3.0], N=3, M=2))
    assert roots.mu_hat.shape == (3,)
    assert np.sum(roots.mu_hat == 0) == 2
    assert np.all(np.diff(roots.mu_hat) >= 0)


def test_secular_repeated_eigenvalue():
    # a doubled eigenvalue is itself a root with one fewer multiplicity
    roots = secular_zeros(_spectrum([1.0, 2.0, 2.0, 5.0], N=4, M=8))
    assert np.sum(np.abs(roots.mu_hat - 2.0) < 1e-12) >= 1
    assert roots.mu_hat.shape == (4,)


def _interlaces(mu, lam):
    # every positive root sits strictly below the next-larger eigenvalue;
    # being above the previous one is automatic from the bracketing
    pos_mu = mu[mu > 0]
    pos_lam = np.unique(lam[lam > 0])
    hi = np.searchsorted(pos_lam, pos_mu, side="left")
    if np.any(hi >= pos_lam.size):
        return False
    return bool(np.all(pos_mu < pos_lam[hi]))


def _residual_and_bound(spectrum, mu):
    """|f(mu)| for f = (1/M) sum lambda / (lambda - mu) - 1, and its float floor.

    The float nearest a root leaves |f| <= |f'(mu)| spacing(mu) / 2 in exact
    arithmetic, and evaluating f in double precision adds about
    eps (1/M) sum |lambda / (lambda - mu)|; the bound allows four times each.
    """
    lam = spectrum.positive_eigenvalues()
    terms = lam[None, :] / (lam[None, :] - mu[:, None])
    residual = np.abs(terms.sum(axis=1) / spectrum.M - 1.0)
    slope = (terms**2 / lam[None, :]).sum(axis=1) / spectrum.M
    floor = np.finfo(float).eps * np.abs(terms).sum(axis=1) / spectrum.M
    return residual, 2.0 * slope * np.spacing(mu) + 4.0 * floor


def _secular(roots):
    # true secular roots: neither convention zeros nor repeated eigenvalues
    return roots.brackets[:, 1] > roots.brackets[:, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 40), st.floats(0.2, 3.0))
def test_secular_structure_random(seed, N, ratio):
    M = max(1, int(round(N / ratio)))
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=N / M)
    spectrum = simulate_spectrum(model, N, M, seed)
    roots = secular_zeros(spectrum)
    assert roots.mu_hat.shape == (N,)
    assert np.all(np.diff(roots.mu_hat) >= 0)
    expected_zeros = N - M + 1 if N >= M else 0
    assert np.sum(roots.mu_hat == 0) == expected_zeros
    # each root is as close as its float spacing and the rounding of f allow
    sec = _secular(roots)
    residual, bound = _residual_and_bound(spectrum, roots.mu_hat[sec])
    assert np.all(residual <= bound)
    assert np.all(roots.residuals[sec] <= bound)
    lam_pos = spectrum.positive_eigenvalues()
    pos = roots.mu_hat[roots.mu_hat > 0]
    # every positive root lies strictly below the largest eigenvalue and
    # interlaces the sorted positive eigenvalues
    assert pos.size == 0 or pos[-1] < lam_pos[-1]
    assert _interlaces(roots.mu_hat, spectrum.lambda_hat)
    # brackets actually contained their roots
    bracketed = roots.brackets[:, 1] > 0
    assert np.all(roots.mu_hat[bracketed] >= roots.brackets[bracketed, 0])
    assert np.all(roots.mu_hat[bracketed] <= roots.brackets[bracketed, 1])


def _coarse_bisection(spectrum, lo, hi, halvings_short=10):
    # bisection stopped while each bracket still spans 2**halvings_short
    # floats, keeping the end with the smaller |f|
    lam, M = spectrum.positive_eigenvalues(), spectrum.M

    def f(mu):
        return (lam[None, :] / (lam[None, :] - mu[:, None])).sum(axis=1) - M

    while True:
        mid = 0.5 * (lo + hi)
        going = hi - lo > 2.0**halvings_short * np.spacing(mid)
        if not going.any():
            return np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)
        up = f(mid) > 0
        hi = np.where(going & up, mid, hi)
        lo = np.where(going & ~up, mid, lo)


@pytest.mark.parametrize("N, M", [(30, 45), (38, 25), (40, 41)])
def test_residual_bound_rejects_inexact_roots(N, M):
    # negative controls for the bound of test_secular_structure_random
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=N / M)
    spectrum = simulate_spectrum(model, N, M, seed=5)
    roots = secular_zeros(spectrum)
    sec = _secular(roots)
    mu, lo, hi = roots.mu_hat[sec], roots.brackets[sec, 0], roots.brackets[sec, 1]
    side = np.where(np.arange(mu.size) % 2, 1.0, -1.0)
    pushed = np.clip(mu + 24 * side * np.spacing(mu), lo, hi)
    residual, bound = _residual_and_bound(spectrum, pushed)
    assert np.mean(residual > bound) > 0.75
    residual, bound = _residual_and_bound(
        spectrum, _coarse_bisection(spectrum, lo, hi)
    )
    assert np.mean(residual > bound) > 0.75


def _dense_roots(lam, M):
    # independent oracle: the positive eigenvalues of Lambda - s s^T / M;
    # for N >= M (lam.size == M) one of them is exactly zero, and eigvalsh
    # rounds it to about +-eps * lambda_max, so the smallest is dropped
    s = np.sqrt(lam)
    ev = np.linalg.eigvalsh(np.diag(lam) - np.outer(s, s) / M)
    return ev[1:] if lam.size == M else ev[ev > 0]


def _brackets_within(lam, M, mu, ulps):
    # the exact secular function changes sign between the floats ulps
    # below and ulps above mu, so a root lies within ulps floats of mu;
    # rational arithmetic, no rounding
    lam = [Fraction(x) for x in lam]

    def f(x):
        x = Fraction(x)
        return sum(l / (l - x) for l in lam) - M

    lo = hi = mu
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return f(lo) <= 0 <= f(hi)


def _simulated(rho, N, M):
    """A Bartlett draw in simulate_spectrum's order, from numpy's
    SFC64(SeedSequence(0)): fixed data for the root oracles, whichever
    seeding the Monte Carlo stream uses."""
    model = PopulationModel(rho=rho, weights=(0.5, 0.5), aspect=N / M)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(0)))
    return padded_spectrum(bartlett_eigenvalues(model, N, M, rng), N, M, 0)


@pytest.mark.parametrize(
    "spectrum",
    [
        _spectrum([2.0], N=1, M=2),
        _spectrum([0.7], N=1, M=1000),
        _simulated((1.0, 3.0), 2, 3),
        _simulated((1.0, 3.0), 40, 41),
        _simulated((1.0, 1e4), 20, 80),
        _simulated((1.0, 1e4), 40, 60),
        _spectrum([1.0, 2.0, 2.0, 5.0], N=4, M=8),
        _simulated((1.0, 3.0), 60, 60),
        _simulated((1.0, 3.0), 41, 40),
        _simulated((1.0, 3.0), 200, 20),
        _simulated((1.0, 1e4), 80, 20),
        _spectrum([1.0, 2.0, 2.0, 5.0], N=6, M=4),
    ],
    ids=["N1", "N1-M1000", "M=N+1-small", "M=N+1", "rho1e4-wide",
         "rho1e4", "tied", "N=M", "N=M+1", "N>>M", "rho1e4-tall",
         "tied-tall"],
)
def test_rank_one_roots_match_oracles(spectrum):
    lam, M = spectrum.positive_eigenvalues(), spectrum.M
    roots = secular_zeros(spectrum)
    mu = roots.mu_hat[roots.mu_hat > 0]
    # eigvalsh is accurate to a few eps * lambda_max in absolute terms only
    atol = 8 * lam.size * np.finfo(float).eps * lam[-1]
    np.testing.assert_allclose(mu, _dense_roots(lam, M), rtol=1e-12, atol=atol)
    for j, root in enumerate(mu[_secular(roots)[roots.mu_hat > 0]]):
        # dlasd4 returns the root below lambda_min of the 40 x 41 case
        # (0.0021637, lambda_min 0.0067769) 26.0 floats above the exact
        # root; every other root is within 2 floats
        wide_root = (spectrum.N, spectrum.M) == (40, 41) and j == 0
        assert _brackets_within(lam, M, root, 27 if wide_root else 2)


def test_rank_one_failure_raises_bracket_error(monkeypatch):
    solve, asked = empirical.dlasd4, []

    def spy(i, d, z, rho):
        asked.append(i)
        return solve(i, d, z, rho)

    # at N >= M the largest sigma (index K - 1) is the root that runs to
    # mu = 0, the convention zero: it is never asked for, every other index is
    monkeypatch.setattr(empirical, "dlasd4", spy)
    for N in (4, 7):
        asked.clear()
        roots = secular_zeros(_spectrum([1.0, 2.0, 3.0, 5.0], N=N, M=4))
        assert asked == [0, 1, 2]
        assert np.sum(roots.mu_hat == 0) == N - 4 + 1

    def no_convergence(i, d, z, rho):
        return np.zeros_like(d), 0.0, np.zeros_like(d), 1

    monkeypatch.setattr(empirical, "dlasd4", no_convergence)
    for N, M in [(2, 4), (3, 2)]:
        with pytest.raises(BracketError, match="dlasd4"):
            secular_zeros(_spectrum([1.0, 3.0], N=N, M=M))


@pytest.mark.parametrize("N, M", [(40, 80), (60, 60), (60, 40)])
def test_secular_roots_are_scale_free(N, M):
    # dlasd4 alone stops converging once the spectrum's scale passes about
    # 1e+-155; with the prescale by a power of 4 the roots of a scaled
    # spectrum are the scaled roots: bit for bit under a power of 4, to the
    # rounding of the scaled eigenvalues under any other factor
    spectrum = _simulated((1.0, 3.0), N, M)
    lam = spectrum.positive_eigenvalues()
    base = secular_zeros(spectrum)
    for j in (-498, -80, 80, 500):
        f = 4.0**j
        roots = secular_zeros(_spectrum(f * lam, N, M))
        assert np.array_equal(roots.mu_hat, f * base.mu_hat)
        assert np.array_equal(roots.residuals, base.residuals)
    for f in (1e-300, 1e-160, 1e160, 1e300):
        roots = secular_zeros(_spectrum(f * lam, N, M))
        np.testing.assert_allclose(roots.mu_hat, f * base.mu_hat, rtol=4e-15)


def test_secular_extra_root_below_smallest_when_wide():
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.25)
    spectrum = simulate_spectrum(model, 12, 48, seed=3)
    roots = secular_zeros(spectrum)
    lam_min = spectrum.positive_eigenvalues()[0]
    # M > N: exactly one root below the smallest positive eigenvalue
    assert np.sum((roots.mu_hat > 0) & (roots.mu_hat < lam_min)) == 1


def test_empirical_transform_relation():
    # m_sample(z) = (M/N) m_companion(z) - (1 - M/N)/z
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
    for N, M in [(20, 40), (40, 20), (30, 30)]:
        spectrum = simulate_spectrum(model, N, M, seed=8)
        for z in [1 + 1j, -0.5 + 0.25j, 4 + 0.01j]:
            ms, mc = empirical_m(spectrum, z)
            rel = (M / N) * mc - (1 - M / N) / z
            assert abs(ms - rel) < 1e-10 * (1 + abs(ms))


def test_empirical_m_array_input():
    model = PopulationModel(rho=(2.0,), weights=(1.0,), aspect=0.5)
    spectrum = simulate_spectrum(model, 10, 20, seed=1)
    z = np.array([1 + 1j, 2 + 2j])
    ms, mc = empirical_m(spectrum, z)
    assert ms.shape == (2,)
    one = empirical_m(spectrum, 1 + 1j)
    assert abs(ms[0] - one[0]) < 1e-15


def test_empirical_m_pole_guard():
    spectrum = _spectrum([1.0, 3.0], N=3, M=2)
    with pytest.raises(PoleProximityError):
        empirical_m(spectrum, 3.0 + 0j)
    with pytest.raises(PoleProximityError):
        empirical_m(spectrum, 0.0 + 0j)  # structural zero is a pole too
