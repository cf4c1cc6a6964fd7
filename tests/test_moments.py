from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from coveig import (
    Contour,
    ContourError,
    ConvergenceError,
    CoveigError,
    IllConditionedResidueError,
    InputError,
    PopulationModel,
    moments_by_quadrature,
    moments_by_residues,
    simulate_spectrum,
    spectrum_contour,
    secular_zeros,
    true_moments,
)
from coveig import moments
from coveig.ensemble import SampleSpectrum, padded_spectrum

LAM = np.array([0.8, 1.1, 2.5, 3.0])


def _fixed_spectrum() -> SampleSpectrum:
    comp = np.sort(np.concatenate([np.zeros(4), LAM]))
    return SampleSpectrum(N=4, M=8, lambda_hat=LAM, lambda_hat_companion=comp,
                          seed=0)


def _adaptive_oracle(spectrum: SampleSpectrum, L: int, center: float,
                     radius: float) -> np.ndarray:
    """Same contour integrals on a circle, via scipy's adaptive quadrature.

    Shares nothing with the implementation under test except the definition
    of the integrand: different curve, different integration machinery.
    """
    N, M = spectrum.N, spectrum.M
    pos = spectrum.positive_eigenvalues()
    zero = M - pos.size

    def m_and_prime(z):
        m = (np.sum(1.0 / (pos - z)) - zero / z) / M
        mp = (np.sum(1.0 / (pos - z) ** 2) + zero / z**2) / M
        return m, mp

    out = [1.0]
    for ell in range(1, 2 * L):
        def integrand(t, ell=ell):
            z = center + radius * np.exp(1j * t)
            dz = 1j * radius * np.exp(1j * t)
            m, mp = m_and_prime(z)
            if ell == 1:
                return -(M / N) * z * mp / m * dz / (2j * np.pi)
            return ((M / N) * (-1.0) ** ell / (ell - 1)
                    * m ** (-(ell - 1)) * dz / (2j * np.pi))

        re = quad(lambda t: integrand(t).real, 0, 2 * np.pi,
                  limit=400, epsabs=1e-12, epsrel=1e-12)[0]
        im = quad(lambda t: integrand(t).imag, 0, 2 * np.pi,
                  limit=400, epsabs=1e-12, epsrel=1e-12)[0]
        assert abs(im) < 1e-9
        out.append(re)
    return np.array(out)


# values computed by _adaptive_oracle on _fixed_spectrum, frozen to guard
# against the oracle and the implementation drifting together
FROZEN = np.array([1.0, 1.85, 2.56375, 2.4196875,
                   0.33255234374999848, -4.1460990234374986])


def test_fixed_spectrum_against_adaptive_oracle():
    spectrum = _fixed_spectrum()
    oracle = _adaptive_oracle(spectrum, 3, center=2.1, radius=1.95)
    np.testing.assert_allclose(oracle, FROZEN, rtol=0, atol=1e-9)
    for est in (moments_by_quadrature(spectrum, 3),
                moments_by_residues(spectrum, 3)):
        np.testing.assert_allclose(est.gamma_hat, FROZEN, rtol=0, atol=1e-10)


def test_second_moment_closed_form():
    # summing all finite residues equals minus the residue at infinity,
    # which works out to (M/N) times the companion eigenvalue variance
    spectrum = _fixed_spectrum()
    s1 = spectrum.lambda_hat_companion.mean()
    s2 = (spectrum.lambda_hat_companion**2).mean()
    expected = (spectrum.M / spectrum.N) * (s2 - s1**2)
    got = moments_by_residues(spectrum, 2).gamma_hat[2]
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("N,M,seed", [(30, 60, 0), (40, 20, 1), (25, 75, 2)])
def test_first_moment_is_mean_eigenvalue(N, M, seed):
    # the rank-one correction shrinks the trace by exactly a factor 1 - 1/M,
    # so the first estimated moment collapses to the sample mean eigenvalue
    model = PopulationModel(rho=(1.0, 4.0), weights=(0.5, 0.5), aspect=N / M)
    spectrum = simulate_spectrum(model, N, M, seed)
    mean_lam = spectrum.lambda_hat.mean()
    for est in (moments_by_quadrature(spectrum, 1),
                moments_by_residues(spectrum, 1)):
        assert abs(est.gamma_hat[1] - mean_lam) < 1e-12 * (1 + mean_lam)
        assert est.gamma_hat[0] == 1.0


@pytest.mark.parametrize("N,M,L,seed", [
    (30, 300, 3, 0),
    (60, 160, 3, 1),
    (50, 25, 2, 2),
    (48, 120, 3, 3),
])
def test_quadrature_matches_residues(N, M, L, seed):
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=N / M)
    spectrum = simulate_spectrum(model, N, M, seed)
    q = moments_by_quadrature(spectrum, L)
    r = moments_by_residues(spectrum, L)
    np.testing.assert_allclose(q.gamma_hat, r.gamma_hat, rtol=5e-9)
    assert q.method == "quadrature"
    assert r.method == "residues"
    # leakage and moments of order ell divided by lambda_max^ell
    order_scale = spectrum.positive_eigenvalues()[-1] ** -np.arange(2.0 * L)
    assert q.imag_leakage <= 1e-8 * (1 + (np.abs(q.gamma_hat) * order_scale).max())
    assert r.imag_leakage == 0.0


def test_moments_consistent_for_large_samples():
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
    spectrum = simulate_spectrum(model, 400, 800, seed=0)
    est = moments_by_quadrature(spectrum, 2)
    np.testing.assert_allclose(est.gamma_hat, true_moments(model, 3)[:4],
                               rtol=0.05)


def test_explicit_contour_accepted():
    spectrum = _fixed_spectrum()
    cont = spectrum_contour(spectrum, nodes=2048)
    est = moments_by_quadrature(spectrum, 3, contour=cont)
    np.testing.assert_allclose(est.gamma_hat, FROZEN, rtol=0, atol=1e-10)
    assert est.node_count == 2048


def test_contour_containing_origin_accepted():
    # 1/m and z m'/m are regular at the origin (m has a pole there when
    # M > N), so a caller's contour may enclose it and the moments agree
    spectrum = _fixed_spectrum()
    wide = Contour(center=1.5, half_width=2.0, half_height=0.8, nodes=512)
    est = moments_by_quadrature(spectrum, 3, contour=wide)
    np.testing.assert_allclose(est.gamma_hat, FROZEN, rtol=0, atol=1e-10)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_contour_grazing_eigenvalue_raises(eps):
    # the curve passes eps past the largest eigenvalue, a pole of the
    # log-derivative integrand: the half-rule check must refuse it
    spectrum = _fixed_spectrum()
    grazing = Contour(center=1.5, half_width=1.5 + eps,
                      half_height=0.8, nodes=512)
    with pytest.raises(CoveigError):
        moments_by_quadrature(spectrum, 3, contour=grazing)


def test_contour_missing_eigenvalue_rejected():
    spectrum = _fixed_spectrum()
    bad = Contour(center=1.0, half_width=0.7, half_height=0.3, nodes=512)
    with pytest.raises(ContourError):
        moments_by_quadrature(spectrum, 2, contour=bad)


def _count_secular(monkeypatch):
    """Spy on moments' secular_zeros; returns the list of spectra it got."""
    calls = []

    def spy(spectrum):
        calls.append(spectrum)
        return secular_zeros(spectrum)

    monkeypatch.setattr(moments, "secular_zeros", spy)
    return calls


def test_default_contour_needs_no_secular_roots(monkeypatch):
    # spectrum_contour is built from the largest eigenvalue alone
    calls = _count_secular(monkeypatch)
    est = moments_by_quadrature(_fixed_spectrum(), 3)
    np.testing.assert_allclose(est.gamma_hat, FROZEN, rtol=0, atol=1e-10)
    assert calls == []


def test_contour_missing_secular_root_rejected(monkeypatch):
    # the secular roots interlace the eigenvalues, the smallest lying below
    # 0.8; a caller's contour from 0.7 to 3.3 holds every eigenvalue but
    # not that root, and only the roots computed for the check can tell
    spectrum = _fixed_spectrum()
    assert 0.5 < secular_zeros(spectrum).positive()[0] < 0.7
    calls = _count_secular(monkeypatch)
    misses_root = Contour(center=2.0, half_width=1.3, half_height=0.8,
                          nodes=512)
    assert misses_root.contains_real(LAM).all()
    with pytest.raises(ContourError, match="enclose"):
        moments_by_quadrature(spectrum, 2, contour=misses_root)
    assert calls == [spectrum]


def test_under_resolved_explicit_contour_raises():
    # a fixed contour is never auto-refined; the embedded half-rule check
    # must fail loudly instead of returning a bad number
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.25)
    spectrum = simulate_spectrum(model, 40, 160, seed=7)
    cont = spectrum_contour(spectrum, nodes=32)
    with pytest.raises(ConvergenceError) as err:
        moments_by_quadrature(spectrum, 4, contour=cont)
    assert err.value.residual is not None


def test_under_resolved_contour_raises_at_any_scale():
    # gamma_ell grows like lambda_max^ell, and the half-rule check divides
    # order ell by it: a 16-node ellipse fails alike on a spectrum near
    # 1e-10, near 1 and near 1e10
    residuals = []
    for scale in (1e-10, 1.0, 1e10):
        model = PopulationModel(rho=(scale, 3 * scale), weights=(0.5, 0.5),
                                aspect=0.5)
        spectrum = simulate_spectrum(model, 60, 120, seed=3)
        cont = spectrum_contour(spectrum, nodes=16)
        with pytest.raises(ConvergenceError) as err:
            moments_by_quadrature(spectrum, 2, contour=cont)
        residuals.append(err.value.residual)
    np.testing.assert_allclose(residuals, residuals[1], rtol=1e-6)


@pytest.mark.parametrize("rho,aspect,N,M,L", [
    ((1.0, 3.0, 5.0), 0.375, 150, 400, 3),
    ((1.0, 3.0, 10.0), 0.1, 240, 2400, 3),
    ((1.0, 3.0), 0.5, 60, 120, 2),
])
@pytest.mark.parametrize("scale", [1e-10, 1.0])
def test_default_contour_converges_first_time(rho, aspect, N, M, L, scale):
    # the benchmark's three models: the scaled checks accept the first
    # 128-node ellipse at the model's own scale and at 1e-10 of it
    model = PopulationModel(rho=tuple(scale * r for r in rho),
                            weights=(1 / len(rho),) * len(rho), aspect=aspect)
    for seed in range(3):
        spectrum = simulate_spectrum(model, N, M, seed)
        q = moments_by_quadrature(spectrum, L)
        r = moments_by_residues(spectrum, L)
        assert q.node_count == 128
        np.testing.assert_allclose(q.gamma_hat, r.gamma_hat, rtol=5e-9)


def test_repeated_eigenvalues_contribute_no_residue():
    # a doubled eigenvalue is an eigenvalue of the corrected matrix but not
    # a zero of the companion transform, so it must be skipped in the
    # residue sum; both routes then agree and match the closed second moment
    lam = np.array([1.0, 2.0, 2.0, 5.0])
    comp = np.sort(np.concatenate([np.zeros(4), lam]))
    spectrum = SampleSpectrum(N=4, M=8, lambda_hat=lam,
                              lambda_hat_companion=comp, seed=0)
    r = moments_by_residues(spectrum, 3).gamma_hat
    q = moments_by_quadrature(spectrum, 3).gamma_hat
    assert np.all(np.isfinite(r))
    np.testing.assert_allclose(r, q, rtol=0, atol=1e-12)
    s1, s2 = comp.mean(), (comp**2).mean()
    assert abs(r[2] - 2 * (s2 - s1**2)) < 1e-12


def test_residues_reject_squeezed_roots():
    # eigenvalues a hair apart squeeze a transform zero against a pole;
    # the local expansion is hopeless and must refuse rather than return
    lam = np.array([1.0, 2.0, 2.0 + 1e-11, 5.0])
    comp = np.sort(np.concatenate([np.zeros(4), lam]))
    spectrum = SampleSpectrum(N=4, M=8, lambda_hat=lam,
                              lambda_hat_companion=comp, seed=0)
    with pytest.raises(IllConditionedResidueError):
        moments_by_residues(spectrum, 2)


def test_square_aspect_quadrature_matches_residues():
    # at N = M the sample support reaches the origin, but m(0) is finite
    # and positive, so the contour through the negative axis is admissible
    model = PopulationModel(rho=(1.0, 4.0), weights=(0.5, 0.5), aspect=1.0)
    spectrum = simulate_spectrum(model, 25, 25, seed=2)
    q = moments_by_quadrature(spectrum, 2)
    r = moments_by_residues(spectrum, 2)
    np.testing.assert_allclose(q.gamma_hat, r.gamma_hat, rtol=1e-12)
    assert abs(q.gamma_hat[1] - spectrum.lambda_hat.mean()) < 1e-12 * 3


@pytest.mark.parametrize("aspect", [0.9, 0.99, 1.0, 1.01, 1.1, 2.0])
def test_quadrature_matches_residues_near_square(aspect):
    # the regime where dimension and sample count are of the same order;
    # the first contour of 128 nodes passes the half-rule check
    M = 200
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=aspect)
    for seed in range(5):
        spectrum = simulate_spectrum(model, round(aspect * M), M, seed)
        q = moments_by_quadrature(spectrum, 2)
        r = moments_by_residues(spectrum, 2)
        np.testing.assert_allclose(q.gamma_hat, r.gamma_hat, rtol=1e-12)
        assert q.node_count == 128


def _exact_moments(lam, N: int, M: int, L: int) -> np.ndarray:
    """The default contour's moments in exact rational arithmetic.

    The ellipse encloses every singularity of both integrands, so each
    integral is minus the residue at infinity, which depends only on the
    power sums p_k = (1/M) sum lambda^k: gamma_1 = (M/N) p_1 and
    gamma_ell = -(M / (N (ell - 1))) [w^ell] P(w)^-(ell - 1) for ell >= 2,
    with P(w) = 1 + sum_k p_k w^k.
    """
    degree = 2 * L
    lam = [Fraction(float(x)) for x in lam]
    p = [Fraction(1)] + [sum(x**k for x in lam) / M for k in range(1, degree)]
    inverse = [Fraction(1)] + [Fraction(0)] * (degree - 1)  # 1 / P
    for j in range(1, degree):
        inverse[j] = -sum(p[k] * inverse[j - k] for k in range(1, j + 1))
    gamma = [1.0, float(Fraction(M, N) * p[1])]
    power = [Fraction(1)] + [Fraction(0)] * (degree - 1)
    for ell in range(2, degree):
        power = [sum(power[k] * inverse[j - k] for k in range(j + 1))
                 for j in range(degree)]
        gamma.append(float(-Fraction(M, N * (ell - 1)) * power[ell]))
    return np.array(gamma)


def test_tall_rank_deficient_spectra_estimate_by_quadrature():
    # rank 1-3 at M/N of 1e6 and more: each moment is what is left when
    # sums about M/N times larger cancel, so the two halves of the rule
    # differ by their rounding, which no node count lowers and the
    # self-check discounts. The quadrature stays within 2e-10 of the exact
    # moments; the residue route's sum of eigenvalues minus roots cancels
    # alike and rounds to about 1e-9 here, so it is held to 2e-9
    rng = np.random.default_rng(0)
    for _ in range(100):
        N = int(rng.integers(1, 4))
        M = int(rng.integers(2_000_000, 3_200_001))
        L = int(rng.integers(2, 6))
        lam = np.sort(10.0 ** rng.uniform(-6, 7, N))
        spectrum = padded_spectrum(lam, N, M, 0)
        q = moments_by_quadrature(spectrum, L)
        r = moments_by_residues(spectrum, L).gamma_hat
        exact = _exact_moments(lam, N, M, L)
        s = lam[-1] ** -np.arange(2.0 * L)
        assert q.node_count == 128
        for ref, tol in ((exact, 2e-10), (r, 2e-9)):
            gap = np.abs(q.gamma_hat - ref) * s / (1.0 + np.abs(ref) * s)
            assert gap.max() <= tol, (N, M, L, lam, gap.max())


def test_invalid_order_rejected():
    spectrum = _fixed_spectrum()
    with pytest.raises(InputError):
        moments_by_quadrature(spectrum, 0)
    with pytest.raises(InputError):
        moments_by_residues(spectrum, 0)
