from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from coveig import (
    ConvergenceError,
    InputError,
    PopulationModel,
    moments_by_quadrature,
    moments_by_residues,
    simulate_spectrum,
    trial_seed,
    true_moments,
)
from coveig import empirical, moments
from coveig.contours import ellipse_nodes, spectrum_ellipse
from coveig.empirical import companion_transform_rows
from coveig.ensemble import SampleSpectrum, padded_spectrum, simulate_rows

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


def _count_secular(monkeypatch):
    """Spy on the rank-one solver behind every secular root; returns the
    list of calls it got."""
    calls = []
    real = empirical._rank_one_roots

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(empirical, "_rank_one_roots", spy)
    return calls


def test_default_contour_needs_no_secular_roots(monkeypatch):
    # the ellipse is built from the largest eigenvalue alone, and the
    # residue at infinity from the power sums
    calls = _count_secular(monkeypatch)
    for est in (moments_by_quadrature(_fixed_spectrum(), 3),
                moments_by_residues(_fixed_spectrum(), 3)):
        np.testing.assert_allclose(est.gamma_hat, FROZEN, rtol=0, atol=1e-10)
    assert calls == []
    # the spy does see a secular solve
    empirical.secular_zeros(_fixed_spectrum())
    assert len(calls) == 1


def _guard_cases():
    """(positive eigenvalues, M) of spectra of every shape and scale."""
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=1.0)
    for N, M in ((30, 90), (60, 60), (90, 30)):
        for seed in range(3):
            pos = simulate_spectrum(model, N, M, seed).positive_eigenvalues()
            yield pos, M
            for scale in (1e-300, 1e300):
                yield scale * pos, M
    for M in (10_000, 1_000_000):
        yield np.array([2.5]), M  # rank one at M/N of 1e4 and 1e6
    tied = np.array([1.0, 2.0, 2.0, 2.0, 5.0, 5.0])
    for scale in (1e-300, 1.0, 1e300):
        yield scale * tied, 6
        yield scale * tied, 60


@pytest.mark.parametrize("nodes", [128, 1024])
def test_default_ellipse_keeps_transform_off_zero(nodes):
    # m(z) is a mean of 1/(t - z) over t in [0, lambda_max], and the
    # ellipse stays 0.3 lambda_max clear of that segment, so |m| lambda_max
    # stays of order one on it: no secular root can come near the curve
    for pos, M in _guard_cases():
        pts, _ = ellipse_nodes(*spectrum_ellipse(pos[-1]), nodes)
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            m, _ = companion_transform_rows(pos[None], M, pts[None])
        assert np.abs(m).min() * pos[-1] >= 0.5, (pos.size, M, pos[-1])


@pytest.mark.parametrize("M", [4, 8, 800])
def test_transform_at_conjugate_nodes_is_conjugate(M):
    # the quadrature evaluates the transform on the upper half of its nodes
    # and conjugates it onto the lower half, which must be what a direct
    # evaluation there gives, bit for bit
    pos = np.stack([LAM, 1e-100 * LAM, 1e100 * LAM, [1.0, 1.0, 2.0, 2.0]])
    pts, _ = ellipse_nodes(*(v[:, None] for v in spectrum_ellipse(pos[:, -1])),
                           256)
    m, m_prime = companion_transform_rows(pos, M, pts)
    assert np.array_equal(m[:, ::-1], np.conj(m))
    assert np.array_equal(m_prime[:, ::-1], np.conj(m_prime))
    upper, upper_prime = companion_transform_rows(pos, M, pts[:, :128])
    assert np.array_equal(upper, m[:, :128])
    assert np.array_equal(upper_prime, m_prime[:, :128])


def _cap_nodes(monkeypatch, nodes: int):
    """Make the quadrature stop at a first rule of the given node count."""
    monkeypatch.setattr(moments, "_START_NODES", nodes)
    monkeypatch.setattr(moments, "_MAX_DOUBLINGS", 0)


def test_under_resolved_explicit_contour_raises(monkeypatch):
    # with no doubling left, the embedded half-rule check must fail loudly
    # instead of returning a bad number
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.25)
    spectrum = simulate_spectrum(model, 40, 160, seed=7)
    _cap_nodes(monkeypatch, 32)
    with pytest.raises(ConvergenceError) as err:
        moments_by_quadrature(spectrum, 4)
    assert err.value.residual is not None


def test_under_resolved_contour_raises_at_any_scale(monkeypatch):
    # gamma_ell grows like lambda_max^ell, and the half-rule check divides
    # order ell by it: a 16-node ellipse fails alike on a spectrum near
    # 1e-10, near 1 and near 1e10
    _cap_nodes(monkeypatch, 16)
    residuals = []
    for scale in (1e-10, 1.0, 1e10):
        model = PopulationModel(rho=(scale, 3 * scale), weights=(0.5, 0.5),
                                aspect=0.5)
        spectrum = simulate_spectrum(model, 60, 120, seed=3)
        with pytest.raises(ConvergenceError) as err:
            moments_by_quadrature(spectrum, 2)
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
    # 64-node ellipse at the model's own scale and at 1e-10 of it
    model = PopulationModel(rho=tuple(scale * r for r in rho),
                            weights=(1 / len(rho),) * len(rho), aspect=aspect)
    for seed in range(3):
        spectrum = simulate_spectrum(model, N, M, seed)
        q = moments_by_quadrature(spectrum, L)
        r = moments_by_residues(spectrum, L)
        assert q.node_count == 64
        np.testing.assert_allclose(q.gamma_hat, r.gamma_hat, rtol=5e-9)


def test_repeated_eigenvalues_contribute_no_residue():
    # a doubled eigenvalue is an eigenvalue of the corrected matrix but not
    # a zero of the companion transform, so no residue sits there; the
    # power sums count it twice like any other eigenvalue, and both routes
    # agree and match the closed second moment
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


def test_residues_estimate_nearly_coincident_eigenvalues():
    # eigenvalues a hair apart squeeze a transform zero against a pole,
    # which no local expansion there survives; the residue at infinity
    # reads only the power sums, which a tiny gap leaves well conditioned
    lam = np.array([1.0, 2.0, 2.0 + 1e-11, 5.0])
    comp = np.sort(np.concatenate([np.zeros(4), lam]))
    spectrum = SampleSpectrum(N=4, M=8, lambda_hat=lam,
                              lambda_hat_companion=comp, seed=0)
    r = moments_by_residues(spectrum, 2).gamma_hat
    q = moments_by_quadrature(spectrum, 2).gamma_hat
    exact = _exact_moments(lam, 4, 8, 2)
    s = lam[-1] ** -np.arange(4.0)
    assert (np.abs(r - exact) * s / (1.0 + np.abs(exact) * s)).max() <= 1e-12
    np.testing.assert_allclose(r, q, rtol=1e-12)


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
    # the first contour of 64 nodes passes the half-rule check
    M = 200
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=aspect)
    for seed in range(5):
        spectrum = simulate_spectrum(model, round(aspect * M), M, seed)
        q = moments_by_quadrature(spectrum, 2)
        r = moments_by_residues(spectrum, 2)
        np.testing.assert_allclose(q.gamma_hat, r.gamma_hat, rtol=1e-12)
        assert q.node_count == 64


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
    # rank 1-3 at M/N of 1e6 and more: each quadrature moment is what is
    # left when sums about M/N times larger cancel, so the two halves of
    # the rule differ by their rounding, which no node count lowers and the
    # self-check discounts. The quadrature stays within 2e-10 of the exact
    # moments, and so of the residue route: its power sums cancel nothing,
    # and it stays within 1e-14 of them
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
        assert q.node_count == 64
        for got, ref, tol in ((q.gamma_hat, exact, 2e-10),
                              (q.gamma_hat, r, 2e-10), (r, exact, 1e-14)):
            gap = np.abs(got - ref) * s / (1.0 + np.abs(ref) * s)
            assert gap.max() <= tol, (N, M, L, lam, gap.max())


def test_invalid_order_rejected():
    spectrum = _fixed_spectrum()
    with pytest.raises(InputError):
        moments_by_quadrature(spectrum, 0)
    with pytest.raises(InputError):
        moments_by_residues(spectrum, 0)


@pytest.mark.parametrize("exponent", [150, -150, 300, -300])
def test_quadrature_moments_scale_exactly(exponent):
    # each row is integrated with lambda_max in [1/2, 1), an exact power of
    # 2 away, so a spectrum scaled by 2^k keeps its node counts, leakage and
    # checks, and moment l is scaled by 2^(k l), bit for bit; unscaled, the
    # transform's derivative and the checks overflow or underflow there
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
    pos = simulate_rows(model, 60, 120, [trial_seed(9, t) for t in range(8)])
    gamma, leakage, count, errors = moments.quadrature_rows(pos, 60, 120, 2)
    scaled = moments.quadrature_rows(np.ldexp(pos, exponent), 60, 120, 2)
    assert errors == scaled[3] == [None] * 8
    np.testing.assert_array_equal(
        scaled[0], np.ldexp(gamma, exponent * np.arange(4)))
    np.testing.assert_array_equal(scaled[1], leakage)
    np.testing.assert_array_equal(scaled[2], count)


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-160])
def test_quadrature_converges_at_extreme_scales(scale):
    # no row fails its checks on any scale; where gamma_3 ~ scale^3 leaves
    # the float range it comes back infinite or zero, as on the residue route
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
    pos = simulate_rows(model, 60, 120, [trial_seed(9, t) for t in range(8)])
    gamma, _, _, errors = moments.quadrature_rows(pos, 60, 120, 2)
    with np.errstate(over="ignore", under="ignore"):
        got, _, _, scaled_errors = moments.quadrature_rows(scale * pos, 60,
                                                           120, 2)
        want = gamma * scale ** np.arange(4)
    assert scaled_errors == [None] * 8
    tiny = np.finfo(float).tiny
    normal = np.isfinite(want) & (np.abs(want) >= tiny)
    assert normal[:, :2].all()
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert (np.abs(got[~normal & np.isfinite(want)]) < tiny).all()


@pytest.mark.parametrize("route", [moments_by_quadrature, moments_by_residues])
def test_overflowing_moments_are_input_errors(route):
    # a finite spectrum near 1e150 whose gamma_3 leaves the float range: the
    # one-row calls refuse it, and no RuntimeWarning comes first
    comp = np.sort(np.concatenate([np.zeros(4), 1e150 * LAM]))
    spectrum = SampleSpectrum(N=4, M=8, lambda_hat=1e150 * LAM,
                              lambda_hat_companion=comp, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match="order up to 3 overflow"):
            route(spectrum, 2)
        assert np.isfinite(route(spectrum, 1).gamma_hat).all()
