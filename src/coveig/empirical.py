"""Empirical Stieltjes transforms and the secular equation.

The positive eigenvalues mu_hat of the rank-one-corrected companion matrix
are exactly the solutions of

    (1/N) sum_m lambda_m / (lambda_m - mu) = M / N,

which interlace the sample eigenvalues. They drive both the contour moment
estimators and the baseline cluster estimator.

One root finder serves every shape. With n = min(N, M) positive sample
eigenvalues the equation reads sum_k mu / (lambda_k - mu) = M - n, and in
nu = 1/mu it is a positive rank-one eigenproblem that LAPACK's ``dlasd4``
(Li 1993) solves root by root. For N >= M the right side is zero; a tiny
constant stands in for it, and the one root that then runs to the origin,
the convention zero, is never asked for. ``dlasd4`` is scipy's wrapper,
taken from ``coveig._lapack`` without importing ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._lapack import dlasd4
from .ensemble import SampleSpectrum
from .errors import BracketError, InputError, PoleProximityError

__all__ = [
    "SecularRoots",
    "empirical_m",
    "companion_transform_rows",
    "secular_zeros",
]

_MERGE_RTOL = 1e-12
# stands in for M - n = 0 when N >= M; every root then lies above
# lambda_min, so the substitution moves a root by at most about
# _DELTA (lambda_max / lambda_min)^2 relative, under one float while
# lambda_max / lambda_min < 1e12
_DELTA = 1e-40


@dataclass(frozen=True)
class SecularRoots:
    """All N eigenvalues mu_hat, ascending, with solver diagnostics.

    For N >= M the first N - M + 1 entries are zero by convention (they are
    not secular-equation solutions); their brackets and residuals are
    recorded as zeros. Multiple sample eigenvalues contribute repeated
    roots at the shared value.
    """

    mu_hat: NDArray[np.float64]
    brackets: NDArray[np.float64]
    residuals: NDArray[np.float64]


def empirical_m(spectrum: SampleSpectrum, z):
    """Empirical transforms (m_sample, m_companion) at z.

    Accepts a scalar or an array of points; z must stay at least
    1e-12 * lambda_max away from every eigenvalue of either matrix.
    """
    lam = spectrum.lambda_hat
    lam_c = spectrum.lambda_hat_companion
    scale = max(lam[-1], lam_c[-1])
    if scale <= 0:
        raise InputError("all sample eigenvalues are zero")
    zz = np.asarray(z, dtype=complex)
    dist = np.abs(zz[..., None] - np.concatenate([lam, lam_c])).min(axis=-1)
    if np.any(dist <= 1e-12 * scale):
        raise PoleProximityError(
            "evaluation point within 1e-12 * lambda_max of an eigenvalue"
        )
    m_sample = np.mean(1.0 / (lam - zz[..., None]), axis=-1)
    m_comp = np.mean(1.0 / (lam_c - zz[..., None]), axis=-1)
    if np.ndim(z) == 0:
        return complex(m_sample), complex(m_comp)
    return m_sample, m_comp


# entries of the companion transform's (rows, nodes, n) slice buffer
_SLICE_ENTRIES = 2**15


def companion_transform_rows(pos, M: int, z):
    """Companion transform m and its derivative for a stack of spectra.

    pos is (T, n), the min(N, M) positive eigenvalues of each spectrum,
    and z (T, K), the points of each row; the M - n structural zeros of
    the companion enter as a count, so derived spectra (exact zeros) and
    diagonalized ones behave identically. Each entry takes one reciprocal
    r = 1/(lambda - z), and m' sums r^2, so conjugate points give conjugate
    values bit for bit. The sums run in slices of rows (of points, when one
    row is too large) through one buffer of at most _SLICE_ENTRIES entries;
    a row's values do not depend on the rows beside it.
    """
    T, K = z.shape
    n = pos.shape[1]
    rows = max(1, _SLICE_ENTRIES // (K * n))
    cols = K if rows > 1 else max(1, _SLICE_ENTRIES // n)
    m = np.empty((T, K), dtype=complex)
    m_prime = np.empty((T, K), dtype=complex)
    # one allocation per call, not per slice: a fresh temporary per slice
    # let the allocator hand the heap's top back and fault it in again
    buffer = np.empty(min(T, rows) * min(K, cols) * n, dtype=complex)
    for a in range(0, T, rows):
        for b in range(0, K, cols):
            zz = z[a:a + rows, b:b + cols, None]
            r = buffer[:zz.size * n].reshape(zz.shape[:2] + (n,))
            np.subtract(pos[a:a + rows, None, :], zz, out=r)
            np.reciprocal(r, out=r)
            m[a:a + rows, b:b + cols] = r.sum(axis=2)
            np.square(r, out=r)
            m_prime[a:a + rows, b:b + cols] = r.sum(axis=2)
    zero_count = M - n
    if zero_count:
        m += zero_count * (-1.0 / z)
        m_prime += zero_count / z**2
    return m / M, m_prime / M


def _merge_coincident(values: np.ndarray):
    """Group ascending positives whose relative gap is below 1e-12."""
    if np.all(np.diff(values) > _MERGE_RTOL * values[1:]):
        return values, np.ones(values.size, dtype=np.int64)
    reps, counts = [values[0]], [1]
    for v in values[1:]:
        if v - reps[-1] <= _MERGE_RTOL * max(abs(v), abs(reps[-1])):
            # running mean keeps the representative centered in the clump
            reps[-1] += (v - reps[-1]) / (counts[-1] + 1)
            counts[-1] += 1
        else:
            reps.append(v)
            counts.append(1)
    return np.asarray(reps), np.asarray(counts, dtype=np.int64)


def _interlacing_brackets(dist: np.ndarray, wide: bool):
    """Open intervals, one per secular root, between consecutive poles.

    The rational function is strictly increasing between poles, so each
    interval between distinct positive eigenvalues holds exactly one root;
    when M > N (``wide``) one more lies below the smallest eigenvalue.
    """
    lo = np.nextafter(dist[:-1], np.inf)
    hi = np.nextafter(dist[1:], 0.0)
    if wide:
        lo = np.concatenate([[dist[0] * 1e-15], lo])
        hi = np.concatenate([[np.nextafter(dist[0], 0.0)], hi])
    return lo, hi


def _rank_one_roots(dist: np.ndarray, counts: np.ndarray, N: int, M: int):
    """The secular roots in their brackets, one LAPACK ``dlasd4`` call each.

    With n = min(N, M) the equation reads sum_k count_k mu / (lambda_k - mu)
    = M - n, so by the matrix determinant lemma 1/mu are the eigenvalues of
    diag(1/lambda) + u u^T / (M - n) with u_k = sqrt(count_k / lambda_k).
    That is LAPACK's positive rank-one problem diag(d)^2 + rho z z^T with
    d = lambda^(-1/2) ascending, z_k proportional to sqrt(count_k / lambda_k)
    and rho = sum(count_k / lambda_k) / (M - n), solved by Li's "middle way"
    iteration (Li 1993, "Solving secular equations stably and efficiently").
    For N >= M, M - n = 0 becomes _DELTA: the largest sigma then runs off
    to infinity and its mu to the convention zero. ``dlasd4`` does not
    converge on that root, so it is never asked for, and the K - 1 roots
    between the poles remain; for M > N all K are kept.
    ``dlasd4`` also returns t_k = d_k^2 - sigma^2 to high relative accuracy,
    and lambda_k - mu = -t_k lambda_k mu; each root is read as that offset
    from its nearer pole, or from the origin, so the rounding of d cancels.
    ``dlasd4`` fails on a problem far from unit scale, so the eigenvalues
    are first divided by 4^k, with 2k the even part of lambda_max's binary
    exponent, which puts lambda_max in [1/2, 2), and the roots are
    multiplied back by 4^k: both steps are exact, and d = lambda^(-1/2)
    only gains the exact factor 2^k.
    """
    K = dist.size
    wide = M > N
    two_k = 2 * (int(np.frexp(dist[-1])[1]) // 2)
    dist = np.ldexp(dist, -two_k)
    weight = counts / dist
    d = np.sqrt(1.0 / dist[::-1])
    z = np.sqrt(weight[::-1] / weight.sum())
    rho = weight.sum() / (M - N if wide else _DELTA)
    # sigma_i ascends as mu descends: sigma_i gives root r = K - 1 - i, which
    # lies between the poles dist[r - 1] (d index i + 1) and dist[r] (index i);
    # for N >= M root r = 0 is the convention zero and is skipped
    first = 0 if wide else 1
    sigma2 = np.empty(K)
    t_above = np.empty(K)
    t_below = np.empty(K)
    for i in range(K - first):
        delta, sigma, work, info = dlasd4(i, d, z, rho)
        if info:
            raise BracketError(
                f"dlasd4 did not converge on secular root {i} (info {info})"
            )
        r = K - 1 - i
        sigma2[r] = sigma * sigma
        t_above[r] = delta[i] * work[i]
        if i + 1 < K:
            t_below[r] = delta[i + 1] * work[i + 1]
    if K == 1:
        # LAPACK's n = 1 branch returns delta = work = 1; here sigma^2 = d^2 + rho
        t_above[0] = -rho
    mu = 1.0 / sigma2[first:]
    above = dist[first:]
    below = np.concatenate([[0.0], dist[:-1]])[first:]
    gap_above = -t_above[first:] * above * mu
    gap_below = t_below[first:] * below * mu
    if wide:
        gap_below[0] = mu[0]  # the smallest root's lower neighbour is the origin
    return np.ldexp(np.where(
        gap_above <= gap_below, above - gap_above, below + gap_below
    ), two_k)


def secular_zeros(spectrum: SampleSpectrum) -> SecularRoots:
    """Solve the secular equation, one root between each pair of poles.

    Each open interval between distinct positive sample eigenvalues holds
    exactly one root; when M > N one extra root lies below the smallest
    positive eigenvalue, and when N >= M the convention adds N - M + 1
    zeros instead. At every shape the roots are the eigenvalues of a
    positive-definite rank-one update of a diagonal matrix, found by
    LAPACK's ``dlasd4`` (see ``_rank_one_roots``; with n = min(N, M) the
    update is scaled by 1 / (M - n), and by 1 / _DELTA when that is zero),
    clipped to their brackets, then moved one float towards the root when
    that lowers |g|.
    """
    return SecularRoots(*_secular_roots(
        spectrum.positive_eigenvalues(), spectrum.N, spectrum.M))


def _secular_roots(pos: np.ndarray, N: int, M: int):
    """`secular_zeros` on the min(N, M) positive eigenvalues pos, ascending;
    returns the fields (mu_hat, brackets, residuals) of its SecularRoots."""
    dist, counts = _merge_coincident(pos)

    def g(mu: np.ndarray) -> np.ndarray:
        # secular function scaled by N; zero eigenvalues contribute nothing
        terms = pos[None, :] / (pos[None, :] - mu[:, None])
        return terms.sum(axis=1) / N - M / N

    lo, hi = _interlacing_brackets(dist, M > N)
    roots = residuals = np.empty(0)
    if lo.size:
        a = np.clip(_rank_one_roots(dist, counts, N, M), lo, hi)
        g_a = g(a)
        # g increases between poles: only the neighbour on the side its
        # sign points to can be closer to the root
        b = np.clip(np.nextafter(a, np.where(g_a > 0, 0.0, np.inf)), lo, hi)
        g_b = g(b)
        # keep whichever float has the smaller |g|; a wins ties
        take_a = np.abs(g_a) <= np.abs(g_b)
        roots = np.where(take_a, a, b)
        residuals = np.abs(np.where(take_a, g_a, g_b)) * (N / M)
    brackets = np.column_stack([lo, hi])

    # repeated eigenvalues are themselves roots, one copy fewer than their
    # multiplicity, and for N >= M the convention adds N - M + 1 zeros
    extra = np.concatenate([np.repeat(dist, counts - 1),
                            np.zeros(max(N - M + 1, 0))])
    roots = np.concatenate([roots, extra])
    brackets = np.vstack([brackets, np.column_stack([extra, extra])])
    residuals = np.concatenate([residuals, np.zeros(extra.size)])

    if roots.size != N:
        raise BracketError(
            f"expected {N} roots, assembled {roots.size}; "
            "spectrum may be rank deficient"
        )
    order = np.argsort(roots, kind="stable")
    return roots[order], brackets[order], residuals[order]
