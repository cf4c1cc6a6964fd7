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

The roots are a row kernel, `secular_rows`, that solves only the smallest
roots of a stack of spectra: only its ``dlasd4`` calls loop, over the rows
and the roots asked for. Each root is ``dlasd4``'s, read as an offset from
its nearer pole and clipped to its bracket; the kernel evaluates no
residual, and `secular_zeros`, its one-row call, adds the residuals. The
baseline estimator reads the roots below its last block and takes that
block from the trace, as its cluster-contour route does; the contour
moment estimators read no root.
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
    "secular_rows",
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


# entries of a slice of the companion transform's (rows, nodes, n)
# buffer, and of the (roots, n) residual terms of `secular_zeros`
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
    """Group ascending positives whose relative gap is below 1e-12: the
    groups' representatives and sizes, padded to values.size with the last
    representative and with zeros, and the mask of the values that open a
    group."""
    reps, sizes = [values[0]], [1]
    opens = np.ones(values.size, dtype=bool)
    for j, v in enumerate(values[1:], 1):
        if v - reps[-1] <= _MERGE_RTOL * max(abs(v), abs(reps[-1])):
            # running mean keeps the representative centered in the clump
            reps[-1] += (v - reps[-1]) / (sizes[-1] + 1)
            sizes[-1] += 1
            opens[j] = False
        else:
            reps.append(v)
            sizes.append(1)
    pad = values.size - len(reps)
    return reps + reps[-1:] * pad, sizes + [0] * pad, opens


def _rank_one_roots(dist, sizes, value, opens, N: int, M: int):
    """The secular roots at the entries of opens, a (T, W) mask over the
    positions first .. first + W - 1 of `secular_rows`, one LAPACK
    ``dlasd4`` call each, as a (T, W) array; first is 1 at N >= M, where
    position 0 is the convention zero, and 0 otherwise. Other entries hold
    finite placeholders.

    Row t holds K_t distinct eigenvalues dist[t, :K_t] of multiplicities
    sizes[t, :K_t], padded with zeros, and value[t] repeats each by its
    multiplicity. The position j of a group's first eigenvalue holds the
    root below the group, between value[j - 1] (0 at j = 0) and value[j],
    the r-th root for the r-th group. With n = min(N, M) the
    equation reads sum_k size_k mu / (lambda_k - mu) = M - n, so by the
    matrix determinant lemma 1/mu are the eigenvalues of diag(1/lambda) +
    u u^T / (M - n) with u_k = sqrt(size_k / lambda_k). That is LAPACK's
    positive rank-one problem diag(d)^2 + rho z z^T with d = lambda^(-1/2)
    ascending, z_k proportional to sqrt(size_k / lambda_k) and rho =
    sum(size_k / lambda_k) / (M - n), solved by Li's "middle way" iteration
    (Li 1993, "Solving secular equations stably and efficiently"). For
    N >= M, M - n = 0 becomes _DELTA: the largest sigma then runs off to
    infinity and its mu to the convention zero, on which ``dlasd4`` does
    not converge, so it is never asked for. ``dlasd4`` also returns
    t_k = d_k^2 - sigma^2 to high relative accuracy, and lambda_k - mu =
    -t_k lambda_k mu; each root is read as that offset from its nearer pole,
    or from the origin, so the rounding of d cancels. ``dlasd4`` fails on a
    problem far from unit scale, so each row is first divided by 4^k, with
    2k the even part of its lambda_max's binary exponent, which puts
    lambda_max in [1/2, 2), and the roots are multiplied back by 4^k: both
    steps are exact, and d = lambda^(-1/2) only gains the exact factor 2^k.
    Only the ``dlasd4`` calls loop.
    """
    T, W = opens.shape
    wide = M > N
    first = 0 if wide else 1
    two_k = 2 * (np.frexp(dist[:, -1])[1] // 2)[:, None]
    sigma, t_above, t_below = _dlasd4_rows(
        np.ldexp(dist, -two_k), sizes, opens, first, M - N if wide else _DELTA)
    value = np.ldexp(value[:, :first + W], -two_k)
    mu = 1.0 / (sigma * sigma)
    above = value[:, first:]
    below = np.zeros((T, W))
    below[:, 1 - first:] = value[:, :W - 1 + first]
    gap_above = -t_above * above * mu
    gap_below = t_below * below * mu
    if wide:
        gap_below[:, 0] = mu[:, 0]  # root 0's lower neighbour is the origin
    return np.ldexp(np.where(
        gap_above <= gap_below, above - gap_above, below + gap_below
    ), two_k)


def _dlasd4_rows(dist, sizes, opens, first: int, denominator):
    """sigma and the t_k at the poles above and below each root of
    `_rank_one_roots`, whose rho is sum(size_k / lambda_k) / denominator;
    its d and z are freed on return."""
    T, n = dist.shape
    K = np.count_nonzero(sizes, axis=1)
    solved = np.count_nonzero(opens, axis=1)
    weight = sizes / dist
    total = weight.sum(axis=1)
    d = np.sqrt(1.0 / dist[:, ::-1])
    z = np.sqrt(weight[:, ::-1] / total[:, None])
    rho = total / denominator
    # sigma_i ascends as mu descends: sigma_i gives root r = K - 1 - i,
    # between the poles of d indices i + 1 and i
    sigma = np.ones(opens.shape)
    t_above = np.zeros_like(sigma)
    t_below = np.zeros_like(sigma)
    for t in range(T):
        k = K[t]
        dt, zt, rt = d[t, n - k:], z[t, n - k:], rho[t]
        found = []
        for i in range(k - first - solved[t], k - first):
            delta, s, work, info = dlasd4(i, dt, zt, rt)
            if info:
                raise BracketError(
                    f"dlasd4 did not converge on secular root {i} "
                    f"(info {info})"
                )
            # LAPACK's n = 1 branch returns delta = work = 1; there
            # sigma^2 = d^2 + rho
            found += (s, delta[i] * work[i] if k > 1 else -rt,
                      delta[i + 1] * work[i + 1] if i + 1 < k else 0.0)
        if found:
            # one float array, r ascending: numpy 2.4 leaks a tuple value
            # set through a mask that is a row of a sliced array, opens[t]
            row = opens[t]
            sigma[t, row], t_above[t, row], t_below[t, row] = np.array(
                found, dtype=float).reshape(-1, 3)[::-1].T
    return sigma, t_above, t_below


def secular_rows(pos, N: int, M: int, count: int):
    """The count smallest secular roots of each spectrum of a stack.

    pos is (T, n), the n = min(N, M) positive eigenvalues of each spectrum,
    ascending. Returns (mu_hat, brackets), (T, count) and (T, count, 2):
    the first count entries of each row's SecularRoots, bit for bit, which
    `secular_zeros` reads at count = N.

    At N >= M the first N - M + 1 roots are convention zeros; then root
    N - n + j belongs to pos[j]: the secular root below pos[j]'s group of
    coincident eigenvalues where pos[j] opens it, and the group's value
    elsewhere. So only the roots of the groups that open below position
    count are solved (`_rank_one_roots`) and clipped to their brackets, in
    place in the returned arrays; a group's values are placed. No residual
    is evaluated.
    """
    T, n = pos.shape
    wide = M > N
    first = 0 if wide else 1
    mu = np.zeros((T, count))
    brackets = np.zeros((T, count, 2))
    m = count - (N - n)  # the positions of pos that are read
    if m <= first:
        return mu, brackets
    dist, value, sizes = pos, pos, np.ones((T, n), dtype=np.int64)
    opens = np.ones((T, n), dtype=bool)
    ties = np.flatnonzero(
        (np.diff(pos, axis=1) <= _MERGE_RTOL * pos[:, 1:]).any(axis=1))
    if ties.size:
        dist, value = pos.copy(), pos.copy()
        for t in ties:
            dist[t], sizes[t], opens[t] = _merge_coincident(pos[t])
            value[t] = np.repeat(dist[t], sizes[t])
    opens = opens[:, first:m]
    cols = slice(N - n + first, N - n + m)
    roots, lo, hi = mu[:, cols], brackets[:, cols, 0], brackets[:, cols, 1]
    hi[:] = np.nextafter(value[:, first:m], 0.0)
    lo[:, 1 - first:] = np.nextafter(value[:, :m - 1], np.inf)
    if wide:
        lo[:, 0] = value[:, 0] * 1e-15  # M > N: one root lies below
    np.clip(_rank_one_roots(dist, sizes, value, opens, N, M), lo, hi,
            out=roots)
    # a repeated eigenvalue is a root at its own value, placed
    for x in (roots, lo, hi):
        np.copyto(x, value[:, first:m], where=~opens)
    return mu, brackets


def secular_zeros(spectrum: SampleSpectrum) -> SecularRoots:
    """Solve the secular equation, one root between each pair of poles.

    Each open interval between distinct positive sample eigenvalues holds
    exactly one root; when M > N one extra root lies below the smallest
    positive eigenvalue, and when N >= M the convention adds N - M + 1
    zeros instead. The roots and brackets are the one-row call of
    `secular_rows`, at count = N. The residual of a root whose bracket is
    strict is |g| N / M, with g = (1/N) sum_k lambda_k / (lambda_k - mu)
    - M / N, evaluated in slices of roots of at most _SLICE_ENTRIES terms;
    placed roots and convention zeros have residual 0.
    """
    pos, N, M = spectrum.positive_eigenvalues(), spectrum.N, spectrum.M
    (mu,), (brackets,) = secular_rows(pos[None], N, M, N)
    residuals = np.zeros(N)
    solved = np.flatnonzero(brackets[:, 0] < brackets[:, 1])
    step = max(1, _SLICE_ENTRIES // pos.size)
    for i in range(0, solved.size, step):
        at = solved[i:i + step]
        terms = pos / (pos - mu[at, None])
        residuals[at] = np.abs(terms.sum(axis=1) / N - M / N) * (N / M)
    return SecularRoots(mu, brackets, residuals)
