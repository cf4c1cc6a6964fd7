"""Empirical Stieltjes transforms and the secular equation.

The positive eigenvalues mu_hat of the rank-one-corrected companion matrix
are exactly the solutions of

    (1/N) sum_m lambda_m / (lambda_m - mu) = M / N,

which interlace the sample eigenvalues. They drive both the contour moment
estimators and the baseline cluster estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .ensemble import SampleSpectrum
from .errors import BracketError, InputError, PoleProximityError

__all__ = [
    "SecularRoots",
    "empirical_m",
    "companion_transform_nodes",
    "secular_zeros",
]

_MERGE_RTOL = 1e-12
# a float64 bracket collapses to adjacent floats in well under 200 halvings
_MAX_BISECTIONS = 200


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

    def positive(self) -> NDArray[np.float64]:
        return self.mu_hat[self.mu_hat > 0]


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


def companion_transform_nodes(spectrum: SampleSpectrum, z: np.ndarray):
    """Companion transform and its derivative on an array of points.

    Works from the min(N, M) positive eigenvalues plus the structural-zero
    count, so derived spectra (exact zeros) and diagonalized ones behave
    identically.
    """
    z = np.asarray(z, dtype=complex)
    pos = spectrum.positive_eigenvalues()
    M = spectrum.M
    zero_count = M - pos.size
    diff = pos[None, :] - z[:, None]
    m = (1.0 / diff).sum(axis=1)
    m_prime = (1.0 / diff**2).sum(axis=1)
    if zero_count:
        m += zero_count * (-1.0 / z)
        m_prime += zero_count / z**2
    return m / M, m_prime / M


def _merge_coincident(values: np.ndarray):
    """Group ascending positives whose relative gap is below 1e-12."""
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


def secular_zeros(spectrum: SampleSpectrum) -> SecularRoots:
    """Solve the secular equation by bisection between consecutive poles.

    The rational function is strictly increasing between poles, so each
    open interval between distinct positive sample eigenvalues brackets
    exactly one root. When M > N one extra root lies below the smallest
    positive eigenvalue; when N >= M the convention adds N - M + 1 zeros
    instead. Bisection runs until the bracket collapses to machine
    resolution.
    """
    N, M = spectrum.N, spectrum.M
    pos = spectrum.positive_eigenvalues()
    dist, counts = _merge_coincident(pos)

    def g(mu: np.ndarray) -> np.ndarray:
        # secular function scaled by N; zero eigenvalues contribute nothing
        terms = pos[None, :] / (pos[None, :] - mu[:, None])
        return terms.sum(axis=1) / N - M / N

    lo_list, hi_list = [], []
    if M > N:
        lo_list.append(dist[0] * 1e-15)
        hi_list.append(np.nextafter(dist[0], 0.0))
    for a, b in zip(dist[:-1], dist[1:]):
        lo_list.append(np.nextafter(a, np.inf))
        hi_list.append(np.nextafter(b, 0.0))

    roots = np.empty(0)
    brackets = np.empty((0, 2))
    residuals = np.empty(0)
    if lo_list:
        lo = np.asarray(lo_list)
        hi = np.asarray(hi_list)
        init = np.column_stack([lo, hi])
        for _ in range(_MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            stalled = (mid <= lo) | (mid >= hi)
            if stalled.all():
                break
            up = g(mid) > 0
            hi = np.where(up & ~stalled, mid, hi)
            lo = np.where(~up & ~stalled, mid, lo)
        else:
            raise BracketError("secular bisection hit the iteration cap")
        pick_lo = np.abs(g(lo)) <= np.abs(g(hi))
        roots = np.where(pick_lo, lo, hi)
        brackets = init
        residuals = np.abs(g(roots)) * (N / M)

    # repeated eigenvalues are themselves roots, one copy fewer than their
    # multiplicity
    for rep, cnt in zip(dist, counts):
        if cnt > 1:
            roots = np.append(roots, np.full(cnt - 1, rep))
            brackets = np.vstack([brackets, np.tile([rep, rep], (cnt - 1, 1))])
            residuals = np.append(residuals, np.zeros(cnt - 1))

    zeros = N - M + 1 if N >= M else 0
    if zeros:
        roots = np.append(roots, np.zeros(zeros))
        brackets = np.vstack([brackets, np.zeros((zeros, 2))])
        residuals = np.append(residuals, np.zeros(zeros))

    if roots.size != N:
        raise BracketError(
            f"expected {N} roots, assembled {roots.size}; "
            "spectrum may be rank deficient"
        )
    order = np.argsort(roots, kind="stable")
    return SecularRoots(
        mu_hat=roots[order],
        brackets=brackets[order],
        residuals=residuals[order],
    )
