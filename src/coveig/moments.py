"""Spectral-moment estimators gamma_hat_0 .. gamma_hat_{2L-1}.

Both estimators evaluate the same contour integrals of the empirical
companion transform m(z): the first moment comes from the log-derivative
integrand z m'(z)/m(z), higher ones from 1/m(z)^(ell-1). The quadrature
route discretizes one ellipse around the whole spectrum and the origin,
where neither integrand is singular, so the same rule serves N < M, N = M
and N > M; the residue route sums the exact residues at the secular roots
and serves as an independent cross-check.

The quadrature is a row kernel, `quadrature_rows`, over a stack of spectra
of one (N, M), so that a block of Monte Carlo trials pays numpy's per-call
overhead once; `moments_by_quadrature` is its one-row call, and each row of
a block equals that call bit for bit, or carries the error it raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .contours import SPECTRUM_NODES, Contour, ellipse_nodes, spectrum_ellipse
from .empirical import SecularRoots, companion_transform_rows, secular_zeros
from .ensemble import SampleSpectrum
from .errors import (
    ContourError,
    ConvergenceError,
    IllConditionedResidueError,
    InputError,
)

__all__ = [
    "MomentEstimates",
    "moments_by_quadrature",
    "moments_by_residues",
]

_SELF_CHECK_RTOL = 3e-11
# the rounding error of a sum of terms t_k is taken as at most this many
# eps times sum |t_k|; the half-rule check discounts it
_ROUNDING_EPS = 8
_LEAKAGE_RTOL = 1e-8
_MAX_DOUBLINGS = 3


@dataclass(frozen=True)
class MomentEstimates:
    """Estimated moments gamma_hat[ell] for ell = 0 .. 2L-1.

    imag_leakage is the largest |Im| of the quadrature's integrals with
    order ell divided by lambda_max^ell, the value its check compares, so
    it reads the same for a spectrum on any scale; 0 for residues.
    """

    gamma_hat: NDArray[np.float64]
    method: str
    imag_leakage: float
    node_count: int


def _raw_quadrature(N: int, M: int, L: int, pts, weights, m, m_prime):
    """Complex moment integrals, one row per row of the (T, K) nodes pts
    and the transform m, m' there; gamma_hat_0 is exact. Also returns the
    size of each sum, |coefficient| * sum |weight * integrand|, on which
    its rounding error is bounded."""
    raw = np.empty((pts.shape[0], 2 * L), dtype=complex)
    size = np.zeros((pts.shape[0], 2 * L))
    raw[:, 0] = 1.0
    two_pi_i = 2j * np.pi
    terms = weights * pts * m_prime / m
    raw[:, 1] = -(M / N) * np.sum(terms, axis=1) / two_pi_i
    size[:, 1] = (M / N) * np.abs(terms).sum(axis=1) / (2 * np.pi)
    inv = 1.0 / m
    power = inv.copy()  # 1/m^(ell-1), starting at ell = 2
    for ell in range(2, 2 * L):
        coefficient = (M / N) * (-1.0) ** ell / (ell - 1)
        terms = weights * power
        raw[:, ell] = coefficient * np.sum(terms, axis=1) / two_pi_i
        size[:, ell] = (abs(coefficient) * np.abs(terms).sum(axis=1)
                        / (2 * np.pi))
        power *= inv
    return raw, size


def quadrature_rows(pos, N: int, M: int, L: int, ellipse=None,
                    nodes: int = SPECTRUM_NODES):
    """Moments of a stack of spectra of one (N, M), one row per spectrum.

    The row kernel of `moments_by_quadrature`, which is its one-row call:
    pos is (T, n), the positive eigenvalues of each spectrum, ascending.
    ellipse is None for each row's `spectrum_contour`, whose node count
    doubles until the self-check passes, or (center, half_width,
    half_height), (T,) arrays of fixed ellipses with the given node count.
    Returns (gamma, leakage, node_count, errors): gamma (T, 2L), the
    scaled leakage and the node count of each row, and per row None or the
    error the one-row call raises. Every row equals its one-row call bit
    for bit; the rows of an error are undefined.
    """
    pos = np.asarray(pos, dtype=float)
    T = pos.shape[0]
    auto = ellipse is None
    # |m| is about 1/|z| on the contour, so the floor is relative to the
    # largest eigenvalue; gamma_ell grows like its ell-th power, so the
    # checks divide order ell by it to bring every order to a common size
    scale = pos[:, -1]
    if auto:
        ellipse = spectrum_ellipse(scale)
    center, half_width, half_height = (np.asarray(v, dtype=float)[:, None]
                                       for v in ellipse)
    order_scale = scale[:, None] ** -np.arange(2.0 * L)
    raw = np.full((T, 2 * L), np.nan, dtype=complex)
    node_count = np.zeros(T, dtype=int)
    errors = [None] * T
    live = np.arange(T)
    for attempt in range(_MAX_DOUBLINGS + 1):
        pts, weights = ellipse_nodes(center[live], half_width[live],
                                     half_height[live], nodes)
        m, m_prime = companion_transform_rows(pos[live], M, pts)
        grazed = np.abs(m).min(axis=1) * scale[live] < 1e-10
        for r in live[grazed]:
            errors[r] = ContourError(
                "companion transform nearly vanishes on the contour; a "
                "secular root must be grazing the curve"
            )
        keep = ~grazed
        live, pts, weights, m, m_prime = (
            a[keep] for a in (live, pts, weights, m, m_prime))
        full, size = _raw_quadrature(N, M, L, pts, weights, m, m_prime)
        # every other node of the offset trapezoid rule is again a uniform
        # rule at half resolution, on the transform already computed there
        half, _ = _raw_quadrature(N, M, L, pts[:, ::2], 2.0 * weights[:, ::2],
                                  m[:, ::2], m_prime[:, ::2])
        # the two sums cannot agree below their rounding error, which
        # dominates when the terms cancel to a small moment (M/N near 1e6):
        # no node count lowers it, so only the discrepancy above it counts
        floor = _ROUNDING_EPS * np.finfo(float).eps * size
        s = order_scale[live]
        delta = ((np.abs(full - half) - floor) * s
                 / (1.0 + np.abs(full) * s)).max(axis=1)
        done = delta <= _SELF_CHECK_RTOL
        raw[live[done]] = full[done]
        node_count[live[done]] = nodes
        live, delta = live[~done], delta[~done]
        if not live.size:
            break
        if not (auto and attempt < _MAX_DOUBLINGS):
            for r, d in zip(live, delta):
                errors[r] = ConvergenceError(
                    "contour quadrature has not converged (self-check "
                    f"discrepancy {d:.3e}); double the node count",
                    residual=float(d),
                )
            break
        nodes *= 2

    gamma = raw.real
    leakage = (np.abs(raw.imag) * order_scale).max(axis=1)
    leaky = leakage > _LEAKAGE_RTOL * (
        1.0 + (np.abs(gamma) * order_scale).max(axis=1))
    for r in np.flatnonzero(leaky):
        if errors[r] is None:
            errors[r] = ConvergenceError(
                f"imaginary leakage {leakage[r]:.3e} (scaled) exceeds "
                "tolerance; the contour is inadmissible or under-resolved",
                residual=float(leakage[r]),
            )
    return gamma, leakage, node_count, errors


def moments_by_quadrature(
    spectrum: SampleSpectrum,
    L: int,
    contour: Contour | None = None,
    secular: SecularRoots | None = None,
) -> MomentEstimates:
    """Moments by contour quadrature with an internal convergence check.

    The default contour is `spectrum_contour` at 128 nodes. Each estimate
    is compared against the half-resolution rule embedded in the same node
    set, every order ell divided by lambda_max^ell first; with an
    auto-built contour the node count doubles (up to 1024) until the two
    agree beyond the rounding error of their sums, otherwise disagreement
    raises with a suggestion to double the nodes. The imaginary leakage is scaled the same way, then checked and
    reported. A caller's contour must enclose every positive eigenvalue
    and secular root; whether it holds the origin is immaterial. The
    secular roots (`secular`, solved here when not given) are read only for
    that check: the default contour depends on the largest eigenvalue
    alone, so without a caller's contour no roots are solved or read.
    This is the one-row call of `quadrature_rows`.
    """
    if L < 1:
        raise InputError("L must be at least 1")
    ellipse, nodes = None, SPECTRUM_NODES
    if contour is not None:
        if secular is None:
            secular = secular_zeros(spectrum)
        enclosed = np.concatenate(
            [spectrum.positive_eigenvalues(), secular.positive()]
        )
        if not contour.contains_real(enclosed).all():
            raise ContourError("contour fails to enclose a required point")
        ellipse = ([contour.center], [contour.half_width],
                   [contour.half_height])
        nodes = contour.nodes
    gamma, leakage, node_count, errors = quadrature_rows(
        spectrum.positive_eigenvalues()[None], spectrum.N, spectrum.M, L,
        ellipse, nodes)
    if errors[0] is not None:
        raise errors[0]
    return MomentEstimates(
        gamma_hat=gamma[0],
        method="quadrature",
        imag_leakage=float(leakage[0]),
        node_count=int(node_count[0]),
    )


def _series_coefficients(spectrum: SampleSpectrum, roots, count: int):
    """Taylor coefficients a_j, j = 1..count, of m around each secular root.

    a_j[r] = (1/M) sum_i (lambda_i - mu_r)^-(j+1), with structural zeros of
    the companion entering as lambda = 0 terms.
    """
    pos = spectrum.positive_eigenvalues()
    M = spectrum.M
    zero_count = M - pos.size
    diff = pos[None, :] - roots[:, None]
    inv = 1.0 / diff
    inv_zero = -1.0 / roots
    a = np.empty((count, roots.size))
    base = inv**2
    base_zero = inv_zero**2
    for j in range(1, count + 1):
        a[j - 1] = (base.sum(axis=1) + zero_count * base_zero) / M
        base *= inv
        base_zero *= inv_zero
    return a


def moments_by_residues(
    spectrum: SampleSpectrum,
    L: int,
    secular: SecularRoots | None = None,
) -> MomentEstimates:
    """Moments by exact residue summation at the secular roots.

    gamma_hat_1 reduces to the weighted eigenvalue-root difference; for
    ell >= 2 the integrand 1/m^(ell-1) has a pole of order ell-1 at each
    positive root and the residue follows from the local Taylor expansion
    of m. No quadrature error enters, so this is the reference the contour
    route is checked against.
    """
    if L < 1:
        raise InputError("L must be at least 1")
    if secular is None:
        secular = secular_zeros(spectrum)
    N, M = spectrum.N, spectrum.M
    gamma = np.empty(2 * L)
    gamma[0] = 1.0
    gamma[1] = (M / N) * (spectrum.lambda_hat.sum() - secular.mu_hat.sum())

    if L > 1:
        # roots planted by repeated eigenvalues are eigenvalues of the
        # corrected matrix but not zeros of m (m has a pole there), so the
        # integrand 1/m^(ell-1) is regular at them: no residue. They are
        # marked by their degenerate brackets.
        genuine = (secular.mu_hat > 0) & (
            secular.brackets[:, 0] < secular.brackets[:, 1]
        )
        roots = secular.mu_hat[genuine]
        gaps = np.diff(roots) / np.maximum(roots[1:], roots[:-1])
        if roots.size > 1 and gaps.min() <= 1e-10:
            raise IllConditionedResidueError(
                f"secular roots nearly coincide (relative gap {gaps.min():.3e})"
            )
        pos = spectrum.positive_eigenvalues()
        prox = np.abs(roots[:, None] - pos[None, :]).min(axis=1)
        if np.any(prox <= 1e-10 * roots):
            raise IllConditionedResidueError(
                "a zero of the companion transform is squeezed against an "
                "eigenvalue; the local expansion is numerically useless"
            )
        count = max(1, 2 * L - 2)
        a = _series_coefficients(spectrum, roots, count)
        u = a[1:] / a[0]  # u_k = a_{k+1}/a_1
        for ell in range(2, 2 * L):
            p = ell - 1
            # h = (1 + u)^(-p) truncated at degree p-1, by the standard
            # power-of-a-series recurrence
            h = np.zeros((p, roots.size))
            h[0] = 1.0
            for n in range(1, p):
                acc = np.zeros(roots.size)
                for k in range(1, n + 1):
                    acc += (-p * k - (n - k)) * u[k - 1] * h[n - k]
                h[n] = acc / n
            residues = a[0] ** (-p) * h[p - 1]
            gamma[ell] = (M / N) * (-1.0) ** ell / (ell - 1) * residues.sum()

    return MomentEstimates(
        gamma_hat=gamma, method="residues", imag_leakage=0.0, node_count=0
    )
