"""Spectral-moment estimators gamma_hat_0 .. gamma_hat_{2L-1}.

Both estimators evaluate the same contour integrals of the empirical
companion transform m(z): the first moment comes from the log-derivative
integrand z m'(z)/m(z), higher ones from 1/m(z)^(ell-1). The quadrature
route discretizes one ellipse around the whole spectrum and the origin,
where neither integrand is singular, so the same rule serves N < M, N = M
and N > M. The transform of a real spectrum is conjugate-symmetric and
the ellipse's nodes below the real axis mirror those above, so the
transform is evaluated on the upper half of the nodes only. Since that
ellipse encloses every singularity of both integrands, each integral is
also minus the residue at z = infinity, which depends only on the power
sums of the positive eigenvalues; the residue route evaluates it exactly
and serves as an independent cross-check.

Each route is a row kernel, `quadrature_rows` and `residue_rows`, over a
stack of spectra of one (N, M), so that a block of Monte Carlo trials pays
numpy's per-call overhead once; `moments_by_quadrature` and
`moments_by_residues` are their one-row calls, and each row of a block
equals that call bit for bit, or carries the error it raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .contours import ellipse_nodes, spectrum_ellipse
from .empirical import SecularRoots, companion_transform_rows
from .ensemble import SampleSpectrum
from .errors import ConvergenceError, InputError

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
# node count of the first rule, doubled up to _MAX_DOUBLINGS times
_START_NODES = 128
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


def checked_quadrature(pos, N: int, M: int, L: int, pts, weights,
                       order_scale):
    """The moment integrals of each row of pos, (T, n), on its row of the
    (T, K) nodes pts of `ellipse_nodes`, and their self-check against the
    embedded half rule: (full, delta, passed), full (T, 2L), delta each
    row's largest discrepancy beyond rounding, order ell multiplied by
    order_scale[:, ell] (which broadcasts against (T, 2L)), and passed
    where delta is within tolerance."""
    # the lower half of the nodes mirrors the upper, and the transform of a
    # real spectrum has m(conj z) = conj(m(z)), bit for bit
    K = pts.shape[1]
    upper = companion_transform_rows(pos, M, pts[:, :K // 2])
    m, m_prime = (np.concatenate([v, v[:, ::-1].conj()], axis=1)
                  for v in upper)
    full, size = _raw_quadrature(N, M, L, pts, weights, m, m_prime)
    # every other node of the offset trapezoid rule is again a uniform rule
    # at half resolution, on the transform already computed there
    half, _ = _raw_quadrature(N, M, L, pts[:, ::2], 2.0 * weights[:, ::2],
                              m[:, ::2], m_prime[:, ::2])
    # the two sums cannot agree below their rounding error, which dominates
    # when the terms cancel to a small moment (M/N near 1e6): no node count
    # lowers it, so only the discrepancy above it counts
    floor = _ROUNDING_EPS * np.finfo(float).eps * size
    delta = ((np.abs(full - half) - floor) * order_scale
             / (1.0 + np.abs(full) * order_scale)).max(axis=1)
    return full, delta, delta <= _SELF_CHECK_RTOL


def quadrature_rows(pos, N: int, M: int, L: int):
    """Moments of a stack of spectra of one (N, M), one row per spectrum.

    The row kernel of `moments_by_quadrature`, which is its one-row call:
    pos is (T, n), the positive eigenvalues of each spectrum, ascending.
    Each row integrates on its own `spectrum_ellipse`, at 128 nodes first,
    doubling the node count until the self-check passes; the transform is
    evaluated on the upper half of the nodes and conjugated onto the lower
    half. Returns (gamma, leakage, node_count, errors): gamma (T, 2L), the
    scaled leakage and the node count of each row, and per row None or the
    error the one-row call raises. Every row equals its one-row call bit for bit; the rows of an
    error are undefined.
    """
    pos = np.asarray(pos, dtype=float)
    T = pos.shape[0]
    # gamma_ell grows like lambda_max^ell, so the checks divide order ell
    # by it to bring every order to a common size
    scale = pos[:, -1]
    ellipse = [v[:, None] for v in spectrum_ellipse(scale)]
    order_scale = scale[:, None] ** -np.arange(2.0 * L)
    raw = np.full((T, 2 * L), np.nan, dtype=complex)
    node_count = np.zeros(T, dtype=int)
    errors = [None] * T
    live = np.arange(T)
    for attempt in range(_MAX_DOUBLINGS + 1):
        nodes = _START_NODES << attempt
        pts, weights = ellipse_nodes(*(v[live] for v in ellipse), nodes)
        full, delta, done = checked_quadrature(
            pos[live], N, M, L, pts, weights, order_scale[live])
        raw[live[done]] = full[done]
        node_count[live[done]] = nodes
        live, delta = live[~done], delta[~done]
        if not live.size:
            break
        if attempt == _MAX_DOUBLINGS:
            for r, d in zip(live, delta):
                errors[r] = ConvergenceError(
                    f"contour quadrature has not converged at {nodes} nodes "
                    f"(self-check discrepancy {d:.3e})",
                    residual=float(d),
                )
            break

    gamma = raw.real
    leakage = (np.abs(raw.imag) * order_scale).max(axis=1)
    leaky = leakage > _LEAKAGE_RTOL * (
        1.0 + (np.abs(gamma) * order_scale).max(axis=1))
    for r in np.flatnonzero(leaky):
        if errors[r] is None:
            errors[r] = ConvergenceError(
                f"imaginary leakage {leakage[r]:.3e} (scaled) exceeds "
                "tolerance; the quadrature is under-resolved",
                residual=float(leakage[r]),
            )
    return gamma, leakage, node_count, errors


def moments_by_quadrature(
    spectrum: SampleSpectrum,
    L: int,
    secular: SecularRoots | None = None,
) -> MomentEstimates:
    """Moments by contour quadrature with an internal convergence check.

    The contour is the `spectrum_ellipse` of the largest eigenvalue, at
    128 nodes first. Each estimate is compared against the half-resolution
    rule embedded in the same node set, every order ell divided by
    lambda_max^ell first, and the node count doubles (up to 1024) until the
    two agree beyond the rounding error of their sums; disagreement at 1024
    nodes raises ConvergenceError. The imaginary leakage is scaled the same
    way, then checked and reported. secular is accepted and unused, kept
    for callers that still pass it: the ellipse depends on the largest
    eigenvalue alone, so no secular root is solved or read. This is the
    one-row call of `quadrature_rows`.
    """
    if L < 1:
        raise InputError("L must be at least 1")
    gamma, leakage, node_count, errors = quadrature_rows(
        spectrum.positive_eigenvalues()[None], spectrum.N, spectrum.M, L)
    if errors[0] is not None:
        raise errors[0]
    return MomentEstimates(
        gamma_hat=gamma[0],
        method="quadrature",
        imag_leakage=float(leakage[0]),
        node_count=int(node_count[0]),
    )


def residue_rows(pos, N: int, M: int, L: int):
    """Moments of a stack of spectra of one (N, M), one row per spectrum,
    as minus the residue at infinity.

    The row kernel of `moments_by_residues`, which is its one-row call: pos
    is (T, n), the positive eigenvalues of each spectrum, ascending; returns
    gamma (T, 2L). With lambda scaled by lambda_max, p_k = (1/M) sum
    lambda^k and P(w) = 1 + sum_k p_k w^k, gamma_1 = (M/N) p_1 and
    gamma_ell = -(M / (N (ell - 1))) [w^ell] P(w)^-(ell - 1) for ell >= 2;
    order ell is then multiplied back by lambda_max^ell. Every row equals
    its one-row call bit for bit.
    """
    pos = np.asarray(pos, dtype=float)
    T = pos.shape[0]
    degree = 2 * L
    scale = pos[:, -1:]
    x = pos / scale
    p = np.empty((T, degree))
    p[:, 0] = 1.0
    power = x.copy()
    for k in range(1, degree):
        p[:, k] = power.sum(axis=1) / M
        power *= x
    # h[:, i, n] = [w^n] P(w)^-(ell - 1) for ell = i + 2, by the
    # power-of-a-series recurrence: for (1 + u)^a, h_0 = 1 and
    # h_n = (1/n) sum_{k=1..n} ((a + 1) k - n) u_k h_{n-k}
    ell = np.arange(2, degree)
    h = np.zeros((T, ell.size, degree))
    h[:, :, 0] = 1.0
    for n in range(1, degree):
        coefficient = (2 - ell[:, None]) * np.arange(1, n + 1) - n
        h[:, :, n] = (coefficient * p[:, None, 1:n + 1]
                      * h[:, :, n - 1::-1]).sum(axis=2) / n
    gamma = np.empty((T, degree))
    gamma[:, 0] = 1.0
    gamma[:, 1] = (M / N) * p[:, 1]
    gamma[:, 2:] = -(M / (N * (ell - 1))) * h[:, ell - 2, ell]
    return gamma * scale ** np.arange(degree)


def moments_by_residues(
    spectrum: SampleSpectrum,
    L: int,
    secular: SecularRoots | None = None,
) -> MomentEstimates:
    """Moments as minus the residue at infinity, from power sums.

    The default contour of the quadrature route encloses every singularity
    of both integrands, so each of its integrals equals minus the residue
    at z = infinity, which depends only on the power sums of the positive
    eigenvalues (`residue_rows`, of which this is the one-row call). No
    quadrature error and no secular root enters, so this is the reference
    the contour route is checked against; at finite N it is the
    free-deconvolution moment estimator. secular is accepted and unused,
    kept for callers that still pass it. A rank-deficient spectrum raises
    InputError, as on the quadrature route.
    """
    if L < 1:
        raise InputError("L must be at least 1")
    gamma = residue_rows(spectrum.positive_eigenvalues()[None], spectrum.N,
                         spectrum.M, L)
    return MomentEstimates(
        gamma_hat=gamma[0], method="residues", imag_leakage=0.0, node_count=0
    )
