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

The quadrature is scale-free: each row is integrated with its largest
eigenvalue brought into [1/2, 1) by an exact power of 2, which no rounding
sees, so only a moment that a float cannot hold (gamma_3 of a spectrum
near 1e150, say) comes back infinite or zero. The residue route divides
by lambda_max itself and multiplies order ell back by lambda_max^ell, so
it too overflows where gamma_{2L-1} cannot be represented.
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
_EPS = np.finfo(float).eps
# the rounding error of a sum of terms t_k is taken as at most this many
# eps times sum |t_k|; the half-rule check discounts it
_ROUNDING_EPS = 8
_LEAKAGE_RTOL = 1e-8
# node count of the first rule, doubled up to _MAX_DOUBLINGS times, so
# to 1024 at most
_START_NODES = 64
_MAX_DOUBLINGS = 4


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


def checked_quadrature(pos, N: int, M: int, L: int, pts, weights,
                       order_scale):
    """The moment integrals of each row of pos, (T, n), on its row of the
    (T, K) nodes pts of `ellipse_nodes`, and their self-check against the
    embedded half rule: (full, delta, passed), full (T, 2L), delta each
    row's largest discrepancy beyond rounding, order ell multiplied by
    order_scale[:, ell] (which broadcasts against (T, 2L)), and passed
    where delta is within tolerance. gamma_hat_0 is exact; order 1 sums
    z m'/m, order ell >= 2 sums 1/m^(ell - 1), each times the weights."""
    # the lower half of the nodes mirrors the upper, and the transform of a
    # real spectrum has m(conj z) = conj(m(z)), bit for bit
    T, K = pts.shape
    upper = companion_transform_rows(pos, M, pts[:, :K // 2])
    m, m_prime = (np.concatenate([v, v[:, ::-1].conj()], axis=1)
                  for v in upper)
    # the terms of orders 1 .. 2L - 1, summed over the node axis
    terms = np.empty((T, 2 * L - 1, K), dtype=complex)
    terms[:, 0] = weights * pts * m_prime / m
    inv = 1.0 / m
    power = inv.copy()  # 1/m^(ell-1), starting at ell = 2
    for ell in range(2, 2 * L):
        terms[:, ell - 1] = weights * power
        if ell + 1 < 2 * L:
            power *= inv
    coefficient = np.array([-(M / N)] + [(M / N) * (-1.0) ** ell / (ell - 1)
                                         for ell in range(2, 2 * L)])
    two_pi_i = 2j * np.pi
    full = np.ones((T, 2 * L), dtype=complex)
    full[:, 1:] = coefficient * terms.sum(axis=2) / two_pi_i
    # every other node of the offset trapezoid rule is again a uniform rule
    # at half resolution, with twice the weights: its sums are twice those
    # over every other term, exactly
    half = np.ones((T, 2 * L), dtype=complex)
    half[:, 1:] = coefficient * (2.0 * terms[:, :, ::2].sum(axis=2)) / two_pi_i
    # each sum's rounding error is at most _ROUNDING_EPS eps times its size,
    # |coefficient| * sum |weight * integrand|; the two sums cannot agree
    # below it, which dominates when the terms cancel to a small moment
    # (M/N near 1e6): no node count lowers it, so only the discrepancy
    # above it counts
    size = np.zeros((T, 2 * L))
    size[:, 1:] = np.abs(coefficient) * np.abs(terms).sum(axis=2) / (2 * np.pi)
    floor = _ROUNDING_EPS * _EPS * size
    delta = ((np.abs(full - half) - floor) * order_scale
             / (1.0 + np.abs(full) * order_scale)).max(axis=1)
    return full, delta, delta <= _SELF_CHECK_RTOL


def _overflow(L: int) -> InputError:
    """The error of a finite spectrum whose moments overflow."""
    return InputError(f"spectrum out of range: its moments of order up to "
                      f"{2 * L - 1} overflow")


def quadrature_rows(pos, N: int, M: int, L: int):
    """Moments of a stack of spectra of one (N, M), one row per spectrum.

    The row kernel of `moments_by_quadrature`, which is its one-row call:
    pos is (T, n), the positive eigenvalues of each spectrum, ascending.
    Each row is divided by the power of 2 that brings its largest
    eigenvalue into [1/2, 1), integrates on its own `spectrum_ellipse`, at
    64 nodes first, doubling the node count until the self-check passes,
    and has order ell multiplied back by that power to the ell. The
    scaling is exact, so the moments equal those of the unscaled rule, and
    no scale overflows the transform or the checks; a moment that a float
    cannot hold comes back infinite or zero. The transform is evaluated on
    the upper half of the nodes and conjugated onto the lower half.
    Returns (gamma, leakage, node_count, errors): gamma (T, 2L), the scaled
    leakage and the node count of each row, and per row None or the error
    the one-row call raises. Every row equals its one-row call bit for
    bit; the rows of an error are undefined.
    """
    pos = np.asarray(pos, dtype=float)
    T = pos.shape[0]
    exponent = np.frexp(pos[:, -1:])[1]
    pos = np.ldexp(pos, -exponent)
    # gamma_ell grows like lambda_max^ell, so the checks divide order ell
    # by it to bring every order to a common size
    scale = pos[:, -1]
    ellipse = [v[:, None] for v in spectrum_ellipse(scale)]
    order_scale = scale[:, None] ** -np.arange(2.0 * L)
    nodes = _START_NODES
    raw, delta, done = checked_quadrature(
        pos, N, M, L, *ellipse_nodes(*ellipse, nodes), order_scale)
    node_count = np.where(done, nodes, 0)
    live = np.flatnonzero(~done)
    for attempt in range(1, _MAX_DOUBLINGS + 1):
        if not live.size:
            break
        nodes = _START_NODES << attempt
        full, delta[live], done = checked_quadrature(
            pos[live], N, M, L,
            *ellipse_nodes(*(v[live] for v in ellipse), nodes),
            order_scale[live])
        raw[live[done]] = full[done]
        node_count[live[done]] = nodes
        live = live[~done]
    errors = [None] * T
    for r in live:
        raw[r] = np.nan
        errors[r] = ConvergenceError(
            f"contour quadrature has not converged at {nodes} nodes "
            f"(self-check discrepancy {delta[r]:.3e})",
            residual=float(delta[r]),
        )

    leakage = (np.abs(raw.imag) * order_scale).max(axis=1)
    leaky = leakage > _LEAKAGE_RTOL * (
        1.0 + (np.abs(raw.real) * order_scale).max(axis=1))
    for r in np.flatnonzero(leaky):
        if errors[r] is None:
            errors[r] = ConvergenceError(
                f"imaginary leakage {leakage[r]:.3e} (scaled) exceeds "
                "tolerance; the quadrature is under-resolved",
                residual=float(leakage[r]),
            )
    orders = np.arange(2 * L, dtype=exponent.dtype)
    with np.errstate(over="ignore"):
        gamma = np.ldexp(raw.real, exponent * orders)
    return gamma, leakage, node_count, errors


def moments_by_quadrature(
    spectrum: SampleSpectrum,
    L: int,
    secular: SecularRoots | None = None,
) -> MomentEstimates:
    """Moments by contour quadrature with an internal convergence check.

    The contour is the `spectrum_ellipse` of the largest eigenvalue, at
    64 nodes first. Each estimate is compared against the half-resolution
    rule embedded in the same node set, every order ell divided by
    lambda_max^ell first, and the node count doubles (up to 1024) until the
    two agree beyond the rounding error of their sums; disagreement at 1024
    nodes raises ConvergenceError. The imaginary leakage is scaled the same
    way, then checked and reported. A moment that a float cannot hold
    raises InputError. secular is accepted and unused, kept
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
    if not np.isfinite(gamma).all():
        raise _overflow(L)
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
    order ell is then multiplied back by lambda_max^ell, which overflows
    to infinity where gamma_ell cannot be represented (gamma_3 of a
    spectrum near 1e150, at L = 2). Every row equals its one-row call bit
    for bit.
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
    with np.errstate(over="ignore", invalid="ignore"):
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
    InputError, as on the quadrature route, and so does a moment that a
    float cannot hold.
    """
    if L < 1:
        raise InputError("L must be at least 1")
    gamma = residue_rows(spectrum.positive_eigenvalues()[None], spectrum.N,
                         spectrum.M, L)
    if not np.isfinite(gamma).all():
        raise _overflow(L)
    return MomentEstimates(
        gamma_hat=gamma[0], method="residues", imag_leakage=0.0, node_count=0
    )
