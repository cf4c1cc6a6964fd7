"""Cluster-sum baseline estimator of the distinct eigenvalues.

When the limiting support splits into one cluster per distinct eigenvalue,
the k-th eigenvalue is consistently estimated by the scaled sum of
lambda_hat - mu_hat over the k-th consecutive block of indices, with block
sizes equal to the multiplicities. The estimator is exact in its own
asymptotic regime but biased when clusters merge, where its MSE stops
improving with size (run_mse_sweep with methods=("mestre",) shows it).

In the regime where the sample clusters separate, no secular root is
needed (Mestre 2008, IEEE Trans. Inf. Theory 54(11)). The mu_hat are the
zeros of the companion transform m, whose poles are the lambda_hat (and,
for M > N, the origin, where z m'/m has no residue), so

    sum over the blocks below a crossing x of (lambda - mu)
        = -(1/2 pi i) integral of z m'(z) / m(z) dz

on any closed curve that crosses the real axis at x and left of the
origin, when x lies above the last eigenvalue of the blocks below it and
below the first root of the block above it. m increases between poles, so
m(y) < 0 puts that root above y: a row is integrated only when every
crossing clears its eigenvalue below and its root above by _CLEARANCE
times itself, a certificate that costs one evaluation of m per crossing.
The L - 1 crossings lie midway between the blocks' adjacent eigenvalues,
each curve is an ellipse from -0.3 x to x on _NODES trapezoid nodes.
Each row is then checked against the embedded half rule by
`moments.checked_quadrature`, the check of `moments.quadrature_rows`. Rows
that fail the certificate or the check and every row at N >= M sum the
secular roots instead, and only the N - N_L below the last block, which
`empirical.secular_rows` solves for the whole stack at once: ``dlasd4``'s
roots, each read as an offset from its nearer pole and clipped to its
bracket, with no residual evaluated. On both routes
the last block follows from the trace: the blocks sum to
tr(Lambda - s s^T / M) = sum(lambda) / M, so at L = 1 the estimate is
gamma_1 = sum(lambda) / N and no root is solved.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .contours import ellipse_nodes
from .empirical import SecularRoots, secular_rows
from .ensemble import SampleSpectrum
from .errors import DimensionError, InputError
from .moments import checked_quadrature

__all__ = ["mestre_estimate"]

# trapezoid nodes on each cluster ellipse
_NODES = 128
# least distance of a crossing from its neighbouring pole and root, as a
# share of the crossing
_CLEARANCE = 0.06


def _checked_counts(counts, N: int) -> np.ndarray:
    """counts as positive int64 multiplicities summing to N."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or np.any(counts < 1):
        raise InputError("multiplicities must be positive integers")
    if int(counts.sum()) != N:
        raise DimensionError(
            f"multiplicities sum to {int(counts.sum())}, but N = {N}"
        )
    return counts


def _block_estimates(below, gamma_1, counts, N: int) -> NDArray[np.float64]:
    """(T, L) estimates from the (T, L - 1) first moments below the block
    boundaries, M / N times the sum of lambda_hat - mu_hat below each, and
    gamma_1 = sum(lambda_hat) / N, that sum over every block: N / N_k times
    the k-th difference."""
    sums = np.diff(below, axis=1, prepend=0.0, append=gamma_1[:, None])
    return N / counts * sums


def _contour_rows(pos, N: int, M: int, counts):
    """Block estimates by cluster-contour quadrature for the rows of pos,
    (T, N) at M > N, whose crossings are certified and whose half-rule
    check passes: (rows, their (rows.size, L) estimates)."""
    # the estimates scale with the spectrum, so each row is integrated with
    # lambda_max in [1/2, 1), an exact power of 2 away, and m' cannot
    # underflow
    exponent = np.frexp(pos[:, -1:])[1]
    pos = np.ldexp(pos, -exponent)
    ends = np.cumsum(counts)[:-1]
    below, above = pos[:, ends - 1], pos[:, ends]
    x = 0.5 * (below + above)
    rows = np.flatnonzero((x - below >= _CLEARANCE * x).all(axis=1))
    y = (x + _CLEARANCE * x)[rows]
    # m(y) < 0 puts the root above y; m's pole at 0 weighs M - N
    m_y = ((1.0 / (pos[rows, None, :] - y[:, :, None])).sum(axis=2)
           - (M - N) / y)
    rows = rows[(m_y < 0).all(axis=1)]
    if not rows.size:
        return rows, np.empty((0, counts.size))
    x = x[rows].reshape(-1, 1)
    crossings = counts.size - 1
    half_width = 0.65 * x
    pts, dz = ellipse_nodes(0.35 * x, half_width, 0.4 * half_width, _NODES)
    # the integrals grow with gamma_1 = sum(lambda) / N, which scales the
    # check as lambda_max^ell scales order ell in quadrature_rows
    gamma_1 = pos[rows].sum(axis=1) / N
    full, _, passed = checked_quadrature(
        np.repeat(pos[rows], crossings, axis=0), N, M, 1, pts, dz,
        np.repeat(1.0 / gamma_1, crossings)[:, None])
    done = passed.reshape(rows.size, crossings).all(axis=1)
    # the first moment integral on a crossing's ellipse is M / N times the
    # sum of lambda - mu below it; over every block that sum is gamma_1
    below = full[:, 1].reshape(rows.size, crossings)[done]
    est = _block_estimates(below, gamma_1[done], counts, N)
    rows = rows[done]
    return rows, np.ldexp(est, exponent[rows])


def mestre_rows(pos, N: int, M: int, counts, mu=None) -> NDArray[np.float64]:
    """(T, L) baseline estimates from pos, (T, min(N, M)), each row a
    spectrum's eigenvalues, ascending and checked positive by the caller.

    The row kernel of `mestre_estimate`, its one-row call, bit for bit;
    counts are checked once and any error raises for the whole stack. At
    M > N with L >= 2 a row is integrated on its cluster ellipses when it
    passes their certificate and check (see the module docstring); every
    other row sums its lambda_hat - mu_hat below each block boundary, where
    lambda_hat is pos after N - min(N, M) structural zeros and mu_hat its
    first N - N_L secular roots: those of row t of mu, (T, N), when given,
    or solved by `secular_rows`. The trace closes the last block. A row's
    estimate depends on that row alone."""
    T, n = pos.shape
    counts = _checked_counts(counts, N)
    est = np.empty((T, counts.size))
    roots = np.ones(T, dtype=bool)
    if M > N and counts.size > 1:
        rows, contour = _contour_rows(pos, N, M, counts)
        est[rows] = contour
        roots[rows] = False
    rows = np.flatnonzero(roots)
    need = N - counts[-1]  # the roots below the last block
    mu = (secular_rows(pos[rows], N, M, need)[0] if mu is None
          else mu[rows, :need])
    diff = np.zeros((rows.size, N))
    diff[:, N - n:] = pos[rows]
    diff = diff[:, :need] - mu
    below = M / N * np.cumsum(diff, axis=1)[:, np.cumsum(counts)[:-1] - 1]
    est[rows] = _block_estimates(below, pos[rows].sum(axis=1) / N, counts, N)
    return est


def mestre_estimate(
    spectrum: SampleSpectrum,
    counts,
    secular: SecularRoots | None = None,
) -> NDArray[np.float64]:
    """Baseline eigenvalue estimates from block sums of lambda_hat - mu_hat.

    counts are the multiplicities N_1..N_L (ascending-eigenvalue order);
    they must sum to N. This is the one-row call of `mestre_rows`, so a
    spectrum whose clusters separate is integrated on cluster ellipses;
    secular, when given, supplies the roots of a spectrum that is not, with
    their convention zeros included. Only its first N - N_L roots are read:
    the trace gives the top block.
    """
    mu = None if secular is None else secular.mu_hat[None]
    return mestre_rows(spectrum.positive_eigenvalues()[None], spectrum.N,
                       spectrum.M, counts, mu)[0]
