"""Asymptotic covariances of the estimators.

Scaled fluctuations of the empirical companion transform converge to a
Gaussian field with covariance kernel (Bai & Silverstein 2004)

    kappa(z1, z2) = m_u'(z1) m_u'(z2) / (m_u(z1) - m_u(z2))^2
                    - 1/(z1 - z2)^2,

analytic wherever both arguments stay off the limiting support, z1 = z2
included: the double poles of its two terms cancel. Every covariance here
is a double contour integral of kappa against powers of 1/m_u.

The moment estimator's V integrates over two contours that both enclose
the whole support and the origin, so V is the residue at z1 = z2 =
infinity: a polynomial in c and the population moments, with no nodes
(v_matrix).

Mestre's estimator reads one cluster per eigenvalue, so its covariance
needs one contour per support cluster, and one integral per cluster. In
v = -1/m_u the inverse map is z(v) = v + c sum_j w_j rho_j v / (v - rho_j)
and kappa dz1 dz2 = -d1 d2 log Q dv1 dv2 with the rational

    Q(v1, v2) = (z(v1) - z(v2)) / (v1 - v2)
              = 1 - c sum_j w_j rho_j^2 / ((v1 - rho_j)(v2 - rho_j)).

The principal root v_0 maps the plane off the support onto {phi < 1},
phi(v) = c sum_j w_j rho_j^2 / |v - rho_j|^2, and cluster l's ellipse onto
a curve around the component of {phi > 1} over rho_l. Integrating by
parts in v1, the inner integral of v2 d2 log Q over that curve is 2 pi i
times the sum of Q's zeros inside it less that of its poles: the root
v_l(z1) of z(v) = z1 on cluster l's sheet, less rho_l. So

    w_k w_l Theta_kl = -(i / (2 pi c^2)) oint_{Gamma_k} (v_l - rho_l) v_0' dz,
    v_0' = 1 / (1 - c sum_j w_j rho_j^2 / (v_0 - rho_j)^2).

rho_l integrates to zero against v_0', but subtracting it spares the sum
a cancellation. Every root is an eigenvalue of the arrowhead matrix that
gives m_u. Root l is the one with Re v in (nu_2l, nu_2l+1), the real
critical points of z(v) around rho_l: the other roots have phi > 1, and
each component of {phi > 1} holds exactly one (`limiting._roots`). The
first cluster's ellipse also holds the origin, no singularity of the
integrand: for c < 1 v_0 vanishes there, for c > 1 v_0(0) is finite, and
at c = 1 the support starts at 0. The integrand is conjugate-symmetric,
so the roots are solved on the upper half of the nodes only and
`contours.mirrored_sums` sums the whole rule and its half rule. Each entry is
checked against the half-resolution rule embedded in the nodes and
against its transpose, which integrates on the other ellipse, both divided
by s^2, s the support's right edge; the node count doubles until they
agree. An entry off the diagonal is then read from the row of the larger
cluster: there the smaller cluster's root is near its pole, so the terms
are as small as the entry, while on the smaller cluster's ellipse they are
about c w_l rho_l and cancel.

Normalization: all covariances refer to M * (estimate - truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .contours import cluster_ellipse, ellipse_nodes, mirrored_sums
from .errors import ConditioningError, ConvergenceError, InputError, SeparabilityError
from .limiting import _roots, support_clusters
from .model import PopulationModel, true_moments

__all__ = [
    "CltCovariance",
    "v_matrix",
    "theta_moment_estimator",
    "theta_mestre",
]

_SELF_CHECK_RTOL = 1e-8
_MAX_DOUBLINGS = 4


@dataclass(frozen=True)
class CltCovariance:
    """Delta-method covariance of the full moment estimator.

    Theta is ordered (weights first, then eigenvalues):
    (c_1..c_L, rho_1..rho_L).
    """

    M_matrix: NDArray[np.float64]
    V: NDArray[np.float64]
    W: NDArray[np.float64]
    Theta: NDArray[np.float64]
    contour_meta: dict


def _scaled_gap(a, b, scale: float) -> float:
    """Largest entry-wise |a - b| against 1 + |a|, every entry divided by
    scale first."""
    return float((np.abs(a - b) * scale / (1.0 + np.abs(a) * scale)).max())


def _truncated_product(A, B):
    """Product of two series in (m1, m2), coefficient [a, b] of m1^a m2^b,
    truncated at the arrays' degree in each variable."""
    n = A.shape[0]
    C = np.zeros_like(A)
    for a, b in zip(*np.nonzero(A)):
        C[a:, b:] += A[a, b] * B[: n - a, : n - b]
    return C


def v_matrix(model: PopulationModel, L: int | None = None, nodes: int = 256):
    """Covariance V of M * (gamma_hat_k - gamma_k), k = 1..P = 2L-1.

    Both contours enclose the support and the origin, so V is the residue
    at z1 = z2 = infinity. There m_u = -1/z + ..., the inverse map is
    z(m) = -1/m + c sum_{j>=0} (-1)^j gamma_{j+1} m^j, and kappa dz1 dz2
    becomes -d1 d2 log(1 + c T) dm1 dm2 with T = sum_{a,b>=1}
    -(-1)^(a+b) gamma_(a+b) m1^a m2^b. So V_pq = -(-1)^(p+q) (p q / c^2)
    [m1^p m2^q] log(1 + c T), a polynomial in c and gamma_2..gamma_2P.

    The moments are those of rho / rho_max, and order (p, q) is scaled
    back by rho_max^(p+q). Returns (V, meta); V is symmetrized after
    recording in meta its asymmetry, taken before that scaling so it reads
    the same for a model on any scale. nodes is accepted and unused, and
    meta's "nodes" reads 0: there is no quadrature.
    """
    if L is None:
        L = model.L
    if L < 1:
        raise InputError("L must be at least 1")
    P = 2 * L - 1
    s = max(model.rho)
    scaled = PopulationModel(rho=tuple(r / s for r in model.rho),
                             weights=model.weights, aspect=model.aspect)
    gamma = true_moments(scaled, 2 * P)
    c = model.aspect
    k = np.arange(P + 1)
    sign = (-1.0) ** (k[:, None] + k[None, :])
    cT = -c * sign * gamma[k[:, None] + k[None, :]]
    cT[0] = cT[:, 0] = 0.0
    log = np.zeros_like(cT)
    power = cT
    for n in range(1, P + 1):
        log += (-1) ** (n + 1) / n * power
        power = _truncated_product(power, cT)
    U = (-sign * np.outer(k, k) / c**2 * log)[1:, 1:]
    asym = _scaled_gap(U, U.T, 1.0)
    V = 0.5 * (U + U.T) * s ** (k[1:, None] + k[None, 1:])
    return V, {"nodes": 0, "asymmetry": asym}


def _jacobian(model: PopulationModel) -> NDArray[np.float64]:
    """Rows k = 0..2L-1 of d gamma_k / d(c_1..c_L, rho_1..rho_L)."""
    L = model.L
    rho = model.rho_array()
    w = model.weights_array()
    k = np.arange(2 * L)[:, None]
    d_c = rho[None, :] ** k
    with np.errstate(divide="ignore", invalid="ignore"):
        d_rho = k * w[None, :] * rho[None, :] ** (k - 1)
    d_rho[0] = 0.0
    return np.hstack([d_c, d_rho])


def theta_moment_estimator(
    model: PopulationModel, nodes: int = 256
) -> CltCovariance:
    """Asymptotic covariance of the full moment estimator.

    W embeds V with a zero row and column for the deterministic
    gamma_hat_0; Theta = J^-1 W J^-T with J the moment Jacobian, ordered
    (c_1..c_L, rho_1..rho_L). nodes is accepted and unused: V is in closed
    form (v_matrix).
    """
    L = model.L
    V, meta = v_matrix(model, L)
    W = np.zeros((2 * L, 2 * L))
    W[1:, 1:] = V
    J = _jacobian(model)
    cond = float(np.linalg.cond(J))
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(
            f"moment Jacobian condition {cond:.3e} too large", cond=cond
        )
    X = np.linalg.solve(J, W)
    Theta = np.linalg.solve(J, X.T).T
    Theta = 0.5 * (Theta + Theta.T)
    eigs = np.linalg.eigvalsh(Theta)
    floor = -1e-8 * max(np.abs(eigs).max(), 1e-300)
    if eigs.min() < floor:
        raise ConvergenceError(
            f"Theta has eigenvalue {eigs.min():.3e} below the PSD floor"
        )
    meta = dict(meta, jacobian_cond=cond)
    return CltCovariance(M_matrix=J, V=V, W=W, Theta=Theta, contour_meta=meta)


def theta_mestre(model: PopulationModel, nodes: int = 256) -> NDArray[np.float64]:
    """Asymptotic covariance of the baseline cluster estimator.

    Requires a separable model: one support cluster per distinct
    eigenvalue. Entry (k, l) is the double integral of kappa / (m_u m_u)
    over the contours of clusters k and l, taken as the integral of
    (v_l - rho_l) v_0' over cluster k's ellipse (module docstring). Every
    ellipse's upper nodes are solved in one `_roots` call and summed by
    `contours.mirrored_sums`. nodes is the first rule's node count,
    doubled up to four times until the embedded half rule and the
    transpose agree; entry (k, l), k > l, is then read from row k and
    mirrored.
    """
    clusters = support_clusters(model, model.aspect)
    if len(clusters) != model.L:
        raise SeparabilityError(
            f"support has {len(clusters)} clusters, need {model.L}"
        )
    c = model.aspect
    rho, w = model.rho_array(), model.weights_array()
    norm = -1j / (2.0 * np.pi * c**2)
    scale = float(clusters[-1][1]) ** -2.0
    ellipses = np.array([cluster_ellipse(clusters, k) for k in range(model.L)])
    for attempt in range(_MAX_DOUBLINGS + 1):
        if attempt:
            nodes *= 2
        points, dz = ellipse_nodes(*ellipses.T[:, :, None], nodes)
        upper = slice(0, nodes // 2)
        v = -1.0 / _roots(model, c, points[:, upper], model.L + 1)[0]
        dv0 = 1.0 / (1.0 - c * (w * rho**2 / (v[..., :1] - rho) ** 2).sum(axis=-1))
        p = (v[..., 1:] - rho) * (dv0 * dz[:, upper])[..., None]
        full, half = (norm * s for s in mirrored_sums(p, axis=1))
        # rows k and l integrate on different ellipses, so an unresolved
        # row, or a root taken from the wrong sheet, shows as asymmetry
        delta = max(_scaled_gap(full, half, scale), _scaled_gap(full, full.T, scale))
        if delta <= _SELF_CHECK_RTOL:
            # each pair from the larger cluster's row (module docstring)
            lower = np.tril(full.real)
            return (lower + np.tril(lower, -1).T) / np.outer(w, w)
    raise ConvergenceError(
        f"CLT quadrature has not converged at {nodes} nodes "
        f"(scaled delta {delta:.3e})",
        residual=delta,
    )
