"""Asymptotic covariances of the estimators, by double contour quadrature.

Scaled fluctuations of the empirical companion transform converge to a
Gaussian field with covariance kernel

    kappa(z1, z2) = m_u'(z1) m_u'(z2) / (m_u(z1) - m_u(z2))^2
                    - 1/(z1 - z2)^2,

analytic wherever both arguments stay off the limiting support, z1 = z2
included: the double poles of its two terms cancel. Every covariance here
is a double contour integral of kappa against powers of 1/m_u, taken over
one ellipse per support cluster: the integral over clusters k and l runs
on the two cluster ellipses, and the one over cluster k with itself on
cluster k's ellipse in both variables. By Cauchy's theorem the sum over
all pairs equals the integral over one contour pair around the whole
support, without stretching one ellipse over clusters of very different
scales. kappa is evaluated in a form that divides out the 1/(z1 - z2)^2
its two terms share, so nearby and coincident nodes lose no digits to
cancellation.

The first cluster's ellipse also holds the origin, which is no
singularity of these integrands: for c < 1 m_u has a pole there and
1/m_u vanishes, for c > 1 m_u(0) is finite and positive, and at c = 1
the support itself starts at 0. So a support edge near the origin (N
close to M) needs no thin ellipse. Each integral is checked against the
half-resolution rule embedded in its nodes, entry by entry with every
order (p, q) divided by s^(p+q), s the support's right edge, and the
node count doubles until the two agree.

Normalization: all covariances refer to M * (estimate - truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .contours import Contour, cluster_contours
from .errors import ConditioningError, ConvergenceError, InputError, SeparabilityError
from .limiting import solve_m_underline_grid, support_clusters
from .model import PopulationModel

__all__ = [
    "CltCovariance",
    "v_matrix",
    "theta_moment_estimator",
    "theta_mestre",
]

_SELF_CHECK_RTOL = 1e-8
_LEAKAGE_RTOL = 1e-6
_MAX_DOUBLINGS = 2


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


def _transform_on(model: PopulationModel, contour: Contour):
    m, _ = solve_m_underline_grid(model, model.aspect, contour.points())
    return contour.dz(), m


def _kappa_matrix(model: PopulationModel, m1, m2):
    """kappa at every pair (m1[i], m2[j]), in a form free of cancellation.

    With t = (0, 1/rho_1..1/rho_L) and g = (1, -c w_1..-c w_L) the inverse
    map is z(m) = -sum_i g_i / (m + t_i), so (z1 - z2) / (m1 - m2) =
    D12 = sum_i g_i q_i with q_i = 1 / ((m1 + t_i)(m2 + t_i)), and
    m_u' = 1 / D11. Both terms of kappa then carry 1 / (m1 - m2)^2, and
    Lagrange's identity divides it out exactly:

        kappa = -sum_{i<j} g_i g_j (t_i - t_j)^2 q_i^2 q_j^2 / (D11 D22 D12^2),

    which stays accurate however close the two contours come.
    """
    t = np.concatenate([[0.0], 1.0 / model.rho_array()])
    g = np.concatenate([[1.0], -model.aspect * model.weights_array()])
    phi1 = 1.0 / (m1[:, None] + t)
    phi2 = 1.0 / (m2[:, None] + t)
    i, j = np.triu_indices(t.size, 1)
    # every q_i^2 q_j^2 is an outer product, so the sum over pairs is one
    # matrix product
    num = ((phi1[:, i] * phi1[:, j]) ** 2 * (g[i] * g[j] * (t[i] - t[j]) ** 2)
           ) @ ((phi2[:, i] * phi2[:, j]) ** 2).T
    d12 = (phi1 * g) @ phi2.T
    d11 = phi1**2 @ g
    d22 = phi2**2 @ g
    return -num / (d11[:, None] * d22[None, :] * d12**2)


def _inverse_power_rows(m, weights, max_power: int):
    """Rows k = 1..max_power of weights * m^-k."""
    rows = np.empty((max_power, m.size), dtype=complex)
    inv = 1.0 / m
    acc = inv.copy()
    for k in range(max_power):
        rows[k] = weights * acc
        acc *= inv
    return rows


def _blocks(model: PopulationModel, transforms, powers: int, step: int):
    """P_k K P_l^T for every cluster pair, from every step-th node.

    Every other node of the offset trapezoid rule is again a uniform rule,
    so step 2 gives the embedded half-resolution rule.
    """
    def rows(nodes):
        w, m = (a[::step] for a in nodes)
        return m, _inverse_power_rows(m, step * w, powers)

    clusters = [rows(t) for t in transforms]
    B = np.empty((len(clusters), len(clusters), powers, powers), dtype=complex)
    for k, (m1, P1) in enumerate(clusters):
        for l, (m2, P2) in enumerate(clusters[k:], start=k):
            B[k, l] = P1 @ _kappa_matrix(model, m1, m2) @ P2.T
            # kappa is symmetric, so the transposed pair needs no new sum
            B[l, k] = B[k, l].T
    return B


def _order_scale(clusters, powers: int):
    """s^-(p + q) for orders p, q = 1..powers, s the support's right edge.

    An entry of orders (p, q) grows like s^(p + q), so this brings every
    order to a common size before a check compares them.
    """
    p = np.arange(1.0, powers + 1.0)
    return float(clusters[-1][1]) ** -(p[:, None] + p[None, :])


def _scaled_gap(a, b, scale) -> float:
    """Largest entry-wise |a - b| against 1 + |a|, every entry of orders
    (p, q) divided by s^(p + q) first (scale from _order_scale)."""
    return float((np.abs(a - b) * scale / (1.0 + np.abs(a) * scale)).max())


def _cluster_pair_integrals(model: PopulationModel, clusters, powers: int,
                            nodes: int):
    """Double integrals of kappa over every pair of support clusters.

    Block (k, l) is -P_k K P_l^T / (4 pi^2 c^2), with P_k the rows
    w m_u^-p (p = 1..powers) on cluster k's contour. kappa has no
    singularity at z1 = z2, so a diagonal block integrates over cluster k's
    contour in both variables and an off-diagonal one over the two
    disjoint cluster contours. The node count doubles until the embedded
    half rule agrees entry by entry, each order scaled by _order_scale.
    Returns (blocks, nodes, self_check_delta).
    """
    norm = -1.0 / (4.0 * np.pi**2 * model.aspect**2)
    scale = _order_scale(clusters, powers)
    for attempt in range(_MAX_DOUBLINGS + 1):
        if attempt:
            nodes *= 2
        transforms = [_transform_on(model, cluster_contours(clusters, k, nodes))
                      for k in range(len(clusters))]
        # |m_u| is about 1/|z| on a contour, so the floor is relative to
        # the support's right edge
        if min(np.abs(m).min() for _, m in transforms) * clusters[-1][1] < 1e-10:
            raise ConvergenceError("companion transform vanishes on a contour")
        full = norm * _blocks(model, transforms, powers, 1)
        half = norm * _blocks(model, transforms, powers, 2)
        delta = _scaled_gap(full, half, scale)
        if delta <= _SELF_CHECK_RTOL:
            return full, nodes, delta
    raise ConvergenceError(
        f"CLT quadrature has not converged at {nodes} nodes "
        f"(scaled delta {delta:.3e})",
        residual=delta,
    )


def v_matrix(model: PopulationModel, L: int | None = None, nodes: int = 256):
    """Covariance V of M * (gamma_hat_k - gamma_k), k = 1..2L-1.

    Integrates kappa / (m_u(z1)^k m_u(z2)^l) over every pair of support
    clusters and sums the blocks. Returns (V, meta); V is symmetrized
    after recording its asymmetry in meta. The imaginary leakage is
    checked and reported, and the asymmetry reported, entry by entry, each
    order scaled by _order_scale, so both read the same for a model on any
    scale.
    """
    if L is None:
        L = model.L
    if L < 1:
        raise InputError("L must be at least 1")
    clusters = support_clusters(model, model.aspect)
    blocks, nodes, delta = _cluster_pair_integrals(
        model, clusters, 2 * L - 1, nodes
    )
    k = np.arange(1, 2 * L)
    full = (-1.0) ** (k[:, None] + k[None, :]) * blocks.sum(axis=(0, 1))
    scale = _order_scale(clusters, 2 * L - 1)
    leakage = _scaled_gap(full, full.real, scale)
    V = full.real
    asym = _scaled_gap(V, V.T, scale)
    V = 0.5 * (V + V.T)
    meta = {
        "nodes": nodes,
        "self_check_delta": delta,
        "imag_leakage": leakage,
        "asymmetry": asym,
    }
    if leakage > _LEAKAGE_RTOL:
        raise ConvergenceError(
            f"V imaginary leakage {leakage:.3e} (scaled) too large"
        )
    return V, meta


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
    (c_1..c_L, rho_1..rho_L).
    """
    L = model.L
    V, meta = v_matrix(model, L, nodes=nodes)
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
    eigenvalue. Entry (k, l) integrates kappa / (m_u m_u) over the contours
    of clusters k and l; the diagonal uses cluster k's contour twice.
    """
    clusters = support_clusters(model, model.aspect)
    if len(clusters) != model.L:
        raise SeparabilityError(
            f"support has {len(clusters)} clusters, need {model.L}"
        )
    blocks, *_ = _cluster_pair_integrals(model, clusters, 1, nodes)
    w = model.weights_array()
    return blocks[:, :, 0, 0].real / np.outer(w, w)
