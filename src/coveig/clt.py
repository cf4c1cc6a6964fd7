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
integrates over one ellipse per support cluster: the integral over
clusters k and l runs on the two cluster ellipses, and the one over
cluster k with itself on cluster k's ellipse in both variables. kappa is
evaluated in a form that divides out the 1/(z1 - z2)^2 its two terms
share, so nearby and coincident nodes lose no digits to cancellation. The
first cluster's ellipse also holds the origin, which is no singularity of
the integrand: for c < 1 m_u has a pole there and 1/m_u vanishes, for
c > 1 m_u(0) is finite and positive, and at c = 1 the support itself
starts at 0. Each integral is checked against the half-resolution rule
embedded in its nodes, entry by entry divided by s^2, s the support's
right edge, and the node count doubles until the two agree. An ellipse's
nodes below the real axis mirror those above, so the transform is solved
and kappa evaluated on the upper half of the first contour only; the
lower half is their conjugate, and the half rule reads the even nodes of
the same values.

Normalization: all covariances refer to M * (estimate - truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .contours import cluster_ellipse, ellipse_nodes
from .errors import ConditioningError, ConvergenceError, InputError, SeparabilityError
from .limiting import solve_m_underline_grid, support_clusters
from .model import PopulationModel, true_moments

__all__ = [
    "CltCovariance",
    "v_matrix",
    "theta_moment_estimator",
    "theta_mestre",
]

_SELF_CHECK_RTOL = 1e-8
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


def _transform_on(model: PopulationModel, ellipse, nodes: int):
    """Weights on an ellipse's nodes and the companion transform there.

    The nodes below the real axis mirror those above, and m_u(conj z) =
    conj(m_u(z)), so the transform is solved on the upper half and
    conjugated onto the lower half."""
    points, dz = ellipse_nodes(*ellipse, nodes)
    m, _ = solve_m_underline_grid(model, model.aspect, points[:nodes // 2])
    return dz, np.concatenate([m, m[::-1].conj()])


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


def _blocks(model: PopulationModel, transforms):
    """Sum of w1 w2 kappa / (m1 m2) for every cluster pair, by the full
    rule and by the half-resolution rule embedded in it.

    The nodes below the real axis mirror those above and kappa has real
    coefficients, so kappa(conj m1, conj m2) = conj(kappa(m1, m2)) bit for
    bit: kappa is evaluated for the upper-half rows of the first contour
    only, against every column, and its lower-half rows are the mirrored
    conjugates of those. Every other node of the offset trapezoid rule is
    again a uniform rule, so the half rule sums the even rows and columns
    of the same matrix with the weights doubled. Both sums run over the
    whole matrix, as a full evaluation sums it: the integral over two
    clusters far apart is a part in 1e4 of its terms, and reordering its
    sum (twice the real part of the upper rows', say) moves it by up to
    5e-13 relative.
    """
    clusters = [(m, w * (1.0 / m)) for w, m in transforms]
    full = np.empty((len(clusters), len(clusters)), dtype=complex)
    half = np.empty_like(full)
    for k, (m1, p1) in enumerate(clusters):
        upper = m1[:m1.size // 2]
        for l, (m2, p2) in enumerate(clusters[k:], start=k):
            kappa = _kappa_matrix(model, upper, m2)
            kappa = np.concatenate([kappa, kappa[::-1, ::-1].conj()])
            # kappa is symmetric, so the transposed pair needs no new sum
            full[k, l] = full[l, k] = p1 @ kappa @ p2
            half[k, l] = half[l, k] = (
                (2.0 * p1[::2]) @ kappa[::2, ::2] @ (2.0 * p2[::2]))
    return full, half


def _scaled_gap(a, b, scale: float) -> float:
    """Largest entry-wise |a - b| against 1 + |a|, every entry divided by
    scale first."""
    return float((np.abs(a - b) * scale / (1.0 + np.abs(a) * scale)).max())


def _cluster_pair_integrals(model: PopulationModel, clusters, nodes: int):
    """Double integrals of kappa / (m_u m_u) over every pair of clusters.

    Entry (k, l) is -p_k K p_l^T / (4 pi^2 c^2), with p_k the row w / m_u
    on cluster k's contour. kappa has no singularity at z1 = z2, so a
    diagonal entry integrates over cluster k's contour in both variables
    and an off-diagonal one over the two disjoint cluster contours. The
    node count doubles until the embedded half rule agrees entry by entry,
    each divided by s^2 with s the support's right edge. The transform is
    solved and kappa evaluated for the upper half of the nodes only
    (`_blocks`).
    """
    norm = -1.0 / (4.0 * np.pi**2 * model.aspect**2)
    scale = float(clusters[-1][1]) ** -2.0
    ellipses = [cluster_ellipse(clusters, k) for k in range(len(clusters))]
    for attempt in range(_MAX_DOUBLINGS + 1):
        if attempt:
            nodes *= 2
        transforms = [_transform_on(model, e, nodes) for e in ellipses]
        # |m_u| is about 1/|z| on a contour, so the floor is relative to
        # the support's right edge
        if min(np.abs(m).min() for _, m in transforms) * clusters[-1][1] < 1e-10:
            raise ConvergenceError("companion transform vanishes on a contour")
        full, half = _blocks(model, transforms)
        full *= norm
        half *= norm
        delta = _scaled_gap(full, half, scale)
        if delta <= _SELF_CHECK_RTOL:
            return full
    raise ConvergenceError(
        f"CLT quadrature has not converged at {nodes} nodes "
        f"(scaled delta {delta:.3e})",
        residual=delta,
    )


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
    eigenvalue. Entry (k, l) integrates kappa / (m_u m_u) over the contours
    of clusters k and l; the diagonal uses cluster k's contour twice.
    """
    clusters = support_clusters(model, model.aspect)
    if len(clusters) != model.L:
        raise SeparabilityError(
            f"support has {len(clusters)} clusters, need {model.L}"
        )
    w = model.weights_array()
    return _cluster_pair_integrals(model, clusters, nodes).real / np.outer(w, w)
