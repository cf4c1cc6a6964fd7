"""Asymptotic covariances of the estimators, by double contour quadrature.

Scaled fluctuations of the empirical companion transform converge to a
Gaussian field with covariance kernel

    kappa(z1, z2) = m_u'(z1) m_u'(z2) / (m_u(z1) - m_u(z2))^2
                    - 1/(z1 - z2)^2,

analytic wherever both arguments stay off the limiting support. Every
covariance here is a double contour integral of kappa against powers of
1/m_u; the two integration variables run on strictly nested (or disjoint)
contours so the near-diagonal cancellation in kappa never has to be
resolved numerically.

Normalization: all covariances refer to M * (estimate - truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .contours import (
    Contour,
    cluster_contour_pair,
    cluster_contours,
    support_contours,
)
from .errors import ConditioningError, ConvergenceError, InputError, SeparabilityError
from .limiting import (
    m_underline_derivative,
    solve_m_underline_grid,
    support_clusters,
)
from .model import PopulationModel

__all__ = [
    "CltCovariance",
    "kernel_kappa",
    "v_matrix",
    "theta_moment_estimator",
    "theta_mestre",
]


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
    z = contour.points()
    m, _ = solve_m_underline_grid(model, model.aspect, z)
    d = m_underline_derivative(model, model.aspect, m)
    return z, contour.dz(), m, d


def _kappa_matrix(z1, m1, d1, z2, m2, d2):
    dm = m1[:, None] - m2[None, :]
    dz = z1[:, None] - z2[None, :]
    return d1[:, None] * d2[None, :] / dm**2 - 1.0 / dz**2


def kernel_kappa(model: PopulationModel, z1: complex, z2: complex) -> complex:
    """Covariance kernel at one pair of points off the support (z1 != z2)."""
    z1, z2 = complex(z1), complex(z2)
    if z1 == z2:
        raise InputError("kernel requires two distinct points")
    m, _ = solve_m_underline_grid(model, model.aspect, np.array([z1, z2]))
    d = m_underline_derivative(model, model.aspect, m)
    return complex(
        d[0] * d[1] / (m[0] - m[1]) ** 2 - 1.0 / (z1 - z2) ** 2
    )


def _inverse_power_rows(m, weights, max_power: int):
    """Rows k = 1..max_power of weights * m^-k."""
    rows = np.empty((max_power, m.size), dtype=complex)
    inv = 1.0 / m
    acc = inv.copy()
    for k in range(max_power):
        rows[k] = weights * acc
        acc *= inv
    return rows


def _v_from_nodes(model, L, z1, w1, m1, d1, z2, w2, m2, d2):
    K = _kappa_matrix(z1, m1, d1, z2, m2, d2)
    P1 = _inverse_power_rows(m1, w1, 2 * L - 1)
    P2 = _inverse_power_rows(m2, w2, 2 * L - 1)
    I = P1 @ K @ P2.T
    k = np.arange(1, 2 * L)
    signs = (-1.0) ** (k[:, None] + k[None, :])
    return -signs * I / (4.0 * np.pi**2 * model.aspect**2)


def v_matrix(
    model: PopulationModel,
    L: int | None = None,
    contours: tuple[Contour, Contour] | None = None,
    nodes: int = 256,
    max_refinements: int = 2,
):
    """Covariance V of M * (gamma_hat_k - gamma_k), k = 1..2L-1.

    Integrates kappa / (m_u(z1)^k m_u(z2)^l) over a nested contour pair
    around the full limiting support. Returns (V, meta); V is symmetrized
    after recording the raw asymmetry in meta.
    """
    if L is None:
        L = model.L
    if L < 1:
        raise InputError("L must be at least 1")
    auto = contours is None
    if auto:
        clusters = support_clusters(model, model.aspect)
        contours = support_contours((clusters[0][0], clusters[-1][1]), nodes)

    for attempt in range(max_refinements + 1):
        inner, outer = contours
        z1, w1, m1, d1 = _transform_on(model, inner)
        z2, w2, m2, d2 = _transform_on(model, outer)
        if min(np.abs(m1).min(), np.abs(m2).min()) < 1e-10:
            raise ConvergenceError("companion transform vanishes on a contour")
        full = _v_from_nodes(model, L, z1, w1, m1, d1, z2, w2, m2, d2)
        half = _v_from_nodes(
            model, L,
            z1[::2], 2 * w1[::2], m1[::2], d1[::2],
            z2[::2], 2 * w2[::2], m2[::2], d2[::2],
        )
        delta = float(np.abs(full - half).max())
        scale = 1.0 + float(np.abs(full).max())
        if delta <= 1e-8 * scale:
            break
        if auto and attempt < max_refinements:
            contours = (
                inner.with_nodes(inner.nodes * 2),
                outer.with_nodes(outer.nodes * 2),
            )
        else:
            raise ConvergenceError(
                f"V quadrature has not converged (delta {delta:.3e}); "
                "double the node count",
                residual=delta,
            )

    leakage = float(np.abs(full.imag).max())
    V = full.real
    asym = float(np.abs(V - V.T).max())
    V = 0.5 * (V + V.T)
    meta = {
        "inner": inner,
        "outer": outer,
        "nodes": inner.nodes,
        "self_check_delta": delta,
        "imag_leakage": leakage,
        "asymmetry": asym,
    }
    if leakage > 1e-6 * scale:
        raise ConvergenceError(f"V imaginary leakage {leakage:.3e} too large")
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
    model: PopulationModel,
    contours: tuple[Contour, Contour] | None = None,
    nodes: int = 256,
) -> CltCovariance:
    """Asymptotic covariance of the full moment estimator.

    W embeds V with a zero row and column for the deterministic
    gamma_hat_0; Theta = J^-1 W J^-T with J the moment Jacobian, ordered
    (c_1..c_L, rho_1..rho_L).
    """
    L = model.L
    V, meta = v_matrix(model, L, contours=contours, nodes=nodes)
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


def theta_mestre(
    model: PopulationModel,
    L: int | None = None,
    nodes: int = 256,
) -> NDArray[np.float64]:
    """Asymptotic covariance of the baseline cluster estimator.

    Requires a separable model: one support cluster per distinct
    eigenvalue. Entry (k, l) integrates kappa / (m_u m_u) over the pair of
    cluster contours; the diagonal uses a strictly nested pair around the
    same cluster.
    """
    if L is None:
        L = model.L
    clusters = support_clusters(model, model.aspect)
    if len(clusters) != L:
        raise SeparabilityError(f"support has {len(clusters)} clusters, need {L}")
    w = model.weights_array()
    c = model.aspect

    single = [
        _transform_on(model, cluster_contours(clusters, k, nodes))
        for k in range(L)
    ]
    Theta = np.empty((L, L))
    for k in range(L):
        inner, outer = cluster_contour_pair(clusters, k, nodes)
        zk, wk, mk, dk = _transform_on(model, inner)
        zo, wo, mo, do = _transform_on(model, outer)
        K = _kappa_matrix(zk, mk, dk, zo, mo, do)
        I = (wk / mk) @ K @ (wo / mo)
        Theta[k, k] = -(I / (4.0 * np.pi**2 * c**2 * w[k] ** 2)).real
        for l in range(k + 1, L):
            zl, wl, ml, dl = single[l]
            K = _kappa_matrix(zk, mk, dk, zl, ml, dl)
            I = (wk / mk) @ K @ (wl / ml)
            val = -(I / (4.0 * np.pi**2 * c**2 * w[k] * w[l])).real
            Theta[k, l] = Theta[l, k] = val
    return Theta
