"""Limiting spectral distribution of large sample covariance matrices.

For a population model with spectrum sum_k c_k at rho_k and aspect ratio
c = N/M, the companion Stieltjes transform m_u(z) solves the fixed-point
equation

    m_u = -1 / (z - c * sum_k c_k rho_k / (1 + rho_k m_u)),

and the transform of the sample-covariance limit follows from

    m(z) = (1/c) m_u(z) - (1 - 1/c) / z.

Off the real axis m_u(z) is the one root of a degree-(L+1) equation with
Im m_u of the sign of Im z; solve_m_underline_grid takes it as an
eigenvalue of an (L+1) x (L+1) arrowhead matrix per point, whose other L
eigenvalues lie one on each cluster's sheet (`_roots`). The support edges
are the values of the inverse map z(m_u) at its real critical points, the
real eigenvalues of a 2L x 2L matrix (support_clusters). The density on the
real line is read from Im m(x + i eps) / pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, InputError
from .model import PopulationModel

__all__ = [
    "DensityCurve",
    "solve_m_underline_grid",
    "density_curve",
    "support_clusters",
    "is_separable",
]


@dataclass(frozen=True)
class DensityCurve:
    """Limiting density sampled on a real grid, plus the exact support.

    density is the continuous part of the sample-covariance limit at
    grid + i*epsilon. clusters are the support intervals in (0, inf) from
    support_clusters; they do not depend on the grid or on epsilon.
    mass_at_zero is the point mass max(0, 1 - 1/c) of the sample-covariance
    limit when c > 1.
    """

    grid: NDArray[np.float64]
    density: NDArray[np.float64]
    epsilon: float
    clusters: tuple[tuple[float, float], ...]
    mass_at_zero: float

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid)) + self.mass_at_zero


def _fixed_point_map(m, z, ratio, rho, w):
    s = (w * rho / (1.0 + np.multiply.outer(m, rho))).sum(axis=-1)
    return -1.0 / (z - ratio * s)


def _residual(m, z, ratio, rho, w):
    return np.abs(_fixed_point_map(m, z, ratio, rho, w) - m) / (1.0 + np.abs(m))


def _inverse_map(m, ratio, rho, w):
    """z as a function of m_u on the graph of the transform."""
    s = (w * rho / (1.0 + np.multiply.outer(m, rho))).sum(axis=-1)
    return ratio * s - 1.0 / m


def _inverse_map_derivative(m, ratio, rho, w):
    s2 = (w * rho**2 / (1.0 + np.multiply.outer(m, rho)) ** 2).sum(axis=-1)
    return 1.0 / m**2 - ratio * s2


def _roots(model: PopulationModel, ratio: float, z, sheets: int):
    """The first `sheets` roots m = -1/v of the fixed-point equation at every
    point of z, Im z > 0, and their errors, of shape z.shape + (sheets,).

    In v the equation is v - (z - c sum_k w_k rho_k) + sum_k b_k^2 /
    (v - rho_k) = 0, b_k = rho_k sqrt(c w_k), whose L+1 roots are the
    eigenvalues of the arrowhead matrix [[z - c sum_k w_k rho_k, i b^T],
    [i b, diag(rho)]]. Im z = Im v (1 - phi(v)) with phi(v) = c sum_k w_k
    rho_k^2 / |v - rho_k|^2, so one root has Im v > 0 (Silverstein & Bai
    1995), the principal one, m_u; it comes first. The other L have phi > 1.
    On a line Re v = t phi falls as |Im v| grows, so the components of
    {phi > 1} sit over the intervals (nu_2l, nu_2l+1) around rho_l where
    phi(t) > 1 (`_critical_points`). No root crosses their boundary as z
    moves, and as Im z grows root l tends to rho_l, so each holds one root
    at every z: the L follow by real part, root l + 1 on cluster l's sheet.

    A few guarded Newton steps on the inverse map polish every root. The
    principal root's error is its fixed-point residual, the others' their
    next Newton step in v against max(|v|, rho_L); a root whose error stays
    above 1e-10, whose imaginary part has the wrong sign or whose real part
    leaves its interval raises ConvergenceError.
    """
    rho = model.rho_array()
    w = model.weights_array()
    L = rho.size
    b = 1j * rho * np.sqrt(ratio * w)
    arrow = np.zeros(z.shape + (L + 1, L + 1), dtype=complex)
    arrow[..., 0, 0] = z - ratio * np.dot(w, rho)
    arrow[..., 0, 1:] = b
    arrow[..., 1:, 0] = b
    diag = np.arange(1, L + 1)
    arrow[..., diag, diag] = rho
    v = np.linalg.eigvals(arrow)
    principal = np.arange(L + 1) == v.imag.argmax(axis=-1)[..., None]
    order = np.where(principal, -np.inf, v.real).argsort(axis=-1)
    m = -1.0 / np.take_along_axis(v, order[..., :sheets], axis=-1)
    z = z[..., None]
    sign = np.where(np.arange(sheets) == 0, 1.0, -1.0)

    def newton(m):
        """The Newton step on the inverse map at m, and m's error."""
        step = ((_inverse_map(m, ratio, rho, w) - z)
                / _inverse_map_derivative(m, ratio, rho, w))
        # near its pole rho_l a root is known to about eps rho_L in v, and
        # its fixed-point residual loses digits to cancellation (4e-6 at
        # v - rho_1 = 1e-6 on rho (1, 100, 10000))
        err = np.abs(step) / (np.abs(m) * np.maximum(1.0, np.abs(m) * rho[-1]))
        return step, np.where(sign > 0, _residual(m, z, ratio, rho, w), err)

    # eigvals alone leaves residuals up to ~1e-7 (at the origin, say)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step, err = newton(m)
        for _ in range(3):
            cand = m - step
            cand_step, cand_err = newton(cand)
            take = (sign * cand.imag > 0) & (cand_err < err)
            m = np.where(take, cand, m)
            step = np.where(take, cand_step, step)
            err = np.where(take, cand_err, err)

    # a NaN residual or a root on the wrong side of the axis fails too
    bad = ~((err <= 1e-10) & (sign * m.imag > 0))
    if np.any(bad):
        worst = float(err.max())
        raise ConvergenceError(
            f"fixed point did not converge at {int(bad.any(axis=-1).sum())} "
            f"of {z.size} points (worst residual {worst:.3e})",
            residual=worst,
        )
    if sheets > 1:
        nu = _critical_points(model, ratio).reshape(-1, 2)[:sheets - 1]
        t = (-1.0 / m[..., 1:]).real
        if len(nu) < sheets - 1 or not np.all((nu[:, 0] < t) & (t < nu[:, 1])):
            raise ConvergenceError("a root lies off its cluster's sheet")
    return m, err


def solve_m_underline_grid(model: PopulationModel, n_over_m: float, z: np.ndarray):
    """Companion transform at every point of z; returns (m_underline, residual).

    m_u is the principal root of `_roots`, polished to full precision;
    points with Im z < 0 are solved at conj(z) and conjugated.
    """
    ratio = float(n_over_m)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(z) & (z.imag != 0)):
        raise InputError("the transform needs finite z off the real axis")
    lower = z.imag < 0
    m, res = _roots(model, ratio, np.where(lower, z.conj(), z), 1)
    return np.where(lower, m[..., 0].conj(), m[..., 0]), res[..., 0]


def _m_from_companion(m_underline, z, n_over_m: float):
    """Transform of the sample-covariance limit from the companion one."""
    r = float(n_over_m)
    return m_underline / r - (1.0 - 1.0 / r) / z


# the solve holds an (L+1) x (L+1) complex matrix per grid point
_MAX_GRID_POINTS = 10**6


def _grid_from_spec(model, ratio, grid_spec) -> NDArray[np.float64]:
    """Grid from 0 to just past the largest possible support edge: 2501
    points when grid_spec is None, else spaced by the step grid_spec."""
    hi = 1.1 * (1.0 + np.sqrt(ratio)) ** 2 * model.rho[-1]
    if grid_spec is None:
        return np.linspace(0.0, hi, 2501)
    step = float(grid_spec)
    if not 0 < step < np.inf:
        raise InputError(f"grid step must be positive and finite, got {step!r}")
    n = np.ceil(hi / step) + 1
    if n > _MAX_GRID_POINTS:
        raise InputError(
            f"grid step {step!r} needs {n:.3g} points; at most "
            f"{_MAX_GRID_POINTS} are allowed"
        )
    return np.arange(int(n)) * step


def _continuous_density(m, z, ratio):
    """Continuous part of the limiting sample density from m_u on z.

    The sample transform's pole term at the origin carries the point mass,
    not the continuous part: for N < M it cancels the companion's atom, for
    N > M it is itself the sample atom. Reading the density from the
    atom-free transform of each regime keeps the origin grid point clean.
    """
    if ratio > 1:
        dens = m.imag / (ratio * np.pi)
    else:
        dens = _m_from_companion(m, z, ratio).imag / np.pi
    return np.maximum(dens, 0.0)


def _critical_points(model: PopulationModel, ratio: float) -> NDArray[np.float64]:
    """Sorted real critical points nu_0 < nu_1 < ... of the inverse map in
    v = -1/m, x = v + c sum_k w_k rho_k v / (v - rho_k), where dx/dv =
    1 - c sum_k w_k rho_k^2 / (v - rho_k)^2 vanishes.

    The sum is convex between consecutive rho_k and monotone outside them,
    so they are one below rho_1, one above rho_L and pairs in between. They
    are the eigenvalues v of [[R, -I], [-b b^T, R]] with R = diag(rho) and
    b_k = rho_k sqrt(c w_k), which solve det((R - v)^2 - b b^T) = 0; unlike
    the roots of the same polynomial in monomial form, they stay accurate
    when the clusters are narrow (small c).
    """
    rho = model.rho_array()
    b = rho * np.sqrt(ratio * model.weights_array())
    R = np.diag(rho)
    eig = np.linalg.eigvals(np.block([[R, -np.eye(rho.size)], [-np.outer(b, b), R]]))
    return np.sort(eig[eig.imag == 0].real)


def support_clusters(
    model: PopulationModel, n_over_m: float
) -> tuple[tuple[float, float], ...]:
    """Support of the limiting sample density in (0, inf), as sorted intervals.

    The inverse map x(m) = -1/m + c sum_k w_k rho_k / (1 + rho_k m) sends a
    real m to a point outside the support exactly where x'(m) > 0
    (Silverstein & Choi 1995), so the support edges are x at the real
    critical points of x. In v = -1/m, which keeps the sign of the
    derivative, cluster i is [x(nu_2i), x(nu_2i+1)] (`_critical_points`).
    """
    ratio = float(n_over_m)
    rho = model.rho_array()
    w = model.weights_array()
    v = _critical_points(model, ratio)[:, None]
    edges = (v + ratio * (w * rho * v / (v - rho)).sum(axis=1, keepdims=True)).ravel()
    # at c = 1 the lowest edge is 0 up to rounding, which may be negative
    edges = np.maximum(edges, 0.0)
    return tuple((float(lo), float(hi)) for lo, hi in edges.reshape(-1, 2))


def density_curve(
    model: PopulationModel,
    n_over_m: float,
    grid_spec=None,
    epsilon: float = 1e-6,
) -> DensityCurve:
    """Limiting density on a real grid, with the exact support clusters.

    grid_spec is None for 2501 points from 0 to just past the upper edge
    bound rho_L (1 + sqrt(c))^2, or a positive grid step that gives at most
    10^6 points. The density is
    read at x + i*epsilon, so epsilon smooths it within about epsilon of
    the edges; the clusters come from support_clusters and depend on
    neither the grid nor epsilon.
    """
    ratio = float(n_over_m)
    if not 0 < epsilon < np.inf:
        raise InputError("epsilon must be positive and finite")
    grid = _grid_from_spec(model, ratio, grid_spec)
    z = grid + 1j * epsilon
    m, _ = solve_m_underline_grid(model, ratio, z)
    return DensityCurve(
        grid=grid,
        density=_continuous_density(m, z, ratio),
        epsilon=float(epsilon),
        clusters=support_clusters(model, ratio),
        mass_at_zero=max(0.0, 1.0 - 1.0 / ratio),
    )


def is_separable(curve: DensityCurve, L: int) -> bool:
    """True when the support splits into exactly one cluster per eigenvalue."""
    return len(curve.clusters) == L
