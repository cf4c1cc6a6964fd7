"""Limiting spectral distribution of large sample covariance matrices.

For a population model with spectrum sum_k c_k at rho_k and aspect ratio
c = N/M, the companion Stieltjes transform m_u(z) solves the fixed-point
equation

    m_u = -1 / (z - c * sum_k c_k rho_k / (1 + rho_k m_u)),

and the transform of the sample-covariance limit follows from

    m(z) = (1/c) m_u(z) - (1 - 1/c) / z.

The density on the real line is recovered from Im m(x + i eps) / pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, InputError
from .model import PopulationModel

__all__ = [
    "StieltjesValue",
    "DensityCurve",
    "solve_m_underline",
    "solve_m_underline_grid",
    "m_underline_derivative",
    "m_from_companion",
    "density_curve",
    "support_clusters",
    "is_separable",
]


@dataclass(frozen=True)
class StieltjesValue:
    """One evaluation of the limiting transforms at a point z."""

    z: complex
    m_underline: complex
    m_value: complex
    iterations: int
    residual: float


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


def _poly_fallback(z: complex, ratio, rho, w):
    """Solve the fixed-point equation as a degree L+1 polynomial in m.

    Clearing denominators in z = c*sum w_k rho_k/(1+rho_k m) - 1/m gives
    z*m*P(m) + P(m) - c*sum_k w_k rho_k m P_k(m) = 0 with
    P = prod(1 + rho_j m) and P_k the product without factor k. The
    physical branch is the unique root in the upper half plane.
    """
    L = len(rho)
    full = np.poly(-1.0 / rho) * np.prod(rho)  # descending coeffs of P
    acc = np.zeros(L + 2, dtype=complex)
    acc[1:] += full
    acc[:-1] += z * full
    for k in range(L):
        others = np.delete(rho, k)
        pk = np.poly(-1.0 / others) * np.prod(others) if L > 1 else np.array([1.0])
        term = w[k] * rho[k] * np.concatenate([pk, [0.0]])  # times m
        acc[-term.size:] -= ratio * term
    roots = np.roots(acc)
    upper = roots[roots.imag > 0]
    cands = upper if upper.size else roots
    res = _residual(cands, z, ratio, rho, w)
    return complex(cands[np.argmin(res)])


def solve_m_underline_grid(
    model: PopulationModel,
    n_over_m: float,
    z: np.ndarray,
    tol: float = 1e-12,
    init: np.ndarray | None = None,
    max_iter: int = 60000,
):
    """Vectorized fixed-point solve; returns (m_underline, iterations, residual).

    Damped Picard iteration (the map preserves the upper half plane, so it
    is globally safe) until within Newton range, then Newton steps on the
    inverse relation. Stubborn nodes near support edges fall back to an
    exact polynomial solve.
    """
    rho = model.rho_array()
    w = model.weights_array()
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z == 0):
        raise InputError("transform is not defined at z = 0")
    m = -1.0 / z if init is None else np.array(init, dtype=complex)
    iters = np.zeros(z.shape, dtype=np.int64)
    res = _residual(m, z, ratio := float(n_over_m), rho, w)

    # Picard only needs to reach the Newton basin; finishing to tol is
    # Newton's job and takes it a handful of quadratic steps
    newton_gate = 1e-5
    active = np.flatnonzero(res > max(tol, newton_gate))
    alpha = np.full(z.shape, 0.5)
    block = 40
    done_picard = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while active.size and done_picard < max_iter:
            za, ma, aa = z[active], m[active], alpha[active]
            before = res[active]
            for _ in range(block):
                ma = (1.0 - aa) * ma + aa * _fixed_point_map(ma, za, ratio, rho, w)
            m[active] = ma
            iters[active] += block
            done_picard += block
            res[active] = after = _residual(ma, za, ratio, rho, w)
            # nodes that stalled get heavier damping, down to 1/16
            stalled = after > 0.7 * before
            alpha[active[stalled]] = np.maximum(aa[stalled] * 0.5, 1.0 / 16.0)
            active = active[after > max(tol, newton_gate)]

        active = np.flatnonzero(res > tol)
        for _ in range(60):
            if not active.size:
                break
            ma, za = m[active], z[active]
            g = _inverse_map(ma, ratio, rho, w) - za
            gp = _inverse_map_derivative(ma, ratio, rho, w)
            step = np.where(gp != 0, g / gp, 0.0)
            cand = ma - step
            ok = np.isfinite(cand)
            ok &= ~((za.imag > 0) & (cand.imag < 0))
            new_res = np.where(
                ok, _residual(np.where(ok, cand, ma), za, ratio, rho, w), np.inf
            )
            improved = new_res < res[active]
            take = active[improved]
            m[take] = cand[improved]
            res[take] = new_res[improved]
            iters[take] += 1
            active = active[res[active] > tol]

    for idx in np.flatnonzero(res > tol):
        if z[idx].imag <= 0:
            continue
        m[idx] = _poly_fallback(complex(z[idx]), ratio, rho, w)
        res[idx] = _residual(m[idx : idx + 1], z[idx : idx + 1], ratio, rho, w)[0]
    bad = res > max(tol, 1e-10)
    if np.any(bad):
        worst = float(res.max())
        raise ConvergenceError(
            f"fixed point did not converge at {int(bad.sum())} of {z.size} "
            f"points (worst residual {worst:.3e})",
            residual=worst,
        )
    return m, iters, res


def solve_m_underline(
    model: PopulationModel, n_over_m: float, z: complex, tol: float = 1e-12
) -> StieltjesValue:
    """Companion transform m_u(z) and sample transform m(z) at one point.

    z must have positive imaginary part, or be real and outside the support
    (where the iteration still converges to the real boundary value).
    """
    m, iters, res = solve_m_underline_grid(model, n_over_m, [complex(z)], tol=tol)
    mu = complex(m[0])
    return StieltjesValue(
        z=complex(z),
        m_underline=mu,
        m_value=m_from_companion(mu, complex(z), n_over_m),
        iterations=int(iters[0]),
        residual=float(res[0]),
    )


def m_from_companion(m_underline, z, n_over_m: float):
    """Transform of the sample-covariance limit from the companion one."""
    r = float(n_over_m)
    return m_underline / r - (1.0 - 1.0 / r) / z


def m_underline_derivative(model: PopulationModel, n_over_m: float, m_underline):
    """d m_u / dz expressed through m_u itself.

    Differentiating the fixed-point relation implicitly gives
    m_u' = m_u^2 / (1 - c m_u^2 sum_k c_k rho_k^2 / (1 + rho_k m_u)^2),
    which avoids any finite differencing on contours.
    """
    rho = model.rho_array()
    w = model.weights_array()
    m = np.asarray(m_underline, dtype=complex)
    s2 = (w * rho**2 / (1.0 + np.multiply.outer(m, rho)) ** 2).sum(axis=-1)
    out = m**2 / (1.0 - float(n_over_m) * m**2 * s2)
    return out if np.ndim(m_underline) else complex(out)


def _grid_from_spec(model, ratio, grid_spec) -> NDArray[np.float64]:
    """Grid from 0 to just past the largest possible support edge: 2501
    points when grid_spec is None, else spaced by the step grid_spec."""
    hi = 1.1 * (1.0 + np.sqrt(ratio)) ** 2 * model.rho[-1]
    if grid_spec is None:
        return np.linspace(0.0, hi, 2501)
    step = float(grid_spec)
    if not 0 < step < np.inf:
        raise InputError(f"grid step must be positive and finite, got {step!r}")
    n = int(np.ceil(hi / step)) + 1
    return np.arange(n) * step


def _solve_near_axis(model, ratio, x, epsilon):
    """Solve at x + i*epsilon by stepping epsilon down a decade at a time.

    Picard contraction degrades like the distance to the support, so a cold
    start just above the real axis crawls; warm-starting each decade from
    the previous one keeps every point inside the Newton basin instead.
    """
    eps = max(epsilon, 1e-2)
    init = None
    while True:
        m, _, _ = solve_m_underline_grid(model, ratio, x + 1j * eps, init=init)
        if eps <= epsilon:
            return m
        eps = max(epsilon, 0.1 * eps)
        init = m


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
        dens = m_from_companion(m, z, ratio).imag / np.pi
    return np.maximum(dens, 0.0)


def support_clusters(
    model: PopulationModel, n_over_m: float
) -> tuple[tuple[float, float], ...]:
    """Support of the limiting sample density in (0, inf), as sorted intervals.

    The inverse map x(m) = -1/m + c sum_k w_k rho_k / (1 + rho_k m) sends a
    real m to a point outside the support exactly where x'(m) > 0
    (Silverstein & Choi 1995), so the support edges are x at the real
    critical points of x. In v = -1/m, which keeps the sign of the
    derivative,

        x = v + c sum_k w_k rho_k v / (v - rho_k),
        dx/dv = 1 - c sum_k w_k rho_k^2 / (v - rho_k)^2.

    The sum is convex between consecutive rho_k and monotone outside them,
    so the real critical points v_0 < v_1 < ... are one below rho_1, one
    above rho_L and pairs in between, and cluster i is [x(v_2i), x(v_2i+1)].
    They are the eigenvalues v of [[R, -I], [-b b^T, R]] with R = diag(rho)
    and b_k = rho_k sqrt(c w_k), which solve det((R - v)^2 - b b^T) = 0;
    unlike the roots of the same polynomial in monomial form, they stay
    accurate when the clusters are narrow (small c).
    """
    ratio = float(n_over_m)
    rho = model.rho_array()
    w = model.weights_array()
    b = rho * np.sqrt(ratio * w)
    R = np.diag(rho)
    eig = np.linalg.eigvals(np.block([[R, -np.eye(rho.size)], [-np.outer(b, b), R]]))
    v = np.sort(eig[eig.imag == 0].real)[:, None]
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
    bound rho_L (1 + sqrt(c))^2, or a positive grid step. The density is
    read at x + i*epsilon, so epsilon smooths it within about epsilon of
    the edges; the clusters come from support_clusters and depend on
    neither the grid nor epsilon.
    """
    ratio = float(n_over_m)
    if not 0 < epsilon < np.inf:
        raise InputError("epsilon must be positive and finite")
    grid = _grid_from_spec(model, ratio, grid_spec)
    m = _solve_near_axis(model, ratio, grid, epsilon)
    return DensityCurve(
        grid=grid,
        density=_continuous_density(m, grid + 1j * epsilon, ratio),
        epsilon=float(epsilon),
        clusters=support_clusters(model, ratio),
        mass_at_zero=max(0.0, 1.0 - 1.0 / ratio),
    )


def is_separable(curve: DensityCurve, L: int) -> bool:
    """True when the support splits into exactly one cluster per eigenvalue."""
    return len(curve.clusters) == L
