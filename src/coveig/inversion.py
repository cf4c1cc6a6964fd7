"""Recovering distinct eigenvalues and weights from moment estimates.

The moments gamma_0..gamma_{2L-1} of an L-atom measure determine it: the
atoms are the roots of the monic polynomial whose coefficients solve the
L x L Hankel system, and the weights follow from a Vandermonde solve. When
the multiplicities are known in advance, the atoms come instead from
Newton-Girard recursion on the power sums of the smallest integer multiset
realizing the weights.

Both routes internally rescale the measure by s = max |gamma_ell|^(1/ell)
so the linear algebra runs near unit scale; atoms are scaled back at the
end. Reported condition numbers refer to the scaled systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConditioningError,
    InputError,
    InvalidRootsError,
    InvalidWeightsError,
)
from .moments import MomentEstimates

__all__ = [
    "HankelSystem",
    "EstimationResult",
    "invert_moments",
    "invert_moments_known_multiplicities",
]

_COND_LIMIT = 1e12
_IMAG_RTOL = 1e-8
_GAP_RTOL = 1e-8
_WEIGHT_SLACK = 0.05


@dataclass(frozen=True)
class HankelSystem:
    """The unscaled Hankel system Gamma s = -b and its solution.

    cond is the condition number of the rescaled system actually solved.
    """

    Gamma: NDArray[np.float64]
    b: NDArray[np.float64]
    s: NDArray[np.float64]
    cond: float


@dataclass(frozen=True)
class EstimationResult:
    """Recovered atoms (ascending) and weights, with solver diagnostics."""

    rho_hat: NDArray[np.float64]
    c_hat: NDArray[np.float64]
    cond_gamma: float
    poly_residuals: NDArray[np.float64]
    weight_residuals: NDArray[np.float64]
    method: str
    projected: bool = False
    hankel: HankelSystem | None = None


def _gamma_array(gamma_hat, need: int) -> NDArray[np.float64]:
    if isinstance(gamma_hat, MomentEstimates):
        gamma_hat = gamma_hat.gamma_hat
    gamma = np.asarray(gamma_hat, dtype=float)
    if gamma.ndim != 1 or gamma.size < need:
        raise InputError(f"need at least {need} moments, got shape {gamma.shape}")
    if not np.all(np.isfinite(gamma)):
        raise InputError("moments contain non-finite values")
    if abs(gamma[0] - 1.0) > 1e-9:
        raise InputError(f"gamma_0 must be 1, got {gamma[0]!r}")
    return gamma


def _moment_scale(gamma: NDArray[np.float64]) -> float:
    ells = np.arange(1, gamma.size)
    mags = np.abs(gamma[1:]) ** (1.0 / ells)
    s = float(mags.max(initial=0.0))
    if s == 0.0:
        raise InputError("all moments beyond gamma_0 vanish")
    return s


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval(coeffs, x) without its per-call overhead.

    This is np.polyval's own recurrence, so its bits; on the 2- and 3-root
    arrays of a Monte Carlo trial that overhead is most of np.polyval's cost.
    """
    y = np.zeros_like(x)
    for coeff in coeffs:
        y = y * x + coeff
    return y


def _polish_roots(poly: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Newton-polish eigenvalue-companion roots against the monic polynomial.

    np.roots loses several digits once the root condition number grows;
    a few guarded Newton sweeps restore them. Steps that do not reduce
    |p| are rejected, which keeps near-multiple roots stable.
    """
    dpoly = poly[:-1] * np.arange(poly.size - 1, 0, -1)  # np.polyder
    val = _horner(poly, roots)
    for _ in range(3):
        slope = _horner(dpoly, roots)
        safe = np.abs(slope) > 0
        step = np.where(safe, val / np.where(safe, slope, 1.0), 0.0)
        cand = roots - step
        cand_val = _horner(poly, cand)
        better = np.abs(cand_val) <= np.abs(val)
        roots = np.where(better, cand, roots)
        # p at the kept roots, without evaluating it there again
        val = np.where(better, cand_val, val)
    return roots


def _eliminate(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting for tiny extended systems.

    LAPACK has no extended-precision path, and at high map conditioning a
    double-precision solve wrecks the Newton step; the systems here are at
    most 10 x 10, so hand elimination costs nothing.
    """
    A = A.copy()
    b = b.copy()
    n = b.size
    for k in range(n):
        p = k + int(np.abs(A[k:, k]).argmax())
        if A[p, k] == 0:
            raise np.linalg.LinAlgError("singular Newton system")
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = A[k + 1:, k] / A[k, k]
        A[k + 1:, k:] -= factors[:, None] * A[k, k:]
        b[k + 1:] -= factors * b[k]
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1:] @ x[k + 1:]) / A[k, k]
    return x


def _moment_newton(real: np.ndarray, c: np.ndarray, gamma: np.ndarray, s: float):
    """Refine (weights, atoms) against the scaled moment equations.

    The Hankel solve loses digits as its condition number grows even when
    the moment problem itself is well posed. Newton iteration on the full
    moment system restores them, run entirely in extended precision: the
    conditioning amplifies residual-evaluation noise, step-solve noise and
    data-scaling noise by the same factor as data noise, so any double
    rounding inside the loop (including forming the scaled moments) would
    stall well short of the attainable accuracy. Steps that do not reduce
    the residual are rejected.
    """
    L = real.size
    ells = np.arange(gamma.size, dtype=np.longdouble)[:, None]
    g_ext = gamma.astype(np.longdouble) / np.longdouble(s) ** ells[:, 0]
    x_real = real.astype(np.longdouble)
    x_c = c.astype(np.longdouble)
    resid = (x_real[None, :] ** ells) @ x_c - g_ext
    scale = 1.0 + float(np.abs(real).max())
    for _ in range(12):
        powers = x_real[None, :] ** ells
        dpow = ells * x_real[None, :] ** np.maximum(ells - 1, 0)
        jac = np.concatenate([powers, dpow * x_c[None, :]], axis=1)
        try:
            step = _eliminate(jac, resid)
        except np.linalg.LinAlgError:
            break
        c_new, real_new = x_c - step[:L], x_real - step[L:]
        resid_new = (real_new[None, :] ** ells) @ c_new - g_ext
        if np.abs(resid_new).max() >= np.abs(resid).max():
            break
        x_c, x_real, resid = c_new, real_new, resid_new
        if np.abs(step).max() <= 1e-15 * scale:
            break
    order = np.argsort(x_real)
    return (x_real[order].astype(np.float64), x_c[order].astype(np.float64))


def _check_roots(roots: np.ndarray, project: bool):
    """Feasibility screen; returns real ascending roots."""
    big_imag = np.abs(roots.imag) > _IMAG_RTOL * (1.0 + np.abs(roots))
    if np.any(big_imag) and not project:
        raise InvalidRootsError(
            f"recovered roots have imaginary parts up to "
            f"{np.abs(roots.imag).max():.3e}; moment vector is infeasible"
        )
    real = np.sort(roots.real)
    if real[0] <= 0:
        if not project:
            raise InvalidRootsError(
                f"recovered roots include non-positive value {real[0]:.6e}"
            )
        real = np.maximum(real, 1e-10)
    return real


def _check_gaps(values: np.ndarray, project: bool):
    if values.size < 2:
        return
    gaps = np.diff(values) / np.maximum(np.abs(values[1:]), np.abs(values[:-1]))
    if gaps.min() <= _GAP_RTOL and not project:
        raise InvalidRootsError(
            f"recovered roots nearly coincide (relative gap {gaps.min():.3e})"
        )


def _reconstruction(
    rho: np.ndarray, c: np.ndarray, gamma: NDArray[np.float64]
) -> NDArray[np.float64]:
    powers = rho[None, :] ** np.arange(gamma.size)[:, None]
    return np.abs(powers @ c - gamma)


def invert_moments(gamma_hat, L: int | None = None, project: bool = False) -> EstimationResult:
    """Full inversion: L atoms and L weights from gamma_0..gamma_{2L-1}.

    The atoms are companion-matrix roots of the Hankel-system polynomial,
    Newton-polished against that polynomial. Infeasible root configurations
    (complex, non-positive or coincident) raise unless ``project`` is set,
    in which case real parts are clipped and sorted and the result is
    flagged. A scaled Hankel condition number above 1e12 raises
    ConditioningError.
    """
    if isinstance(gamma_hat, MomentEstimates) and L is None:
        L = gamma_hat.gamma_hat.size // 2
    if L is None:
        L = np.asarray(gamma_hat).size // 2
    if L < 1:
        raise InputError("L must be at least 1")
    gamma = _gamma_array(gamma_hat, 2 * L)[: 2 * L]
    s = _moment_scale(gamma)
    g = gamma / s ** np.arange(2 * L)

    # both Hankel matrices, scaled and unscaled, index the moments by i + j
    index = np.add.outer(np.arange(L), np.arange(L))
    G = g[index]
    b = g[L : 2 * L]
    cond = float(np.linalg.cond(G))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ConditioningError(
            f"Hankel system condition {cond:.3e} exceeds 1e12", cond=cond
        )
    coeffs = np.linalg.solve(G, -b)  # coeffs[i] multiplies X^i

    poly = np.concatenate([[1.0], coeffs[::-1]])
    roots = _polish_roots(poly, np.roots(poly))
    real = _check_roots(roots, project)
    _check_gaps(real, project)
    projected = bool(
        np.any(np.abs(roots.imag) > _IMAG_RTOL * (1.0 + np.abs(roots)))
        or np.any(np.sort(roots.real) != real)
    )

    vand = real[None, :] ** np.arange(L)[:, None]
    if project:
        c, *_ = np.linalg.lstsq(vand, g[:L], rcond=None)
    else:
        c = np.linalg.solve(vand, g[:L])
    if np.any(c < -_WEIGHT_SLACK) or np.any(c > 1.0 + _WEIGHT_SLACK):
        if not project:
            raise InvalidWeightsError(
                f"weights {c} fall outside [-0.05, 1.05]"
            )
        c = np.clip(c, 0.0, 1.0)
        c = c / c.sum() if c.sum() > 0 else np.full(L, 1.0 / L)
        projected = True

    if not projected:
        real, c = _moment_newton(real, c, gamma, s)
    poly_res = np.abs(_horner(poly, real))
    rho = real * s
    system = HankelSystem(
        Gamma=gamma[index],
        b=gamma[L : 2 * L],
        s=np.poly(rho)[1:][::-1],
        cond=cond,
    )
    return EstimationResult(
        rho_hat=rho,
        c_hat=c,
        cond_gamma=cond,
        poly_residuals=poly_res,
        weight_residuals=_reconstruction(rho, c, gamma),
        method="moment_full",
        projected=projected and project,
        hankel=system,
    )


def _integer_multiset(weights: np.ndarray, max_denominator: int = 24):
    """Smallest integer counts n_i with n_i / sum(n) = weights."""
    fracs = [Fraction(float(w)).limit_denominator(max_denominator) for w in weights]
    denom = 1
    for f in fracs:
        denom = lcm(denom, f.denominator)
    counts = []
    for w, f in zip(weights, fracs):
        n = round(float(w) * denom)
        if abs(float(w) * denom - n) > 1e-9 * denom or n < 1:
            raise InvalidWeightsError(
                f"weight {float(w)!r} is not a rational with denominator "
                f"<= {max_denominator}"
            )
        counts.append(n)
    g = 0
    for n in counts:
        g = gcd(g, n)
    counts = [n // g for n in counts]
    total = sum(counts)
    if total > max_denominator:
        raise InvalidWeightsError(
            f"reduced multiset size {total} exceeds {max_denominator}"
        )
    return counts, total


def invert_moments_known_multiplicities(
    gamma_hat, weights, project: bool = False
) -> EstimationResult:
    """Atom recovery when the weights are known exactly.

    The weights are reduced to the smallest integer multiset (n_1..n_L with
    sum d), whose power sums are p_k = d * gamma_k; Newton-Girard recursion
    turns those into elementary symmetric polynomials, the degree-d
    polynomial is solved, and each atom is the mean of its block of d roots.
    Only gamma_1..gamma_d are consumed, so equal weights need exactly L
    estimated moments.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise InputError("weights must be a 1-D array")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
        raise InvalidWeightsError("weights must be positive and sum to one")
    counts, d = _integer_multiset(w)
    gamma = _gamma_array(gamma_hat, d + 1)
    s = _moment_scale(gamma[: d + 1])
    p = d * gamma[1 : d + 1] / s ** np.arange(1, d + 1)

    e = np.zeros(d + 1)
    e[0] = 1.0
    for k in range(1, d + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (-1.0) ** (j - 1) * e[k - j] * p[j - 1]
        e[k] = acc / k
    coeffs = e * (-1.0) ** np.arange(d + 1)  # descending: X^d, X^(d-1), ...

    roots = np.roots(coeffs)
    # a multiplicity-m root comes back as a cluster splayed by eps^(1/m),
    # with spurious imaginary parts; its centroid is first-order accurate,
    # so blocks are averaged before any feasibility screening
    blocks = np.split(roots[np.argsort(roots.real)], np.cumsum(counts)[:-1])
    centers = np.array([blk.mean() for blk in blocks])
    rho_scaled = _check_roots(centers, project)
    _check_gaps(rho_scaled, project)

    rho = rho_scaled * s
    poly_res = np.abs(_horner(coeffs, rho_scaled))
    return EstimationResult(
        rho_hat=rho,
        c_hat=w.copy(),
        cond_gamma=float("nan"),
        poly_residuals=poly_res,
        weight_residuals=_reconstruction(rho, w, gamma[: d + 1]),
        method="moment_known_mult",
        projected=project
        and bool(
            np.any(np.abs(centers.imag) > _IMAG_RTOL * (1.0 + np.abs(centers)))
            or np.any(centers.real != rho_scaled)
        ),
    )
