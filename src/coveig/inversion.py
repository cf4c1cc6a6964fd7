"""Recovering distinct eigenvalues and weights from moment estimates.

The moments gamma_0..gamma_{2L-1} of an L-atom measure determine it: the
atoms are the roots of the monic polynomial whose coefficients solve the
L x L Hankel system, and the weights follow from a Vandermonde solve.
Unless a projection moves them, the companion-matrix roots and the weights
are then refined once, by Newton iteration on the full moment system as
mixed-precision iterative refinement: the iterate and its residual are
extended precision, and each step is solved in double. When the
multiplicities are known in advance, the atoms come instead from
Newton-Girard recursion on the power sums of the smallest integer multiset
realizing the weights.

Both routes internally rescale the measure by s = max |gamma_ell|^(1/ell)
so the linear algebra runs near unit scale; atoms are scaled back at the
end. Reported condition numbers refer to the scaled systems.

Both routes are row kernels, `invert_rows` and `invert_known_rows`, over a
(T, K) stack of moment vectors, so that a block of Monte Carlo trials pays
numpy's per-call overhead once; `invert_moments` and
`invert_moments_known_multiplicities` are their one-row calls. Each row of
a block equals that call bit for bit, or carries the class and message of
the error it raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
# the largest multiset the known weights may reduce to
_MAX_DENOMINATOR = 24


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
    weight_residuals: NDArray[np.float64]
    method: str
    projected: bool = False
    hankel: HankelSystem | None = None


@dataclass(frozen=True)
class InversionRows:
    """A row kernel's output: the fields of EstimationResult, one row per
    moment vector of the stack, and per row None or the error the one-row
    call raises. The rows of an error are undefined."""

    rho_hat: NDArray[np.float64]
    c_hat: NDArray[np.float64]
    cond_gamma: NDArray[np.float64]
    weight_residuals: NDArray[np.float64]
    projected: NDArray[np.bool_]
    errors: list


def _moment_vector(gamma_hat) -> NDArray[np.float64]:
    if isinstance(gamma_hat, MomentEstimates):
        gamma_hat = gamma_hat.gamma_hat
    return np.asarray(gamma_hat, dtype=float)


def _drop(errors: list, live: np.ndarray, bad: np.ndarray, make, *arrays):
    """The live rows, and the same rows of each array, without those where
    bad holds; each dropped row gets the error make(t), t its index in
    live. When no row is bad, one test is all this costs."""
    if not bad.any():
        return (live, *arrays)
    for t in np.flatnonzero(bad):
        errors[live[t]] = make(t)
    keep = ~bad
    return (live[keep], *(a[keep] for a in arrays))


def _checked_rows(gamma, need: int):
    """The input screen of a (T, K) moment stack.

    A malformed stack raises; otherwise returns (gamma, errors, live)
    with the errors of rows that are non-finite or have gamma_0 != 1, and
    the indices of the other rows.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[1] < need:
        raise InputError(
            f"need at least {need} moments, got shape {gamma.shape[1:]}")
    errors = [None] * gamma.shape[0]
    finite = np.isfinite(gamma).all(axis=1)
    ok = finite & (np.abs(gamma[:, 0] - 1.0) <= 1e-9)
    live = np.flatnonzero(ok)
    if live.size < len(errors):
        for t in np.flatnonzero(~ok):
            errors[t] = (InputError(f"gamma_0 must be 1, got {gamma[t, 0]!r}")
                         if finite[t] else
                         InputError("moments contain non-finite values"))
    return gamma, errors, live


def _moment_scale(gamma: NDArray[np.float64], errors: list, live):
    """Per row s = max |gamma_ell|^(1/ell) of the live rows of a (T, K)
    stack; returns (live, s, gamma[live]) without the rows whose moments
    beyond gamma_0 all vanish, or whose (K - 1) s^(K - 1) overflows: s^ell
    scales order ell, and the known-multiplicity route's power sums are
    (K - 1) gamma_ell."""
    if live.size < gamma.shape[0]:
        gamma = gamma[live]
    top = gamma.shape[1] - 1
    mags = np.abs(gamma[:, 1:]) ** (1.0 / np.arange(1, top + 1))
    s = mags.max(axis=1, initial=0.0)
    with np.errstate(over="ignore"):
        bad = (s == 0.0) | ~np.isfinite(top * s ** top)
    return _drop(errors, live, bad, lambda t: InputError(
        f"moment scale {s[t]:.3e} overflows at order {top}" if s[t] else
        "all moments beyond gamma_0 vanish"), s, gamma)


def _roots(poly: np.ndarray) -> np.ndarray:
    """np.roots of every row of a (T, d + 1) stack of monic polynomials,
    as complex (T, d) roots.

    The companion matrices are one stacked eigvals call; a row with a zero
    constant term goes through np.roots, which deflates it.
    """
    d = poly.shape[1] - 1
    zero = poly[:, -1] == 0
    deflate = zero.any()
    full = ~zero if deflate else slice(None)
    # np.roots' companion matrix: ones below the diagonal, the scaled
    # coefficients in the first row
    A = np.zeros((poly[full].shape[0], d, d))
    A.reshape(-1, d * d)[:, d::d + 1] = 1.0
    A[:, 0, :] = -poly[full, 1:] / poly[full, :1]
    roots = np.empty((poly.shape[0], d), dtype=complex)
    roots[full] = np.linalg.eigvals(A)
    if deflate:
        for t in np.flatnonzero(zero):
            roots[t] = np.roots(poly[t])
    return roots


def _newton_steps(jac: np.ndarray, resid: np.ndarray):
    """The steps J^-1 r of a (T, n, n) stack of Jacobians and a (T, n)
    stack of residuals, in double, by one stacked LAPACK solve; a singular
    system fails only its own row, whose step is zero. Returns (steps,
    solved)."""
    jac = jac.astype(np.float64)
    resid = resid.astype(np.float64)[..., None]
    try:
        return (np.linalg.solve(jac, resid)[..., 0],
                np.ones(jac.shape[0], dtype=bool))
    except np.linalg.LinAlgError:
        steps = np.zeros(resid.shape[:2])
        solved = np.zeros(jac.shape[0], dtype=bool)
        for t in range(jac.shape[0]):
            try:
                steps[t] = np.linalg.solve(jac[t], resid[t])[:, 0]
                solved[t] = True
            except np.linalg.LinAlgError:
                pass
        return steps, solved


def _moment_newton(real: np.ndarray, c: np.ndarray, gamma: np.ndarray, s):
    """Refine (weights, atoms) against the scaled moment equations.

    The Hankel solve loses digits as its condition number grows even when
    the moment problem itself is well posed. Newton iteration on the full
    moment system restores them. It is mixed-precision iterative
    refinement (Moler 1967; Higham 2002, ch. 12): the scaled moments, the
    iterate and the residual are extended precision, and each step is
    solved in double by LAPACK. The step's rounding, about cond(J) eps per
    iteration, only sets how fast the error contracts; the extended
    residual sets where it ends, so a double residual, iterate or scaled
    moment would stall well short of the attainable accuracy. A step is
    accepted only when it makes the residual smaller, and a row stops at
    its first rejected, singular or negligible step. Rows are (T, L) real
    and c, (T, 2L) gamma and (T,) s; each row runs its own iteration. The
    powers of the atoms that a residual was evaluated on are kept for the
    next Jacobian.
    """
    T, L = real.shape
    ells = np.arange(gamma.shape[1], dtype=np.longdouble)[:, None]
    lower = np.maximum(ells - 1, 0)
    g_ext = (gamma.astype(np.longdouble)
             / s.astype(np.longdouble)[:, None] ** ells[:, 0])
    x_real = real.astype(np.longdouble)
    x_c = c.astype(np.longdouble)
    x_pow = x_real[:, None, :] ** ells
    resid = (x_pow @ x_c[..., None])[..., 0] - g_ext
    scale = 1.0 + np.abs(real).max(axis=1)
    live = np.arange(T)
    for _ in range(12):
        xr, xc, r = x_real[live], x_c[live], resid[live]
        # the step (dc, dx) solves J step = r, J = [x^l, l c x^(l-1)]
        dpow = ells * xr[:, None, :] ** lower
        step, solved = _newton_steps(
            np.concatenate([x_pow[live], dpow * xc[:, None, :]], axis=2), r)
        # an unsolved row's step is zero; it stops with the rejected ones
        c_new = xc - step[:, :L]
        real_new = xr - step[:, L:]
        pow_new = real_new[:, None, :] ** ells
        resid_new = (pow_new @ c_new[..., None])[..., 0] - g_ext[live]
        better = solved & (np.abs(resid_new).max(axis=1)
                           < np.abs(r).max(axis=1))
        live, step = live[better], step[better]
        x_c[live], x_real[live], x_pow[live], resid[live] = (
            c_new[better], real_new[better], pow_new[better],
            resid_new[better])
        live = live[~(np.abs(step).max(axis=1) <= 1e-15 * scale[live])]
        if not live.size:
            break
    order = np.argsort(x_real, axis=1)
    return (np.take_along_axis(x_real, order, axis=1).astype(np.float64),
            np.take_along_axis(x_c, order, axis=1).astype(np.float64))


def _check_roots(roots: np.ndarray, project: bool, errors: list, live,
                 *arrays):
    """Feasibility screen of a (T, d) stack of roots: imaginary parts, sign
    and gaps. Returns (live, real, roots, *arrays) for the rows that pass,
    real their real parts ascending; a projection clips non-positive roots
    instead and passes every row."""
    real = np.sort(roots.real, axis=1)
    if project:
        clip = real[:, 0] <= 0
        if clip.any():
            real[clip] = np.maximum(real[clip], 1e-10)
        return (live, real, roots, *arrays)
    imaginary = (np.abs(roots.imag)
                 > _IMAG_RTOL * (1.0 + np.abs(roots))).any(axis=1)
    negative = real[:, 0] <= 0
    # relative gaps of neighbours; a row failing the screens above may
    # divide 0 by 0 here, and takes their error instead
    with np.errstate(invalid="ignore", divide="ignore"):
        low = ((real[:, 1:] - real[:, :-1]) / np.maximum(
            np.abs(real[:, 1:]), np.abs(real[:, :-1]))).min(
                axis=1, initial=np.inf)

    def error(t):
        if imaginary[t]:
            return InvalidRootsError(
                f"recovered roots have imaginary parts up to "
                f"{np.abs(roots[t].imag).max():.3e}; moment vector is "
                "infeasible")
        if negative[t]:
            return InvalidRootsError(
                f"recovered roots include non-positive value {real[t, 0]:.6e}")
        return InvalidRootsError(
            f"recovered roots nearly coincide (relative gap {low[t]:.3e})")

    return _drop(errors, live, imaginary | negative | (low <= _GAP_RTOL),
                 error, real, roots, *arrays)


def _reconstruction(
    rho: np.ndarray, c: np.ndarray, gamma: NDArray[np.float64]
) -> NDArray[np.float64]:
    """|moments of the atoms rho with weights c - gamma| per row: rho (T, L),
    c (T, L) or one (L,) for all rows, gamma (T, K)."""
    powers = rho[:, None, :] ** np.arange(gamma.shape[1])[:, None]
    return np.abs((powers @ c[..., None])[..., 0] - gamma)


def _empty_rows(T: int, L: int, K: int, errors: list) -> InversionRows:
    """NaN rows of every field, none projected, for a stack of T."""
    return InversionRows(np.full((T, L), np.nan), np.full((T, L), np.nan),
                         np.full(T, np.nan), np.full((T, K), np.nan),
                         np.zeros(T, dtype=bool), errors)


def invert_rows(gamma, L: int, project: bool = False) -> InversionRows:
    """Full inversion of a (T, K) stack of moment vectors, K >= 2L.

    The row kernel of `invert_moments`, which is its one-row call; every
    row equals that call bit for bit. The screens run on the rows still
    live: input, Hankel condition, roots, gaps, weights; the Newton
    refinement runs on the rows not projected. The linear algebra is
    stacked (`cond`, `solve`, `eigvals`), except `lstsq`, which cannot
    take stacks, for projected weights. A screen that no row fails costs
    one test, so a small stack pays little more than its arithmetic.
    """
    if L < 1:
        raise InputError("L must be at least 1")
    gamma, errors, live = _checked_rows(gamma, 2 * L)
    gamma = gamma[:, :2 * L]
    out = _empty_rows(gamma.shape[0], L, 2 * L, errors)
    live, s, gamma = _moment_scale(gamma, errors, live)
    if not live.size:
        return out
    g = gamma / s[:, None] ** np.arange(2 * L)

    # both Hankel matrices, scaled and unscaled, index the moments by i + j
    hankel = g[:, np.add.outer(np.arange(L), np.arange(L))]
    # np.linalg.cond's ratio of extreme singular values; gamma_0 = 1 keeps
    # the largest one positive, so the ratio is never 0 / 0
    singular = np.linalg.svd(hankel, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = singular[:, 0] / singular[:, -1]
    out.cond_gamma[live] = cond
    live, s, gamma, g, hankel = _drop(
        errors, live, ~np.isfinite(cond) | (cond > _COND_LIMIT),
        lambda t: ConditioningError(
            f"Hankel system condition {cond[t]:.3e} exceeds 1e12",
            cond=float(cond[t])), s, gamma, g, hankel)
    if not live.size:
        return out
    # coeffs[:, i] multiplies X^i
    coeffs = np.linalg.solve(hankel, -g[:, L:2 * L, None])[..., 0]
    poly = np.concatenate([np.ones((live.size, 1)), coeffs[:, ::-1]], axis=1)
    live, real, roots, s, gamma, g = _check_roots(
        _roots(poly), project, errors, live, s, gamma, g)
    if not live.size:
        return out

    vand = real[:, None, :] ** np.arange(L)[:, None]
    if project:
        # rows whose real roots are not the roots: imaginary parts beyond
        # tolerance, or a clipped root
        moved = ((np.abs(roots.imag) > _IMAG_RTOL * (1.0 + np.abs(roots)))
                 | (np.sort(roots.real, axis=1) != real)).any(axis=1)
        c = np.stack([np.linalg.lstsq(v, gt[:L], rcond=None)[0]
                      for v, gt in zip(vand, g)])
    else:
        c = np.linalg.solve(vand, g[:, :L, None])[..., 0]
    outside = ((c < -_WEIGHT_SLACK) | (c > 1.0 + _WEIGHT_SLACK)).any(axis=1)
    if project:
        # clipped onto [0, 1] and renormalized; equal weights where none
        # is left
        clipped = np.clip(c[outside], 0.0, 1.0)
        total = clipped.sum(axis=1, keepdims=True)
        c[outside] = np.divide(clipped, total, where=total > 0,
                               out=np.full_like(clipped, 1.0 / L))
        moved |= outside
        newton = ~moved
        if newton.any():
            real[newton], c[newton] = _moment_newton(
                real[newton], c[newton], gamma[newton], s[newton])
        out.projected[live] = moved
    else:
        # without a projection no row moved, so every row is refined
        live, s, gamma, real, c = _drop(
            errors, live, outside, lambda t: InvalidWeightsError(
                f"weights {c[t]} fall outside [-0.05, 1.05]"),
            s, gamma, real, c)
        if not live.size:
            return out
        real, c = _moment_newton(real, c, gamma, s)
    rho = real * s[:, None]
    out.rho_hat[live] = rho
    out.c_hat[live] = c
    out.weight_residuals[live] = _reconstruction(rho, c, gamma)
    return out


def invert_moments(gamma_hat, L: int | None = None, project: bool = False) -> EstimationResult:
    """Full inversion: L atoms and L weights from gamma_0..gamma_{2L-1}.

    The atoms are companion-matrix roots of the Hankel-system polynomial,
    refined with the weights by Newton iteration on the moment equations.
    Infeasible root configurations (complex, non-positive or coincident)
    raise unless ``project`` is set, in which case real parts are clipped
    and sorted and the result is flagged, and the Newton step is skipped.
    A scaled Hankel condition number above 1e12 raises ConditioningError.
    This is the one-row call of `invert_rows`.
    """
    gamma = _moment_vector(gamma_hat)
    L = gamma.size // 2 if L is None else L
    rows = invert_rows(gamma[None], L, project)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    gamma = gamma[: 2 * L]
    rho = rows.rho_hat[0]
    index = np.add.outer(np.arange(L), np.arange(L))
    cond = float(rows.cond_gamma[0])
    return EstimationResult(
        rho_hat=rho,
        c_hat=rows.c_hat[0],
        cond_gamma=cond,
        weight_residuals=rows.weight_residuals[0],
        method="moment_full",
        projected=bool(rows.projected[0]),
        hankel=HankelSystem(
            Gamma=gamma[index],
            b=gamma[L : 2 * L],
            s=np.poly(rho)[1:][::-1],
            cond=cond,
        ),
    )


@lru_cache(maxsize=64)
def _integer_multiset(weights: tuple):
    """Smallest integer counts n_i with n_i / sum(n) = weights, a tuple of
    floats; returns (counts, sum(counts)). A run passes the same weights
    for every block of trials, so the answer is kept."""
    fracs = [Fraction(w).limit_denominator(_MAX_DENOMINATOR)
             for w in weights]
    denom = 1
    for f in fracs:
        denom = lcm(denom, f.denominator)
    counts = []
    for w in weights:
        n = round(w * denom)
        if abs(w * denom - n) > 1e-9 * denom or n < 1:
            raise InvalidWeightsError(
                f"weight {w!r} is not a rational with denominator "
                f"<= {_MAX_DENOMINATOR}"
            )
        counts.append(n)
    g = 0
    for n in counts:
        g = gcd(g, n)
    counts = tuple(n // g for n in counts)
    total = sum(counts)
    if total > _MAX_DENOMINATOR:
        raise InvalidWeightsError(
            f"reduced multiset size {total} exceeds {_MAX_DENOMINATOR}"
        )
    return counts, total


def invert_known_rows(gamma, weights, project: bool = False) -> InversionRows:
    """Known-multiplicity inversion of a (T, K) stack of moment vectors.

    The row kernel of `invert_moments_known_multiplicities`, which is its
    one-row call; every row equals that call bit for bit. The weights, and
    so the integer multiset, are the same for every row: invalid weights
    raise for the whole stack. Each row needs K >= d + 1 moments.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise InputError("weights must be a 1-D array")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
        raise InvalidWeightsError("weights must be positive and sum to one")
    counts, d = _integer_multiset(tuple(w.tolist()))
    L = w.size
    gamma, errors, live = _checked_rows(gamma, d + 1)
    T = gamma.shape[0]
    gamma = gamma[:, : d + 1]
    out = _empty_rows(T, L, d + 1, errors)
    out.c_hat[:] = w
    live, s, gamma = _moment_scale(gamma, errors, live)
    if not live.size:
        return out
    p = d * gamma[:, 1:] / s[:, None] ** np.arange(1, d + 1)

    # Newton-Girard: power sums to elementary symmetric polynomials
    e = np.zeros((live.size, d + 1))
    e[:, 0] = 1.0
    for k in range(1, d + 1):
        acc = np.zeros(live.size)
        for j in range(1, k + 1):
            acc += (-1.0) ** (j - 1) * e[:, k - j] * p[:, j - 1]
        e[:, k] = acc / k
    coeffs = e * (-1.0) ** np.arange(d + 1)  # descending: X^d, X^(d-1), ...

    roots = _roots(coeffs)
    # a multiplicity-m root comes back as a cluster splayed by eps^(1/m),
    # with spurious imaginary parts; its centroid is first-order accurate,
    # so blocks are averaged before any feasibility screening
    roots = np.take_along_axis(roots, np.argsort(roots.real, axis=1), axis=1)
    ends = np.cumsum(counts)
    centers = np.stack(
        [roots[:, a:b].mean(axis=1) for a, b in zip(ends - counts, ends)],
        axis=1)
    live, rho_scaled, centers, s, gamma = _check_roots(
        centers, project, errors, live, s, gamma)

    rho = rho_scaled * s[:, None]
    out.rho_hat[live] = rho
    out.weight_residuals[live] = _reconstruction(rho, w, gamma)
    if project:
        out.projected[live] = (
            np.any(np.abs(centers.imag)
                   > _IMAG_RTOL * (1.0 + np.abs(centers)), axis=1)
            | np.any(centers.real != rho_scaled, axis=1))
    return out


def invert_moments_known_multiplicities(
    gamma_hat, weights, project: bool = False
) -> EstimationResult:
    """Atom recovery when the weights are known exactly.

    The weights are reduced to the smallest integer multiset (n_1..n_L with
    sum d), whose power sums are p_k = d * gamma_k; Newton-Girard recursion
    turns those into elementary symmetric polynomials, the degree-d
    polynomial is solved, and each atom is the mean of its block of d roots.
    Only gamma_1..gamma_d are consumed, so equal weights need exactly L
    estimated moments. This is the one-row call of `invert_known_rows`.
    """
    rows = invert_known_rows(_moment_vector(gamma_hat)[None], weights, project)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    return EstimationResult(
        rho_hat=rows.rho_hat[0],
        c_hat=rows.c_hat[0],
        cond_gamma=float("nan"),
        weight_residuals=rows.weight_residuals[0],
        method="moment_known_mult",
        projected=bool(rows.projected[0]),
    )
