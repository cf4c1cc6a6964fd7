"""Closed integration contours in the complex plane.

Everything here is a counterclockwise ellipse centered on the real axis,
given as its (center, half_width, half_height) and discretized by the
periodic trapezoid rule with nodes offset off the real axis, which
converges geometrically for integrands analytic in a neighborhood of the
curve (Trefethen & Weideman 2014, SIAM Review 56(3)). The nodes below
the real axis are the exact conjugates of those above it, so a quadrature
whose integrand is real on the real axis evaluates it on the upper half
only, and `mirrored_sums`, the one place that knows the mirror, sums that
half as the whole rule and as the embedded half rule. The moment
quadrature integrates on `spectrum_ellipse`, the CLT quadrature on one
`cluster_ellipse` per support cluster; Mestre's crossing ellipses are
built in `mestre._contour_rows`.

No moment or CLT integrand is singular at the origin: where the companion
transform has a pole there (M > N) its reciprocal vanishes, and otherwise
the transform is finite and positive there. So the ellipse around the
whole spectrum, and the one around the first support cluster, cross the
negative real axis instead of squeezing between zero and the smallest
eigenvalue; that keeps them admissible at N = M and short on nodes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContourError, InputError

__all__ = ["ellipse_nodes", "mirrored_sums", "spectrum_ellipse",
           "cluster_ellipse"]


@lru_cache(maxsize=8)
def _half_circle(nodes: int):
    """(cos, sin) of the upper half of the offset angles of a rule of nodes
    nodes, read-only: every call of `ellipse_nodes` at that count shares
    them."""
    if nodes < 2 or nodes % 2:
        raise InputError(f"need an even positive node count, got {nodes}")
    theta = 2.0 * np.pi * (np.arange(nodes // 2) + 0.5) / nodes
    cos, sin = np.cos(theta), np.sin(theta)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def ellipse_nodes(center, half_width, half_height, nodes: int):
    """Nodes and complex weights of the trapezoid rule on ellipses.

    sum(f(points) * dz) approximates the counterclockwise contour integral
    of f. The node axis comes last and the parameters broadcast against it:
    scalars give one ellipse, (T, 1) arrays a (T, nodes) stack whose row t
    lies on ellipse t. nodes must be even. The half-step offset keeps every
    node strictly off the real axis, and the lower half is the exact mirror
    of the upper: points[..., K-1-j] = conj(points[..., j]) and
    dz[..., K-1-j] = -conj(dz[..., j]) for j < K/2, K = nodes, so an
    integrand with f(conj z) = conj(f(z)) needs evaluating on the upper
    half only (`mirrored_sums`).
    """
    cos, sin = _half_circle(nodes)
    upper = center + half_width * cos + 1j * half_height * sin
    step = (-half_width * sin + 1j * half_height * cos) * (2.0 * np.pi / nodes)
    points = np.concatenate([upper, upper[..., ::-1].conj()], axis=-1)
    dz = np.concatenate([step, -step[..., ::-1].conj()], axis=-1)
    return points, dz


def mirrored_sums(terms, axis: int = -1):
    """(full, half): the sums of the trapezoid rule of `ellipse_nodes` and
    of its embedded half rule, every other node at twice the weight, for
    an integrand with f(conj z) = conj(f(z)), from its terms f dz at the
    upper half of the nodes along axis. A lower node's term is minus the
    conjugate of its mirror's, so the full sum is 2i Im of the upper sum,
    real integrals by construction; the even nodes are the upper even ones
    and the mirrors of the upper odd ones."""
    terms = np.moveaxis(terms, axis, -1)
    full = 2j * terms.sum(axis=-1).imag
    half = 2.0 * (terms[..., ::2].sum(axis=-1)
                  - terms[..., 1::2].sum(axis=-1).conj())
    return full, half


def spectrum_ellipse(lambda_max):
    """(center, half_width, half_height) of the moment quadrature's ellipse
    for the largest eigenvalue lambda_max, a scalar or an array of them.

    It crosses the real axis at -0.3 and 1.3 times lambda_max, with
    half-height 0.56 times it, so it encloses the origin, every positive
    eigenvalue and every positive secular root, which interlace the
    eigenvalues.
    """
    return 0.5 * lambda_max, 0.8 * lambda_max, 0.56 * lambda_max


def cluster_ellipse(clusters, k: int):
    """(center, half_width, half_height) of an ellipse around cluster k
    only, clear of its neighbors.

    The first cluster's ellipse also encloses the origin, which is no
    singularity of the CLT integrands: it crosses the negative axis at
    -0.3 times the cluster's right end, so a support that starts at or near
    the origin (N close to M) stays well inside it.
    """
    lo, hi = clusters[k]
    x0 = -0.3 * hi if k == 0 else lo - 0.35 * (lo - clusters[k - 1][1])
    right_gap = clusters[k + 1][0] - hi if k + 1 < len(clusters) else 0.6 * hi
    x1 = hi + 0.35 * right_gap
    if x0 >= lo or x1 <= hi:
        raise ContourError("clusters overlap; cannot isolate one")
    a = 0.5 * (x1 - x0)
    # geometric mean of clearance and semi-axis balances the analyticity
    # margin above and below the real axis against the curve length
    b = np.sqrt(max(min(lo - x0, x1 - hi), 1e-12 * a) * a)
    return 0.5 * (x0 + x1), a, min(max(b, 0.02 * a), 0.75 * a)
