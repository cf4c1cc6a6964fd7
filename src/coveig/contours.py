"""Closed integration contours in the complex plane.

Everything here is a counterclockwise ellipse centered on the real axis,
discretized by the periodic trapezoid rule with nodes offset off the real
axis, which converges geometrically for integrands analytic in a
neighborhood of the curve.

No moment or CLT integrand is singular at the origin: where the companion
transform has a pole there (M > N) its reciprocal vanishes, and otherwise
the transform is finite and positive there. So the ellipse around the
whole spectrum, and the one around the first support cluster, cross the
negative real axis instead of squeezing between zero and the smallest
eigenvalue; that keeps them admissible at N = M and short on nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .errors import ContourError

__all__ = [
    "Contour",
    "spectrum_contour",
    "cluster_contours",
]

# node count spectrum_contour starts the moment quadrature at
SPECTRUM_NODES = 128


@dataclass(frozen=True)
class Contour:
    """Closed curve around an interval of the real axis.

    An ellipse: half_width and half_height are the semi-axes around the
    real center, and the curve runs counterclockwise.
    """

    center: float
    half_width: float
    half_height: float
    nodes: int

    def __post_init__(self):
        if self.half_width <= 0 or self.half_height <= 0:
            raise ContourError("contour extents must be positive")
        if self.nodes < 16:
            raise ContourError("need at least 16 quadrature nodes")

    def points(self) -> NDArray[np.complex128]:
        return ellipse_nodes(self.center, self.half_width, self.half_height,
                             self.nodes)[0]

    def dz(self) -> NDArray[np.complex128]:
        """Complex quadrature weights: sum(f(points) * dz) approximates the
        counterclockwise contour integral of f."""
        return ellipse_nodes(self.center, self.half_width, self.half_height,
                             self.nodes)[1]

    def contains_real(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.abs(x - self.center) < self.half_width

    def with_nodes(self, nodes: int) -> "Contour":
        return replace(self, nodes=int(nodes))


def ellipse_nodes(center, half_width, half_height, nodes: int):
    """Nodes and complex weights of the trapezoid rule on ellipses.

    The node axis comes last and the parameters broadcast against it:
    scalars give one ellipse, (T, 1) arrays a (T, nodes) stack whose row t
    lies on ellipse t. The half-step offset keeps every node strictly off
    the real axis and the node set symmetric under conjugation.
    """
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    cos, sin = np.cos(theta), np.sin(theta)
    points = center + half_width * cos + 1j * half_height * sin
    dz = (-half_width * sin + 1j * half_height * cos) * (2.0 * np.pi / nodes)
    return points, dz


def spectrum_ellipse(lambda_max):
    """(center, half_width, half_height) of `spectrum_contour`'s ellipse for
    the largest eigenvalue lambda_max, a scalar or an array of them."""
    return 0.5 * lambda_max, 0.8 * lambda_max, 0.56 * lambda_max


def _ellipse(x0: float, x1: float, clearance: float, nodes: int) -> Contour:
    center = 0.5 * (x0 + x1)
    a = 0.5 * (x1 - x0)
    # geometric mean of clearance and semi-axis balances the analyticity
    # margin above and below the real axis against the curve length
    b = np.sqrt(max(clearance, 1e-12 * a) * a)
    b = min(max(b, 0.02 * a), 0.75 * a)
    return Contour(center, a, b, nodes)


def spectrum_contour(spectrum, nodes: int = SPECTRUM_NODES) -> Contour:
    """Ellipse enclosing the origin, every positive sample eigenvalue and
    every positive secular root.

    It crosses the real axis at -0.3 and 1.3 times the largest eigenvalue,
    with half-height 0.56 times it. The secular roots interlace the
    eigenvalues, so all of them lie below the largest one.
    """
    return Contour(*spectrum_ellipse(spectrum.positive_eigenvalues()[-1]),
                   nodes)


def cluster_contours(clusters, k: int, nodes: int = 256) -> Contour:
    """Ellipse around cluster k only, clear of its neighbors.

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
    return _ellipse(x0, x1, min(lo - x0, x1 - hi), nodes)
