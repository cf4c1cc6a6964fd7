"""Closed integration contours in the complex plane.

Everything here is a counterclockwise ellipse centered on the real axis,
discretized by the periodic trapezoid rule with nodes offset off the real
axis, which converges geometrically for integrands analytic in a
neighborhood of the curve.
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


@dataclass(frozen=True)
class Contour:
    """Closed curve around part of the positive real axis.

    half_width and half_height are the semi-axes around the real center;
    the curve runs counterclockwise. "ellipse" is the only shape.
    """

    shape: str
    center: float
    half_width: float
    half_height: float
    nodes: int

    def __post_init__(self):
        if self.shape != "ellipse":
            raise ContourError(f"unknown contour shape {self.shape!r}")
        if self.half_width <= 0 or self.half_height <= 0:
            raise ContourError("contour extents must be positive")
        if self.nodes < 16:
            raise ContourError("need at least 16 quadrature nodes")

    def points(self) -> NDArray[np.complex128]:
        theta = self._theta()
        return (
            self.center
            + self.half_width * np.cos(theta)
            + 1j * self.half_height * np.sin(theta)
        )

    def dz(self) -> NDArray[np.complex128]:
        """Complex quadrature weights: sum(f(points) * dz) approximates the
        counterclockwise contour integral of f."""
        theta = self._theta()
        return (
            (-self.half_width * np.sin(theta) + 1j * self.half_height * np.cos(theta))
            * (2.0 * np.pi / self.nodes)
        )

    def _theta(self) -> NDArray[np.float64]:
        # half-step offset keeps every node strictly off the real axis and
        # the node set symmetric under conjugation
        k = np.arange(self.nodes)
        return 2.0 * np.pi * (k + 0.5) / self.nodes

    def contains_real(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.abs(x - self.center) < self.half_width

    def min_distance_to_real(self, x) -> float:
        """Distance from real point(s) to the discretized curve."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pts = self.points()
        return float(np.abs(x[:, None] - pts[None, :]).min())

    def with_nodes(self, nodes: int) -> "Contour":
        return replace(self, nodes=int(nodes))

    def scaled(self, factor_w: float, factor_h: float) -> "Contour":
        return replace(
            self,
            half_width=self.half_width * factor_w,
            half_height=self.half_height * factor_h,
        )


def _ellipse(x0: float, x1: float, clearance: float, nodes: int) -> Contour:
    center = 0.5 * (x0 + x1)
    a = 0.5 * (x1 - x0)
    # geometric mean of clearance and semi-axis balances the analyticity
    # margin above and below the real axis against the curve length
    b = np.sqrt(max(clearance, 1e-12 * a) * a)
    b = min(max(b, 0.02 * a), 0.75 * a)
    return Contour("ellipse", center, a, b, nodes)


def spectrum_contour(spectrum, secular=None, nodes: int = 1024) -> Contour:
    """Contour enclosing every positive sample eigenvalue and every positive
    secular root, excluding the origin.

    The left crossing sits halfway between zero and the smallest enclosed
    point; the right crossing sits at 1.5x the largest eigenvalue.
    """
    from .empirical import secular_zeros

    lam = spectrum.positive_eigenvalues()
    if secular is None:
        secular = secular_zeros(spectrum)
    mu = secular.positive()
    lo = min(lam[0], mu[0] if mu.size else lam[0])
    hi = lam[-1]
    x0 = 0.5 * lo
    x1 = 1.5 * hi
    if x0 < 1e-3 * hi:
        raise ContourError(
            f"smallest enclosed point {lo:.3e} is too close to the origin "
            f"relative to lambda_max {hi:.3e}; no admissible contour"
        )
    cont = _ellipse(x0, x1, 0.5 * lo, nodes)
    _check_clearance(cont, np.concatenate([lam, mu]), hi)
    return cont


def _check_clearance(cont: Contour, enclosed: np.ndarray, lam_max: float):
    if np.any(~cont.contains_real(enclosed)):
        raise ContourError("contour fails to enclose a required point")
    if cont.min_distance_to_real(enclosed) < 1e-3 * lam_max:
        raise ContourError(
            "an eigenvalue or secular root lies within 1e-3 * lambda_max "
            "of the contour"
        )


def cluster_contours(clusters, k: int, nodes: int = 256) -> Contour:
    """Ellipse around cluster k only, clear of its neighbors and the origin.

    The origin is no singularity of the CLT integrands, so the first
    cluster's ellipse crosses nearer to it than to a neighboring cluster;
    the wider clearance from the cluster edge speeds up the quadrature
    when the support starts close to the origin.
    """
    lo, hi = clusters[k]
    left_gap = lo - clusters[k - 1][1] if k > 0 else lo
    right_gap = clusters[k + 1][0] - hi if k + 1 < len(clusters) else 0.6 * hi
    if k == 0 and lo <= 0:
        raise ContourError(
            "the support reaches the origin (as at N = M); no contour can "
            "enclose it and exclude the origin"
        )
    if left_gap <= 0 or right_gap <= 0:
        raise ContourError("clusters overlap; cannot isolate one")
    left = (0.65 if k == 0 else 0.35) * left_gap
    right = 0.35 * right_gap
    return _ellipse(lo - left, hi + right, min(left, right), nodes)
