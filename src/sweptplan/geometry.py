"""Planar pose algebra and the rectangular-footprint signed distance field.

The vehicle footprint is an axis-aligned rectangle in its own body frame,
centered on the body origin. Distance queries against that rectangle (and
their gradients) are the primitive every collision term and swept-volume
computation in this package is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """Vectorized wrap to (-pi, pi]."""
    w = np.remainder(np.asarray(a, dtype=float), TWO_PI)
    return np.where(w > math.pi, w - TWO_PI, w)


def to_body_frame(dx, dy, c, s, out=None) -> np.ndarray:
    """World-frame offsets (dx, dy) rotated into a body frame whose heading
    has cosine c and sine s; returns the stacked (..., 2) body coordinates.

    Given `out`, a (2, m) buffer for m offsets, the two coordinates are
    written into its rows and its transpose is returned: the same (m, 2)
    values without a stacking copy, each column contiguous."""
    if out is None:
        return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)
    np.add(c * dx, s * dy, out=out[0])
    np.add(-s * dx, c * dy, out=out[1])
    return out.T


@dataclass
class Pose2:
    """Planar pose (x, y, phi); phi is normalized to (-pi, pi] on construction."""

    x: float
    y: float
    phi: float

    def __post_init__(self) -> None:
        self.x = float(self.x)
        self.y = float(self.y)
        self.phi = wrap_angle(float(self.phi))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.phi])


@dataclass
class VehicleParams:
    """Rectangular swerve vehicle: footprint dimensions, wheel layout, rate limits.

    Parameters
    ----------
    length : float
        Footprint extent along body X, meters.
    width : float
        Footprint extent along body Y, meters.
    axle_count : int
        Number of axles (informational; wheel_positions carries the geometry).
    wheel_positions : ndarray, shape (n, 2)
        Wheel mount points in the body frame. Must contain at least three
        non-collinear wheels so a twist can be reconstructed from wheel states.
    v_max : float
        Translational speed limit, m/s.
    omega_max : float
        Heading rate limit, rad/s.
    """

    length: float
    width: float
    axle_count: int
    wheel_positions: np.ndarray
    v_max: float = 2.0
    omega_max: float = 1.0

    def __post_init__(self) -> None:
        self.wheel_positions = np.atleast_2d(np.asarray(self.wheel_positions, dtype=float))
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError("footprint dimensions must be positive")
        if self.axle_count < 1:
            raise ValueError("axle_count must be >= 1")
        if self.v_max <= 0.0 or self.omega_max <= 0.0:
            raise ValueError("rate limits must be positive")
        w = self.wheel_positions
        if w.ndim != 2 or w.shape[1] != 2 or w.shape[0] < 3:
            raise ValueError("need at least 3 wheel positions, shape (n, 2)")
        tol = 1e-9
        if np.any(np.abs(w[:, 0]) > self.length / 2 + tol) or np.any(
            np.abs(w[:, 1]) > self.width / 2 + tol
        ):
            raise ValueError("wheel positions must lie inside the footprint")
        # Collinearity check: all cross products of span vectors near zero.
        rest = w - w[0]
        ref = None
        collinear = True
        for i in range(1, w.shape[0]):
            if np.hypot(*rest[i]) > tol:
                if ref is None:
                    ref = rest[i]
                elif abs(ref[0] * rest[i][1] - ref[1] * rest[i][0]) > tol:
                    collinear = False
                    break
        if collinear:
            raise ValueError("wheel positions are collinear; twist reconstruction would be rank deficient")

    @property
    def half_diagonal(self) -> float:
        return math.hypot(self.length / 2.0, self.width / 2.0)


@dataclass
class SdfResult:
    """Signed distance value and its spatial gradient at the query point."""

    value: float
    gradient: np.ndarray


def _sgn(v: float) -> float:
    # Tie convention: sign(0) = +1, so the footprint center reports gradient (1, 0).
    return 1.0 if v >= 0.0 else -1.0


def footprint_sdf_with_grad(p_body: np.ndarray, veh: VehicleParams) -> SdfResult:
    """Signed distance from a body-frame point to the vehicle rectangle boundary.

    Negative inside, zero on the boundary, positive outside. The gradient is
    the unit direction of steepest increase; on regime boundaries the tie goes
    to the x-axis branch (dx >= dy) and sign(0) is taken as +1.
    """
    x, y = float(p_body[0]), float(p_body[1])
    dx = abs(x) - veh.length / 2.0
    dy = abs(y) - veh.width / 2.0
    if dx > 0.0 and dy > 0.0:
        value = math.hypot(dx, dy)
        grad = np.array([dx * _sgn(x) / value, dy * _sgn(y) / value])
    elif dx >= dy:
        value = dx
        grad = np.array([_sgn(x), 0.0])
    else:
        value = dy
        grad = np.array([0.0, _sgn(y)])
    return SdfResult(value=value, gradient=grad)


def footprint_sdf_batch(points: np.ndarray, length: float, width: float):
    """Vectorized footprint SDF for an (n, 2) array of body-frame points.

    Returns (values, gradients) with shapes (n,) and (n, 2). Same branch and
    tie conventions as footprint_sdf_with_grad.
    """
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    dx = np.abs(x) - length / 2.0
    dy = np.abs(y) - width / 2.0
    sx = np.where(x >= 0.0, 1.0, -1.0)
    sy = np.where(y >= 0.0, 1.0, -1.0)

    corner = (dx > 0.0) & (dy > 0.0)
    hyp = np.hypot(np.where(corner, dx, 1.0), np.where(corner, dy, 1.0))
    values = np.where(corner, hyp, np.maximum(dx, dy))

    x_edge = dx >= dy
    grads = np.empty(values.shape + (2,))
    grads[..., 0] = np.where(corner, dx * sx / hyp, np.where(x_edge, sx, 0.0))
    grads[..., 1] = np.where(corner, dy * sy / hyp, np.where(x_edge, 0.0, sy))
    return values, grads


def footprint_sdf_values(points: np.ndarray, length: float, width: float, out=None) -> np.ndarray:
    """Values-only variant of footprint_sdf_batch for distance-check hot paths.

    Same values as footprint_sdf_batch: the hypotenuse is written over the
    max(dx, dy) edge distance only at corner points, in place, into `out`
    when given.
    """
    pts = np.asarray(points, dtype=float)
    dx = np.abs(pts[..., 0]) - length / 2.0
    dy = np.abs(pts[..., 1]) - width / 2.0
    out = np.maximum(dx, dy, out=np.empty(np.shape(dx)) if out is None else out)
    np.hypot(dx, dy, out=out, where=(dx > 0.0) & (dy > 0.0))
    return out

