"""Shared builders for test trajectories, maps, and kink-free cost instances."""

from __future__ import annotations

import math

import numpy as np

from sweptplan.geometry import (
    SdfResult,
    VehicleParams,
    footprint_sdf_values,
    footprint_sdf_with_grad,
    to_body_frame,
    wrap_angle,
)
from sweptplan.minco import Boundary, build_minco, propagate_gradient
from sweptplan.worldmodel import Box, Grid, rasterize_obstacles


def small_vehicle() -> VehicleParams:
    return VehicleParams(
        length=2.0,
        width=1.0,
        axle_count=2,
        wheel_positions=[(1.0, 0.5), (1.0, -0.5), (-1.0, 0.5), (-1.0, -0.5)],
    )


def world_sdf_with_grad(p_world, pose, veh: VehicleParams) -> SdfResult:
    """Signed distance from a world point to the footprint placed at `pose`
    (a Pose2): the body-frame SDF of the rotated offset, with its gradient
    rotated back into the world frame."""
    c, s = math.cos(pose.phi), math.sin(pose.phi)
    res = footprint_sdf_with_grad(to_body_frame(p_world[0] - pose.x, p_world[1] - pose.y, c, s), veh)
    gx, gy = res.gradient
    return SdfResult(value=res.value, gradient=np.array([c * gx - s * gy, s * gx + c * gy]))


def on_area_grid(xy: np.ndarray, area: dict) -> bool:
    """Whether every (x, y) row is, bit for bit, a cell center of area.json's
    grid (its `region` and `resolution`)."""
    axes = Grid.covering(area["region"], area["resolution"]).axes()
    for axis, coords in zip(axes, xy.T):
        i = np.minimum(np.searchsorted(axis, coords), axis.size - 1)
        if axis[i].tobytes() != coords.tobytes():
            return False
    return True


def grid_centers(field) -> np.ndarray:
    """(width * height, 2) cell centers of a SweptField, in its [ix, iy] raveling order."""
    ix, iy = np.meshgrid(np.arange(field.width), np.arange(field.height), indexing="ij")
    return field.origin + (np.stack([ix.ravel(), iy.ravel()], axis=1) + 0.5) * field.resolution


def folded(cost, traj):
    """cost(traj) with total (q, T) gradients: its grad_C folded in as planner._optimize does."""
    return propagate_gradient(traj, [cost(traj)])[0]


def straight_traj(distance: float = 10.0, speed: float = 1.0, n_interior: int = 3):
    """Exact constant-velocity motion along +x; the spline solve reproduces it."""
    n_seg = n_interior + 1
    total = distance / speed
    boundary = Boundary(
        start=[[0.0, 0.0, 0.0], [speed, 0.0, 0.0], [0.0, 0.0, 0.0]],
        end=[[distance, 0.0, 0.0], [speed, 0.0, 0.0], [0.0, 0.0, 0.0]],
    )
    q = np.zeros((n_interior, 3))
    q[:, 0] = distance * np.arange(1, n_seg) / n_seg
    T = np.full(n_seg, total / n_seg)
    return build_minco(q, T, boundary)


def rotation_traj(turns: float = 1.0, n_interior: int = 3, duration: float = 8.0):
    """In-place rotation through turns*2*pi at the origin."""
    n_seg = n_interior + 1
    phi_end = turns * 2.0 * math.pi
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (0.0, 0.0, phi_end))
    q = np.zeros((n_interior, 3))
    q[:, 2] = phi_end * np.arange(1, n_seg) / n_seg
    T = np.full(n_seg, duration / n_seg)
    return build_minco(q, T, boundary)


def curved_traj(seed: int = 0, n_interior: int = 5, speed: float = 1.0):
    """Seeded smooth wander: arc-like waypoints with jitter, tangent headings."""
    rng = np.random.default_rng(seed)
    n = n_interior + 2
    s = np.linspace(0.0, 1.0, n)
    base = np.column_stack([10.0 * s, 3.0 * np.sin(math.pi * s)])
    base[1:-1] += rng.uniform(-0.4, 0.4, size=(n - 2, 2))
    d = np.gradient(base, axis=0)
    phi = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    poses = np.column_stack([base, phi])
    seg = np.linalg.norm(np.diff(base, axis=0), axis=1)
    T = np.maximum(seg / speed, 0.2)
    boundary = Boundary.rest_to_rest(poses[0], poses[-1])
    return build_minco(poses[1:-1], T, boundary)


def random_instance(seed: int, n_interior: int = 4):
    """Seeded (q, T, boundary) triple for gradient checks."""
    rng = np.random.default_rng(seed)
    n_seg = n_interior + 1
    start = np.array([0.0, 0.0, rng.uniform(-0.5, 0.5)])
    end = np.array([rng.uniform(6.0, 9.0), rng.uniform(-2.0, 2.0), rng.uniform(-0.5, 1.5)])
    s = np.linspace(0.0, 1.0, n_seg + 1)[1:-1]
    q = start + np.outer(s, end - start)
    q[:, :2] += rng.uniform(-0.5, 0.5, size=(n_interior, 2))
    q[:, 2] += rng.uniform(-0.2, 0.2, size=n_interior)
    T = rng.uniform(0.8, 2.0, size=n_seg)
    boundary = Boundary(
        start=np.vstack([start, rng.uniform(-0.3, 0.3, 3), np.zeros(3)]),
        end=np.vstack([end, rng.uniform(-0.3, 0.3, 3), np.zeros(3)]),
    )
    return q, T, boundary


def scatter_grid(traj, seed: int, n_points: int = 40):
    """Obstacle cells scattered around the trajectory's bounding box."""
    rng = np.random.default_rng(seed + 1000)
    lo = traj.waypoints[:, :2].min(axis=0) - 2.0
    hi = traj.waypoints[:, :2].max(axis=0) + 2.0
    shapes = []
    for _ in range(n_points):
        c = rng.uniform(lo, hi)
        shapes.append(Box(c[0], c[1], c[0] + 0.05, c[1] + 0.05))
    return rasterize_obstacles(shapes, (lo[0] - 1, lo[1] - 1, hi[0] + 1, hi[1] + 1), 0.1)


def kink_margin(q: np.ndarray, T: np.ndarray, boundary, veh, obstacle_points, d_th: float) -> float:
    """Smallest distance of any cost term to a nondifferentiable switch.

    Checked switches: the SDF corner/edge branch boundaries (dx, dy, dx-dy),
    the hinge activation f = d_th, the near-zero-velocity guard of the sweep
    cost, and the heading-wrap boundary. Finite differencing is only trusted
    when this margin comfortably exceeds the step.
    """
    traj = build_minco(q, T, boundary)
    margins = [np.inf]
    if obstacle_points is not None and len(obstacle_points):
        pts = np.asarray(obstacle_points, dtype=float)
        for x, y, phi in q:
            d = pts - (x, y)
            c, s = math.cos(phi), math.sin(phi)
            body = np.column_stack(
                [c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1]]
            )
            dx = np.abs(body[:, 0]) - veh.length / 2.0
            dy = np.abs(body[:, 1]) - veh.width / 2.0
            f = footprint_sdf_values(body, veh.length, veh.width)
            margins.append(np.abs(dx).min())
            margins.append(np.abs(dy).min())
            margins.append(np.abs(dx - dy).min())
            margins.append(np.abs(f - d_th).min())
    for t in traj.junction_times:
        v = traj.sample(t, 1)
        margins.append(math.hypot(v[0], v[1]) ** 2 - 1e-8)
        p = traj.sample(t, 0)
        dphi = wrap_angle(p[2] - math.atan2(v[1], v[0]))
        margins.append(math.pi - abs(dphi))
    return float(min(margins))


def nudge_off_kinks(q, T, boundary, veh, obstacle_points, d_th, seed: int, tol: float = 2e-5):
    """Shift knots in 1e-4 steps until every switch margin clears tol."""
    rng = np.random.default_rng(seed + 77)
    q = q.copy()
    for _ in range(60):
        if kink_margin(q, T, boundary, veh, obstacle_points, d_th) > tol:
            return q
        q += 1e-4 * rng.standard_normal(q.shape)
    raise AssertionError("could not place instance away from cost switches")
