import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import world_sdf_with_grad
from oracles import boundary_distance, rect_boundary_points, sdf_values_where
from sweptplan.geometry import (
    Pose2,
    VehicleParams,
    footprint_sdf_batch,
    footprint_sdf_values,
    footprint_sdf_with_grad,
    to_body_frame,
    wrap_angle,
)


def test_wrap_angle_range():
    for a in np.linspace(-20.0, 20.0, 401):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - a, 2.0 * math.pi)) < 1e-12


def test_pose_wraps_heading():
    p = Pose2(0.0, 0.0, 3.0 * math.pi)
    assert -math.pi < p.phi <= math.pi
    npt.assert_allclose(p.phi, math.pi)


def test_rotation_preserves_norm(rng):
    for _ in range(50):
        p = Pose2(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        v = rng.uniform(-3, 3, 2)
        w = to_body_frame(v[0], v[1], math.cos(p.phi), math.sin(p.phi))
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-12


@pytest.mark.parametrize("per_point", [False, True])
def test_body_frame_into_rows_equals_the_stacked_bits(rng, per_point):
    dx, dy = rng.normal(size=(2, 9)) * 4.0
    phi = rng.uniform(-math.pi, math.pi, 9) if per_point else rng.uniform(-math.pi, math.pi)
    c, s = np.cos(phi), np.sin(phi)
    rows = np.empty((2, 9))
    body = to_body_frame(dx, dy, c, s, out=rows)
    assert body.shape == (9, 2) and np.shares_memory(body, rows)
    assert body.tobytes() == to_body_frame(dx, dy, c, s).tobytes()


def test_sdf_center(veh):
    r = footprint_sdf_with_grad(np.array([0.0, 0.0]), veh)
    npt.assert_allclose(r.value, -0.5)


def test_sdf_corner_regime(veh):
    r = footprint_sdf_with_grad(np.array([2.0, 1.0]), veh)
    npt.assert_allclose(r.value, math.sqrt(1.25))
    npt.assert_allclose(r.gradient, [0.8944271909999159, 0.4472135954999579])


def test_sdf_edge_regime(veh):
    r = footprint_sdf_with_grad(np.array([1.5, 0.0]), veh)
    npt.assert_allclose(r.value, 0.5)
    npt.assert_allclose(r.gradient, [1.0, 0.0])


def test_sdf_interior_dy_branch(veh):
    r = footprint_sdf_with_grad(np.array([0.0, 0.4]), veh)
    npt.assert_allclose(r.value, -0.1)
    npt.assert_allclose(r.gradient, [0.0, 1.0])


def test_sdf_exterior_matches_boundary_sampling(veh, rng):
    bpts = rect_boundary_points(veh.length, veh.width, 40000)
    count = 0
    while count < 300:
        p = rng.uniform([-3.0, -3.0], [3.0, 3.0])
        d = boundary_distance(p, bpts)
        if d < 0.01:
            continue
        r = footprint_sdf_with_grad(p, veh)
        if r.value <= 0.0:
            continue
        assert abs(r.value - d) <= 1e-3
        count += 1


def test_sdf_interior_identity(veh, rng):
    hl, hw = veh.length / 2.0, veh.width / 2.0
    for _ in range(300):
        p = rng.uniform([-hl, -hw], [hl, hw])
        r = footprint_sdf_with_grad(p, veh)
        expect = -min(hl - abs(p[0]), hw - abs(p[1]))
        assert r.value == expect


def test_sdf_gradient_unit_norm_outside(veh, rng):
    for _ in range(200):
        p = rng.uniform([-4.0, -4.0], [4.0, 4.0])
        r = footprint_sdf_with_grad(p, veh)
        if r.value > 1e-6:
            assert abs(np.linalg.norm(r.gradient) - 1.0) < 1e-9


def test_sdf_value_continuous_at_corner_boundary(veh):
    eps = 1e-9
    for y in (0.6, 1.3):
        above = footprint_sdf_with_grad(np.array([1.0 + eps, y]), veh).value
        below = footprint_sdf_with_grad(np.array([1.0 - eps, y]), veh).value
        assert abs(above - below) < 1e-7


def test_sdf_finite_difference_gradient(veh, rng):
    h = 1e-6
    checked = 0
    while checked < 200:
        p = rng.uniform([-3.0, -3.0], [3.0, 3.0])
        dx = abs(p[0]) - veh.length / 2.0
        dy = abs(p[1]) - veh.width / 2.0
        margins = [abs(dx), abs(dy), abs(dx - dy), abs(p[0]), abs(p[1])]
        if min(margins) < 1e-4:
            continue
        g = footprint_sdf_with_grad(p, veh).gradient
        fd = np.array(
            [
                (
                    footprint_sdf_with_grad(p + np.array([h, 0.0]), veh).value
                    - footprint_sdf_with_grad(p - np.array([h, 0.0]), veh).value
                )
                / (2 * h),
                (
                    footprint_sdf_with_grad(p + np.array([0.0, h]), veh).value
                    - footprint_sdf_with_grad(p - np.array([0.0, h]), veh).value
                )
                / (2 * h),
            ]
        )
        npt.assert_allclose(g, fd, atol=1e-4)
        checked += 1


def test_world_sdf_identity_pose(veh, rng):
    pose = Pose2(0.0, 0.0, 0.0)
    for _ in range(50):
        p = rng.uniform([-3.0, -3.0], [3.0, 3.0])
        a = world_sdf_with_grad(p, pose, veh)
        b = footprint_sdf_with_grad(p, veh)
        npt.assert_allclose(a.value, b.value)
        npt.assert_allclose(a.gradient, b.gradient)


def test_world_sdf_translation(veh):
    r = world_sdf_with_grad(np.array([7.0, 1.0]), Pose2(5.0, 0.0, 0.0), veh)
    npt.assert_allclose(r.value, math.sqrt(1.25), rtol=1e-9)


def test_world_sdf_rotation(veh):
    r = world_sdf_with_grad(np.array([-1.0, 2.0]), Pose2(0.0, 0.0, math.pi / 2.0), veh)
    npt.assert_allclose(r.value, math.sqrt(1.25), rtol=1e-9)


def test_world_sdf_rigid_invariance(veh, rng):
    for _ in range(100):
        pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
        p = rng.uniform([-4.0, -4.0], [4.0, 4.0])
        base = world_sdf_with_grad(p, pose, veh).value
        # apply an extra rigid motion to both the query point and the pose
        shift = rng.uniform(-2, 2, 2)
        ang = rng.uniform(-math.pi, math.pi)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        p2 = rot @ p + shift
        c2 = rot @ np.array([pose.x, pose.y]) + shift
        pose2 = Pose2(c2[0], c2[1], pose.phi + ang)
        moved = world_sdf_with_grad(p2, pose2, veh).value
        assert abs(base - moved) < 1e-12


def test_world_sdf_gradient_in_world_frame(veh):
    # footprint rotated 90 degrees: +x in world is the body -y direction
    r = world_sdf_with_grad(np.array([2.0, 0.0]), Pose2(0.0, 0.0, math.pi / 2.0), veh)
    npt.assert_allclose(r.value, 1.5)
    npt.assert_allclose(r.gradient, [1.0, 0.0], atol=1e-12)


def test_batch_matches_scalar(veh, rng):
    pts = rng.uniform(-3.0, 3.0, size=(500, 2))
    vals, grads = footprint_sdf_batch(pts, veh.length, veh.width)
    vals2 = footprint_sdf_values(pts, veh.length, veh.width)
    npt.assert_allclose(vals, vals2)
    for i in range(0, 500, 17):
        r = footprint_sdf_with_grad(pts[i], veh)
        npt.assert_allclose(vals[i], r.value)
        npt.assert_allclose(grads[i], r.gradient)


def test_vehicle_validation():
    wheels = [(1.0, 0.5), (1.0, -0.5), (-1.0, 0.5)]
    with pytest.raises(ValueError):
        VehicleParams(length=-1.0, width=1.0, axle_count=2, wheel_positions=wheels)
    with pytest.raises(ValueError):
        VehicleParams(length=2.0, width=1.0, axle_count=0, wheel_positions=wheels)
    with pytest.raises(ValueError):
        VehicleParams(length=2.0, width=1.0, axle_count=2, wheel_positions=[(5.0, 0.0), (1.0, 0.5), (1.0, -0.5)])
    with pytest.raises(ValueError):
        VehicleParams(length=2.0, width=1.0, axle_count=2, wheel_positions=[(1.0, 0.0), (0.0, 0.0), (-1.0, 0.0)])
    v = VehicleParams(length=2.0, width=1.0, axle_count=2, wheel_positions=wheels)
    npt.assert_allclose(v.half_diagonal, math.sqrt(1.25))


def test_sdf_values_equal_where_form(veh, rng):
    pts = np.concatenate(
        [
            rng.uniform(-3.0, 3.0, size=(2000, 2)),
            [[0.0, 0.0], [-0.0, -0.0], [veh.length / 2, 0.2], [-veh.length / 2, veh.width / 2]],
            [[veh.length / 2, -veh.width / 2], [np.nan, 0.0], [np.inf, 1.0], [-np.inf, np.inf]],
        ]
    )
    for batch in (pts, pts[:1], pts.reshape(-1, 4, 2)):
        got = footprint_sdf_values(batch, veh.length, veh.width)
        ref = sdf_values_where(batch, veh.length, veh.width)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(ref))
    assert footprint_sdf_values(pts[0], veh.length, veh.width) == sdf_values_where(pts[0], veh.length, veh.width)
