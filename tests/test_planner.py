import json
import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from helpers import curved_traj, folded, nudge_off_kinks, random_instance, scatter_grid, small_vehicle, straight_traj
from oracles import (
    armijo_search,
    fd_cost_grads,
    min_time_scan,
    obstacle_cost_all_pairs,
    obstacle_pairs_all,
    rel_err,
    sweep_cost_loop,
)
import sweptplan.planner as planner
from sweptplan import minco, sweptfield
from sweptplan.cli import _build_grid, _plan_init, parse_scenario
from sweptplan.geometry import to_body_frame
from sweptplan.minco import Boundary, build_minco, energy_cost_with_grads
from sweptplan.sweptfield import COARSE_SAMPLES, LinearPosePath, min_time_distance
from sweptplan.planner import (
    TRACE_COLUMNS,
    CheckedPlanReport,
    PlanOptions,
    PlannerWeights,
    SizeMismatch,
    _NeighbourList,
    _lbfgs,
    _line_search,
    check_feasibility,
    deviation_cost_with_grads,
    obstacle_cost_with_grads,
    optimize_stage1,
    optimize_stage2,
    sweep_cost_with_grads,
)
from sweptplan.worldmodel import Box, GridMap, InitialTrajectory, estimate_headings, rasterize_obstacles


def _ref_from_traj(traj):
    """Anchor sequence equal to the trajectory's own boundary+junction poses."""
    poses = np.vstack([traj.boundary.start[0], traj.waypoints, traj.boundary.end[0]])
    return InitialTrajectory(poses=poses)


def test_deviation_zero_at_anchors():
    q, T, boundary = random_instance(0)
    traj = build_minco(q, T, boundary)
    c = deviation_cost_with_grads(traj, _ref_from_traj(traj))
    assert c.value < 1e-18
    npt.assert_allclose(c.grad_q, 0.0, atol=1e-12)


def test_deviation_single_offset():
    q, T, boundary = random_instance(1)
    traj = build_minco(q, T, boundary)
    ref = _ref_from_traj(traj)
    q2 = q.copy()
    q2[1, 0] += 1.0
    c = deviation_cost_with_grads(build_minco(q2, T, boundary), ref)
    npt.assert_allclose(c.value, 1.0, atol=1e-12)
    npt.assert_allclose(c.grad_q[1], [2.0, 0.0, 0.0], atol=1e-12)


def test_deviation_wraps_heading_difference():
    q, T, boundary = random_instance(2)
    traj = build_minco(q, T, boundary)
    ref = _ref_from_traj(traj)
    q2 = q.copy()
    q2[0, 2] += 2.0 * math.pi - 0.1  # nearly a full turn: wrapped difference is -0.1
    c = deviation_cost_with_grads(build_minco(q2, T, boundary), ref)
    npt.assert_allclose(c.value, 0.01, atol=1e-9)


def test_deviation_size_mismatch():
    q, T, boundary = random_instance(3)
    traj = build_minco(q, T, boundary)
    with pytest.raises(SizeMismatch):
        deviation_cost_with_grads(traj, InitialTrajectory(poses=np.zeros((3, 3))))


def test_deviation_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(10):
        q, T, boundary = random_instance(seed)
        ref = _ref_from_traj(build_minco(q, T, boundary))
        q = q + 0.3  # move off the anchors so the cost is active

        def fn(qq, TT):
            return deviation_cost_with_grads(build_minco(qq, TT, boundary), ref).value

        c = deviation_cost_with_grads(build_minco(q, T, boundary), ref)
        gq, gT = fd_cost_grads(fn, q, T)
        err = rel_err(
            np.concatenate([c.grad_q.ravel(), c.grad_T]), np.concatenate([gq.ravel(), gT])
        )
        worst = max(worst, err)
    assert worst <= 1e-4


def test_obstacle_cost_inactive_when_far(veh):
    traj = straight_traj()
    grid = rasterize_obstacles(
        [Box(5.0, 8.0, 5.2, 8.2)], (-2.0, -2.0, 14.0, 10.0), 0.1
    )
    c = obstacle_cost_with_grads(traj, grid, veh, 0.5)
    assert c.value == 0.0
    npt.assert_allclose(c.grad_q, 0.0)
    npt.assert_allclose(c.grad_T, 0.0)


def test_obstacle_cost_hinge_value_on_boundary(veh):
    # one obstacle point exactly on the footprint edge of the middle knot
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (4.0, 0.0, 0.0))
    q = np.array([[2.0, 0.0, 0.0]])
    traj = build_minco(q, np.array([2.0, 2.0]), boundary)
    # bounds chosen so one cell center sits precisely at x = q_x + L/2 = 3.0, y = 0
    grid = rasterize_obstacles(
        [Box(2.96, -0.04, 3.04, 0.04)], (-1.05, -2.05, 6.0, 2.0), 0.1
    )
    assert grid.obstacle_points.shape[0] == 1
    npt.assert_allclose(grid.obstacle_points[0], [3.0, 0.0], atol=1e-12)
    c = obstacle_cost_with_grads(traj, grid, veh, 0.5)
    npt.assert_allclose(c.value, 0.125, atol=1e-12)


def test_obstacle_gradients_match_finite_differences(veh):
    worst = 0.0
    d_th = 0.4
    for seed in range(10):
        q, T, boundary = random_instance(seed)
        grid = scatter_grid(build_minco(q, T, boundary), seed)
        q = nudge_off_kinks(q, T, boundary, veh, grid.obstacle_points, d_th, seed)

        def fn(qq, TT):
            return obstacle_cost_with_grads(build_minco(qq, TT, boundary), grid, veh, d_th).value

        c = obstacle_cost_with_grads(build_minco(q, T, boundary), grid, veh, d_th)
        if c.value == 0.0:
            continue
        gq, gT = fd_cost_grads(fn, q, T)
        err = rel_err(
            np.concatenate([c.grad_q.ravel(), c.grad_T]), np.concatenate([gq.ravel(), gT])
        )
        worst = max(worst, err)
    assert 0.0 < worst <= 1e-3


def _point_grid(points) -> GridMap:
    """Grid carrying exactly the given obstacle points (occupancy is not read by the costs)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return GridMap(np.zeros(2), 0.1, 1, 1, np.zeros((1, 1), dtype=bool), pts)


def _box_pairs_all(q, pts, veh, margin):
    """Every (knot, point) pair, tested exhaustively, whose body-frame offset
    passes the hinge's box test: (knot indices, (m, 2) body offsets)."""
    k_idx, _, dx, dy = obstacle_pairs_all(q, pts, np.inf)
    body = to_body_frame(dx, dy, np.cos(q[k_idx, 2]), np.sin(q[k_idx, 2]))
    keep = (np.abs(body[:, 0]) - veh.length / 2.0 < margin) & (np.abs(body[:, 1]) - veh.width / 2.0 < margin)
    return k_idx[keep], body[keep]


def _at_body(knot, axis, target, other, anchor=None):
    """A world point whose body-frame offset from `knot`, rotated as the hinge
    rotates it, has exactly `target` on `axis` and about `other` on the other:
    the first hit of a search over points a few ulps from the rotated offset,
    or, given an `anchor` pose, the hit farthest out on `axis` in its frame."""
    c, s = np.cos(knot[2]), np.sin(knot[2])
    b = np.array([target, other] if axis == 0 else [other, target])
    p = knot[:2] + np.array([c * b[0] - s * b[1], s * b[0] + c * b[1]])
    k = np.arange(-64, 65)
    px, py = (g.ravel() for g in np.meshgrid(p[0] + k * np.spacing(p[0]), p[1] + k * np.spacing(p[1])))
    hit = np.flatnonzero(to_body_frame(px - knot[0], py - knot[1], c, s)[:, axis] == target)
    assert hit.size, "no point found at the body-frame target"
    if anchor is not None:
        far = to_body_frame(px[hit] - anchor[0], py[hit] - anchor[1], np.cos(anchor[2]), np.sin(anchor[2]))
        hit = hit[np.argmax(np.abs(far[:, axis])):]
    return px[hit[0]], py[hit[0]]


# Rotated knots with points on the edges of the box grown by margin: exactly
# at |bx| - L/2 == margin (dropped, and SDF == margin, inactive), one ulp inside
# (kept and active), one ulp outside (dropped), on both signs of both axes;
# plus points in the grown box's corners, kept by the box test although they
# lie beyond margin + half_diagonal of the knot.
_EDGE_KNOTS = np.array([[2.6, -0.4, 0.7], [5.2, 0.8, -0.4], [7.3, 1.9, -2.2]])
_EDGE_MARGIN = 0.25  # L/2 + margin and W/2 + margin are exact for small_vehicle


def _edge_points(veh):
    pts = []
    for knot in _EDGE_KNOTS:
        for axis, half, other in ((0, veh.length / 2.0, 0.3), (1, veh.width / 2.0, 0.2)):
            for sign in (1.0, -1.0):
                edge = sign * (half + _EDGE_MARGIN)
                assert abs(edge) - half == _EDGE_MARGIN
                for target in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0 * edge)):
                    pts.append(_at_body(knot, axis, target, other))
        c, s = math.cos(knot[2]), math.sin(knot[2])
        for bx, by in ((1.24, 0.74), (-1.24, -0.74)):
            pts.append((knot[0] + c * bx - s * by, knot[1] + s * bx + c * by))
    return np.array(pts)


def _edge_traj():
    boundary = Boundary.rest_to_rest((0.0, -2.0, 0.2), (9.0, 3.0, -1.0))
    return build_minco(_EDGE_KNOTS, np.array([2.0, 2.5, 2.0, 2.5]), boundary)


def test_obstacle_pairs_equal_exhaustive_prefilter(veh):
    rng = np.random.default_rng(5)
    grid = _point_grid(np.vstack([_edge_points(veh), rng.uniform(-3.0, 10.0, size=(400, 2))]))
    got = _NeighbourList(grid).pairs(_EDGE_KNOTS, veh.length, veh.width, _EDGE_MARGIN)
    ref = _box_pairs_all(_EDGE_KNOTS, grid.obstacle_points, veh, _EDGE_MARGIN)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    # The grid holds every edge point; the box test kept, per knot and side,
    # the one just inside, and it kept the corner points beyond the reach.
    body, half = got[1], np.array([veh.length / 2.0, veh.width / 2.0])
    assert np.all(np.abs(body) - half < _EDGE_MARGIN)
    for axis in (0, 1):
        inside = np.abs(body[:, axis]) == np.nextafter(half[axis] + _EDGE_MARGIN, 0.0)
        assert np.count_nonzero(inside) >= 2 * len(_EDGE_KNOTS)
    assert np.any(np.hypot(body[:, 0], body[:, 1]) > _EDGE_MARGIN + veh.half_diagonal)
    # Queried from anchors 0.49 m (just under the skin) behind the knots, away
    # from the corner point at (1.24, 0.74), the reused list still holds it.
    c, s = np.cos(_EDGE_KNOTS[:, 2]), np.sin(_EDGE_KNOTS[:, 2])
    anchors = _EDGE_KNOTS.copy()
    anchors[:, :2] -= 0.49 / math.hypot(1.24, 0.74) * np.column_stack([c * 1.24 - s * 0.74, s * 1.24 + c * 0.74])
    drifted = _NeighbourList(grid)
    drifted.pairs(anchors, veh.length, veh.width, _EDGE_MARGIN)
    got = drifted.pairs(_EDGE_KNOTS, veh.length, veh.width, _EDGE_MARGIN)
    assert np.array_equal(drifted.anchors, anchors)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_edge_points_cost_equals_exhaustive_prefilter(veh):
    traj = _edge_traj()
    assert np.array_equal(traj.waypoints, _EDGE_KNOTS)
    grid = _point_grid(_edge_points(veh))
    c = obstacle_cost_with_grads(traj, grid, veh, _EDGE_MARGIN)
    value, grad_q = obstacle_cost_all_pairs(traj, grid.obstacle_points, veh, _EDGE_MARGIN)
    assert c.value == value > 0.0
    assert np.array_equal(c.grad_q, grad_q)
    assert np.array_equal(np.signbit(c.grad_q), np.signbit(grad_q))


def test_hinge_sends_only_box_passing_points_to_the_sdf(veh, monkeypatch):
    received = []
    sdf = planner.footprint_sdf_batch

    def spy(points, length, width):
        received.append(np.array(points))
        return sdf(points, length, width)

    monkeypatch.setattr(planner, "footprint_sdf_batch", spy)
    margin = 0.4
    for seed in range(4):
        traj = build_minco(*random_instance(seed, n_interior=14))
        grid = scatter_grid(build_minco(*random_instance(seed)), seed, n_points=120)
        c = obstacle_cost_with_grads(traj, grid, veh, margin)
        value, grad_q = obstacle_cost_all_pairs(traj, grid.obstacle_points, veh, margin)
        assert c.value == value and np.array_equal(c.grad_q, grad_q)
        k_box, body = _box_pairs_all(traj.waypoints, grid.obstacle_points, veh, margin)
        assert np.array_equal(received.pop(), body)
        # The reach prefilter alone would have sent more.
        reach = margin + veh.half_diagonal + 1e-9
        assert obstacle_pairs_all(traj.waypoints, grid.obstacle_points, reach)[0].size > k_box.size > 0
    assert received == []


def test_neighbour_list_equals_exhaustive_along_random_walk(veh, monkeypatch):
    calls = []
    query = _NeighbourList._query
    monkeypatch.setattr(_NeighbourList, "_query", lambda *a: calls.append(1) or query(*a))
    rng = np.random.default_rng(11)
    grid = _point_grid(rng.uniform(-4.0, 4.0, size=(800, 2)))
    empty = _NeighbourList(_point_grid(np.zeros((0, 2))))
    nl = _NeighbourList(grid)
    margin = 0.3
    q = rng.uniform(-2.5, 2.5, size=(5, 3))
    reused = 0
    for step in range(80):
        if step == 30:
            margin = 0.05
        if step == 55:
            q = rng.uniform(-2.5, 2.5, size=(7, 3))
        # Steps well below the skin add up to drifts across it; every tenth
        # step jumps one knot farther than the skin at once, and every tenth
        # from the fifth turns one, away from its anchor's heading, by more
        # than _SKIN / reach, so that the turn alone must rebuild.
        q = q + rng.normal(scale=0.03, size=q.shape)
        jump = step % 10 in (4, 9)
        k = step % q.shape[0]
        if step % 10 == 9:
            q[k, :2] += 1.5 * planner._SKIN
        elif jump:
            reach = math.hypot(veh.length / 2.0 + margin, veh.width / 2.0 + margin)
            q[k, 2] += math.copysign(1.1 * planner._SKIN / reach, q[k, 2] - nl.anchors[k, 2])
        queries = len(calls)
        got = nl.pairs(q, veh.length, veh.width, margin)
        ref = _box_pairs_all(q, grid.obstacle_points, veh, margin)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert got[0].size > 0
        if jump or step in (30, 55):
            assert len(calls) == queries + 1
        reused += len(calls) == queries
        got = empty.pairs(q, veh.length, veh.width, margin)
        assert all(a.size == 0 for a in got)
    assert reused > 40


def test_neighbour_list_reused_at_the_skin_keeps_box_edge_points(veh, monkeypatch):
    # Knots moved along their heading by the skin from their anchors reuse the
    # list. Points one ulp inside the front edge of a knot's grown box lie, in
    # its anchor's frame, within rounding of the rebuild box's edge; for some
    # knots the farthest out of them lies beyond it, and only the query slack
    # keeps it.
    calls = []
    query = _NeighbourList._query
    monkeypatch.setattr(_NeighbourList, "_query", lambda *a: calls.append(1) or query(*a))
    anchors = np.random.default_rng(3).uniform(-3.0, 3.0, size=(100, 3))
    q = anchors.copy()
    q[:, :2] += planner._SKIN * np.column_stack([np.cos(q[:, 2]), np.sin(q[:, 2])])
    at_skin = np.hypot(q[:, 0] - anchors[:, 0], q[:, 1] - anchors[:, 1]) <= planner._SKIN
    anchors, q = anchors[at_skin], q[at_skin]
    edge = np.nextafter(veh.length / 2.0 + _EDGE_MARGIN, 0.0)
    grid = _point_grid(np.array([_at_body(knot, 0, edge, 0.0, anchor) for knot, anchor in zip(q, anchors)]))
    nl = _NeighbourList(grid)
    nl.pairs(anchors, veh.length, veh.width, _EDGE_MARGIN)
    got = nl.pairs(q, veh.length, veh.width, _EDGE_MARGIN)
    assert len(calls) == 1 and q.shape[0] > 50
    ref = _box_pairs_all(q, grid.obstacle_points, veh, _EDGE_MARGIN)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    assert np.count_nonzero(got[1][:, 0] == edge) >= q.shape[0]


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_obstacle_cost_equals_exhaustive_prefilter(veh, n_seg):
    active = 0
    for seed in range(6):
        q, T, boundary = random_instance(seed, n_interior=n_seg - 1)
        traj = build_minco(q, T, boundary)
        # Scatter around the 4-knot instance of the same seed, which spans the same route.
        grid = scatter_grid(build_minco(*random_instance(seed)), seed, n_points=120)
        for margin in (0.1, 0.4):
            c = obstacle_cost_with_grads(traj, grid, veh, margin)
            value, grad_q = obstacle_cost_all_pairs(traj, grid.obstacle_points, veh, margin)
            assert c.value == value
            assert np.array_equal(c.grad_q, grad_q)
            assert np.array_equal(c.grad_T, np.zeros(n_seg))
            active += value > 0.0
    assert active > 0 or n_seg == 1


def test_obstacle_cost_early_returns_build_no_tree(veh, monkeypatch):
    calls = []
    monkeypatch.setattr(_NeighbourList, "_query", lambda *a: calls.append(1))
    traj = straight_traj()
    empty = _point_grid(np.zeros((0, 2)))
    c = obstacle_cost_with_grads(traj, empty, veh, 0.3)
    assert c.value == 0.0 and not c.grad_q.any()
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))
    one_segment = build_minco(np.zeros((0, 3)), np.array([2.0]), boundary)
    crowded = _point_grid([(1.0, 0.0), (1.2, 0.1)])
    c = obstacle_cost_with_grads(one_segment, crowded, veh, 0.3)
    assert c.value == 0.0 and c.grad_q.shape == (0, 3)
    # Neither early return may build a neighbour list.
    assert calls == []


_STAGE2_IMPORTS = """
import json, sys
import numpy as np
from sweptplan.planner import PlanOptions, PlannerWeights, _NeighbourList, optimize_stage1, optimize_stage2
from sweptplan.worldmodel import Box, estimate_headings, rasterize_obstacles
sys.path.insert(0, sys.argv[1])
from helpers import small_vehicle
calls = []
query = _NeighbourList._query
_NeighbourList._query = lambda *a: calls.append(1) or query(*a)
init = estimate_headings(np.column_stack([np.linspace(0.0, 8.0, 8), np.zeros(8)]), spacing=1.0)
r1 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=30))
grid = rasterize_obstacles([Box(3.8, -0.4, 4.2, 0.0)], (-2.0, -4.0, 12.0, 4.0), 0.2)
optimize_stage2(r1.trajectory, grid, small_vehicle(), PlannerWeights(), PlanOptions(max_iterations=30))
print(json.dumps({"rebuilds": len(calls), "scipy_spatial": "scipy.spatial" in sys.modules}))
"""


def test_stage2_with_obstacles_imports_no_scipy_spatial():
    # A fresh interpreter: the test suite itself imports scipy.spatial.
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _STAGE2_IMPORTS, here], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["rebuilds"] > 0
    assert not seen["scipy_spatial"]


def test_sweep_zero_when_aligned():
    traj = straight_traj()
    c = sweep_cost_with_grads(traj)
    assert c.value < 1e-18


def test_sweep_constant_misalignment():
    # straight +x motion with heading held at 0.1: every knot contributes 0.01
    n_interior = 3
    speed = 1.0
    boundary = Boundary(
        start=[[0.0, 0.0, 0.1], [speed, 0.0, 0.0], [0.0, 0.0, 0.0]],
        end=[[8.0, 0.0, 0.1], [speed, 0.0, 0.0], [0.0, 0.0, 0.0]],
    )
    q = np.zeros((n_interior, 3))
    q[:, 0] = [2.0, 4.0, 6.0]
    q[:, 2] = 0.1
    traj = build_minco(q, np.full(4, 2.0), boundary)
    c = sweep_cost_with_grads(traj)
    npt.assert_allclose(c.value, n_interior * 0.01, rtol=1e-9)


def test_sweep_skips_degenerate_velocity():
    # vehicle pauses at the middle knot: that knot is excluded, no NaN leaks
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (4.0, 0.0, 0.3))
    q = np.array([[2.0, 0.0, 0.15]])
    traj = build_minco(q, np.array([2.0, 2.0]), boundary)
    v = traj.sample(2.0, 1)
    c = folded(sweep_cost_with_grads, traj)
    assert np.isfinite(c.value)
    assert np.all(np.isfinite(c.grad_q))
    assert np.all(np.isfinite(c.grad_T))
    if v[0] ** 2 + v[1] ** 2 < 1e-8:
        assert c.value == 0.0


def _sweep_cases():
    for seed in range(8):
        for n_interior in (0, 1, 4, 14):
            q, T, boundary = random_instance(seed, n_interior=n_interior)
            # Headings whole turns away from travel exercise the wrap.
            q[:, 2] += np.random.default_rng(seed).integers(-3, 4, size=n_interior) * 2.0 * math.pi
            yield build_minco(q, T, boundary)
    yield straight_traj()  # y velocities of both signs of zero
    # Out and back: the turning knot has (almost) zero velocity and is skipped.
    yield build_minco(np.array([[2.0, 1.0, 0.15]]), np.array([2.0, 2.0]),
                      Boundary.rest_to_rest((0.0, 0.0, 0.0), (0.0, 0.0, 0.3)))


def test_sweep_cost_equals_numpy_scalar_oracle():
    for traj in _sweep_cases():
        c = sweep_cost_with_grads(traj)
        value, grad_C, grad_q = sweep_cost_loop(traj)
        assert c.value == value
        for a, b in ((c.grad_C, grad_C), (c.grad_q, grad_q), (c.grad_T, np.zeros(traj.n_segments))):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_sweep_gradients_match_finite_differences():
    worst = 0.0
    veh = small_vehicle()
    for seed in range(10):
        q, T, boundary = random_instance(seed)
        q = nudge_off_kinks(q, T, boundary, veh, None, 0.3, seed)

        def fn(qq, TT):
            return sweep_cost_with_grads(build_minco(qq, TT, boundary)).value

        c = folded(sweep_cost_with_grads, build_minco(q, T, boundary))
        gq, gT = fd_cost_grads(fn, q, T)
        err = rel_err(
            np.concatenate([c.grad_q.ravel(), c.grad_T]), np.concatenate([gq.ravel(), gT])
        )
        worst = max(worst, err)
    assert worst <= 1e-4


def _line_init(n=8, length=8.0):
    path = np.column_stack([np.linspace(0.0, length, n), np.zeros(n)])
    return estimate_headings(path, spacing=1.0)


def test_stage1_cost_decreases():
    init = _line_init()
    report = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=60))
    costs = report.trace[:, 0]
    assert costs[-1] <= costs[0]
    assert np.all(np.diff(costs) <= 1e-12)


def test_stage1_pure_deviation_snaps_to_anchors():
    init = _line_init()
    w = PlannerWeights(energy=0.0, time=0.0, deviation=1.0)
    report = optimize_stage1(init, w, PlanOptions(max_iterations=200))
    c = deviation_cost_with_grads(report.trajectory, init)
    assert c.value < 1e-6


def test_stage1_energy_decreases_vs_seed():
    rng = np.random.default_rng(5)
    n = 9
    path = np.column_stack([np.linspace(0.0, 8.0, n), 0.6 * rng.standard_normal(n)])
    init = estimate_headings(path, spacing=1.0)
    w = PlannerWeights(energy=1.0, time=0.0, deviation=0.0)
    opts = PlanOptions(max_iterations=150)
    report = optimize_stage1(init, w, opts)
    # compare against the energy of the raw anchor-interpolating spline
    q0 = init.poses[1:-1]
    T0 = np.linalg.norm(np.diff(init.poses[:, :2], axis=0), axis=1) / opts.init_speed
    T0 = np.maximum(T0, 1e-2)
    seed_traj = build_minco(q0, T0, Boundary.rest_to_rest(init.poses[0], init.poses[-1]))
    assert energy_cost_with_grads(report.trajectory).value < energy_cost_with_grads(seed_traj).value


def test_stage1_heading_stays_near_reference():
    init = _line_init()
    report = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=100))
    ref_phi = init.poses[1:-1, 2]
    got_phi = report.trajectory.waypoints[:, 2]
    assert np.all(np.abs(got_phi - ref_phi) < math.pi)


def test_stage1_needs_interior_knot():
    init = InitialTrajectory(poses=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(SizeMismatch):
        optimize_stage1(init)


def test_stage1_deterministic():
    init = _line_init()
    r1 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=40))
    r2 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=40))
    npt.assert_array_equal(r1.trace[:, 0], r2.trace[:, 0])
    npt.assert_array_equal(r1.trajectory.waypoints, r2.trajectory.waypoints)
    npt.assert_array_equal(r1.trajectory.durations, r2.trajectory.durations)


def test_stage2_stationary_on_empty_map(veh):
    init = _line_init()
    opts = PlanOptions(max_iterations=400)
    r1 = optimize_stage1(init, PlannerWeights(), opts)
    grid = rasterize_obstacles([], (-2.0, -4.0, 12.0, 4.0), 0.2)
    w2 = PlannerWeights(sweep=0.0)
    r2 = optimize_stage2(r1.trajectory, grid, veh, w2, opts)
    # deviation is absent in the second stage, so re-minimize stage 1 without
    # it to obtain the matching stationary point of energy + time
    w1 = PlannerWeights(deviation=0.0)
    r1b = optimize_stage1(init, w1, opts)

    def total(traj):
        from sweptplan.minco import time_cost_with_grads

        return (
            energy_cost_with_grads(traj).value
            + 20.0 * time_cost_with_grads(traj.durations).value
        )

    assert abs(total(r2.trajectory) - total(r1b.trajectory)) < 1e-3
    assert r2.feasible


def test_stage2_reduces_obstacle_cost(veh):
    init = _line_init()
    r1 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=100))
    grid = rasterize_obstacles([Box(3.8, -0.4, 4.2, 0.0)], (-2.0, -4.0, 12.0, 4.0), 0.2)
    before = obstacle_cost_with_grads(r1.trajectory, grid, veh, 0.4).value
    assert before > 0.0
    r2 = optimize_stage2(r1.trajectory, grid, veh, PlannerWeights(safety_margin=0.4), PlanOptions(max_iterations=200))
    after = obstacle_cost_with_grads(r2.trajectory, grid, veh, 0.4).value
    assert after < before


def test_stage2_sweep_weight_reduces_misalignment(veh):
    n = 9
    path = np.column_stack([np.linspace(0.0, 8.0, n), 2.0 * np.sin(np.linspace(0, 3, n))])
    init = estimate_headings(path, spacing=1.0)
    r1 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=100))
    grid = rasterize_obstacles([], (-2.0, -6.0, 12.0, 6.0), 0.2)
    opts = PlanOptions(max_iterations=300)
    r_on = optimize_stage2(r1.trajectory, grid, veh, PlannerWeights(sweep=300.0), opts)
    r_off = optimize_stage2(r1.trajectory, grid, veh, PlannerWeights(sweep=0.0), opts)
    assert sweep_cost_with_grads(r_on.trajectory).value <= sweep_cost_with_grads(r_off.trajectory).value


def test_stage2_flags_infeasible_result(veh):
    # obstacle weight zero: the knot dragged onto an obstacle stays in collision
    init = _line_init()
    r1 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=60))
    grid = rasterize_obstacles([Box(3.9, -0.1, 4.1, 0.1)], (-2.0, -4.0, 12.0, 4.0), 0.1)
    w = PlannerWeights(obstacle=0.0, sweep=0.0)
    r2 = optimize_stage2(r1.trajectory, grid, veh, w, PlanOptions(max_iterations=30))
    assert not r2.feasible
    assert r2.min_clearance < 0.0
    assert "infeasible_result" in r2.reason


@pytest.mark.parametrize("name", ["turn90", "straight"])
def test_trace_rows_account_for_every_evaluation(name, monkeypatch):
    sc = parse_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{name}.json"))
    grid = _build_grid(sc)
    init = _plan_init(sc, grid)
    evals, queries = [], []
    energy, query = planner.energy_cost_with_grads, _NeighbourList._query
    monkeypatch.setattr(planner, "energy_cost_with_grads", lambda traj: evals.append(1) or energy(traj))
    monkeypatch.setattr(_NeighbourList, "_query", lambda *a: queries.append(1) or query(*a))
    r1 = optimize_stage1(init, sc.weights, sc.plan_opts)
    n1 = len(evals)
    r2 = optimize_stage2(r1.trajectory, grid, sc.veh, sc.weights, sc.plan_opts)
    n2 = len(evals) - n1
    absent = {"stage1": ("obstacle", "sweep"), "stage2": ("deviation",)}
    for stage, report, n in zip(("stage1", "stage2"), (r1, r2), (n1, n2)):
        rows = [dict(zip(TRACE_COLUMNS, row)) for row in report.trace.tolist()]
        assert sum(row["evals"] for row in rows) == n
        assert (rows[0]["step"], rows[0]["evals"]) == (0.0, 1)
        assert all(row["step"] > 0.0 and row["evals"] >= 1 for row in rows[1:])
        assert report.iterations == len(rows) - 1 and report.trace[:, 0].tolist() == [row["cost"] for row in rows]
        assert report.final_cost == rows[-1]["cost"]
        for row in rows:
            total = row["energy"]
            for term in ("time", "deviation", "obstacle", "sweep"):
                total += row[term]
            assert total == row["cost"]  # bit for bit, left to right
            assert all(row[term] == 0.0 for term in absent[stage])
    # straight has no obstacles; on turn90 the neighbour list serves most
    # stage-2 evaluations without a rebuild.
    assert (len(queries) == 0) if name == "straight" else (0 < len(queries) <= n2 // 10)


def test_one_adjoint_solve_per_evaluation(veh, monkeypatch):
    """Each stage makes one dgbtrs call per cost evaluation, however many of
    its terms have coefficient gradients (stage 2: energy and sweep)."""
    solves = []
    dgbtrs = minco.dgbtrs
    monkeypatch.setattr(minco, "dgbtrs", lambda *a, **k: solves.append(1) or dgbtrs(*a, **k))
    grid = rasterize_obstacles([Box(3.8, -0.4, 4.2, 0.0)], (-2.0, -4.0, 12.0, 4.0), 0.2)
    opts = PlanOptions(max_iterations=30)
    r1 = optimize_stage1(_line_init(), PlannerWeights(), opts)
    n1 = len(solves)
    r2 = optimize_stage2(r1.trajectory, grid, veh, PlannerWeights(), opts)
    for report, n in ((r1, n1), (r2, len(solves) - n1)):
        assert n == int(report.trace[:, TRACE_COLUMNS.index("evals")].sum()) > 1


def test_stage_terms_call_the_module_bindings(veh, monkeypatch):
    """Each stage calls its cost terms through sweptplan.planner's bindings,
    once per evaluation, so a wrapper installed after import sees every call;
    a stage never calls a term it lacks."""
    bindings = {
        "energy": "energy_cost_with_grads",
        "time": "time_cost_with_grads",
        "deviation": "deviation_cost_with_grads",
        "obstacle": "obstacle_cost_with_grads",
        "sweep": "sweep_cost_with_grads",
    }
    calls = dict.fromkeys(bindings, 0)

    def counted(term, fn):
        def wrapper(*args, **kwargs):
            calls[term] += 1
            return fn(*args, **kwargs)

        return wrapper

    for term, attr in bindings.items():
        monkeypatch.setattr(planner, attr, counted(term, getattr(planner, attr)))
    grid = rasterize_obstacles([Box(3.8, -0.4, 4.2, 0.0)], (-2.0, -4.0, 12.0, 4.0), 0.2)
    opts = PlanOptions(max_iterations=30)
    r1 = optimize_stage1(_line_init(), PlannerWeights(), opts)
    seen1 = dict(calls)
    r2 = optimize_stage2(r1.trajectory, grid, veh, PlannerWeights(), opts)
    seen2 = {term: calls[term] - seen1[term] for term in bindings}
    assert r2.trace[:, TRACE_COLUMNS.index("obstacle")].max() > 0.0  # the hinge is active
    present = {"stage1": ("energy", "time", "deviation"), "stage2": ("energy", "time", "obstacle", "sweep")}
    for stage, report, seen in zip(("stage1", "stage2"), (r1, r2), (seen1, seen2)):
        evals = int(report.trace[:, TRACE_COLUMNS.index("evals")].sum())
        assert evals > 1
        assert seen == {term: evals if term in present[stage] else 0 for term in bindings}


def test_stages_run_with_default_weights_and_options(veh):
    """Weights and options may be omitted; each stage then uses the defaults."""
    grid = rasterize_obstacles([Box(3.8, -0.4, 4.2, 0.0)], (-2.0, -4.0, 12.0, 4.0), 0.2)
    r1 = optimize_stage1(_line_init())
    r2 = optimize_stage2(r1.trajectory, grid, veh)
    assert not isinstance(r1, CheckedPlanReport) and isinstance(r2, CheckedPlanReport)
    assert 0 < r1.iterations <= PlanOptions().max_iterations
    assert 0 < r2.iterations <= PlanOptions().max_iterations
    assert r2.feasible is not None and r2.min_clearance is not None


def test_capped_run_reports_the_cap(veh):
    init = _line_init()
    grid = rasterize_obstacles([Box(3.8, -0.4, 4.2, 0.0)], (-2.0, -4.0, 12.0, 4.0), 0.2)
    opts = PlanOptions(max_iterations=5)
    r1 = optimize_stage1(init, PlannerWeights(), opts)
    r2 = optimize_stage2(r1.trajectory, grid, veh, PlannerWeights(), opts)
    for report in (r1, r2):
        assert report.reason.startswith("max_iterations")
        assert report.iterations == 5 and len(report.trace) == 6


def _kinked_objective(rng, n=6, planes=4):
    """A convex quadratic plus weighted cubic hinges, with both parts as terms."""
    m = rng.normal(size=(n, n))
    a = m @ m.T / n + 0.1 * np.eye(n)
    b = rng.normal(size=n)
    normals = rng.normal(size=(planes, n))
    offsets = rng.uniform(-1.0, 1.0, planes)
    w = rng.uniform(1.0, 100.0)

    def fg(x):
        quad = 0.5 * float(x @ a @ x) + float(b @ x)
        h = np.maximum(offsets - normals @ x, 0.0)
        hinge = w * float(np.sum(h**3))
        return quad + hinge, a @ x + b - 3.0 * w * (normals.T @ (h * h)), (quad, hinge)

    return fg


def _same_step(got, want):
    if got is None or want is None:
        return got is want
    (alpha, f, g, terms, evals), (alpha_r, f_r, g_r, terms_r, evals_r) = got, want
    return (alpha, f, terms, evals) == (alpha_r, f_r, terms_r, evals_r) and np.array_equal(g, g_r)


def test_line_search_without_curvature_test_is_armijo_backtracking():
    """With c2 = inf the one line search returns what stage 2's former Armijo
    backtracking returned, bit for bit, on seeded kinked objectives."""
    outcomes = {"unit": 0, "halved": 0, "none": 0}
    for seed in range(500):
        rng = np.random.default_rng(seed)
        fg = _kinked_objective(rng)
        x = rng.normal(size=6)
        f, g, _ = fg(x)
        # Scaled steepest descent, 0.1-50x; every 50th 1e9x, too long to cut back within the cap.
        scale = 1e9 if seed % 50 == 0 else 10.0 ** rng.uniform(-1.0, math.log10(50.0))
        d = -scale * g * rng.uniform(0.5, 2.0, g.size)
        got = _line_search(fg, x, f, g, d, math.inf)
        assert _same_step(got, armijo_search(fg, x, f, g, d)), seed
        outcomes["none" if got is None else "unit" if got[0] == 1.0 else "halved"] += 1
    assert all(outcomes.values()), outcomes


def test_stage2_line_search_equals_armijo_backtracking(veh, monkeypatch):
    """Stage 1 searches with c2 = 0.9 and stage 2 with c2 = inf; every stage-2
    search equals the former Armijo backtracking on the same inputs."""
    search, calls = planner._line_search, []

    def spy(fg, x, f, g, d, c2):
        got = search(fg, x, f, g, d, c2)
        if c2 == math.inf:
            assert _same_step(got, armijo_search(fg, x, f, g, d))
        calls.append((c2, got))
        return got

    monkeypatch.setattr(planner, "_line_search", spy)
    r1 = optimize_stage1(_line_init(), PlannerWeights(), PlanOptions(max_iterations=40))
    n1 = len(calls)
    traj = curved_traj(seed=3)
    r2 = optimize_stage2(traj, scatter_grid(traj, 3), veh, PlannerWeights(), PlanOptions(max_iterations=150))
    assert n1 >= r1.iterations > 0 and len(calls) - n1 >= r2.iterations > 0
    assert {c2 for c2, _ in calls[:n1]} == {0.9} and {c2 for c2, _ in calls[n1:]} == {math.inf}
    assert r2.trace[:, TRACE_COLUMNS.index("obstacle")].max() > 0.0  # the hinge is active
    assert any(got and got[4] > 1 for _, got in calls[n1:])  # some stage-2 searches backtrack


def _flat_then_rising(z):
    """Cost 1e20 up to 0.5 along +x and 3e20 past it, slope -1 everywhere, so
    a halved step's Armijo slack, c1 * alpha, vanishes in rounding."""
    return (1e20 if z[0] <= 0.5 else 3e20), np.array([-1.0]), ()


def test_line_search_rejects_a_step_that_leaves_the_cost_unchanged():
    x, g, d = np.zeros(1), np.array([-1.0]), np.array([1.0])
    alpha, f, _, _, evals = armijo_search(_flat_then_rising, x, 1e20, g, d)
    assert (alpha, f, evals) == (0.5, 1e20, 2)  # the former search accepted no decrease
    for c2 in (0.9, math.inf):
        assert _line_search(_flat_then_rising, x, 1e20, g, d, c2) is None


def test_line_search_rejects_a_nan_cost():
    """A NaN cost fails the sufficient-decrease test, as it did in the former
    backtracking, so the search bisects back to a finite point."""

    def fg(z):
        t = z[0]
        return (math.nan if t > 0.75 else (t - 0.5) ** 2), np.array([2.0 * (t - 0.5)]), ()

    x, g, d = np.zeros(1), np.array([-1.0]), np.array([1.0])
    for c2 in (0.9, math.inf):
        alpha, f, _, _, evals = _line_search(fg, x, 0.25, g, d, c2)
        assert (alpha, f, evals) == (0.5, 0.0, 2)
    assert _same_step(_line_search(fg, x, 0.25, g, d, math.inf), armijo_search(fg, x, 0.25, g, d))


def test_lbfgs_reports_a_line_search_failure():
    """A search that finds no acceptable step stops the loop unconverged, with
    the trace ending at the last accepted point."""

    def fg(z):
        f = 2e20 if z[0] < 1.0 else _flat_then_rising(z - 1.0)[0]
        return f, np.array([-1.0]), (f, 0.0, 0.0, 0.0, 0.0)

    x, trace, converged, reason = _lbfgs(fg, np.zeros(1), PlanOptions(), math.inf)
    assert (converged, reason) == (False, "line_search_failure")
    assert x.tolist() == [1.0]
    assert trace[:, 0].tolist() == [2e20, 1e20] and trace[-1, 2] == 1.0


def test_check_feasibility_reports_min_clearance(veh):
    traj = straight_traj()
    grid = rasterize_obstacles([Box(5.0, 2.0, 5.1, 2.1)], (-2.0, -4.0, 14.0, 4.0), 0.1)
    feasible, clearance = check_feasibility(traj, grid, veh)
    assert feasible
    # nearest approach: obstacle cell center at lateral offset 2.05 from the
    # centerline minus the half width
    npt.assert_allclose(clearance, 1.55, atol=2e-3)
    grid2 = rasterize_obstacles([Box(5.0, 0.0, 5.1, 0.1)], (-2.0, -4.0, 14.0, 4.0), 0.1)
    feasible2, clearance2 = check_feasibility(traj, grid2, veh)
    assert not feasible2
    assert clearance2 < 0.0


def test_check_feasibility_catches_a_pass_between_samples():
    # At 50 m/s the 2 m body covers the one cell, centered at (51.25, 0.25),
    # for 0.04 s: a check sampled every 0.05 s sees it 0.25 m clear.
    veh = small_vehicle()
    grid = rasterize_obstacles([Box(51.2, 0.2, 51.3, 0.3)], (-2, -4, 104, 4), 0.1)
    assert grid.obstacle_points.tolist() == [[51.25, 0.25]]
    assert check_feasibility(straight_traj(distance=100.0, speed=50.0), grid, veh) == (False, -0.25)
    line = LinearPosePath(np.array([0.0, 2.0]), np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]))
    assert check_feasibility(line, grid, veh) == (False, -0.25)
    empty = rasterize_obstacles([], (-2, -4, 104, 4), 0.1)
    assert check_feasibility(line, empty, veh) == (True, math.inf)


@pytest.mark.parametrize("seed", range(6))
def test_check_feasibility_against_dense_scan(veh, seed):
    traj = curved_traj(seed=seed)
    grid = scatter_grid(traj, seed)
    pts = grid.obstacle_points
    feasible, clearance = check_feasibility(traj, grid, veh)
    assert clearance == min_time_distance(pts, traj, veh)[1].min()
    t_step = 1e-3
    _, f_scan = min_time_scan(pts, traj, veh.length, veh.width, t_step=t_step)
    assert feasible == (clearance >= 0.0) == (f_scan.min() >= 0.0)
    # |dg/dt| <= vmax + wmax |p - c(t)|, and c(t) stays within vmax h of a coarse center.
    ts = np.linspace(0.0, traj.total_time, COARSE_SAMPLES)
    vmax, wmax = (float(r.max()) for r in traj.rate_bounds(ts))
    centers = traj.sample(ts, 0)[:, :2]
    reach = np.linalg.norm(pts[:, None] - centers[None], axis=2).max() + vmax * ts[1]
    assert abs(clearance - f_scan.min()) <= (vmax + wmax * reach) * t_step


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("block", [None, 7])
def test_check_feasibility_refines_only_points_that_can_hold_the_least(veh, seed, block, monkeypatch):
    # The least deepest coarse sample, never below 0, plus CERT_MARGIN is the
    # level: a point whose coarse bound lies above it cannot hold the least
    # f*, so it is not refined, and the value keeps its bits. With blocks of
    # 7 points the level falls block by block, and earlier blocks refine more.
    # Each seed's scatter runs twice: as drawn, and only the points that every
    # coarse sample clears by 0.3 m, where the level lies above 0.3 m.
    traj = curved_traj(seed=seed)
    coarse = sweptfield._coarse_poses(traj)
    rates = (*traj.rate_bounds(coarse[0]), np.diff(coarse[0]))

    def scan(pts):
        vals = np.empty((COARSE_SAMPLES, pts.shape[0]))
        return sweptfield._scan(veh, pts[:, 0], pts[:, 1], coarse, rates, lambda g_min: math.inf, -math.inf, vals)

    drawn = scatter_grid(traj, seed, n_points=300).obstacle_points
    levels = []
    for pts in (drawn, drawn[scan(drawn)[0] > 0.3]):
        g_min, _, bound, _, _ = scan(pts)
        levels.append(max(0.0, float(g_min.min()) + sweptfield.CERT_MARGIN))
        can_hold = {tuple(p) for p in pts[bound <= levels[-1]].tolist()}
        everything = min_time_distance(pts, traj, veh)[1].min()
        refined = []
        with monkeypatch.context() as patch:
            refine = sweptfield._refine_times
            patch.setattr(sweptfield, "_refine_times", lambda p, *a: refined.append(p.copy()) or refine(p, *a))
            if block:
                patch.setattr(sweptfield, "SCAN_BLOCK", block)
            feasible, clearance = check_feasibility(traj, _point_grid(pts), veh)
        assert clearance == everything and feasible == (everything >= 0.0)
        (points,) = refined
        got = {tuple(p) for p in points.tolist()}
        assert 0 < len(can_hold) < pts.shape[0]
        assert got == can_hold if block is None else got >= can_hold
    assert levels[1] > 0.3


def test_plan_report_flags():
    init = _line_init()
    report = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=50))
    assert not isinstance(report, CheckedPlanReport)
    assert isinstance(report.converged, bool)
    assert report.reason
