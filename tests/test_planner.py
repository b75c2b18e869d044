import json
import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from helpers import nudge_off_kinks, random_instance, scatter_grid, small_vehicle, straight_traj
from oracles import fd_cost_grads, obstacle_cost_all_pairs, obstacle_pairs_all, rel_err, sweep_cost_loop
import sweptplan.planner as planner
from sweptplan.cli import _build_grid, _plan_init, parse_scenario
from sweptplan.minco import Boundary, build_minco, energy_cost_with_grads
from sweptplan.planner import (
    TRACE_COLUMNS,
    PlanOptions,
    PlannerWeights,
    SizeMismatch,
    _NeighbourList,
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
    return InitialTrajectory(poses=poses, spacing=1.0)


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
        deviation_cost_with_grads(traj, InitialTrajectory(poses=np.zeros((3, 3)), spacing=1.0))


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


def test_obstacle_pairs_equal_exhaustive_prefilter(veh):
    reach = 0.3 + veh.half_diagonal + 1e-9  # as obstacle_cost_with_grads computes it
    rng = np.random.default_rng(5)
    q = np.array([[0.0, 0.0, 0.3], [1.5, -0.5, -1.0], [4.0, 4.0, 2.0]])
    edge = [
        (reach, 0.0),  # exactly at reach
        (np.nextafter(reach, 0.0), 0.0),  # just inside
        (np.nextafter(reach, np.inf), 0.0),  # just outside
        (0.0, -reach),
    ]
    grid = _point_grid(np.vstack([edge, rng.uniform(-3.0, 5.0, size=(400, 2))]))
    got = _NeighbourList(grid).pairs(q, reach)
    ref = obstacle_pairs_all(q, grid.obstacle_points, reach)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    near_origin = set(got[1][got[0] == 0].tolist())
    assert {0, 1, 3} <= near_origin and 2 not in near_origin


def test_neighbour_list_equals_exhaustive_along_random_walk(veh, monkeypatch):
    calls = []
    query = _NeighbourList._query
    monkeypatch.setattr(_NeighbourList, "_query", lambda *a: calls.append(1) or query(*a))
    rng = np.random.default_rng(11)
    grid = _point_grid(rng.uniform(-4.0, 4.0, size=(800, 2)))
    empty = _NeighbourList(_point_grid(np.zeros((0, 2))))
    nl = _NeighbourList(grid)
    reach = 0.3 + veh.half_diagonal + 1e-9
    q = rng.uniform(-2.5, 2.5, size=(5, 3))
    reused = 0
    for step in range(80):
        if step == 30:
            reach = 0.05 + veh.half_diagonal + 1e-9
        if step == 55:
            q = rng.uniform(-2.5, 2.5, size=(7, 3))
        # Steps well below the skin add up to drifts across it; every tenth
        # step jumps one knot farther than the skin at once.
        q = q + rng.normal(scale=0.03, size=q.shape)
        jump = step % 10 == 9
        if jump:
            q[step % q.shape[0], :2] += 1.5 * planner._SKIN
        queries = len(calls)
        got = nl.pairs(q, reach)
        ref = obstacle_pairs_all(q, grid.obstacle_points, reach)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert got[0].size > 0
        if jump or step in (30, 55):
            assert len(calls) == queries + 1
        reused += len(calls) == queries
        got = empty.pairs(q, reach)
        assert all(a.size == 0 for a in got)
    assert reused > 40


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
    c = obstacle_cost_with_grads(traj, empty, veh)
    assert c.value == 0.0 and not c.grad_q.any()
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))
    one_segment = build_minco(np.zeros((0, 3)), np.array([2.0]), boundary)
    crowded = _point_grid([(1.0, 0.0), (1.2, 0.1)])
    c = obstacle_cost_with_grads(one_segment, crowded, veh)
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
    v = traj.eval(2.0, 1)
    c = sweep_cost_with_grads(traj)
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


def test_sweep_cost_equals_numpy_scalar_oracle(monkeypatch):
    seen = []

    def capture(traj, grad_C, grad_T_direct=None, grad_q_direct=None):
        seen.append((grad_C, grad_q_direct))
        return propagate(traj, grad_C, grad_T_direct, grad_q_direct)

    propagate = planner.propagate_gradient
    monkeypatch.setattr(planner, "propagate_gradient", capture)
    for traj in _sweep_cases():
        c = sweep_cost_with_grads(traj)
        value, grad_C, grad_q = sweep_cost_loop(traj)
        got_C, got_q = seen.pop()
        assert c.value == value
        for a, b in ((got_C, grad_C), (got_q, grad_q)):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_sweep_gradients_match_finite_differences():
    worst = 0.0
    veh = small_vehicle()
    for seed in range(10):
        q, T, boundary = random_instance(seed)
        q = nudge_off_kinks(q, T, boundary, veh, None, 0.3, seed)

        def fn(qq, TT):
            return sweep_cost_with_grads(build_minco(qq, TT, boundary)).value

        c = sweep_cost_with_grads(build_minco(q, T, boundary))
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
    costs = report.cost_trace
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
    init = InitialTrajectory(poses=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), spacing=1.0)
    with pytest.raises(SizeMismatch):
        optimize_stage1(init)


def test_stage1_deterministic():
    init = _line_init()
    r1 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=40))
    r2 = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=40))
    npt.assert_array_equal(r1.cost_trace, r2.cost_trace)
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
    for report, n in ((r1, n1), (r2, n2)):
        rows = [dict(zip(TRACE_COLUMNS, row)) for row in report.trace.tolist()]
        assert sum(row["evals"] for row in rows) == n
        assert (rows[0]["step"], rows[0]["evals"]) == (0.0, 1)
        assert all(row["step"] > 0.0 and row["evals"] >= 1 for row in rows[1:])
        assert report.iterations == len(rows) - 1 and report.cost_trace == [row["cost"] for row in rows]
        for row in rows:
            total = row["energy"]
            for term in ("time", "deviation", "obstacle", "sweep"):
                total += row[term]
            assert total == row["cost"]  # bit for bit, left to right
            assert all(row[term] == 0.0 for term in absent[report.stage])
    # straight has no obstacles; on turn90 the neighbour list serves most
    # stage-2 evaluations without a rebuild.
    assert (len(queries) == 0) if name == "straight" else (0 < len(queries) <= n2 // 10)


def test_capped_run_reports_the_cap(veh):
    init = _line_init()
    grid = rasterize_obstacles([Box(3.8, -0.4, 4.2, 0.0)], (-2.0, -4.0, 12.0, 4.0), 0.2)
    opts = PlanOptions(max_iterations=5)
    r1 = optimize_stage1(init, PlannerWeights(), opts)
    r2 = optimize_stage2(r1.trajectory, grid, veh, PlannerWeights(), opts)
    for report in (r1, r2):
        assert report.reason.startswith("max_iterations")
        assert report.iterations == 5 and len(report.trace) == 6


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


def test_plan_report_wall_time_and_flags():
    init = _line_init()
    report = optimize_stage1(init, PlannerWeights(), PlanOptions(max_iterations=50))
    assert report.wall_time_s >= 0.0
    assert report.stage == "stage1"
    assert isinstance(report.converged, bool)
    assert report.reason
