"""The planner's step against its former bodies in oracles.py, bit for bit.

Each rewritten routine (the coefficient assembly, the jerk energy, the
adjoint fold, the footprint SDF, the obstacle hinge with its neighbour list,
the sweep term, the line search and the quasi-Newton loop, and the A* route)
must give its former output exactly, signed zeros included, on seeded random
inputs and on whole stage runs of both shipped scenarios.
"""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import curved_traj, random_instance, scatter_grid, small_vehicle
from oracles import (
    NeighbourListBefore,
    assemble_before,
    astar_before,
    build_minco_before,
    deviation_cost_before,
    energy_cost_before,
    footprint_sdf_batch_before,
    obstacle_cost_before,
    optimize_before,
    propagate_gradient_before,
    sweep_cost_before,
    time_cost_before,
)
import sweptplan.planner as planner
from sweptplan import minco
from sweptplan.cli import _build_grid, _plan_init, parse_scenario
from sweptplan.geometry import footprint_sdf_batch
from sweptplan.minco import CostWithGrads, build_minco, energy_cost_with_grads, propagate_gradient
from sweptplan.planner import (
    PlanOptions,
    PlannerWeights,
    _NeighbourList,
    obstacle_cost_with_grads,
    optimize_stage1,
    optimize_stage2,
    sweep_cost_with_grads,
)
from sweptplan.worldmodel import Box, GoalOccupied, NoPath, StartOccupied, astar_plan, estimate_headings, rasterize_obstacles

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _same(a, b) -> bool:
    """Equal values and equal sign bits, NaNs in the same places."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_cost(got: CostWithGrads, ref: CostWithGrads) -> bool:
    fields = [(got.value, ref.value), (got.grad_q, ref.grad_q), (got.grad_T, ref.grad_T)]
    if (got.grad_C is None) != (ref.grad_C is None):
        return False
    if got.grad_C is not None:
        fields.append((got.grad_C, ref.grad_C))
    return all(_same(a, b) for a, b in fields)


def _instances(n_seg: int, count: int = 5):
    """Seeded (q, T, boundary), durations spread over 0.05 s .. 20 s."""
    for seed in range(count):
        q, _, boundary = random_instance(seed, n_interior=n_seg - 1)
        T = np.exp(np.random.default_rng(seed + 50).uniform(-3.0, 3.0, n_seg))
        yield seed, q, T, boundary


def _stand_in(seed: int, n_seg: int):
    """A trajectory's fields over six decades of both signs, a fifth of the
    coefficients and headings zeros of either sign, and knot 0's velocity
    below the sweep term's speed floor."""
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(n_seg, 6, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n_seg, 6, 3))
    zero = rng.random(C.shape) < 0.2
    C[zero] = np.where(rng.random(C.shape) < 0.5, 0.0, -0.0)[zero]
    q = rng.normal(size=(n_seg - 1, 3)) * 3.0
    q[rng.random(q.shape) < 0.2] = -0.0
    C[0, 3:, 1] = -0.0  # a jerk-free segment component: its energy sums hold -0.0 terms only
    if seed % 5 == 0:
        C[:, 3:] = np.where(rng.random((n_seg, 3, 3)) < 0.5, 0.0, -0.0)  # no jerk anywhere
    if n_seg > 1:
        C[1, 1, :2] = (-0.0, 1e-5)  # speed^2 1e-10: a degenerate-speed knot
    return SimpleNamespace(
        coeffs=C, waypoints=q, durations=rng.uniform(0.05, 5.0, n_seg), n_segments=n_seg,
        _end_rows=(None, None, rng.normal(size=(n_seg, 3))),
    )


@pytest.mark.parametrize("n_seg", [1, 2, 9, 15])
def test_build_minco_equals_former_body(n_seg):
    for _, q, T, boundary in _instances(n_seg):
        for got, ref in zip(minco._assemble(T), assemble_before(T)):
            assert _same(got, ref) and got.flags.f_contiguous
        got, ref = build_minco(q, T, boundary), build_minco_before(q, T, boundary)
        assert _same(got.coeffs, ref.coeffs) and _same(got.knot_times, np.concatenate([[0.0], np.cumsum(T)]))
        assert _same(got._end_rows, ref._end_rows)


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_energy_and_sweep_equal_former_bodies(n_seg):
    instances = [_stand_in(seed, n_seg) for seed in range(30)]
    instances += [build_minco(q, T, boundary) for _, q, T, boundary in _instances(n_seg)]
    degenerate = 0
    for traj in instances:
        assert _same_cost(energy_cost_with_grads(traj), energy_cost_before(traj))
        got, ref = sweep_cost_with_grads(traj), sweep_cost_before(traj)
        assert _same_cost(got, ref)
        degenerate += n_seg > 1 and not ref.grad_C[1, 1, :2].any()
    assert degenerate > 0 or n_seg == 1


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_fold_equals_former_body(n_seg):
    """Costs with random, zero and no grad_C, direct gradients random, +0.0
    or -0.0, the energy's and the sweep's own costs among them."""
    for seed, q, T, boundary in _instances(n_seg):
        rng = np.random.default_rng(seed)
        traj = build_minco(q, T, boundary)
        for _ in range(6):
            costs = [energy_cost_with_grads(traj), sweep_cost_with_grads(traj)]
            for k in range(rng.integers(1, 4) + rng.integers(0, 3)):
                zero = (None, 0.0, -0.0)[rng.integers(0, 3)]
                if zero is None:
                    grad_q, grad_T = rng.standard_normal((n_seg - 1, 3)), rng.standard_normal(n_seg)
                else:
                    grad_q, grad_T = np.full((n_seg - 1, 3), zero), np.full(n_seg, zero)
                # A coupled cost with a zero grad_C gets a zero adjoint, so its direct terms' zeros decide the signs.
                grad_C = None if k % 3 == 2 else (rng.standard_normal, np.zeros)[k % 3](traj.coeffs.shape)
                costs.append(CostWithGrads(float(k), grad_q, grad_T, grad_C))
            costs = [costs[i] for i in rng.permutation(len(costs))]
            got, ref = propagate_gradient(traj, costs), propagate_gradient_before(traj, costs)
            assert all(_same_cost(a, b) for a, b in zip(got, ref))


def test_footprint_sdf_batch_equals_former_body():
    rng = np.random.default_rng(3)
    length, width = 2.0, 1.0
    pts = rng.uniform(-3.0, 3.0, size=(4000, 2))
    # Points on the edges, at the corners, on the diagonal ties and zeros of either sign.
    pts[:8] = [(1.0, 0.5), (-1.0, -0.5), (1.0, 0.0), (0.0, 0.5), (-0.0, -0.0), (0.0, -0.0), (1.5, 1.0), (-1.25, 0.75)]
    pts[8:400:3, 0] = np.where(rng.random(131) < 0.5, 0.0, -0.0)
    pts[9:400:3, 1] = np.where(rng.random(131) < 0.5, 0.5, -0.5)
    for points in (pts, pts[:0], pts[:1], pts.reshape(2, -1, 2)):
        got, ref = footprint_sdf_batch(points, length, width), footprint_sdf_batch_before(points, length, width)
        assert all(_same(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_obstacle_cost_equals_former_body(n_seg):
    """Fresh lists and kept lists along a seeded walk, with the hinge active
    at some knots and not at others; the kept lists rebuild at the same steps."""
    veh = small_vehicle()
    active = inactive = 0
    for seed, q, T, boundary in _instances(n_seg, count=4):
        rng = np.random.default_rng(seed)
        grid = scatter_grid(build_minco(*random_instance(seed)), seed, n_points=150)
        kept, kept_before = _NeighbourList(grid), NeighbourListBefore(grid)
        rebuilds = []
        kept._query = lambda *a, _q=kept._query: rebuilds.append(1) or _q(*a)
        for step in range(25):
            traj = build_minco(q, T, boundary)
            margin = (0.1, 0.4)[step % 2]
            for args, args_before in (((), ()), ((kept,), (kept_before,))):
                got = obstacle_cost_with_grads(traj, grid, veh, margin, *args)
                ref = obstacle_cost_before(traj, grid, veh, margin, *args_before)
                assert _same_cost(got, ref)
            if n_seg > 1:
                hit = ref.grad_q.any(axis=1)
                active, inactive = active + hit.sum(), inactive + (~hit).sum()
            q = q + rng.normal(scale=0.15, size=q.shape)
        assert len(rebuilds) == kept_before.queries
    assert (active > 0 and inactive > 0) or n_seg == 1


def _stage1_before(init, weights, opts):
    poses = init.poses
    chord = np.diff(poses[:, :2], axis=0)
    T0 = np.maximum(np.hypot(chord[:, 0], chord[:, 1]) / max(opts.init_speed, 1e-6), 0.1)
    terms = [
        ("energy", weights.energy, energy_cost_before),
        ("time", weights.time, lambda traj: time_cost_before(traj.durations)),
        ("deviation", weights.deviation, lambda traj: deviation_cost_before(traj, init)),
    ]
    return optimize_before(poses[1:-1], T0, minco.Boundary.rest_to_rest(poses[0], poses[-1]), terms, opts, 0.9)


def _stage2_before(traj, grid, veh, weights, opts):
    neighbours = NeighbourListBefore(grid)
    terms = [
        ("energy", weights.energy, energy_cost_before),
        ("time", weights.time, lambda tr: time_cost_before(tr.durations)),
        ("obstacle", weights.obstacle, lambda tr: obstacle_cost_before(tr, grid, veh, weights.safety_margin, neighbours)),
        ("sweep", weights.sweep, sweep_cost_before),
    ]
    return optimize_before(traj.waypoints, traj.durations, traj.boundary, terms, opts, math.inf)


def _assert_same_stage(report, before):
    traj, trace, converged, reason = before
    assert _same(report.trace, trace) and _same(report.trajectory.coeffs, traj.coeffs)
    assert (report.converged, report.reason.split(";")[0]) == (converged, reason)


def test_stages_equal_former_loop_on_seeded_instances():
    veh = small_vehicle()
    opts = PlanOptions(max_iterations=120)
    hinged = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        path = np.column_stack([np.linspace(0.0, 9.0, 10), rng.uniform(-0.6, 0.6, 10)])
        init = estimate_headings(path, spacing=1.0)
        weights = PlannerWeights()
        r1 = optimize_stage1(init, weights, opts)
        _assert_same_stage(r1, _stage1_before(init, weights, opts))
        start = curved_traj(seed=seed)
        grid = scatter_grid(start, seed, n_points=60)
        r2 = optimize_stage2(start, grid, veh, weights, opts)
        _assert_same_stage(r2, _stage2_before(start, grid, veh, weights, opts))
        hinged += r2.trace[:, planner.TRACE_COLUMNS.index("obstacle")].max() > 0.0
    assert hinged > 0


@pytest.mark.parametrize("name", ["turn90", "straight"])
def test_stages_equal_former_loop_on_scenarios(name):
    sc = parse_scenario(os.path.join(SCENARIOS, f"{name}.json"))
    grid = _build_grid(sc)
    init = _plan_init(sc, grid)
    r1 = optimize_stage1(init, sc.weights, sc.plan_opts)
    _assert_same_stage(r1, _stage1_before(init, sc.weights, sc.plan_opts))
    r2 = optimize_stage2(r1.trajectory, grid, sc.veh, sc.weights, sc.plan_opts)
    _assert_same_stage(r2, _stage2_before(r1.trajectory, grid, sc.veh, sc.weights, sc.plan_opts))


def test_astar_equals_former_search():
    rng = np.random.default_rng(17)
    bounds, routes, no_path = (0.0, 0.0, 10.0, 8.0), 0, 0
    for trial in range(40):
        res = (0.25, 0.5, 0.2)[trial % 3]
        shapes = []
        for _ in range(rng.integers(1, 7)):
            x0, y0 = rng.uniform(0.5, 8.5), rng.uniform(0.5, 6.5)
            w, h = rng.uniform(0.3, 3.0, 2)
            shapes.append(Box(x0, y0, x0 + w, y0 + h))
        if trial % 4 == 3:
            shapes.append(Box(4.6, -1.0, 5.4, 9.0))  # a wall across the world: no path between its sides
        grid = rasterize_obstacles(shapes, bounds, res)
        start, goal = rng.uniform(0.0, 10.0, 2), rng.uniform(0.0, 8.0, 2)
        clearance = (0.0, rng.uniform(0.0, 0.8))[trial % 2]
        try:
            ref = astar_before(grid, start, goal, clearance)
        except NoPath:
            with pytest.raises(NoPath):
                astar_plan(grid, start, goal, clearance)
            no_path += 1
            continue
        except (StartOccupied, GoalOccupied):
            continue  # the checks before the search are unchanged
        assert _same(astar_plan(grid, start, goal, clearance), ref), trial
        routes += 1
    for name in ("turn90", "straight"):
        sc = parse_scenario(os.path.join(SCENARIOS, f"{name}.json"))
        grid = _build_grid(sc)
        got = astar_plan(grid, sc.start[:2], sc.goal[:2], clearance=sc.clearance)
        assert _same(got, astar_before(grid, sc.start[:2], sc.goal[:2], clearance=sc.clearance))
        routes += 1
    assert routes > 20 and no_path > 0
