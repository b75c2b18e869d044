"""End-to-end acceptance checks for the whole toolkit.

Every test prints exactly one [PASS]/[FAIL] line with the measured numbers
(run pytest with -s to see the lines for passing tests too). Tolerances and
time budgets are stated inline next to each check.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from artifacts import compare_trees
from helpers import (
    curved_traj,
    folded,
    nudge_off_kinks,
    on_area_grid,
    random_instance,
    rotation_traj,
    scatter_grid,
    small_vehicle,
    straight_traj,
)
from oracles import (
    boundary_distance,
    fd_cost_grads,
    min_time_scan,
    qp_enumerate,
    rect_boundary_points,
    rel_err,
)
from sweptplan.cli import STAGES, parse_scenario
from sweptplan.drivetrain import allocate, reconstruct_twist
from sweptplan.geometry import Pose2, footprint_sdf_batch, footprint_sdf_values, footprint_sdf_with_grad
from sweptplan.minco import (
    MincoTrajectory,
    build_minco,
    energy_cost_with_grads,
    time_cost_with_grads,
)
from sweptplan.mpc import MpcConfig, MpcProblem, build_qp, solve_qp
from sweptplan.planner import (
    check_feasibility,
    deviation_cost_with_grads,
    obstacle_cost_with_grads,
    sweep_cost_with_grads,
)
from sweptplan.sweptfield import compute_swept_field, min_time_distance, swept_area
from sweptplan.worldmodel import Grid, InitialTrajectory, rasterize_obstacles

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
TURN90 = os.path.join(ROOT, "scenarios", "turn90.json")
STRAIGHT = os.path.join(ROOT, "scenarios", "straight.json")


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}")
    assert ok, f"acceptance {num}: {desc}"


def test_acceptance_1_gradient_fidelity():
    """Analytic cost gradients track central finite differences."""
    veh = small_vehicle()
    t0 = time.perf_counter()
    d_th = 0.4
    worst = 0.0
    for seed in range(10):
        q, T, boundary = random_instance(seed)
        grid = scatter_grid(build_minco(q, T, boundary), seed)
        q = nudge_off_kinks(q, T, boundary, veh, grid.obstacle_points, d_th, seed)
        ref = InitialTrajectory(poses=np.vstack([boundary.start[0], q + 0.25, boundary.end[0]]))
        costs = {
            "energy": lambda qq, TT: folded(energy_cost_with_grads, build_minco(qq, TT, boundary)),
            "time": lambda qq, TT: time_cost_with_grads(TT),
            "deviation": lambda qq, TT: deviation_cost_with_grads(
                build_minco(qq, TT, boundary), ref
            ),
            "obstacle": lambda qq, TT: obstacle_cost_with_grads(
                build_minco(qq, TT, boundary), grid, veh, d_th
            ),
            "sweep": lambda qq, TT: folded(sweep_cost_with_grads, build_minco(qq, TT, boundary)),
        }
        for cost in costs.values():
            got = cost(q, T)
            analytic = np.concatenate([got.grad_q.ravel(), got.grad_T])
            gq, gT = fd_cost_grads(lambda qq, TT: cost(qq, TT).value, q, T, step=1e-6)
            worst = max(worst, rel_err(analytic, np.concatenate([gq.ravel(), gT])))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        f"gradients of all 5 costs vs central differences on 10 seeded instances "
        f"each: worst rel err {worst:.2e} <= 1e-3, runtime {elapsed:.1f}s < 30s",
        worst <= 1e-3 and elapsed < 30.0,
    )


def test_acceptance_2_sdf_oracle():
    """Footprint distance agrees with dense boundary sampling; interior exact.

    Checked for the scalar SDF and for the two vectorized ones the pipeline
    calls (values of footprint_sdf_batch, and footprint_sdf_values).
    """
    veh = small_vehicle()
    rng = np.random.default_rng(2024)
    bpts = rect_boundary_points(veh.length, veh.width, 40000)

    def all_values(pts):
        scalar = np.array([footprint_sdf_with_grad(p, veh).value for p in pts])
        batch, _ = footprint_sdf_batch(pts, veh.length, veh.width)
        return scalar, batch, footprint_sdf_values(pts, veh.length, veh.width)

    outer = np.array([rng.uniform([-4.0, -4.0], [4.0, 4.0]) for _ in range(1000)])
    d = np.array([boundary_distance(p, bpts) for p in outer])
    worst = max(float(np.max(np.abs(np.abs(v) - d))) for v in all_values(outer))
    hl, hw = veh.length / 2.0, veh.width / 2.0
    inner = np.array([rng.uniform([-hl, -hw], [hl, hw]) for _ in range(1000)])
    expect = np.array([-min(hl - abs(p[0]), hw - abs(p[1])) for p in inner])
    interior_exact = all(np.array_equal(v, expect) for v in all_values(inner))
    _report(
        2,
        f"distance field (scalar, batch, values) vs 40000-sample boundary oracle on 1000 seeded points: "
        f"worst |diff| {worst:.2e} <= 1e-3 m; interior identity exact: {interior_exact}",
        worst <= 1e-3 and interior_exact,
    )


def test_acceptance_3_swept_area_analytics():
    """Grid swept areas reproduce the two closed-form cases."""
    veh = small_vehicle()
    t0 = time.perf_counter()
    line = straight_traj(distance=10.0, speed=1.0)
    a_line = swept_area(compute_swept_field(line, veh, resolution=0.02))
    t_line = time.perf_counter() - t0
    t0 = time.perf_counter()
    spin = rotation_traj(turns=1.0)
    a_spin = swept_area(compute_swept_field(spin, veh, resolution=0.02))
    t_spin = time.perf_counter() - t0
    line_ok = abs(a_line - 12.0) / 12.0 <= 0.02 and t_line < 20.0
    spin_expect = 1.25 * math.pi
    spin_ok = abs(a_spin - spin_expect) / spin_expect <= 0.02 and t_spin < 20.0
    _report(
        3,
        f"straight 10 m sweep {a_line:.3f} m^2 within 2% of 12 ({t_line:.1f}s < 20s); "
        f"in-place turn {a_spin:.4f} m^2 within 2% of {spin_expect:.4f} ({t_spin:.1f}s < 20s)",
        line_ok and spin_ok,
    )


def test_acceptance_4_min_time_against_brute_force():
    """Per-point refined minimum matches a 1e-3 s exhaustive time scan."""
    veh = small_vehicle()
    traj = curved_traj(seed=11, n_interior=5)
    rng = np.random.default_rng(4)
    pts = rng.uniform([-1.5, -4.0], [11.5, 7.0], size=(200, 2))
    _, f_oracle = min_time_scan(pts, traj, veh.length, veh.width, t_step=1e-3)
    worst = 0.0
    for i in range(pts.shape[0]):
        _, (f,) = min_time_distance(pts[i : i + 1], traj, veh)
        worst = max(worst, abs(f - f_oracle[i]))
    _report(
        4,
        f"refined f* vs 1e-3 s time-grid scan on 200 seeded queries: worst |diff| "
        f"{worst:.2e} <= 1e-2 m",
        worst <= 1e-2,
    )


def _interleave_chains(mats):
    """Per-component chain blocks -> one matrix over step-stacked variables."""
    nc = mats[0].shape[0]
    H = np.zeros((3 * nc, 3 * nc))
    for c, m in enumerate(mats):
        for i in range(nc):
            for j in range(nc):
                H[c + 3 * i, c + 3 * j] = m[i, j]
    return H


def test_acceptance_5_qp_oracle():
    """Active-set solve equals exhaustive enumeration; one-step dead beat exact."""
    rng = np.random.default_rng(55)
    worst = 0.0
    solved = 0
    # 20 dense three-variable problems: every box and rate row enumerated
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        h = a @ a.T + 3.0 * np.eye(3)
        g = 4.0 * rng.standard_normal(3)
        lo = rng.uniform(-1.5, -0.2, 3)
        hi = rng.uniform(0.2, 1.5, 3)
        u_prev = rng.uniform(lo, hi)
        du_hi = rng.uniform(0.3, 1.0, 3)
        du_lo = -rng.uniform(0.3, 1.0, 3)
        prob = MpcProblem(H=h, g=g, lb=lo, ub=hi, du_lb=du_lo, du_ub=du_hi, u_prev=u_prev, nc=1)
        got, _ = solve_qp(prob)
        oracle, _ = qp_enumerate(h, g, lo, hi, u_prev, du_lo, du_hi, nu=3)
        worst = max(worst, float(np.abs(got - oracle).max()))
        solved += 1
    # 10 dense six-variable problems whose rate bounds exceed any box-feasible
    # step, so only box rows can be active; enumerating box subsets is then
    # exhaustive, and candidate feasibility is still checked against all rows
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        h = a @ a.T + 6.0 * np.eye(6)
        g = 6.0 * rng.standard_normal(6)
        lo = rng.uniform(-1.5, -0.2, 6)
        hi = rng.uniform(0.2, 1.5, 6)
        u_prev = rng.uniform(lo[:3], hi[:3])
        du_hi = np.full(3, 10.0)
        du_lo = np.full(3, -10.0)
        prob = MpcProblem(H=h, g=g, lb=lo, ub=hi, du_lb=du_lo, du_ub=du_hi, u_prev=u_prev, nc=2)
        got, _ = solve_qp(prob)
        oracle, _ = qp_enumerate(
            h, g, lo, hi, u_prev, du_lo, du_hi, nu=3, box_only_subsets=True
        )
        worst = max(worst, float(np.abs(got - oracle).max()))
        solved += 1
    # 10 six- and 10 nine-variable problems with tight, active rate chains.
    # The quadratic is built to decouple across the three input components, so
    # the exact optimum is the concatenation of three exhaustively enumerated
    # scalar chains while solve_qp still sees one problem of full size.
    for trial in range(20):
        nc = 2 if trial < 10 else 3
        chains = []
        gs = []
        for _ in range(3):
            a = rng.standard_normal((nc, nc))
            chains.append(a @ a.T + nc * np.eye(nc))
            gs.append(3.0 * rng.standard_normal(nc))
        H = _interleave_chains(chains)
        g = np.zeros(3 * nc)
        for c in range(3):
            g[c::3] = gs[c]
        lo = rng.uniform(-1.5, -0.2, 3 * nc)
        hi = rng.uniform(0.2, 1.5, 3 * nc)
        # every step's box contains [-0.2, 0.2] and the rate interval contains
        # zero, so a start inside that core keeps the whole chain feasible
        u_prev = rng.uniform(-0.2, 0.2, 3)
        du_hi = rng.uniform(0.25, 0.8, 3)
        du_lo = -rng.uniform(0.25, 0.8, 3)
        prob = MpcProblem(H=H, g=g, lb=lo, ub=hi, du_lb=du_lo, du_ub=du_hi, u_prev=u_prev, nc=nc)
        got, _ = solve_qp(prob)
        for c in range(3):
            xc, _ = qp_enumerate(
                chains[c],
                gs[c],
                lo[c::3],
                hi[c::3],
                np.array([u_prev[c]]),
                np.array([du_lo[c]]),
                np.array([du_hi[c]]),
                nu=1,
            )
            worst = max(worst, float(np.abs(got[c::3] - xc).max()))
        solved += 1

    # one-step dead beat: unit state weight, no input weight, no active bounds
    cfg = MpcConfig(
        dt=0.1,
        horizon=1,
        control_horizon=1,
        state_weight=np.eye(3),
        input_weight=np.zeros((3, 3)),
        u_min=np.full(3, -1e9),
        u_max=np.full(3, 1e9),
    )
    db_worst = 0.0
    for _ in range(20):
        state = Pose2(*rng.uniform(-1.0, 1.0, 3))
        target = rng.uniform(-1.0, 1.0, 3)
        u, _ = solve_qp(build_qp(state, target, np.zeros(3), cfg))
        db_worst = max(db_worst, float(np.abs(u - (target - state.as_array()) / cfg.dt).max()))
    _report(
        5,
        f"box/rate QP vs exhaustive enumeration on {solved} seeded problems of "
        f"3, 6, and 9 variables: worst |diff| {worst:.2e} <= 1e-6; one-step "
        f"dead-beat error {db_worst:.2e} <= 1e-9",
        solved == 50 and worst <= 1e-6 and db_worst <= 1e-9,
    )


def test_acceptance_6_twist_round_trip():
    """Wheel allocation inverts exactly; translation steers all wheels alike."""
    veh = parse_scenario(TURN90).veh
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform([-2.0, -2.0, -1.0], [2.0, 2.0, 1.0])
        back = reconstruct_twist(allocate(u, veh), veh)
        worst = max(worst, float(np.abs(back - u).max()))
    uniform = True
    for _ in range(100):
        u = np.array([*rng.uniform(-2.0, 2.0, 2), 0.0])
        if abs(u[0]) + abs(u[1]) < 1e-9:
            continue
        gammas = [c.gamma for c in allocate(u, veh)]
        if any(g != gammas[0] for g in gammas):
            uniform = False
            break
    _report(
        6,
        f"allocate-reconstruct round trip on 100 seeded twists: worst |diff| "
        f"{worst:.2e} <= 1e-9; pure-translation steering bitwise uniform: {uniform}",
        worst <= 1e-9 and uniform,
    )


@pytest.fixture(scope="module")
def turn90_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("turn90")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "sweptplan",
            "all",
            "--config",
            TURN90,
            "--out",
            str(out),
            "--ablate-sv",
        ],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_acceptance_7_corner_scenario(turn90_run):
    """Five-axle corner scenario: fast plan, collision-free, tracked, ablated."""
    out = turn90_run
    timings = json.loads((out / "sv_on" / "timings.json").read_text())
    plan_s = timings["plan_s"]

    sc = parse_scenario(TURN90)
    grid = rasterize_obstacles(sc.obstacles, sc.bounds, sc.resolution)
    traj = MincoTrajectory.from_dict(
        json.loads((out / "sv_on" / "trajectory.json").read_text())
    )
    feasible, clearance = check_feasibility(traj, grid, sc.veh)

    rows = (out / "sv_on" / "trace.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    t = data[:, header.index("t")]
    e_y = data[:, header.index("e_y")]
    e_phi = data[:, header.index("e_phi")]
    settle = t >= t[-1] - sc.sim.settle_time + 1e-9
    ss_ey = float(np.abs(e_y[settle]).max())
    ss_ephi = float(np.degrees(np.abs(e_phi[settle])).max())

    ab = json.loads((out / "ablation.json").read_text())
    _report(
        7,
        f"90-degree corner, 5-axle 8.1x2.7 m vehicle: plan {plan_s:.2f}s < 5s; "
        f"certified min clearance {clearance:.3f} m >= 0; steady-state |e_y| {ss_ey:.2e} "
        f"<= 0.1 m and |e_phi| {ss_ephi:.2e} deg <= 0.5; sweep-term ablation excess "
        f"{ab['sv_on_excess']:.2f} <= {ab['sv_off_excess']:.2f} m^2",
        plan_s < 5.0
        and feasible
        and clearance >= 0.0
        and ss_ey <= 0.1
        and ss_ephi <= 0.5
        and ab["sv_on_excess"] <= ab["sv_off_excess"],
    )


def test_turn90_metrics_count_on_the_sweep_grid(turn90_run):
    """The metrics stage counts driven cells on exactly the sweep stage's
    grid, the grid of area.json on whose centers every field.csv row lies."""
    for label in ("sv_on", "sv_off"):
        area = json.loads((turn90_run / label / "area.json").read_text())
        xy = np.loadtxt(turn90_run / label / "field.csv", delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
        assert xy.shape[0] == area["field_refined"] > 0 and on_area_grid(xy, area), label
        grid = Grid.covering(area["region"], area["resolution"])
        sweep = json.loads((turn90_run / label / "metrics_sweep.json").read_text())
        assert sweep["cells"] == grid.width * grid.height == area["field_cells"], label


def test_turn90_sweep_refines_only_the_band(turn90_run):
    """The planned field refines the cells near the swept body, not the grid."""
    area = json.loads((turn90_run / "sv_on" / "area.json").read_text())
    sweep = json.loads((turn90_run / "sv_on" / "metrics_sweep.json").read_text())
    assert area["field_cells"] == sweep["cells"]
    assert 0 < area["field_refined"] <= 0.15 * area["field_cells"]


def test_acceptance_8_determinism(tmp_path):
    """Identical inputs give byte-identical artifacts under any string hash seed."""
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"h{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "sweptplan",
                "all",
                "--config",
                STRAIGHT,
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=600,
            env=env,
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    same = compare_trees(str(outs[0]), str(outs[1]))
    written = {name for _, writes, _ in STAGES.values() for name in writes}
    _report(
        8,
        "two pipeline runs, PYTHONHASHSEED 0 vs 1: artifacts byte-identical, timings.json keys equal: "
        + ", ".join(f"{k}={v}" for k, v in same.items()),
        set(same) == written | {"timings.json"} and all(same.values()),
    )
