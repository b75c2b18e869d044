import math

import numpy as np
import numpy.testing as npt
import pytest

import sweptplan.drivetrain as drivetrain
import sweptplan.mpc as mpc
import sweptplan.sim as sim
from helpers import rotation_traj, straight_traj
from oracles import mpc_step_per_step
from sweptplan.drivetrain import STEER_HOLD_SPEED
from sweptplan.geometry import Pose2
from sweptplan.minco import Boundary, build_minco
from sweptplan.mpc import MpcConfig
from sweptplan.sim import (
    MetricsReport,
    SimConfig,
    compute_metrics,
    driven_path,
    plant_step,
    run_closed_loop,
    signed_lateral_error,
)
from sweptplan.sweptfield import auto_region


def test_plant_zero_input():
    p = plant_step(Pose2(1.0, 2.0, 0.5), np.zeros(3), 0.1)
    assert (p.x, p.y, p.phi) == (1.0, 2.0, 0.5)


def test_plant_advances_x():
    p = plant_step(Pose2(0.0, 0.0, 0.0), np.array([1.0, 0.0, 0.0]), 0.1)
    npt.assert_allclose(p.x, 0.1)


def test_plant_accumulates_heading():
    p = Pose2(0.0, 0.0, 0.0)
    for _ in range(10):
        p = plant_step(p, np.array([0.0, 0.0, math.pi / 2.0]), 0.1)
    npt.assert_allclose(p.phi, math.pi / 2.0, atol=1e-12)


def test_plant_wraps_heading():
    p = plant_step(Pose2(0.0, 0.0, 3.1), np.array([0.0, 0.0, 1.0]), 0.1)
    assert -math.pi < p.phi <= math.pi


def test_plant_exact_for_piecewise_constant_inputs(rng):
    pose = Pose2(0.0, 0.0, 0.0)
    fine = Pose2(0.0, 0.0, 0.0)
    dt = 0.05
    for _ in range(1000):
        u = rng.uniform(-2.0, 2.0, 3)
        pose = plant_step(pose, u, dt)
        for _ in range(10):
            fine = plant_step(fine, u, dt / 10.0)
        npt.assert_allclose(
            [pose.x, pose.y], [fine.x, fine.y], atol=1e-9
        )
        assert abs(math.remainder(pose.phi - fine.phi, 2.0 * math.pi)) < 1e-9


def test_signed_lateral_error_sign_convention():
    # reference at (1, 2) heading 2 rad: offsets along its left normal and its heading
    phi = 2.0
    ref = np.tile([1.0, 2.0, phi], (4, 1))
    left, ahead = np.array([-math.sin(phi), math.cos(phi)]), np.array([math.cos(phi), math.sin(phi)])
    pose = ref.copy()
    pose[:, :2] += [2.0 * left, -2.0 * left, 3.0 * ahead, 1.5 * left - 0.7 * ahead]
    pose[:, 2] += [0.3, -1.0, 2.5, 0.0]  # the pose's own heading plays no part
    e_y = signed_lateral_error(pose, ref)
    assert e_y[0] > 0.0 and e_y[1] < 0.0
    npt.assert_allclose(e_y, [2.0, -2.0, 0.0, 1.5], atol=1e-12)


def test_replayed_reference_has_zero_lateral_error(veh, bend_traj):
    trace = run_closed_loop(bend_traj, veh, sim_cfg=SimConfig(settle_time=0.5))
    assert np.array_equal(trace.e_y, signed_lateral_error(trace.pose, trace.ref))
    assert np.all(signed_lateral_error(trace.ref, trace.ref) == 0.0)


def test_constant_pose_hold(veh):
    pose = (2.0, 1.0, 0.7)
    traj = build_minco(np.zeros((0, 3)), np.array([3.0]), Boundary.rest_to_rest(pose, pose))
    trace = run_closed_loop(traj, veh, start_pose=Pose2(*pose))
    assert trace.aborted is None
    assert np.abs(trace.e_y).max() <= 1e-6
    assert np.abs(trace.e_phi).max() <= 1e-6


def test_straight_line_steady_state(veh, line_traj):
    trace = run_closed_loop(line_traj, veh)
    assert trace.aborted is None
    # after the controller locks on, lateral error stays tiny
    settled = trace.t > 1.0
    assert np.abs(trace.e_y[settled]).max() <= 1e-3


def test_lateral_offset_recovers(veh, line_traj):
    cfg = MpcConfig()
    trace = run_closed_loop(
        line_traj, veh, mpc_cfg=cfg, start_pose=Pose2(0.0, 0.5, 0.0)
    )
    k = cfg.horizon
    tail = np.abs(trace.e_y[k:])
    assert tail.max() < 0.5
    assert np.abs(trace.e_y[-1]) < 0.05
    # error after the transient never grows back above its running bound
    running_max = np.maximum.accumulate(tail[::-1])[::-1]
    assert np.all(tail <= running_max + 1e-12)
    first_below = int(np.argmax(tail < 0.05))
    assert np.all(tail[first_below:] < 0.05 + 1e-9)


def test_trace_shape_and_uniform_dt(veh, line_traj):
    sim = SimConfig(settle_time=1.0)
    cfg = MpcConfig()
    trace = run_closed_loop(line_traj, veh, mpc_cfg=cfg, sim_cfg=sim)
    steps = np.diff(trace.t)
    npt.assert_allclose(steps, cfg.dt, atol=1e-12)
    expect_rows = round((line_traj.total_time + sim.settle_time) / cfg.dt) + 1
    assert trace.t.shape[0] == expect_rows
    assert trace.pose.shape == (expect_rows, 3)
    assert trace.wheel_gamma.shape == (expect_rows, veh.wheel_positions.shape[0])


def test_heading_rate_limit_respected(veh):
    traj = rotation_traj(turns=0.5, duration=6.0)
    cfg = MpcConfig()
    trace = run_closed_loop(traj, veh, mpc_cfg=cfg)
    dphi = np.abs(np.diff(np.unwrap(trace.pose[:, 2])))
    assert dphi.max() <= veh.omega_max * cfg.dt + 1e-9


def test_determinism(veh, line_traj):
    t1 = run_closed_loop(line_traj, veh)
    t2 = run_closed_loop(line_traj, veh)
    npt.assert_array_equal(t1.pose, t2.pose)
    npt.assert_array_equal(t1.u, t2.u)
    npt.assert_array_equal(t1.wheel_gamma, t2.wheel_gamma)
    npt.assert_array_equal(t1.wheel_speed, t2.wheel_speed)


def test_input_lag_still_tracks(veh, line_traj):
    trace = run_closed_loop(line_traj, veh, sim_cfg=SimConfig(input_lag_tau=0.1))
    assert trace.aborted is None
    assert np.abs(trace.e_y[-1]) < 0.05


def test_driven_path_matches_trace(veh, line_traj):
    trace = run_closed_loop(line_traj, veh)
    path = driven_path(trace)
    npt.assert_allclose(path.total_time, trace.t[-1])
    mid = trace.t.shape[0] // 2
    npt.assert_allclose(path.sample(np.array([trace.t[mid]]), 0)[0][:2], trace.pose[mid, :2], atol=1e-12)


def test_stationary_metrics(veh):
    pose = (1.0, -1.0, 0.2)
    traj = build_minco(np.zeros((0, 3)), np.array([3.0]), Boundary.rest_to_rest(pose, pose))
    trace = run_closed_loop(traj, veh, start_pose=Pose2(*pose))
    path = driven_path(trace)
    report = compute_metrics(trace, veh, auto_region(path, veh), 0.02)
    assert isinstance(report, MetricsReport)
    npt.assert_allclose(report.excess_swept_area + 2.0, 2.0, atol=0.05)
    assert report.max_abs_e_y <= 1e-6
    assert report.max_abs_e_phi_deg <= 1e-6
    assert report.max_abs_e_y >= report.mean_abs_e_y
    assert report.max_abs_e_phi_deg >= report.mean_abs_e_phi_deg


def test_straight_metrics_near_zero_excess(veh, line_traj):
    trace = run_closed_loop(line_traj, veh)
    path = driven_path(trace)
    report = compute_metrics(trace, veh, auto_region(path, veh), 0.05)
    assert abs(report.excess_swept_area) < 0.15
    assert report.max_abs_e_y < 0.01


def test_abort_produces_partial_trace(veh, line_traj):
    # impossible rate constraints: the QP becomes infeasible immediately
    cfg = MpcConfig(u_min=np.array([2.0, -1.0, -1.0]) * 0 + np.array([2.0, -1.0, -1.0]),
                    u_max=np.array([3.0, 1.0, 1.0]),
                    du_min=np.full(3, -0.001), du_max=np.full(3, 0.001))
    trace = run_closed_loop(line_traj, veh, mpc_cfg=cfg)
    assert trace.aborted is not None
    assert "Infeasible" in trace.aborted
    assert trace.t.shape[0] >= 1


def test_closed_loop_matches_per_step_mpc(veh, bend_traj, monkeypatch):
    cfg = MpcConfig(du_min=np.array([-0.1, -0.1, -0.05]), du_max=np.array([0.1, 0.1, 0.05]))
    sim_cfg = SimConfig(settle_time=0.5)
    got = run_closed_loop(bend_traj, veh, mpc_cfg=cfg, sim_cfg=sim_cfg)
    monkeypatch.setattr(sim, "mpc_step", mpc_step_per_step)
    want = run_closed_loop(bend_traj, veh, mpc_cfg=cfg, sim_cfg=sim_cfg)
    assert got.aborted is None and want.aborted is None
    assert (got.qp[:, 2] > 0).any()  # constraints bind, so ratio tests and warm starts do work
    for name in ("t", "pose", "ref", "u", "e_y", "e_phi", "wheel_gamma", "wheel_speed", "qp"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_closed_loop_inverts_each_hessian_once(veh, bend_traj):
    sim_cfg = SimConfig(settle_time=0.5)
    mpc._hessian_inverse.cache_clear()
    solves = 0
    for k, weight in enumerate((0.05, 0.2)):
        cfg = MpcConfig(input_weight=np.diag([weight] * 3))
        trace = run_closed_loop(bend_traj, veh, mpc_cfg=cfg, sim_cfg=sim_cfg)
        assert trace.aborted is None
        solves += trace.qp.shape[0]
        info = mpc._hessian_inverse.cache_info()
        assert (info.misses, info.hits) == (k + 1, solves - k - 1)


def test_closed_loop_records_a_linalg_error_as_abort(veh, line_traj, monkeypatch):
    real = mpc.build_qp
    calls = []

    def zero_hessian_on_fourth(*args):
        prob = real(*args)
        calls.append(1)
        if len(calls) == 4:
            prob.H = np.zeros_like(prob.H)
        return prob

    monkeypatch.setattr(mpc, "build_qp", zero_hessian_on_fourth)
    trace = run_closed_loop(line_traj, veh)
    assert trace.aborted.startswith("LinAlgError: ")
    assert trace.t.shape[0] == 4 and trace.qp.shape[0] == 3
    assert np.isnan(trace.u[-1]).all() and not np.isnan(trace.u[:-1]).any()


def test_stopped_wheels_keep_their_steering_angle(veh, bend_traj, monkeypatch):
    # Against a run without the hold, only the wheels slower than the threshold
    # change, and each keeps the angle of its previous row.
    sim_cfg = SimConfig(settle_time=3.0)
    held = run_closed_loop(bend_traj, veh, sim_cfg=sim_cfg)
    monkeypatch.setattr(drivetrain, "STEER_HOLD_SPEED", 0.0)
    free = run_closed_loop(bend_traj, veh, sim_cfg=sim_cfg)
    slow = np.abs(free.wheel_speed) < STEER_HOLD_SPEED
    assert slow.any() and not slow.all()
    for name in ("t", "pose", "ref", "u", "e_y", "e_phi", "qp"):
        assert np.array_equal(getattr(held, name), getattr(free, name)), name
    assert np.array_equal(held.wheel_gamma[~slow], free.wheel_gamma[~slow])
    assert np.array_equal(held.wheel_speed[~slow], free.wheel_speed[~slow])
    previous = np.vstack([np.zeros((1, slow.shape[1])), held.wheel_gamma[:-1]])
    assert np.array_equal(held.wheel_gamma[slow], previous[slow])
    assert np.abs(held.wheel_speed[slow]).max() < STEER_HOLD_SPEED
