"""Deterministic kinematic closed-loop simulation and tracking metrics.

The plant integrates the commanded world-frame twist exactly (x += dt*Vx and
so on, heading wrapped). The references of a whole run, the current pose at
each control step and every step's horizon window, are sampled once before
the loop, one sample call each. Each control step then runs the tracking QP
on its window from the previous step's solution shifted one step, optionally
low-passes the command to emulate actuation lag, allocates wheel states for
the log (a wheel too slow to have a direction keeps its previous angle), and
advances the plant. The lateral error e_y is each driven pose's offset from
the reference pose of the same time, along that reference's left normal;
e_phi is the wrapped heading difference. Metrics compare the driven path's
swept area, a certified count of its f* <= 0 cells on a given grid (the
sweep stage's), against the ribbon baseline and summarize tracking errors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .drivetrain import allocate
from .geometry import Pose2, VehicleParams, to_body_frame, wrap_angle
from .mpc import MpcConfig, mpc_step, reference_windows
from .sweptfield import UNWRITTEN, LinearPosePath, SweepCount, count_swept_cells, ribbon_report

# SimTrace.qp's columns in order, each with its value from one solve's mpc_step info
QP_COLUMNS = {
    "optimal": lambda info: int(info["status"] == "optimal"),
    "iterations": lambda info: info["iterations"],
    "active_set_size": lambda info: len(info["active_set"]),
}


@dataclass
class SimConfig:
    settle_time: float = 2.0  # extra tracking time past the trajectory end, seconds
    input_lag_tau: float = 0.0  # first-order command lag time constant; 0 disables


@dataclass
class SimTrace:
    """Uniform-dt log of the closed loop; one row per control step."""

    t: np.ndarray
    pose: np.ndarray  # (m, 3) driven pose, heading wrapped
    ref: np.ndarray  # (m, 3) sampled reference pose
    u: np.ndarray  # (m, 3) commanded world-frame twist
    e_y: np.ndarray  # signed_lateral_error(pose, ref)
    e_phi: np.ndarray  # pose heading minus reference heading, wrapped
    wheel_gamma: np.ndarray  # (m, n_wheels)
    wheel_speed: np.ndarray
    aborted: str | None = None
    # (solved steps, len(QP_COLUMNS)) ints, one row per QP solve
    qp: np.ndarray | None = None
    # wall-clock seconds inside mpc_step and allocate, summed over steps; never written to trace.csv
    mpc_s: float = 0.0
    alloc_s: float = 0.0


@dataclass
class MetricsReport:
    excess_swept_area: float
    swept_area: float  # driven swept area, m^2
    baseline_area: float  # ribbon baseline of the driven path, m^2
    max_abs_e_y: float
    mean_abs_e_y: float
    max_abs_e_phi_deg: float
    mean_abs_e_phi_deg: float
    sweep: SweepCount = field(metadata=UNWRITTEN)  # how the driven swept cells were decided
    area_s: float = field(default=0.0, metadata=UNWRITTEN)  # wall-clock seconds of the driven count


def plant_step(pose: Pose2, u_world: np.ndarray, dt: float) -> Pose2:
    """Exact integrator for the kinematic plant; heading wraps to (-pi, pi]."""
    ux, uy, w = (float(v) for v in u_world)
    return Pose2(pose.x + dt * ux, pose.y + dt * uy, pose.phi + dt * w)


def signed_lateral_error(pose: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Lateral offset of each pose from its reference pose, in the reference's frame (left positive).

    pose and ref are (m, 3) rows (x, y, phi); row i is
    cos(phi_r) (y - y_r) - sin(phi_r) (x - x_r), so a pose on its reference
    scores exactly 0.
    """
    phi = ref[:, 2]
    return np.cos(phi) * (pose[:, 1] - ref[:, 1]) - np.sin(phi) * (pose[:, 0] - ref[:, 0])


def run_closed_loop(
    traj,
    veh: VehicleParams,
    mpc_cfg: MpcConfig | None = None,
    sim_cfg: SimConfig | None = None,
    start_pose: Pose2 | None = None,
) -> SimTrace:
    """Track the trajectory until total time plus settle time.

    The plant starts at the trajectory start unless start_pose overrides it
    (used to study recovery from an initial offset).
    """
    mpc_cfg = mpc_cfg or MpcConfig()
    sim_cfg = sim_cfg or SimConfig()
    dt = mpc_cfg.dt
    duration = traj.total_time + sim_cfg.settle_time
    steps = max(1, int(round(duration / dt)))
    n_w = np.atleast_2d(veh.wheel_positions).shape[0]

    m = steps + 1
    out_t = np.arange(m) * dt
    out_pose = np.empty((m, 3))
    out_ref = np.empty((m, 3))
    # The step where mpc_step raises keeps NaN commands and wheel states.
    out_u = np.full((m, 3), np.nan)
    out_ephi = np.empty(m)
    out_g = np.full((m, n_w), np.nan)
    out_s = np.full((m, n_w), np.nan)
    qp_log = []
    aborted = None

    refs = traj.sample(np.minimum(out_t, traj.total_time), 0)
    windows = reference_windows(traj, out_t, mpc_cfg)
    pose = Pose2(*refs[0]) if start_pose is None else start_pose
    u_prev = np.zeros(3)
    u_applied = [0.0, 0.0, 0.0]
    start = None  # the previous solution shifted one step; opaque here
    if sim_cfg.input_lag_tau > 0.0:
        lag_alpha = 1.0 - math.exp(-dt / sim_cfg.input_lag_tau)
    else:
        lag_alpha = 1.0

    mpc_s = alloc_s = 0.0
    gamma = [0.0] * n_w  # each wheel's last steering angle, kept while it stands still
    for k, (rx, ry, rphi) in enumerate(refs.tolist()):
        out_pose[k] = pose.x, pose.y, pose.phi
        out_ref[k] = rx, ry, wrap_angle(rphi)
        out_ephi[k] = wrap_angle(pose.phi - rphi)
        t0 = time.perf_counter()
        try:
            u, info = mpc_step(pose, windows[k], u_prev, mpc_cfg, start=start)
            start = info["next_start"]
            qp_log.append([column(info) for column in QP_COLUMNS.values()])
        except Exception as exc:  # noqa: BLE001 - the trace records the failure mode
            aborted = f"{type(exc).__name__}: {exc}"
            m = k + 1
            break
        finally:
            mpc_s += time.perf_counter() - t0
        out_u[k] = u
        u_applied = [a + lag_alpha * (b - a) for a, b in zip(u_applied, u.tolist())]
        # Wheel states follow the applied twist expressed in the body frame.
        v_body = to_body_frame(u_applied[0], u_applied[1], math.cos(pose.phi), math.sin(pose.phi))
        u_body = (*v_body.tolist(), u_applied[2])
        t0 = time.perf_counter()
        cmds = allocate(u_body, veh, prev_gamma=gamma)
        alloc_s += time.perf_counter() - t0
        out_g[k] = gamma = [cmd.gamma for cmd in cmds]
        out_s[k] = [cmd.speed for cmd in cmds]
        if k < steps:
            pose = plant_step(pose, u_applied, dt)
            u_prev = u
    return SimTrace(
        t=out_t[:m],
        pose=out_pose[:m],
        ref=out_ref[:m],
        u=out_u[:m],
        e_y=signed_lateral_error(out_pose[:m], out_ref[:m]),
        e_phi=out_ephi[:m],
        wheel_gamma=out_g[:m],
        wheel_speed=out_s[:m],
        aborted=aborted,
        qp=np.array(qp_log, dtype=int).reshape(-1, len(QP_COLUMNS)),
        mpc_s=mpc_s,
        alloc_s=alloc_s,
    )


def driven_path(trace: SimTrace) -> LinearPosePath:
    """Piecewise-linear pose path through the driven samples (headings unwrapped)."""
    poses = trace.pose.copy()
    poses[:, 2] = np.unwrap(poses[:, 2])
    return LinearPosePath(times=trace.t, poses=poses)


def compute_metrics(trace: SimTrace, veh: VehicleParams, region, resolution: float) -> MetricsReport:
    """Tracking and sweep metrics.

    The driven path's f* <= 0 cells are counted on the grid of `resolution`
    over `region` (xmin, ymin, xmax, ymax) by `count_swept_cells`, which
    equals the count of a full swept field of the driven poses on that grid.
    """
    path = driven_path(trace)
    t0 = time.perf_counter()
    sweep = count_swept_cells(path, veh, region, resolution)
    area_s = time.perf_counter() - t0
    report = ribbon_report(float(sweep.swept) * resolution**2, path, veh)
    e_phi_deg = np.degrees(np.abs(trace.e_phi))
    return MetricsReport(
        excess_swept_area=report.excess_area,
        swept_area=report.swept_area,
        baseline_area=report.baseline_area,
        max_abs_e_y=float(np.abs(trace.e_y).max()),
        mean_abs_e_y=float(np.abs(trace.e_y).mean()),
        max_abs_e_phi_deg=float(e_phi_deg.max()),
        mean_abs_e_phi_deg=float(e_phi_deg.mean()),
        sweep=sweep,
        area_s=area_s,
    )
