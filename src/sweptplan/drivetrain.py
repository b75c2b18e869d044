"""Per-wheel steering and speed allocation for a swerve drivetrain.

Each wheel's linear velocity follows from the body twist by rigid-body
kinematics; the steering angle is folded into (-pi/2, pi/2] with a signed
wheel speed so modules never swing more than a quarter turn. The inverse map
(least squares over all wheels) reconstructs the body twist for verification.
A wheel slower than STEER_HOLD_SPEED keeps its previous steering angle, since
the direction of its velocity is then rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STEER_HOLD_SPEED = 1e-6  # m/s; a slower wheel keeps its previous steering angle


class RankDeficient(Exception):
    """Raised when the wheel layout cannot determine a unique twist."""


@dataclass
class WheelCommand:
    """Steering angle (radians, in (-pi/2, pi/2]) and signed drive speed (m/s)."""

    gamma: float
    speed: float


def wheel_velocity(u_body: np.ndarray, wheel_xy: np.ndarray) -> tuple[float, float]:
    """Linear velocity of a wheel mount point under body twist (Vx, Vy, omega).

    This is the rigid-body form (Vx - omega*Yw, Vy + omega*Xw); the paper
    prints +omega*Yw in the x row, which is not a rigid-body velocity.
    """
    vx, vy, w = (float(v) for v in u_body)
    xw, yw = float(wheel_xy[0]), float(wheel_xy[1])
    return vx - w * yw, vy + w * xw


def fold_steering(v: np.ndarray, prev_gamma: float = 0.0) -> WheelCommand:
    """Fold a wheel velocity vector into a (-pi/2, pi/2] steering angle and signed speed.

    Below STEER_HOLD_SPEED the wheel keeps prev_gamma and drives at v's
    component along it, instead of steering to the atan2 of rounding noise.
    """
    return _fold(float(v[0]), float(v[1]), prev_gamma)


def _fold(vx: float, vy: float, prev_gamma: float) -> WheelCommand:
    speed = math.hypot(vx, vy)
    if speed < STEER_HOLD_SPEED:
        return WheelCommand(gamma=prev_gamma, speed=vx * math.cos(prev_gamma) + vy * math.sin(prev_gamma))
    gamma = math.atan2(vy, vx)
    if gamma > math.pi / 2.0:
        return WheelCommand(gamma=gamma - math.pi, speed=-speed)
    if gamma <= -math.pi / 2.0:
        return WheelCommand(gamma=gamma + math.pi, speed=-speed)
    return WheelCommand(gamma=gamma, speed=speed)


def allocate(u_body: np.ndarray, veh, prev_gamma=None) -> list[WheelCommand]:
    """Steering/speed commands for every wheel under the body twist.

    prev_gamma holds each wheel's previous steering angle (zeros when None),
    kept by the wheels slower than STEER_HOLD_SPEED. Each wheel is folded
    from its `wheel_velocity`, worked out on Python floats.
    """
    vx, vy, w = (float(v) for v in u_body)
    wheels = np.atleast_2d(np.asarray(veh.wheel_positions, dtype=float)).tolist()
    held = [0.0] * len(wheels) if prev_gamma is None else [float(g) for g in prev_gamma]
    return [_fold(vx - w * yw, vy + w * xw, g) for (xw, yw), g in zip(wheels, held, strict=True)]


def reconstruct_twist(commands: list[WheelCommand], veh):
    """Least-squares body twist from wheel commands; inverse of allocate.

    Raises RankDeficient when the stacked wheel jacobian has rank below 3
    (all wheels collinear or coincident).
    """
    wheels = np.atleast_2d(np.asarray(veh.wheel_positions, dtype=float))
    if len(commands) != wheels.shape[0]:
        raise ValueError("command count does not match wheel count")
    n = wheels.shape[0]
    a = np.zeros((2 * n, 3))
    b = np.zeros(2 * n)
    for i, (cmd, (xw, yw)) in enumerate(zip(commands, wheels)):
        a[2 * i, 0] = 1.0
        a[2 * i, 2] = -yw
        a[2 * i + 1, 1] = 1.0
        a[2 * i + 1, 2] = xw
        b[2 * i] = cmd.speed * math.cos(cmd.gamma)
        b[2 * i + 1] = cmd.speed * math.sin(cmd.gamma)
    u, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 3:
        raise RankDeficient(f"wheel jacobian rank {rank} < 3; layout is degenerate")
    return u
