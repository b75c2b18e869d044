import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from sweptplan.drivetrain import (
    STEER_HOLD_SPEED,
    RankDeficient,
    WheelCommand,
    allocate,
    fold_steering,
    reconstruct_twist,
    wheel_velocity,
)
from sweptplan.geometry import VehicleParams


def test_pure_forward_translation(veh):
    cmds = allocate(np.array([1.0, 0.0, 0.0]), veh)
    for c in cmds:
        assert c.gamma == 0.0
        npt.assert_allclose(c.speed, 1.0)


def test_pure_lateral_translation(veh):
    cmds = allocate(np.array([0.0, 1.0, 0.0]), veh)
    for c in cmds:
        npt.assert_allclose(c.gamma, math.pi / 2.0)
        npt.assert_allclose(c.speed, 1.0)


def test_pure_lateral_negative(veh):
    # fold keeps the angle at pi/2 and flips the speed sign
    cmds = allocate(np.array([0.0, -1.0, 0.0]), veh)
    for c in cmds:
        npt.assert_allclose(c.gamma, math.pi / 2.0)
        npt.assert_allclose(c.speed, -1.0)


def test_pure_rotation_front_left_wheel(veh):
    cmds = allocate(np.array([0.0, 0.0, 1.0]), veh)
    # wheel at (1, 0.5): velocity (-0.5, 1), folded into a reversed module
    npt.assert_allclose(wheel_velocity(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.5])), [-0.5, 1.0])
    c = cmds[0]
    npt.assert_allclose(c.gamma, math.atan2(1.0, -0.5) - math.pi, atol=1e-12)
    npt.assert_allclose(c.gamma, -1.1071487177940904, atol=1e-12)
    npt.assert_allclose(c.speed, -math.sqrt(1.25))


def test_zero_twist(veh):
    for c in allocate(np.zeros(3), veh):
        assert c.gamma == 0.0
        assert c.speed == 0.0


def test_slow_wheel_keeps_its_previous_angle():
    # below the threshold the direction is noise: keep the angle, drive along it
    v = np.array([-3e-9, 4e-9])
    cmd = fold_steering(v, prev_gamma=0.3)
    assert cmd.gamma == 0.3
    npt.assert_allclose(cmd.speed, v @ [math.cos(0.3), math.sin(0.3)], rtol=1e-15)
    assert fold_steering(np.zeros(2), prev_gamma=-1.2) == WheelCommand(gamma=-1.2, speed=0.0)
    # at the threshold the wheel steers again, whatever it held
    at = np.array([0.0, -STEER_HOLD_SPEED])
    assert fold_steering(at, prev_gamma=0.3) == fold_steering(at) == WheelCommand(math.pi / 2.0, -STEER_HOLD_SPEED)


def test_allocate_holds_per_wheel(veh):
    # a pure rotation about the first wheel stops only that wheel
    xw, yw = veh.wheel_positions[0]
    u = np.array([yw, -xw, 1.0]) * 0.5
    prev = np.linspace(-1.0, 1.0, len(veh.wheel_positions))
    cmds = allocate(u, veh, prev_gamma=prev)
    assert cmds[0] == WheelCommand(gamma=prev[0], speed=0.0)
    for got, free in zip(cmds[1:], allocate(u, veh)[1:]):
        assert got == free
    with pytest.raises(ValueError):
        allocate(u, veh, prev_gamma=prev[:-1])


def test_allocate_equals_folded_wheel_velocities_bit_for_bit(veh):
    # allocate gives the bits of folding each wheel's rigid-body velocity,
    # worked out on arrays, for held (slow) wheels and signed zeros too
    rng = np.random.default_rng(27)
    wheels = np.asarray(veh.wheel_positions, dtype=float)
    xw, yw = wheels[0]
    twists = [rng.uniform([-2.0, -2.0, -1.0], [2.0, 2.0, 1.0]) for _ in range(200)]
    twists += [rng.uniform(-1e-7, 1e-7, 3) for _ in range(20)]  # every wheel held
    twists += [np.array([yw, -xw, 1.0]) * w for w in (0.5, -0.5)]  # the first wheel held
    twists += [np.array(z) for z in itertools.product((0.0, -0.0), repeat=3)]
    twists += [np.array([-0.0, 1.0, 0.0]), np.array([1.0, -0.0, -0.0])]
    held = 0
    for u in twists:
        for prev in (None, rng.uniform(-1.5, 1.5, wheels.shape[0])):
            got = allocate(u, veh, prev_gamma=prev)
            gammas = np.zeros(wheels.shape[0]) if prev is None else prev
            v = np.column_stack([u[0] - u[2] * wheels[:, 1], u[1] + u[2] * wheels[:, 0]])
            want = [fold_steering(vw, g) for vw, g in zip(v, gammas)]
            assert np.array([(c.gamma, c.speed) for c in got]).tobytes() == \
                np.array([(c.gamma, c.speed) for c in want]).tobytes()
            held += sum(math.hypot(*wheel_velocity(u, w)) < STEER_HOLD_SPEED for w in wheels)
    assert held > 200


def test_gamma_range(veh, rng):
    for _ in range(200):
        u = rng.uniform(-2.0, 2.0, 3)
        for c in allocate(u, veh):
            assert -math.pi / 2.0 < c.gamma <= math.pi / 2.0


def test_round_trip_identity(veh, rng):
    for _ in range(100):
        u = rng.uniform([-2.0, -2.0, -1.0], [2.0, 2.0, 1.0])
        back = reconstruct_twist(allocate(u, veh), veh)
        npt.assert_allclose(back, u, atol=1e-9)


def test_paper_matrix_differs_under_rotation(veh):
    # rigid-body form; the paper prints +omega*Y_w in the x row, which gives [0.5, 1.0]
    u = np.array([0.0, 0.0, 1.0])
    npt.assert_allclose(wheel_velocity(u, np.array([1.0, 0.5])), [-0.5, 1.0])


def test_scaling_twist_scales_speeds_only(veh, rng):
    u = rng.uniform(-1.0, 1.0, 3)
    base = allocate(u, veh)
    scaled = allocate(2.5 * u, veh)
    for b, s in zip(base, scaled):
        npt.assert_allclose(s.gamma, b.gamma, atol=1e-12)
        npt.assert_allclose(s.speed, 2.5 * b.speed, atol=1e-12)


def test_translation_gamma_uniform(veh, rng):
    for _ in range(50):
        u = np.array([*rng.uniform(-2.0, 2.0, 2), 0.0])
        if abs(u[0]) + abs(u[1]) < 1e-6:
            continue
        gammas = [c.gamma for c in allocate(u, veh)]
        assert all(g == gammas[0] for g in gammas)


def test_reconstruct_uniform_forward(veh):
    cmds = [WheelCommand(gamma=0.0, speed=1.0) for _ in range(4)]
    npt.assert_allclose(reconstruct_twist(cmds, veh), [1.0, 0.0, 0.0], atol=1e-12)


def test_reconstruct_reports_residual(veh):
    """The round trip allocate(reconstruct_twist(cmds)) returns a consistent
    command set's wheel velocities and leaves an inconsistent set's residual."""

    def velocities(cmds):
        return np.array([(c.speed * math.cos(c.gamma), c.speed * math.sin(c.gamma)) for c in cmds])

    cmds = allocate(np.array([0.5, -0.3, 0.4]), veh)
    back = allocate(reconstruct_twist(cmds, veh), veh)
    assert np.linalg.norm(velocities(back) - velocities(cmds)) < 1e-12
    bad = list(cmds)
    bad[2] = WheelCommand(gamma=bad[2].gamma, speed=bad[2].speed + 0.3)
    back = allocate(reconstruct_twist(bad, veh), veh)
    assert np.linalg.norm(velocities(back) - velocities(bad), axis=1).max() > 0.01


def test_reconstruct_rank_deficient():
    veh = VehicleParams(
        length=2.0, width=1.0, axle_count=2,
        wheel_positions=[(1.0, 0.5), (1.0, -0.5), (-1.0, 0.5), (-1.0, -0.5)],
    )
    # degenerate layouts are rejected at construction, so force coincident
    # wheels by bypassing validation; only then does the twist become
    # unobservable
    object.__setattr__(veh, "wheel_positions", np.array([[0.3, 0.1], [0.3, 0.1], [0.3, 0.1]]))
    cmds = [WheelCommand(gamma=0.0, speed=1.0) for _ in range(3)]
    with pytest.raises(RankDeficient):
        reconstruct_twist(cmds, veh)


def test_command_count_must_match(veh):
    with pytest.raises(ValueError):
        reconstruct_twist([WheelCommand(0.0, 1.0)], veh)
