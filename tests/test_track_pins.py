"""The track step against its former bodies in oracles.py, bit for bit, and
the safety of the working-set factor cache.

The solve, the QP assembly, the MPC step, the wheel allocation and the
closed loop must give their former outputs exactly, signed zeros included:
on seeded problems, from cold and hot starts, on a capped solve, with wheels
below the steering hold speed, and on the closed loops of both shipped
scenarios with and without rate limits. The factor cache kept with each
Hessian's inverse must never change a result: not when loops of different
configs interleave, not after an in-place weight edit, not when a working
set cannot be factored, and not when it evicts.
"""

import dataclasses
import os

import numpy as np
import pytest

from helpers import curved_traj, small_vehicle
from oracles import (
    allocate_before,
    build_qp_before,
    mpc_step_before,
    run_closed_loop_before,
    shift_start_before,
    solve_qp_before,
)
import sweptplan.sim as sim
from sweptplan import mpc
from sweptplan.cli import _load_traj, parse_scenario, run_pipeline
from sweptplan.drivetrain import STEER_HOLD_SPEED, allocate
from sweptplan.geometry import Pose2
from sweptplan.mpc import HeadingWrapMismatch, MpcConfig, MpcProblem, _feasible_start, _shift_start, build_qp, mpc_step, solve_qp
from sweptplan.sim import SimConfig, run_closed_loop

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
RATE_LIMIT = np.array([0.1, 0.1, 0.05])
TRACE_FIELDS = ("t", "pose", "ref", "u", "e_y", "e_phi", "wheel_gamma", "wheel_speed", "qp")


def _same(a, b) -> bool:
    """Equal values and equal sign bits, NaNs in the same places."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_solve(got, want) -> bool:
    (x, info), (x_ref, info_ref) = got, want
    if not _same(x, x_ref) or info.keys() != info_ref.keys():
        return False
    for key, value in info.items():
        if key == "next_start":
            ok = _same(value[0], info_ref[key][0]) and value[1] == info_ref[key][1]
        else:
            ok = value == info_ref[key] and type(value) is type(info_ref[key])
        if not ok:
            return False
    return True


def _problem(rng, nc, rate_limited, g_scale=3.0):
    """Box bounds with some entries infinite, and rate bounds when rate_limited; u = u_prev is feasible."""
    n = 3 * nc
    a = rng.standard_normal((n, n))
    lo = np.where(rng.random(n) < 0.2, -np.inf, rng.uniform(-2.0, -0.5, n))
    hi = np.where(rng.random(n) < 0.2, np.inf, rng.uniform(0.5, 2.0, n))
    du = rng.uniform(0.05, 0.6, 3) if rate_limited else np.full(3, np.inf)
    return MpcProblem(
        H=a @ a.T + 0.5 * np.eye(n), g=g_scale * rng.standard_normal(n), lb=lo, ub=hi,
        du_lb=-du, du_ub=du, u_prev=rng.uniform(-0.4, 0.4, 3), nc=nc,
    )


@pytest.mark.parametrize("rate_limited", [False, True])
@pytest.mark.parametrize("nc", [1, 3, 10])
def test_solve_qp_equals_former_body(nc, rate_limited):
    rng = np.random.default_rng(10 * nc + rate_limited)
    for _ in range(10):
        prob = _problem(rng, nc, rate_limited, g_scale=rng.choice([3.0, 1e3]))
        x, info = solve_qp(prob)
        assert _same_solve((x, info), solve_qp_before(prob))
        cold = _feasible_start(prob)
        m = mpc._constraint_rows(prob)[0].shape[0]
        some = sorted(rng.choice(max(m, 1), size=min(m, 5), replace=False).tolist())
        for start in ((cold, info["active_set"]), (cold, some), (x, info["active_set"]), (x, ())):
            assert _same_solve(solve_qp(prob, start=start), solve_qp_before(prob, start=start))
        # a shifted sequence, as the closed loop runs it
        for _ in range(4):
            start = _shift_start(prob, x, info["active_set"])
            assert start[1] == shift_start_before(prob, x, info["active_set"])[1]
            prob = dataclasses.replace(prob, g=3.0 * rng.standard_normal(3 * nc), u_prev=x[:3])
            x, info = solve_qp(prob, start=start)
            assert _same_solve((x, info), solve_qp_before(prob, start=start))


def test_capped_solve_equals_former_body(monkeypatch):
    rng = np.random.default_rng(5)
    monkeypatch.setattr(mpc, "ITERATIONS_PER_VARIABLE", 1)
    capped = 0
    for nc in (3, 10):
        for _ in range(6):
            prob = _problem(rng, nc, True, g_scale=1e3)
            got = solve_qp(prob)
            capped += got[1]["status"] == "max_iterations"
            assert _same_solve(got, solve_qp_before(prob, iterations_per_variable=1))
    assert capped > 0


def _cfg(rng, rate_limited):
    du = RATE_LIMIT if rate_limited else np.full(3, np.inf)
    a = rng.standard_normal((3, 3))
    return MpcConfig(state_weight=a @ a.T + np.eye(3), du_min=-du, du_max=du)


@pytest.mark.parametrize("rate_limited", [False, True])
def test_build_qp_and_mpc_step_equal_former_bodies(rate_limited):
    rng = np.random.default_rng(7 + rate_limited)
    cfg = _cfg(rng, rate_limited)
    for _ in range(10):
        state = Pose2(*rng.uniform(-1.0, 1.0, 3))
        # headings from -3 to 3.1 rad, with zeros of either sign among the positions
        window = np.column_stack([rng.uniform(-1.0, 1.0, (20, 2)), np.linspace(-3.0, 3.1, 20)])
        window[:, :2][rng.random((20, 2)) < 0.2] = -0.0
        u_prev = rng.uniform(-0.3, 0.3, 3)
        # build_qp takes headings unwrapped to the state's, and rejects a jump past pi
        ref = window.copy()
        ref[:, 2] = state.phi + np.cumsum(rng.uniform(-1.0, 1.0, 20))
        got, want = build_qp(state, ref.ravel(), u_prev, cfg), build_qp_before(state, ref.ravel(), u_prev, cfg)
        for f in dataclasses.fields(MpcProblem):
            assert _same(getattr(got, f.name), getattr(want, f.name)), f.name
        ref[7:, 2] += 5.0
        for build in (build_qp, build_qp_before):
            with pytest.raises(HeadingWrapMismatch):
                build(state, ref.ravel(), u_prev, cfg)
        u, info = mpc_step(state, window, u_prev, cfg)
        assert _same_solve((u, info), mpc_step_before(state, window, u_prev, cfg))
        start = info["next_start"]
        assert _same_solve(mpc_step(state, window, u, cfg, start=start), mpc_step_before(state, window, u, cfg, start=start))


def test_allocate_equals_former_body():
    veh = small_vehicle()
    rng = np.random.default_rng(11)
    xw, yw = veh.wheel_positions[0]
    twists = [rng.uniform(-2.0, 2.0, 3) for _ in range(100)]
    twists += [rng.uniform(-1e-7, 1e-7, 3) for _ in range(10)]  # every wheel below STEER_HOLD_SPEED
    twists += [np.array([yw, -xw, 1.0]) * 0.5, (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), [1.0, -0.0, 0.0]]
    held = 0
    for u in twists:
        for prev in (None, rng.uniform(-1.5, 1.5, 4)):
            got, want = allocate(u, veh, prev_gamma=prev), allocate_before(u, veh, prev_gamma=prev)
            assert _same([(c.gamma, c.speed) for c in got], [(c.gamma, c.speed) for c in want])
            held += sum(abs(c.speed) < STEER_HOLD_SPEED for c in got)
    assert held > 40


def _assert_same_trace(got, want: dict):
    assert got.aborted == want["aborted"]
    for name in TRACE_FIELDS:
        assert _same(getattr(got, name), want[name]), name


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """Each shipped scenario with its planned trajectory."""
    runs = {}
    for name in ("turn90", "straight"):
        sc = parse_scenario(os.path.join(SCENARIOS, f"{name}.json"))
        out = str(tmp_path_factory.mktemp(name))
        assert run_pipeline(sc, ["plan"], out) == 0
        runs[name] = (sc, _load_traj(out))
    return runs


@pytest.mark.parametrize("rate_limited", [False, True])
@pytest.mark.parametrize("name", ["turn90", "straight"])
def test_closed_loop_equals_former_loop_on_scenarios(planned, name, rate_limited):
    sc, traj = planned[name]
    cfg = sc.mpc
    if rate_limited:
        cfg = dataclasses.replace(cfg, du_min=-RATE_LIMIT, du_max=RATE_LIMIT)
    got = run_closed_loop(traj, sc.veh, cfg, sc.sim)
    assert got.aborted is None and got.qp[:, 0].all()
    _assert_same_trace(got, run_closed_loop_before(traj, sc.veh, cfg, sc.sim))


def test_closed_loop_with_lag_and_offset_equals_former_loop():
    veh, traj = small_vehicle(), curved_traj(seed=3, n_interior=4)
    cfg = MpcConfig(du_min=-RATE_LIMIT, du_max=RATE_LIMIT)
    sim_cfg = SimConfig(settle_time=3.0, input_lag_tau=0.1)
    start = Pose2(0.3, -0.4, 0.5)
    got = run_closed_loop(traj, veh, cfg, sim_cfg, start_pose=start)
    assert (np.abs(got.wheel_speed) < STEER_HOLD_SPEED).any()  # wheels at rest keep their angle
    _assert_same_trace(got, run_closed_loop_before(traj, veh, cfg, sim_cfg, start_pose=start))


# The factor cache.


def _recorded_steps(traj, veh, cfg, sim_cfg, monkeypatch):
    """The (args, result) of every mpc_step of one closed loop, in order."""
    calls = []

    def recorder(*args, **kwargs):
        out = mpc_step(*args, **kwargs)
        calls.append(((*args, kwargs.get("start")), out))
        return out

    monkeypatch.setattr(sim, "mpc_step", recorder)
    run_closed_loop(traj, veh, cfg, sim_cfg)
    monkeypatch.setattr(sim, "mpc_step", mpc_step)
    return calls


def test_interleaved_loops_give_each_loops_solo_bits(monkeypatch):
    veh, traj = small_vehicle(), curved_traj(seed=11, n_interior=5)
    sim_cfg = SimConfig(settle_time=0.5)
    base = MpcConfig(du_min=-RATE_LIMIT, du_max=RATE_LIMIT)
    configs = [
        base,
        dataclasses.replace(base, input_weight=np.diag([0.2, 0.2, 0.2])),  # another H, the same rows
        dataclasses.replace(base, du_max=np.array([0.1, np.inf, 0.05])),  # the same H, other rows
    ]
    assert np.array_equal(build_qp(Pose2(0, 0, 0), np.zeros(60), np.zeros(3), configs[2]).H,
                          build_qp(Pose2(0, 0, 0), np.zeros(60), np.zeros(3), base).H)
    solo = []
    for cfg in configs:
        mpc._hessian_inverse.cache_clear()
        solo.append(_recorded_steps(traj, veh, cfg, sim_cfg, monkeypatch))
    for kept in (mpc.FACTORS_KEPT, 2):
        monkeypatch.setattr(mpc, "FACTORS_KEPT", kept)
        mpc._hessian_inverse.cache_clear()
        for k in range(max(map(len, solo))):
            for calls, cfg in zip(solo, configs):
                if k < len(calls):
                    (state, window, u_prev, _, start), want = calls[k]
                    assert _same_solve(mpc_step(state, window, u_prev, cfg, start=start), want)
        assert mpc._hessian_inverse.cache_info().currsize == 2
        for cfg in configs[:2]:
            h = build_qp(Pose2(0, 0, 0), np.zeros(60), np.zeros(3), cfg).H
            assert 0 < len(mpc._hessian_inverse(h.shape[0], h.tobytes())[1]) <= kept


def test_in_place_weight_edit_is_seen():
    rng = np.random.default_rng(4)
    cfg = _cfg(rng, True)
    state, window = Pose2(0.1, -0.2, 0.3), np.column_stack([np.linspace(0.0, 2.0, 20), np.zeros(20), np.zeros(20)])
    before = mpc_step(state, window, np.zeros(3), cfg)
    weight = cfg.input_weight[2, 2]
    cfg.input_weight[2, 2] += 0.25
    after = mpc_step(state, window, np.zeros(3), cfg)
    assert _same_solve(after, mpc_step_before(state, window, np.zeros(3), cfg))
    assert not _same(after[0], before[0]) or after[1]["active_set"] != before[1]["active_set"]
    cfg.input_weight[2, 2] = weight
    assert _same_solve(mpc_step(state, window, np.zeros(3), cfg), before)


def test_dependent_working_set_raises_on_every_visit():
    # The rate row u0 <= 0.5 + 0.5 repeats the box row u0 <= 1; a start holding both cannot be factored.
    prob = MpcProblem(
        H=np.eye(3), g=-np.array([4.0, 0.0, 0.0]),
        lb=np.full(3, -1.0), ub=np.full(3, 1.0),
        du_lb=np.full(3, -0.5), du_ub=np.full(3, 0.5),
        u_prev=np.array([0.5, 0.0, 0.0]), nc=1,
    )
    mpc._hessian_inverse.cache_clear()
    start = (np.array([1.0, 0.0, 0.0]), (0, 6))
    for _ in range(3):
        with pytest.raises(np.linalg.LinAlgError, match="working-set matrix"):
            solve_qp(prob, start=start)
        _, factors = mpc._hessian_inverse(3, prob.H.tobytes())
        assert all(work != (0, 6) for _, work in factors)
        with pytest.raises(np.linalg.LinAlgError, match="working-set matrix"):
            solve_qp_before(prob, start=start)
    # each row alone is kept, and solves as before
    for row in (0, 6):
        assert _same_solve(solve_qp(prob, start=(start[0], (row,))), solve_qp_before(prob, start=(start[0], (row,))))
    assert {work for _, work in factors} >= {(0,), (6,)}


def test_factor_cache_never_exceeds_its_bound(planned, monkeypatch):
    sc, traj = planned["turn90"]
    cfg = dataclasses.replace(sc.mpc, du_min=-RATE_LIMIT, du_max=RATE_LIMIT)
    h = build_qp(Pose2(0, 0, 0), np.zeros(3 * cfg.horizon), np.zeros(3), cfg).H
    sizes = []
    real = mpc._working_set

    def watched(h_inv, factors, *args):
        out = real(h_inv, factors, *args)
        sizes.append(len(factors))
        return out

    monkeypatch.setattr(mpc, "_working_set", watched)
    for kept in (4, mpc.FACTORS_KEPT):
        monkeypatch.setattr(mpc, "FACTORS_KEPT", kept)
        mpc._hessian_inverse.cache_clear()
        del sizes[:]
        trace = run_closed_loop(traj, sc.veh, cfg, sc.sim)
        assert max(sizes) == kept  # filled up, and never past the bound
        assert len(mpc._hessian_inverse(h.shape[0], h.tobytes())[1]) == kept
        if kept == 4:
            small = trace
    for name in TRACE_FIELDS:
        assert _same(getattr(small, name), getattr(trace, name)), name
