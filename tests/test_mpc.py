import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import straight_traj
from oracles import (
    build_qp_per_step,
    constraint_rows_loop,
    prediction_loop,
    qp_enumerate,
    shift_start_loop,
    solve_qp_scalar,
)
from sweptplan import mpc
from sweptplan.geometry import Pose2
from sweptplan.mpc import (
    HeadingWrapMismatch,
    Infeasible,
    MpcConfig,
    MpcProblem,
    _constraint_rows,
    _feasible_start,
    _shift_start,
    build_prediction,
    build_qp,
    mpc_step,
    reference_windows,
    solve_qp,
)


def _cfg(**kw):
    base = dict(dt=0.1, horizon=4, control_horizon=2)
    base.update(kw)
    return MpcConfig(**base)


def test_prediction_shapes_and_structure():
    cfg = _cfg(horizon=2, control_horizon=1)
    psi, theta = build_prediction(cfg)
    npt.assert_array_equal(psi, np.vstack([np.eye(3), np.eye(3)]))
    npt.assert_allclose(theta, np.vstack([0.1 * np.eye(3), 0.1 * np.eye(3)]))


def test_prediction_lower_triangular():
    cfg = _cfg(horizon=2, control_horizon=2)
    psi, theta = build_prediction(cfg)
    expect = np.block(
        [[0.1 * np.eye(3), np.zeros((3, 3))], [0.1 * np.eye(3), 0.1 * np.eye(3)]]
    )
    npt.assert_allclose(theta, expect)


def test_prediction_zero_beyond_control_horizon():
    cfg = _cfg(horizon=5, control_horizon=2)
    _, theta = build_prediction(cfg)
    assert theta.shape == (15, 6)
    # rows past the control horizon keep accumulating only the first Nc blocks
    npt.assert_allclose(theta[12:15, 0:3], 0.1 * np.eye(3))
    npt.assert_allclose(theta[12:15, 3:6], 0.1 * np.eye(3))


def test_qp_on_reference_optimum_is_reference_velocity():
    # moving along +x at 1 m/s with pure tracking cost: the unconstrained
    # optimum reproduces that twist at every step
    cfg = _cfg(horizon=3, control_horizon=3, input_weight=np.zeros((3, 3)))
    state = Pose2(0.0, 0.0, 0.0)
    ts = cfg.dt * np.arange(1, 4)
    ref = np.column_stack([ts * 1.0, np.zeros(3), np.zeros(3)])
    prob = build_qp(state, ref.ravel(), np.array([1.0, 0.0, 0.0]), cfg)
    u = np.linalg.solve(prob.H, -prob.g)
    expect = np.tile([1.0, 0.0, 0.0], 3)
    npt.assert_allclose(u, expect, atol=1e-8)


def test_qp_dead_beat_unconstrained():
    cfg = MpcConfig(
        dt=0.1,
        horizon=1,
        control_horizon=1,
        state_weight=np.eye(3),
        input_weight=np.zeros((3, 3)),
        u_min=np.full(3, -1e9),
        u_max=np.full(3, 1e9),
    )
    state = Pose2(0.2, -0.1, 0.05)
    target = np.array([0.5, 0.3, -0.2])
    prob = build_qp(state, target, np.zeros(3), cfg)
    u, _ = solve_qp(prob)
    npt.assert_allclose(u, (target - state.as_array()) / cfg.dt, atol=1e-9)


def test_qp_large_input_weight_shrinks_solution():
    cfg = _cfg(
        horizon=2,
        control_horizon=2,
        input_weight=1e9 * np.eye(3),
        u_min=np.full(3, -1e12),
        u_max=np.full(3, 1e12),
    )
    state = Pose2(0.0, 0.0, 0.0)
    ref = np.tile([1.0, 1.0, 0.0], 2)
    prob = build_qp(state, ref, np.zeros(3), cfg)
    u = np.linalg.solve(prob.H, -prob.g)
    assert np.abs(u).max() < 1e-6


def test_solve_qp_unconstrained_interior():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    h = a @ a.T + 3.0 * np.eye(3)
    g = rng.standard_normal(3)
    prob = MpcProblem(
        H=h,
        g=g,
        lb=np.full(3, -100.0),
        ub=np.full(3, 100.0),
        du_lb=np.full(3, -np.inf),
        du_ub=np.full(3, np.inf),
        u_prev=np.zeros(3),
        nc=1,
    )
    npt.assert_allclose(solve_qp(prob)[0], np.linalg.solve(h, -g), atol=1e-9)


def test_solve_qp_clamps_single_bound():
    # minimize (u - 2)^2 with u <= 1 in each coordinate
    prob = MpcProblem(
        H=2.0 * np.eye(3),
        g=np.full(3, -4.0),
        lb=np.full(3, -10.0),
        ub=np.full(3, 1.0),
        du_lb=np.full(3, -np.inf),
        du_ub=np.full(3, np.inf),
        u_prev=np.zeros(3),
        nc=1,
    )
    npt.assert_allclose(solve_qp(prob)[0], np.ones(3), atol=1e-12)


def test_solve_qp_rate_constraint_active():
    # pull toward 5 but the previous input was 0 and steps are capped at 0.5
    prob = MpcProblem(
        H=2.0 * np.eye(3),
        g=np.full(3, -10.0),
        lb=np.full(3, -10.0),
        ub=np.full(3, 10.0),
        du_lb=np.full(3, -0.5),
        du_ub=np.full(3, 0.5),
        u_prev=np.zeros(3),
        nc=1,
    )
    npt.assert_allclose(solve_qp(prob)[0], np.full(3, 0.5), atol=1e-12)


def test_solve_qp_matches_enumeration_seeded():
    # single-block problems here; the wider size sweep runs with the
    # acceptance suite where the exhaustive oracle cost is budgeted
    rng = np.random.default_rng(21)
    for trial in range(12):
        nc = 1
        n = 3 * nc
        a = rng.standard_normal((n, n))
        h = a @ a.T + n * np.eye(n)
        g = 3.0 * rng.standard_normal(n)
        lo = rng.uniform(-2.0, -0.2, n)
        hi = rng.uniform(0.2, 2.0, n)
        anchor = rng.uniform(lo, hi)
        u_prev = anchor[:3] + rng.uniform(-0.2, 0.2, 3)
        du_hi = np.full(3, 1.5)
        du_lo = np.full(3, -1.5)
        prob = MpcProblem(H=h, g=g, lb=lo, ub=hi, du_lb=du_lo, du_ub=du_hi, u_prev=u_prev, nc=nc)
        got, _ = solve_qp(prob)
        oracle, _ = qp_enumerate(h, g, lo, hi, u_prev, du_lo, du_hi, nu=3)
        npt.assert_allclose(got, oracle, atol=1e-6)


def test_solve_qp_objective_beats_random_feasible_points():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6))
    h = a @ a.T + 2.0 * np.eye(6)
    g = rng.standard_normal(6) * 2.0
    lo = np.full(6, -1.0)
    hi = np.full(6, 1.0)
    prob = MpcProblem(
        H=h, g=g, lb=lo, ub=hi,
        du_lb=np.full(3, -np.inf), du_ub=np.full(3, np.inf),
        u_prev=np.zeros(3), nc=2,
    )
    u, _ = solve_qp(prob)
    obj = 0.5 * u @ h @ u + g @ u
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        assert obj <= 0.5 * x @ h @ x + g @ x + 1e-9


def test_solve_qp_infeasible_bounds_conflict():
    # box demands u >= 2 while the rate cap keeps u <= 0.5
    prob = MpcProblem(
        H=2.0 * np.eye(3),
        g=np.zeros(3),
        lb=np.full(3, 2.0),
        ub=np.full(3, 3.0),
        du_lb=np.full(3, -0.5),
        du_ub=np.full(3, 0.5),
        u_prev=np.zeros(3),
        nc=1,
    )
    with pytest.raises(Infeasible):
        solve_qp(prob)


def test_solve_qp_warm_start_same_answer():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    h = a @ a.T + 2.0 * np.eye(6)
    g = rng.standard_normal(6) * 3.0
    prob = MpcProblem(
        H=h, g=g,
        lb=np.full(6, -0.5), ub=np.full(6, 0.5),
        du_lb=np.full(3, -0.4), du_ub=np.full(3, 0.4),
        u_prev=np.zeros(3), nc=2,
    )
    cold, info = solve_qp(prob)
    warm, _ = solve_qp(prob, start=(_feasible_start(prob), info["active_set"]))
    npt.assert_allclose(cold, warm, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(dt=0.0)
    with pytest.raises(ValueError):
        MpcConfig(control_horizon=30, horizon=20)
    with pytest.raises(ValueError):
        MpcConfig(u_min=np.array([1.0, -1.0, -1.0]), u_max=np.array([0.5, 1.0, 1.0]))
    with pytest.raises(ValueError):
        MpcConfig(state_weight=np.diag([-1.0, 1.0, 1.0]))


def test_heading_wrap_mismatch_rejected():
    cfg = _cfg(horizon=2, control_horizon=1)
    ref = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 5.0]]).ravel()
    with pytest.raises(HeadingWrapMismatch):
        build_qp(Pose2(0.0, 0.0, 0.0), ref, np.zeros(3), cfg)


def _window(traj, t_now, cfg):
    return reference_windows(traj, np.array([t_now]), cfg)[0]


def test_reference_windows_match_per_step_sampling(line_traj):
    # the expressions the loop used to evaluate once per step, past the end too
    cfg = _cfg(dt=0.05, horizon=20)
    ts = np.arange(int(round((line_traj.total_time + 1.5) / cfg.dt)) + 1) * cfg.dt
    windows = reference_windows(line_traj, ts, cfg)
    assert windows.shape == (ts.size, 20, 3)
    for k in range(ts.size):
        t_now = k * cfg.dt
        ahead = t_now + cfg.dt * np.arange(1, cfg.horizon + 1)
        assert _same_bits(windows[k], line_traj.sample(np.clip(ahead, 0.0, line_traj.total_time), 0))
    npt.assert_array_equal(windows[-1], np.tile(line_traj.sample(line_traj.total_time, 0), (20, 1)))


def test_mpc_step_zero_on_reference(veh):
    pose = (3.0, 1.0, 0.4)
    from sweptplan.minco import Boundary, build_minco

    traj = build_minco(np.zeros((0, 3)), np.array([4.0]), Boundary.rest_to_rest(pose, pose))
    cfg = _cfg()
    u, _ = mpc_step(Pose2(*pose), _window(traj, 0.5, cfg), np.zeros(3), cfg)
    npt.assert_allclose(u, 0.0, atol=1e-8)


def test_mpc_step_lag_speeds_up(line_traj):
    cfg = MpcConfig(dt=0.1, horizon=5, control_horizon=3, u_max=np.array([5.0, 5.0, 2.0]), u_min=np.array([-5.0, -5.0, -2.0]))
    t_now = 3.0
    on_ref = Pose2(*line_traj.sample(t_now, 0))
    lagging = Pose2(on_ref.x - 0.1, on_ref.y, on_ref.phi)
    window = _window(line_traj, t_now, cfg)
    u_ref, _ = mpc_step(on_ref, window, np.array([1.0, 0.0, 0.0]), cfg)
    u_lag, _ = mpc_step(lagging, window, np.array([1.0, 0.0, 0.0]), cfg)
    assert u_lag[0] > u_ref[0] + 0.1


def test_mpc_step_respects_zero_bounds(line_traj):
    cfg = MpcConfig(
        dt=0.1,
        horizon=3,
        control_horizon=2,
        u_min=np.full(3, -1e-12),
        u_max=np.full(3, 1e-12),
    )
    u, _ = mpc_step(Pose2(0.0, 0.0, 0.0), _window(line_traj, 2.0, cfg), np.zeros(3), cfg)
    npt.assert_allclose(u, 0.0, atol=1e-11)


def test_mpc_step_stationary_on_constant_reference():
    from sweptplan.minco import Boundary, build_minco

    pose = (1.0, -2.0, 0.3)
    traj = build_minco(np.zeros((0, 3)), np.array([6.0]), Boundary.rest_to_rest(pose, pose))
    cfg = _cfg()
    state = Pose2(1.3, -2.2, 0.1)
    u1, _ = mpc_step(state, _window(traj, 1.0, cfg), np.zeros(3), cfg)
    u2, _ = mpc_step(state, _window(traj, 2.5, cfg), np.zeros(3), cfg)
    npt.assert_allclose(u1, u2, atol=1e-8)


def test_mpc_step_reference_past_end_clamps(line_traj):
    cfg = _cfg()
    end = line_traj.sample(line_traj.total_time, 0)
    u, _ = mpc_step(Pose2(*end), _window(line_traj, line_traj.total_time + 5.0, cfg), np.zeros(3), cfg)
    npt.assert_allclose(u, 0.0, atol=1e-8)


# Exactness against the loop forms in oracles.py: same bits, not just close.


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + 0.5 * np.eye(n))


def _random_problem(rng, nc, g_scale=3.0):
    """Box and rate bounds with some entries infinite; u = u_prev at every step is feasible."""
    n = 3 * nc
    lo = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-2.0, -0.5, n))
    hi = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0.5, 2.0, n))
    du_hi = np.where(rng.random(3) < 0.3, np.inf, rng.uniform(0.05, 0.6, 3))
    du_lo = np.where(rng.random(3) < 0.3, -np.inf, -rng.uniform(0.05, 0.6, 3))
    return MpcProblem(
        H=_spd(rng, n),
        g=g_scale * rng.standard_normal(n),
        lb=lo,
        ub=hi,
        du_lb=du_lo,
        du_ub=du_hi,
        u_prev=rng.uniform(-0.4, 0.4, 3),
        nc=nc,
    )


@pytest.mark.parametrize("dt,horizon,nc", [(0.1, 1, 1), (0.05, 20, 10), (0.05, 20, 20), (0.3, 7, 3)])
def test_prediction_matches_loop(dt, horizon, nc):
    cfg = _cfg(dt=dt, horizon=horizon, control_horizon=nc)
    for got, ref in zip(build_prediction(cfg), prediction_loop(cfg)):
        assert _same_bits(got, ref)


@pytest.mark.parametrize("nc", [1, 2, 10])
def test_constraint_rows_match_loop(nc):
    rng = np.random.default_rng(nc)
    for _ in range(20):
        prob = _random_problem(rng, nc)
        for got, ref in zip(_constraint_rows(prob), constraint_rows_loop(prob)):
            assert _same_bits(got, ref)
    unbounded = MpcProblem(
        H=np.eye(3 * nc), g=np.zeros(3 * nc),
        lb=np.full(3 * nc, -np.inf), ub=np.full(3 * nc, np.inf),
        du_lb=np.full(3, -np.inf), du_ub=np.full(3, np.inf),
        u_prev=np.zeros(3), nc=nc,
    )
    for got, ref in zip(_constraint_rows(unbounded), constraint_rows_loop(unbounded)):
        assert _same_bits(got, ref)


def _assert_same_solve(prob, start=None):
    x, info = solve_qp(prob, start=start)
    x_ref, info_ref = solve_qp_scalar(prob, start=start)
    assert _same_bits(x, x_ref)
    for key in ("status", "iterations", "active_set", "kkt_residual"):
        assert info[key] == info_ref[key], key
    return x, info


@pytest.mark.parametrize("nc,g_scale", [(1, 3.0), (2, 3.0), (10, 3.0), (1, 1e4), (2, 1e4), (10, 1e3)])
def test_solve_qp_matches_scalar_ratio_test(nc, g_scale):
    # the large g_scale makes |p| big enough that working-set rows show a*p
    # rounding residues above 1e-12, which the ratio test must skip
    rng = np.random.default_rng(100 * nc + int(math.log10(g_scale)))
    for _ in range(12):
        prob = _random_problem(rng, nc, g_scale)
        x, info = _assert_same_solve(prob)
        cold = _feasible_start(prob)
        _assert_same_solve(prob, start=(cold, info["active_set"]))
        m = _constraint_rows(prob)[0].shape[0]
        _assert_same_solve(prob, start=(cold, sorted(rng.choice(max(m, 1), size=min(m, 4), replace=False).tolist())))
        # the closed loop's hot start: the next step's problem from this solution shifted
        _assert_same_solve(prob, start=(x, info["active_set"]))
        nxt = dataclasses.replace(prob, g=g_scale * rng.standard_normal(3 * nc), u_prev=x[:3])
        _assert_same_solve(nxt, start=_shift_start(prob, x, info["active_set"]))


def _range_space_and_dense_agree(prob, start=None):
    """solve_qp against the dense-KKT oracle: same path, x within a hundredth of the zero-step tolerance."""
    x, info = solve_qp(prob, start=start)
    x_ref, info_ref = solve_qp_scalar(prob, start=start, dense_kkt=True)
    for key in ("status", "iterations", "active_set"):
        assert info[key] == info_ref[key], key
    # both stop once a step is below step_tol = 1e-11 max(1, |g|); measured worst 7e-4 step_tol
    assert np.abs(x - x_ref).max() <= 1e-13 * max(1.0, float(np.abs(prob.g).max()))
    _assert_kkt_optimal(prob, x, info, 1e-9 * max(1.0, float(np.abs(prob.g).max())))
    return x, info


@pytest.mark.parametrize("nc,g_scale", [(1, 3.0), (2, 3.0), (10, 3.0), (2, 1e4), (10, 1e4)])
def test_range_space_step_matches_dense_kkt(nc, g_scale):
    rng = np.random.default_rng(200 + 10 * nc + int(math.log10(g_scale)))
    for _ in range(12):
        prob = _random_problem(rng, nc, g_scale)
        x, info = _range_space_and_dense_agree(prob)
        cold = _feasible_start(prob)
        _range_space_and_dense_agree(prob, start=(cold, info["active_set"]))
        _range_space_and_dense_agree(prob, start=(x, info["active_set"]))
        # a shifted sequence, as the closed loop runs it
        for _ in range(4):
            nxt = dataclasses.replace(prob, g=g_scale * rng.standard_normal(3 * nc), u_prev=x[:3])
            start = _shift_start(prob, x, info["active_set"])
            prob = nxt
            x, info = _range_space_and_dense_agree(prob, start=start)


def test_solve_qp_makes_no_dense_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    mpc._hessian_inverse.cache_clear()
    monkeypatch.setattr(np.linalg, "solve", refuse)
    rng = np.random.default_rng(9)
    for nc in (1, 10):
        prob = _random_problem(rng, nc)
        x, info = solve_qp(prob)
        assert info["status"] == "optimal" and info["iterations"] > 1
        solve_qp(prob, start=(x, info["active_set"]))
    prob = _ramp_problem()
    assert len(solve_qp(prob)[1]["active_set"]) > 0


def test_indefinite_hessian_raises_linalg_error():
    prob = MpcProblem(
        H=np.diag([1.0, -1.0, 1.0]), g=np.ones(3),
        lb=np.full(3, -1.0), ub=np.full(3, 1.0),
        du_lb=np.full(3, -np.inf), du_ub=np.full(3, np.inf),
        u_prev=np.zeros(3), nc=1,
    )
    with pytest.raises(np.linalg.LinAlgError):
        solve_qp(prob)


def test_dependent_working_set_raises_linalg_error():
    # with u_prev = 0.5 the rate row u0 <= 0.5 + 0.5 repeats the box row u0 <= 1;
    # a start holding both makes A_w H^-1 A_w^T = [[1, 1], [1, 1]], which Cholesky rejects
    prob = MpcProblem(
        H=np.eye(3), g=-np.array([4.0, 0.0, 0.0]),
        lb=np.full(3, -1.0), ub=np.full(3, 1.0),
        du_lb=np.full(3, -0.5), du_ub=np.full(3, 0.5),
        u_prev=np.array([0.5, 0.0, 0.0]), nc=1,
    )
    a_mat, b_vec = _constraint_rows(prob)
    x0 = np.array([1.0, 0.0, 0.0])
    box_u0, rate_u0 = 0, 6
    npt.assert_array_equal(a_mat[box_u0], a_mat[rate_u0])
    assert a_mat[box_u0] @ x0 == b_vec[box_u0] and a_mat[rate_u0] @ x0 == b_vec[rate_u0]
    with pytest.raises(np.linalg.LinAlgError, match="working-set matrix"):
        solve_qp(prob, start=(x0, (box_u0, rate_u0)))
    # each row alone is a valid start
    for row in (box_u0, rate_u0):
        npt.assert_allclose(solve_qp(prob, start=(x0, (row,)))[0], solve_qp(prob)[0], atol=1e-12)


def test_ratio_near_tie_keeps_lowest_index():
    # two box rows block at ratios 2.5e-13 apart: the lower index wins,
    # not the smaller ratio
    prob = MpcProblem(
        H=np.eye(3), g=np.array([-2.0, -2.0, 0.0]),
        lb=np.full(3, -5.0), ub=np.array([1.0, 1.0 - 5e-13, 5.0]),
        du_lb=np.full(3, -np.inf), du_ub=np.full(3, np.inf),
        u_prev=np.zeros(3), nc=1,
    )
    x, info = solve_qp(prob)
    assert _same_bits(x, [1.0, 1.0, 0.0])
    assert info["active_set"] == (0, 1)
    _assert_same_solve(prob)


def _assert_kkt_optimal(prob, x, info, tol):
    """Independent KKT check: feasible, tight on its active rows, stationary with nonnegative multipliers."""
    assert info["status"] == "optimal"
    a_mat, b_vec = _constraint_rows(prob)
    assert np.all(a_mat @ x <= b_vec + tol)
    work = list(info["active_set"])
    aw = a_mat[work]
    assert np.all(np.abs(aw @ x - b_vec[work]) <= tol)
    grad = prob.H @ x + prob.g
    lam = np.linalg.lstsq(aw.T, -grad, rcond=None)[0] if work else np.zeros(0)
    assert np.all(lam >= -tol)
    assert np.abs(grad + aw.T @ lam).max() <= tol


@pytest.mark.parametrize("nc,g_scale", [(10, 1e4), (2, 1e6)])
def test_solve_qp_stop_rule_scales_with_gradient(nc, g_scale):
    # With |g| large the iterates are large too, so the working-set step
    # carries rounding far above an absolute 1e-11 and a fixed threshold never
    # stops. Each solve must end optimal and pass an independent KKT check.
    rng = np.random.default_rng(100 * nc + int(math.log10(g_scale)))
    for _ in range(12):
        prob = _random_problem(rng, nc, g_scale)
        x, info = solve_qp(prob)
        _assert_kkt_optimal(prob, x, info, 1e-9 * g_scale)


@pytest.mark.parametrize("nc", [1, 2, 10])
def test_shift_start_matches_row_loop(nc):
    rng = np.random.default_rng(40 + nc)
    for _ in range(20):
        prob = _random_problem(rng, nc)
        m = _constraint_rows(prob)[0].shape[0]
        x = rng.standard_normal(3 * nc)
        subsets = [range(m), sorted(rng.choice(max(m, 1), size=min(m, 6), replace=False).tolist())]
        for active in subsets:
            got, want = _shift_start(prob, x, active), shift_start_loop(prob, x, active)
            assert _same_bits(got[0], want[0])
            assert got[1] == want[1]


def _counting_feasible_start(monkeypatch):
    calls = []

    def counted(prob):
        calls.append(prob)
        return _feasible_start(prob)

    monkeypatch.setattr(mpc, "_feasible_start", counted)
    return calls


def _ramp_problem():
    # a reference faster than the box, from rest under rate caps: every
    # rate row of the horizon binds, and a cold solve takes 31 iterations
    du = np.array([0.1, 0.1, 0.05])
    cfg = MpcConfig(du_min=-du, du_max=du)
    ts = cfg.dt * np.arange(1, cfg.horizon + 1)
    return build_qp(Pose2(0.0, 0.0, 0.0), np.outer(ts, [3.0, -1.0, 0.8]).ravel(), np.zeros(3), cfg)


def test_shifted_start_drops_the_degenerate_rate_row(monkeypatch):
    # minimize (u0 - 0.3)^2 + (u1 - 5)^2 on one component with u <= 1 and
    # steps <= 0.5: the optimum u = (0.5, 1) holds the box row of u1 and the
    # rate row u1 - u0 <= 0.5, both with positive multipliers
    prob = MpcProblem(
        H=2.0 * np.eye(6), g=-2.0 * np.array([0.3, 0.0, 0.0, 5.0, 0.0, 0.0]),
        lb=np.full(6, -1.0), ub=np.full(6, 1.0),
        du_lb=np.full(3, -0.5), du_ub=np.full(3, 0.5),
        u_prev=np.array([0.4, 0.0, 0.0]), nc=2,
    )
    x, info = solve_qp(prob)
    npt.assert_allclose(x[[0, 3]], [0.5, 1.0], atol=1e-12)
    box_u1, rate_u1 = 3, 12 + 3  # ub rows 0-5, lb rows 6-11, then rate-upper rows
    assert {box_u1, rate_u1} <= set(info["active_set"])
    # One step later u_prev = 0.5, and the old rate row turns into u0 <= 0.5 + 0.5:
    # parallel to the shifted box row u0 <= 1 and tight with it.
    nxt = dataclasses.replace(prob, u_prev=x[:3])
    start = _shift_start(prob, x, info["active_set"])
    a_next, b_next = _constraint_rows(nxt)
    rate_u0 = 12
    assert abs(a_next[0] @ start[0] - b_next[0]) < 1e-12
    assert abs(a_next[rate_u0] @ start[0] - b_next[rate_u0]) < 1e-12
    assert rate_u0 not in start[1] and 0 in start[1]
    calls = _counting_feasible_start(monkeypatch)
    got, got_info = solve_qp(nxt, start=start)
    assert not calls  # the shifted start was taken
    cold, cold_info = solve_qp(nxt)
    assert got_info["status"] == cold_info["status"] == "optimal"
    assert got_info["active_set"] == cold_info["active_set"]
    npt.assert_allclose(got, cold, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_warm_and_cold_solves_agree_along_rate_limited_sequences(seed, monkeypatch):
    # A closed loop in miniature: the reference runs faster than the input box
    # and reverses halfway, so box and rate rows enter and leave the active set.
    rng = np.random.default_rng(seed)
    du = rng.uniform(0.02, 0.3, 3)
    cfg = MpcConfig(dt=0.05, horizon=20, control_horizon=10, du_min=-du, du_max=du, **_weights(rng))
    ts = cfg.dt * np.arange(1, cfg.horizon + 1)
    v = rng.uniform(-3.0, 3.0, 3)
    state, u_prev, start = Pose2(*rng.uniform(-0.5, 0.5, 3)), np.zeros(3), None
    calls = _counting_feasible_start(monkeypatch)
    warm_iterations = cold_iterations = 0
    for k in range(40):
        if k == 20:
            v = -v
        ref = (state.as_array() + np.outer(ts, v)).ravel()
        prob = build_qp(state, ref, u_prev, cfg)
        tol = 1e-9 * max(1.0, float(np.abs(prob.g).max()))
        cold, cold_info = solve_qp(prob)
        del calls[:]
        warm, warm_info = solve_qp(prob, start=start)
        assert len(calls) == (k == 0)  # every shifted start is taken
        _assert_kkt_optimal(prob, cold, cold_info, tol)
        _assert_kkt_optimal(prob, warm, warm_info, tol)
        assert warm_info["active_set"] == cold_info["active_set"]
        warm_iterations += warm_info["iterations"]
        cold_iterations += cold_info["iterations"]
        start = _shift_start(prob, warm, warm_info["active_set"])
        u_prev = warm[:3]
        state = Pose2(*(state.as_array() + cfg.dt * u_prev))
    assert warm_iterations < cold_iterations


def test_start_off_by_more_than_tolerance_falls_back_cold(monkeypatch):
    prob = _ramp_problem()
    x, info = solve_qp(prob)
    start = _shift_start(prob, x, info["active_set"])
    calls = _counting_feasible_start(monkeypatch)
    # tighten the rate caps under the ramp: by 0.5e-10 the start holds, by 2e-10 it does not
    for excess, taken in ((0.5e-10, True), (2e-10, False)):
        nxt = dataclasses.replace(prob, u_prev=x[:3], du_ub=prob.du_ub - excess)
        a_mat, b_vec = _constraint_rows(nxt)
        assert (a_mat @ start[0] - b_vec).max() == pytest.approx(excess, rel=1e-3)
        cold, cold_info = solve_qp(nxt)
        del calls[:]
        got, got_info = solve_qp(nxt, start=start)
        assert len(calls) == (not taken)
        assert got_info["status"] == "optimal" and got_info["active_set"] == cold_info["active_set"]
        if not taken:
            assert _same_bits(got, cold) and got_info == cold_info


def test_capped_iterate_is_a_start_the_next_step_takes(monkeypatch):
    monkeypatch.setattr(mpc, "ITERATIONS_PER_VARIABLE", 1)
    prob = _ramp_problem()
    x, info = solve_qp(prob)
    assert info["status"] == "max_iterations" and info["iterations"] == 30
    monkeypatch.undo()
    nxt = dataclasses.replace(prob, u_prev=x[:3])
    calls = _counting_feasible_start(monkeypatch)
    got, got_info = solve_qp(nxt, start=_shift_start(prob, x, info["active_set"]))
    assert not calls
    cold, cold_info = solve_qp(nxt)
    _assert_kkt_optimal(nxt, got, got_info, 1e-9 * max(1.0, float(np.abs(nxt.g).max())))
    assert got_info["active_set"] == cold_info["active_set"]


def _weights(rng):
    return dict(state_weight=_spd(rng, 3, 5.0), input_weight=_spd(rng, 3, 0.05))


def _qp_inputs(rng, cfg):
    state = Pose2(*rng.uniform(-1.0, 1.0, 3))
    ref = rng.uniform(-1.0, 1.0, 3 * cfg.horizon)
    return state, ref, rng.uniform(-0.5, 0.5, 3)


def _assert_qp_matches_oracle(cfg, state, ref, u_prev):
    got, want = build_qp(state, ref, u_prev, cfg), build_qp_per_step(state, ref, u_prev, cfg)
    for name in ("H", "g", "lb", "ub", "du_lb", "du_ub", "u_prev"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert got.nc == want.nc
    return got


@pytest.mark.parametrize("horizon,nc", [(1, 1), (4, 2), (20, 10)])
def test_build_qp_matches_per_step_assembly(horizon, nc):
    rng = np.random.default_rng(horizon)
    cfg = MpcConfig(dt=0.05, horizon=horizon, control_horizon=nc, **_weights(rng))
    for _ in range(5):
        _assert_qp_matches_oracle(cfg, *_qp_inputs(rng, cfg))
    # zero input weight and zero y weight make H singular: the regularized branch
    singular = MpcConfig(dt=0.05, horizon=horizon, control_horizon=nc, input_weight=np.zeros((3, 3)),
                         state_weight=np.diag([1.0, 0.0, 1.0]))
    _assert_qp_matches_oracle(singular, *_qp_inputs(rng, singular))


def test_build_qp_cache_separates_configs():
    rng = np.random.default_rng(3)
    w = _weights(rng)
    cfg_a = MpcConfig(horizon=6, control_horizon=3, **w)
    w_b = {k: v.copy() for k, v in w.items()}
    w_b["input_weight"][1, 1] += 0.01
    cfg_b = MpcConfig(horizon=6, control_horizon=3, **w_b)
    inputs = _qp_inputs(rng, cfg_a)
    h_a = _assert_qp_matches_oracle(cfg_a, *inputs).H
    h_b = _assert_qp_matches_oracle(cfg_b, *inputs).H
    assert not np.array_equal(h_a, h_b)
    w_c = {k: v.copy() for k, v in w.items()}
    w_c["state_weight"][0, 0] *= 2.0
    cfg_c = MpcConfig(horizon=6, control_horizon=3, **w_c)
    g_c = _assert_qp_matches_oracle(cfg_c, *inputs).g
    assert not np.array_equal(g_c, build_qp(*inputs, cfg_a).g)


def test_build_qp_sees_in_place_weight_edit():
    rng = np.random.default_rng(4)
    cfg = MpcConfig(horizon=5, control_horizon=2, **_weights(rng))
    inputs = _qp_inputs(rng, cfg)
    before = build_qp(*inputs, cfg).H
    cfg.input_weight[2, 2] += 0.25
    after = _assert_qp_matches_oracle(cfg, *inputs).H
    assert after[2, 2] != before[2, 2]


def test_editing_a_problem_leaves_the_next_step_unchanged():
    rng = np.random.default_rng(5)
    cfg = MpcConfig(horizon=5, control_horizon=2, **_weights(rng))
    inputs = _qp_inputs(rng, cfg)
    prob = build_qp(*inputs, cfg)
    try:
        prob.H[:] = 0.0
        prob.H += 7.0
    except ValueError:  # a read-only H is as safe as a copied one
        pass
    _assert_qp_matches_oracle(cfg, *inputs)
