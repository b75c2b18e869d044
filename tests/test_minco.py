import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import curved_traj, folded, random_instance, rotation_traj, straight_traj
from oracles import (
    GatheredMinco,
    energy_cost_written_out,
    energy_direct_T,
    fd_cost_grads,
    horner_six_gathers,
    minco_adjoint,
    minco_band,
    rel_err,
    segment_derivative,
    trapezoid,
)
from sweptplan import minco
from sweptplan.minco import (
    Boundary,
    CostWithGrads,
    MincoTrajectory,
    NonPositiveDuration,
    build_minco,
    energy_cost_with_grads,
    propagate_gradient,
    time_cost_with_grads,
)


def _exact_instances(n_seg: int, count: int = 6):
    """Seeded (q, T, boundary) with durations spread over 0.05 s .. 20 s."""
    for seed in range(count):
        q, _, boundary = random_instance(seed, n_interior=n_seg - 1)
        T = np.exp(np.random.default_rng(seed + 50).uniform(-3.0, 3.0, n_seg))
        yield seed, q, T, boundary


def test_single_segment_rest_to_rest_coefficients():
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    traj = build_minco(np.zeros((0, 3)), np.array([1.0]), boundary)
    # classic minimum-jerk step: x(t) = 10 t^3 - 15 t^4 + 6 t^5
    npt.assert_allclose(traj.coeffs[0][:, 0], [0.0, 0.0, 0.0, 10.0, -15.0, 6.0], atol=1e-9)


def test_identical_endpoints_constant():
    pose = (2.0, -1.0, 0.7)
    boundary = Boundary.rest_to_rest(pose, pose)
    q = np.tile(np.asarray(pose), (3, 1))
    traj = build_minco(q, np.full(4, 1.5), boundary)
    for seg in traj.coeffs:
        npt.assert_allclose(seg[0], pose, atol=1e-9)
        npt.assert_allclose(seg[1:], 0.0, atol=1e-9)


def test_junctions_and_continuity_seeded():
    for seed in range(8):
        q, T, boundary = random_instance(seed)
        traj = build_minco(q, T, boundary)
        t_cum = np.cumsum(T)[:-1]
        for j, t in enumerate(t_cum):
            npt.assert_allclose(traj.sample(t, 0), q[j], atol=1e-9)
            # derivative continuity through order 4 across the junction
            for order in range(1, 5):
                left = traj.sample(t - 1e-12, order)
                right = traj.sample(t + 1e-12, order)
                scale = max(1.0, np.abs(left).max())
                assert np.abs(left - right).max() / scale < 1e-6


def test_boundary_conditions_seeded():
    q, T, boundary = random_instance(3)
    traj = build_minco(q, T, boundary)
    total = T.sum()
    npt.assert_allclose(traj.sample(0.0, 0), boundary.start[0], atol=1e-9)
    npt.assert_allclose(traj.sample(0.0, 1), boundary.start[1], atol=1e-9)
    npt.assert_allclose(traj.sample(0.0, 2), boundary.start[2], atol=1e-9)
    npt.assert_allclose(traj.sample(total, 0), boundary.end[0], atol=1e-9)
    npt.assert_allclose(traj.sample(total, 1), boundary.end[1], atol=1e-9)
    npt.assert_allclose(traj.sample(total, 2), boundary.end[2], atol=1e-9)


def test_sample_clamps_domain_and_order5():
    q, T, boundary = random_instance(5)
    traj = build_minco(q, T, boundary)
    # times outside [0, total] take the end values
    assert np.array_equal(traj.sample(-0.1, 0), traj.sample(0.0, 0))
    assert np.array_equal(traj.sample(T.sum() + 0.1, 0), traj.sample(T.sum(), 0))
    # order-5 derivative is constant inside each segment
    t_cum = np.concatenate([[0.0], np.cumsum(T)])
    for j in range(traj.n_segments):
        lo, hi = t_cum[j], t_cum[j + 1]
        a = traj.sample(lo + 0.1 * (hi - lo), 5)
        b = traj.sample(lo + 0.9 * (hi - lo), 5)
        npt.assert_allclose(a, b, atol=1e-6)
        npt.assert_allclose(a, 120.0 * traj.coeffs[j][5], atol=1e-6)


@pytest.mark.parametrize("order", [-1, 6])
def test_sample_rejects_order_outside_0_to_5(order):
    traj = build_minco(*random_instance(1, n_interior=1))
    with pytest.raises(ValueError, match="order must be in 0..5"):
        traj.sample(np.array([0.5]), order)


def test_mapping_linear_in_waypoints():
    rng = np.random.default_rng(4)
    T = rng.uniform(0.8, 1.6, size=5)
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    q1 = rng.uniform(-2.0, 2.0, size=(4, 3))
    q2 = rng.uniform(-2.0, 2.0, size=(4, 3))
    alpha = 0.3
    t1 = build_minco(q1, T, boundary)
    t2 = build_minco(q2, T, boundary)
    t3 = build_minco(alpha * q1 + (1.0 - alpha) * q2, T, boundary)
    for c1, c2, c3 in zip(t1.coeffs, t2.coeffs, t3.coeffs):
        npt.assert_allclose(c3, alpha * c1 + (1.0 - alpha) * c2, atol=1e-9)


def test_energy_zero_for_constant():
    pose = (1.0, 2.0, 0.3)
    boundary = Boundary.rest_to_rest(pose, pose)
    traj = build_minco(np.tile(np.asarray(pose), (2, 1)), np.ones(3), boundary)
    c = folded(energy_cost_with_grads, traj)
    assert c.value < 1e-18
    npt.assert_allclose(c.grad_q, 0.0, atol=1e-9)
    npt.assert_allclose(c.grad_T, 0.0, atol=1e-9)


def test_energy_unit_step_closed_form():
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    traj = build_minco(np.zeros((0, 3)), np.array([1.0]), boundary)
    c = energy_cost_with_grads(traj)
    # quadrature of the jerk square of 10 t^3 - 15 t^4 + 6 t^5
    ts = np.linspace(0.0, 1.0, 200001)
    jerk = 60.0 - 360.0 * ts + 360.0 * ts**2
    oracle = trapezoid(jerk**2, ts)
    npt.assert_allclose(c.value, 720.0, rtol=1e-9)
    npt.assert_allclose(oracle, 720.0, rtol=1e-8)


def test_energy_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(10):
        q, T, boundary = random_instance(seed)
        traj = build_minco(q, T, boundary)
        c = folded(energy_cost_with_grads, traj)

        def fn(qq, TT):
            return energy_cost_with_grads(build_minco(qq, TT, boundary)).value

        gq, gT = fd_cost_grads(fn, q, T, step=1e-6)
        err = rel_err(np.concatenate([c.grad_q.ravel(), c.grad_T]), np.concatenate([gq.ravel(), gT]))
        worst = max(worst, err)
    assert worst <= 1e-4


def test_time_cost():
    c = time_cost_with_grads(np.array([1.0, 2.0]))
    assert c.value == 3.0
    npt.assert_allclose(c.grad_T, [1.0, 1.0])
    assert c.grad_q.size == 0 or np.all(c.grad_q == 0.0)
    c1 = time_cost_with_grads(np.array([0.5]))
    assert c1.value == 0.5


def test_nonpositive_duration_rejected():
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(NonPositiveDuration):
        build_minco(np.zeros((1, 3)), np.array([1.0, -0.5]), boundary)
    with pytest.raises(NonPositiveDuration):
        build_minco(np.zeros((1, 3)), np.array([1.0, 0.0]), boundary)


def test_serialization_round_trip():
    q, T, boundary = random_instance(9)
    traj = build_minco(q, T, boundary)
    clone = MincoTrajectory.from_dict(traj.to_dict())
    ts = np.linspace(0.0, T.sum(), 23)
    npt.assert_array_equal(clone.sample(ts, 0), traj.sample(ts, 0))
    npt.assert_array_equal(clone.durations, traj.durations)
    npt.assert_array_equal(clone.waypoints, traj.waypoints)


def test_arc_length_straight_line():
    boundary = Boundary.rest_to_rest((0.0, 0.0, 0.0), (3.0, 4.0, 0.0))
    traj = build_minco(np.array([[1.5, 2.0, 0.0]]), np.array([2.0, 2.0]), boundary)
    npt.assert_allclose(traj.arc_length(), 5.0, rtol=1e-4)


# The vectorized hot paths must reproduce their scalar forms in oracles.py
# bit for bit, so equality here is exact, not within a tolerance.


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_band_assembly_equals_scalar_oracle(n_seg):
    for _, _, T, _ in _exact_instances(n_seg):
        ab, abt = minco._assemble(T)
        ab_ref, abt_ref = minco_band(T)
        # LAPACK storage: solve_banded's rows below _BAND rows of fill-in space.
        assert np.array_equal(ab[minco._BAND :], ab_ref)
        assert np.array_equal(abt[minco._BAND :], abt_ref)
        assert not ab[: minco._BAND].any() and not abt[: minco._BAND].any()


def _fold_cases(traj, rng):
    """Lists of 1-3 costs with a grad_C, in random order among 0-2 without.

    Each cost's direct gradients are random, +0.0 or -0.0.
    """
    n_seg = traj.n_segments
    for n_coupled in (1, 2, 3):
        costs = []
        for k in range(n_coupled + rng.integers(0, 3)):
            zero = (None, 0.0, -0.0)[rng.integers(0, 3)]
            if zero is None:
                grad_q, grad_T = rng.standard_normal((n_seg - 1, 3)), rng.standard_normal(n_seg)
            else:
                grad_q, grad_T = np.full((n_seg - 1, 3), zero), np.full(n_seg, zero)
            grad_C = rng.standard_normal(traj.coeffs.shape) if k < n_coupled else None
            costs.append(CostWithGrads(float(k), grad_q, grad_T, grad_C))
        yield [costs[i] for i in rng.permutation(len(costs))]


@pytest.mark.parametrize("n_seg", [1, 2, 5, 15])
def test_adjoint_equals_scalar_oracle(n_seg):
    """One fold gives each cost with a grad_C the oracle's totals, as if it
    were folded alone, and returns every other cost as it was."""
    for seed, q, T, boundary in _exact_instances(n_seg):
        traj = build_minco(q, T, boundary)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            for costs in _fold_cases(traj, rng):
                out = propagate_gradient(traj, costs)
                assert len(out) == len(costs)
                for c, got in zip(costs, out):
                    if c.grad_C is None:
                        assert got is c
                        continue
                    ref_q, ref_T = minco_adjoint(traj, c.grad_C, c.grad_T, c.grad_q)
                    assert got.value == c.value and got.grad_C is None
                    for a, b in ((got.grad_q, ref_q), (got.grad_T, ref_T)):
                        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _coefficient_instance(seed: int, n_seg: int):
    """Stand-in trajectory with the fields the energy reads: coefficients
    over six decades of both signs, about a fifth of them zeros of either
    sign, and durations from 0.05 to 5 s."""
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(n_seg, 6, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n_seg, 6, 3))
    zero = rng.random(C.shape) < 0.2
    C[zero] = np.where(rng.random(C.shape) < 0.5, 0.0, -0.0)[zero]
    jerk = rng.normal(size=(n_seg, 3))
    return SimpleNamespace(
        coeffs=C, durations=rng.uniform(0.05, 5.0, n_seg), n_segments=n_seg, _end_rows=(None, None, jerk)
    )


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_energy_equals_written_out_form(n_seg):
    """The stacked energy does the written-out form's operations in its
    order: value, grad_C and grad_T bit for bit, signed zeros included."""
    instances = [_coefficient_instance(seed, n_seg) for seed in range(40)]
    instances += [build_minco(q, T, boundary) for _, q, T, boundary in _exact_instances(n_seg)]
    assert any(np.signbit(x.coeffs[x.coeffs == 0.0]).any() for x in instances)
    for traj in instances:
        c = energy_cost_with_grads(traj)
        value, grad_C, grad_T = energy_cost_written_out(traj)
        assert c.value == value and np.signbit(c.value) == np.signbit(value)
        for got, ref in ((c.grad_C, grad_C), (c.grad_T, grad_T)):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_energy_direct_term_equals_scalar_oracle(n_seg):
    """The energy hands the fold its grad_C, the squared jerk at each segment
    end as its direct grad_T, and a +0.0 direct grad_q."""
    d3 = np.array(minco._DERIV[3][3:])
    for _, q, T, boundary in _exact_instances(n_seg):
        traj = build_minco(q, T, boundary)
        c = energy_cost_with_grads(traj)
        assert np.array_equal(c.grad_T, energy_direct_T(traj))
        assert np.array_equal(c.grad_q, np.zeros_like(q)) and not np.signbit(c.grad_q).any()
        # grad_C = 2 Q c per segment and component, Q the jerk Gram matrix of
        # the cubic..quintic powers: Q_ij = d_i d_j T^(i+j-5) / (i+j-5). The
        # sums cancel, so the bound is relative to the sum of |terms|.
        assert not c.grad_C[:, :3].any()
        p = np.add.outer(np.arange(3, 6), np.arange(3, 6)) - 5
        for j, t in enumerate(T):
            gram = np.outer(d3, d3) * t**p / p
            coeffs = traj.coeffs[j, 3:]
            err = np.abs(c.grad_C[j, 3:] - 2.0 * gram @ coeffs)
            assert (err <= 1e-13 * (2.0 * np.abs(gram) @ np.abs(coeffs))).all()


@pytest.mark.parametrize("n_seg", [1, 2, 15])
def test_lapack_solve_equals_solve_banded(n_seg):
    from scipy.linalg import solve_banded

    for _, q, T, boundary in _exact_instances(n_seg):
        b = np.zeros((6 * n_seg, 3))
        b[0:3] = boundary.start
        for j in range(1, n_seg):
            b[6 * j - 3] = b[6 * j + 2] = q[j - 1]
        b[-3:] = boundary.end
        ref = solve_banded((minco._BAND, minco._BAND), minco_band(T)[0], b).reshape(n_seg, 6, 3)
        assert np.array_equal(build_minco(q, T, boundary).coeffs, ref)


def test_adjoint_factors_once_per_trajectory(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    dgbtrf = minco.dgbtrf
    monkeypatch.setattr(minco, "dgbtrf", counting)
    q, T, boundary = random_instance(4)
    traj = build_minco(q, T, boundary)
    assert not calls
    grad_C = np.random.default_rng(4).standard_normal(traj.coeffs.shape)
    cost = CostWithGrads(0.0, np.zeros_like(q), np.zeros_like(T), grad_C)
    (first,) = propagate_gradient(traj, [cost])
    propagate_gradient(traj, [energy_cost_with_grads(traj)])
    (again,) = propagate_gradient(traj, [cost])
    assert len(calls) == 1
    assert np.array_equal(first.grad_q, again.grad_q) and np.array_equal(first.grad_T, again.grad_T)
    # A trajectory read back from its dict assembles and factors its own system once.
    clone = MincoTrajectory.from_dict(traj.to_dict())
    for _ in range(2):
        (got,) = propagate_gradient(clone, [cost])
        assert np.array_equal(got.grad_q, first.grad_q) and np.array_equal(got.grad_T, first.grad_T)
    assert len(calls) == 2


@pytest.mark.parametrize("where", ["q", "T", "start", "end"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_minco_rejects_non_finite_before_lapack(where, bad, monkeypatch):
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK ran on non-finite input")

    monkeypatch.setattr(minco, "dgbsv", lapack)
    q, T, boundary = random_instance(0)
    if where == "q":
        q[1, 2] = bad
    elif where == "T":
        T[2] = abs(bad)  # a negative duration is NonPositiveDuration, not a solver input
    else:
        getattr(boundary, where)[1, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        build_minco(q, T, boundary)


def test_adjoint_rejects_non_finite_gradient():
    traj = build_minco(*random_instance(1))
    grad_C = np.zeros(traj.coeffs.shape)
    grad_C[0, 3, 1] = math.nan
    bad = CostWithGrads(0.0, np.zeros_like(traj.waypoints), np.zeros(traj.n_segments), grad_C)
    with pytest.raises(ValueError, match="infs or NaNs"):
        propagate_gradient(traj, [energy_cost_with_grads(traj), bad])


def test_sample_equals_scalar_horner():
    q, T, boundary = random_instance(2)
    traj = build_minco(q, T, boundary)
    ts = np.linspace(0.0, T.sum(), 41)
    for order in range(6):
        block = traj.sample(ts, order)
        for i, t in enumerate(ts):
            j = min(int(np.searchsorted(traj.knot_times, t, side="right")) - 1, traj.n_segments - 1)
            ref = segment_derivative(traj.coeffs[j], t - traj.knot_times[j], order)
            assert np.array_equal(block[i], ref)
            assert np.array_equal(traj.sample(t, order), ref)


@pytest.mark.parametrize("order", range(6))
def test_horner_equals_six_gather_oracle(order):
    q, T, boundary = random_instance(3)
    traj = build_minco(q, T, boundary)
    rng = np.random.default_rng(order)
    seg = rng.integers(0, traj.n_segments, size=(4, 9))
    tau = rng.uniform(0.0, 1.0, size=seg.shape) * T[seg]
    assert np.array_equal(minco._horner(traj, seg, tau, order), horner_six_gathers(traj.coeffs, seg, tau, order))
    for j in range(traj.n_segments):
        scalar = minco._horner(traj, j, T[j] / 3.0, order)
        assert np.array_equal(scalar, horner_six_gathers(traj.coeffs, j, T[j] / 3.0, order))
    # The cached segment-end rows take the same steps at tau = T; straight_traj
    # has y coefficients of both signs of zero.
    for tr in (traj, straight_traj()) if order > 0 else ():
        ends = horner_six_gathers(tr.coeffs, np.arange(tr.n_segments), tr.durations, order)
        got = tr._end_rows[order - 1]
        assert np.array_equal(got, ends) and np.array_equal(np.signbit(got), np.signbit(ends))


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("kind", ["random", "line_x"])
def test_sample_equals_frozen_gathered_horner(kind, order):
    # line_x: y coefficients of both signs of zero, so signs must match too
    traj = build_minco(*random_instance(3)) if kind == "random" else straight_traj()
    total = traj.total_time
    inside = np.concatenate([[-0.0, 0.0, total], traj.knot_times, np.linspace(0.0, total, 257)])
    ts = np.concatenate([inside, [-1.0, total + 1.0, np.nextafter(total, np.inf)]])
    got = traj.sample(ts, order)
    ref = GatheredMinco(traj).sample(ts, order)
    assert got.shape == (ts.size, 3)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    for t in inside:
        j = min(int(np.searchsorted(traj.knot_times, t, side="right")) - 1, traj.n_segments - 1)
        tau = min(t, total) - traj.knot_times[j]
        one = traj.sample(t, order)
        ref_one = horner_six_gathers(traj.coeffs, j, tau, order)
        assert one.shape == (3,)
        assert np.array_equal(one, ref_one) and np.array_equal(np.signbit(one), np.signbit(ref_one))


def _rising_traj(T: float = 2.0) -> MincoTrajectory:
    """One segment whose x and heading have only positive monomial
    coefficients, so on every interval each rate peaks at the interval's end
    and the Taylor bound is attained there."""
    c = np.zeros((6, 3))
    c[:, 0] = [0.0, 1.0, 0.5, 0.3, 0.2, 0.1]
    c[:, 2] = [0.0, 0.2, 0.1, 0.05, 0.04, 0.02]
    end = [sum(math.perm(i, k) * c[i] * T ** (i - k) for i in range(k, 6)) for k in range(3)]
    start = [math.factorial(k) * c[k] for k in range(3)]
    traj = build_minco(np.zeros((0, 3)), np.array([T]), Boundary(start=start, end=end))
    assert np.all(traj.coeffs[0, 1:, 0] > 0.0) and np.all(traj.coeffs[0, 1:, 2] > 0.0)
    return traj


RATE_TRAJS = {
    **{f"curved{seed}": (lambda seed=seed: curved_traj(seed=seed, n_interior=5)) for seed in (0, 3, 11)},
    "rotation": rotation_traj,
    "one_segment": _rising_traj,
}


def _interval_sets(traj):
    """Coarse sample times, the knots themselves, and a mix of both."""
    total = traj.total_time
    coarse = np.linspace(0.0, total, 64)
    mixed = np.union1d(np.linspace(0.0, total, 7), traj.knot_times[::2])
    mixed = np.union1d(mixed, [total])
    yield coarse
    yield traj.knot_times if traj.n_segments > 1 else np.linspace(0.0, total, 3)
    yield mixed


@pytest.mark.parametrize("kind", list(RATE_TRAJS))
def test_rate_bounds_hold_on_dense_samples(kind):
    traj = RATE_TRAJS[kind]()
    for ts in _interval_sets(traj):
        vmax, wmax = traj.rate_bounds(ts)
        assert vmax.shape == wmax.shape == (ts.size - 1,)
        dense = np.union1d(np.linspace(0.0, traj.total_time, 200_001), ts)
        rates = traj.sample(dense, 1)
        speed = np.hypot(rates[:, 0], rates[:, 1])
        turn = np.abs(rates[:, 2])
        # A time on an interval's end belongs to both intervals it bounds.
        for side in ("left", "right"):
            j = np.clip(np.searchsorted(ts, dense, side=side) - 1, 0, ts.size - 2)
            assert np.all(speed <= vmax[j])
            assert np.all(turn <= wmax[j])
        if kind == "one_segment":
            # the bound is attained at each interval's end, up to the margin
            ends = np.searchsorted(dense, ts[1:])
            npt.assert_allclose(speed[ends], vmax, rtol=1e-8)
            npt.assert_allclose(turn[ends], wmax, rtol=1e-8)
