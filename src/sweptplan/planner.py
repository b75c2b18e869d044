"""Two-stage trajectory optimization over interior knots and durations.

Stage 1 fits a smooth, time-regularized spline to the grid route (energy +
total time + anchor deviation). Stage 2 drops the anchors and adds the
collision hinge and the sweep-alignment penalty, then verifies the result
against the obstacle set by dense sampling. Durations are optimized through
a softplus reparameterization so they stay above a floor; both stages run a
limited-memory quasi-Newton loop, with a strong Wolfe line search for the
smooth stage and descent-only Armijo backtracking for the hinged stage. Each
accepted point is traced with its gradient norm, step, the evaluations its
line search made and the weighted cost terms.

Stage 2 finds the obstacle points near each knot through a neighbour list
with a skin: one exhaustive offset test over the obstacle points serves every
evaluation until a knot drifts farther than the skin from where it was built.
"""

from __future__ import annotations

import array
import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    VehicleParams,
    footprint_sdf_batch,
    footprint_sdf_values,
    to_body_frame,
    wrap_angle,
    wrap_angles,
)
from .minco import (
    Boundary,
    CostWithGrads,
    MincoTrajectory,
    build_minco,
    energy_cost_with_grads,
    propagate_gradient,
    time_cost_with_grads,
)
from .worldmodel import GridMap, InitialTrajectory

T_MIN = 0.01  # duration floor under the softplus map, seconds
_QUERY_SLACK = 1e-6  # meters added to the neighbour-list rebuild radius
_SKIN = 0.5  # meters a knot may drift from where the neighbour list was queried
LBFGS_MEMORY = 8  # curvature pairs kept by the quasi-Newton loop


class SizeMismatch(Exception):
    pass


@dataclass
class PlannerWeights:
    energy: float = 1.0
    time: float = 20.0
    deviation: float = 100.0
    obstacle: float = 1000.0
    sweep: float = 300.0
    safety_margin: float = 0.3  # hinge activation distance, meters


@dataclass
class PlanOptions:
    max_iterations: int = 500
    grad_tol: float = 1e-6
    cost_tol: float = 1e-8
    init_speed: float = 1.0  # seeds segment durations from chord lengths, m/s


# Columns of PlanReport.trace; the last five are the weighted cost terms,
# 0.0 for a term the stage lacks, and sum left to right to the cost.
TRACE_COLUMNS = ("cost", "grad_norm", "step", "evals", "energy", "time", "deviation", "obstacle", "sweep")


@dataclass
class PlanReport:
    trajectory: MincoTrajectory
    trace: np.ndarray  # one TRACE_COLUMNS row per accepted point, the start point first
    wall_time_s: float
    converged: bool
    reason: str
    stage: str
    feasible: bool | None = None
    min_clearance: float | None = None

    @property
    def cost_trace(self) -> list:
        return self.trace[:, 0].tolist()

    @property
    def iterations(self) -> int:
        """Optimizer steps taken: accepted points after the start point."""
        return self.trace.shape[0] - 1


# ---------------------------------------------------------------------------
# costs


def deviation_cost_with_grads(traj: MincoTrajectory, ref: InitialTrajectory) -> CostWithGrads:
    """Squared anchor deviation of interior knots, heading difference wrapped.

    ref supplies one anchor pose per knot; endpoints are boundary conditions,
    so only the interior anchors contribute (and only grad_q is nonzero).
    """
    n_seg = traj.n_segments
    if ref.count != n_seg + 1:
        raise SizeMismatch(
            f"reference has {ref.count} poses but the trajectory has {n_seg + 1} knots"
        )
    anchors = ref.poses[1:-1]
    diff = traj.waypoints - anchors
    diff[:, 2] = wrap_angles(diff[:, 2])
    value = float(np.sum(diff * diff))
    return CostWithGrads(
        value=value, grad_q=2.0 * diff, grad_T=np.zeros(n_seg)
    )


def obstacle_cost_with_grads(
    traj: MincoTrajectory,
    grid: GridMap,
    veh: VehicleParams,
    safety_margin: float = 0.3,
    neighbours: _NeighbourList | None = None,
) -> CostWithGrads:
    """Cubic hinge on footprint distance to obstacle cell centers at each interior knot.

    Contribution per (knot, obstacle point): (margin - F)^3 where F is the
    world-frame footprint distance, active only when F < margin. Knot poses
    are the decision variables themselves, so gradients land directly on q.
    neighbours, a list over `grid` kept across calls, saves the exhaustive
    rebuild; the result is the same with or without it.
    """
    n_seg = traj.n_segments
    q = traj.waypoints
    n_int = q.shape[0]
    grad_q = np.zeros_like(q)
    pts = grid.obstacle_points
    if pts.shape[0] == 0 or n_int == 0:
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    # A point can only activate the hinge if it lies within margin + half
    # diagonal of the knot center; prefilter keeps the SDF batch small. All
    # (knot, point) pairs go through one batched evaluation.
    reach = safety_margin + veh.half_diagonal + 1e-9
    k_idx, _, dxn, dyn = (neighbours or _NeighbourList(grid)).pairs(q, reach)
    if k_idx.size == 0:
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    c_all = np.cos(q[:, 2])
    s_all = np.sin(q[:, 2])
    c = c_all[k_idx]
    s = s_all[k_idx]
    body = to_body_frame(dxn, dyn, c, s)
    f, g_body = footprint_sdf_batch(body, veh.length, veh.width)
    act = f < safety_margin
    if not act.any():
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    k_act = k_idx[act]
    h = safety_margin - f[act]
    value = float(np.sum(h**3))
    dJdF = -3.0 * h * h
    gb = g_body[act]
    c, s = c[act], s[act]
    # World gradient w.r.t. the knot position is the negated rotated body gradient.
    gwx = c * gb[:, 0] - s * gb[:, 1]
    gwy = s * gb[:, 0] + c * gb[:, 1]
    # d(body point)/d(phi) = R'^T (P - p) = (body_y, -body_x) in the body frame.
    body_act = body[act]
    dF_dphi = gb[:, 0] * body_act[:, 1] - gb[:, 1] * body_act[:, 0]
    grad_q[:, 0] = np.bincount(k_act, weights=dJdF * -gwx, minlength=n_int)
    grad_q[:, 1] = np.bincount(k_act, weights=dJdF * -gwy, minlength=n_int)
    grad_q[:, 2] = np.bincount(k_act, weights=dJdF * dF_dphi, minlength=n_int)
    return CostWithGrads(value=value, grad_q=grad_q, grad_T=np.zeros(n_seg))


class _NeighbourList:
    """(knot, point) pairs within reach of the knot centers, from reused candidates.

    A Verlet list: every obstacle point within reach + _SKIN of anchor
    positions of the knots is found by one exhaustive test, and those
    candidates serve every later call while each knot stays within _SKIN of
    its anchor, since a point within reach of the knot is then within
    reach + _SKIN of the anchor. A larger drift, another reach or another
    knot count rebuilds. The exact offset test decides, so rounding in the
    rebuild's distances cannot change the pairs.
    """

    def __init__(self, grid: GridMap):
        self.grid = grid
        self.anchors = None
        self.reach = None

    def _query(self, q: np.ndarray, reach: float) -> None:
        self.anchors = q[:, :2].copy()
        self.reach = reach
        pts = self.grid.obstacle_points
        dx = pts[None, :, 0] - self.anchors[:, None, 0]
        dy = pts[None, :, 1] - self.anchors[:, None, 1]
        r = reach + _SKIN + _QUERY_SLACK
        self.k_idx, self.m_idx = np.nonzero(dx * dx + dy * dy <= r * r)
        self.px = pts[self.m_idx, 0]
        self.py = pts[self.m_idx, 1]

    def pairs(self, q: np.ndarray, reach: float):
        """Knot and point indices, knot-major with points ascending, and the
        point-minus-knot offsets dx, dy of every pair within reach."""
        anchors = self.anchors
        if anchors is None or reach != self.reach or anchors.shape[0] != q.shape[0]:
            self._query(q, reach)
        else:
            drift = q[:, :2] - anchors
            if not (np.vecdot(drift, drift) <= _SKIN * _SKIN).all():
                self._query(q, reach)
        k_idx = self.k_idx
        dx = self.px - q[k_idx, 0]
        dy = self.py - q[k_idx, 1]
        keep = dx * dx + dy * dy <= reach * reach
        return k_idx[keep], self.m_idx[keep], dx[keep], dy[keep]


def sweep_cost_with_grads(traj: MincoTrajectory, eps: float = 1e-8) -> CostWithGrads:
    """Squared misalignment between knot heading and travel direction.

    delta = wrap(phi_j - atan2(Vy, Vx)) at each interior knot; junctions with
    degenerate planar speed (Vx^2 + Vy^2 < eps) are skipped. The velocity is
    read from the right-hand segment at local time zero, so its coefficient
    gradient is a single basis row and the duration dependence arrives purely
    through the adjoint.
    """
    n_seg = traj.n_segments
    grad_q = np.zeros((max(n_seg - 1, 0), 3))
    grad_C = np.zeros_like(traj.coeffs)
    value = 0.0
    # Python floats do the same double arithmetic as numpy scalars, faster.
    knots = zip(traj.coeffs[1:, 1, :2].tolist(), traj.waypoints[:, 2].tolist())
    for k, ((vx, vy), phi) in enumerate(knots):
        s2 = vx * vx + vy * vy
        if s2 < eps:
            continue
        delta = wrap_angle(phi - math.atan2(vy, vx))
        value += delta * delta
        grad_q[k, 2] += 2.0 * delta
        grad_C[k + 1, 1, 0] += 2.0 * delta * (vy / s2)
        grad_C[k + 1, 1, 1] += 2.0 * delta * (-vx / s2)
    gq, gT = propagate_gradient(traj, grad_C, grad_q_direct=grad_q)
    return CostWithGrads(value=value, grad_q=gq, grad_T=gT)


# ---------------------------------------------------------------------------
# duration reparameterization


def softplus(tau: np.ndarray) -> np.ndarray:
    out = np.where(tau > 30.0, tau, np.log1p(np.exp(np.minimum(tau, 30.0))))
    return out + T_MIN


def softplus_inverse(T: np.ndarray) -> np.ndarray:
    y = np.asarray(T, dtype=float) - T_MIN
    if np.any(y <= 0.0):
        raise ValueError(f"durations must exceed the floor {T_MIN}")
    # log(expm1(y)), stable for both small and large y
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def _sigmoid(tau: np.ndarray) -> np.ndarray:
    out = np.empty_like(tau)
    pos = tau >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-tau[pos]))
    e = np.exp(tau[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# limited-memory quasi-Newton loop


def _wolfe_search(fg, x, f, g, d, c1=1e-4, c2=0.9, max_evals=25):
    """Strong Wolfe line search: double the step until it brackets an
    acceptable one, then bisect the bracket [lo, hi] (hi may lie below lo).

    Returns (alpha, f, g, terms, evals) of the accepted step, which is always
    the last point evaluated, or None.
    """
    g0 = float(g @ d)
    if g0 >= 0.0:
        return None
    lo, f_lo = 0.0, f
    alpha = 1.0
    alpha_max = 1e4
    f_a, g_vec, terms = fg(x + alpha * d)
    evals = 1
    while True:
        if evals >= max_evals:
            return None
        g_a = float(g_vec @ d)
        if f_a > f + c1 * alpha * g0 or (evals > 1 and f_a >= f_lo):
            hi = alpha
            break
        if abs(g_a) <= -c2 * g0:
            return alpha, f_a, g_vec, terms, evals
        if g_a >= 0.0:
            lo, f_lo, hi = alpha, f_a, lo
            break
        lo, f_lo = alpha, f_a
        alpha = min(2.0 * alpha, alpha_max)
        if alpha >= alpha_max:
            return None
        f_a, g_vec, terms = fg(x + alpha * d)
        evals += 1
    for _ in range(max(max_evals - evals, 1)):
        alpha = 0.5 * (lo + hi)
        f_a, g_vec, terms = fg(x + alpha * d)
        evals += 1
        g_a = float(g_vec @ d)
        if f_a > f + c1 * alpha * g0 or f_a >= f_lo:
            hi = alpha
        else:
            if abs(g_a) <= -c2 * g0:
                return alpha, f_a, g_vec, terms, evals
            if g_a * (hi - lo) >= 0.0:
                hi = lo
            lo, f_lo = alpha, f_a
        if abs(hi - lo) < 1e-14:
            break
    return None


def _armijo_search(fg, x, f, g, d, c1=1e-4, shrink=0.5, max_evals=30):
    """Backtracking with sufficient decrease only; tolerant of kinked objectives.

    Returns (alpha, f, g, terms, evals) of the accepted step, the last point
    evaluated, or None.
    """
    g0 = float(g @ d)
    if g0 >= 0.0:
        return None
    alpha = 1.0
    for evals in range(1, max_evals + 1):
        f_a, g_vec, terms = fg(x + alpha * d)
        if f_a <= f + c1 * alpha * g0:
            return alpha, f_a, g_vec, terms, evals
        alpha *= shrink
    return None


def _lbfgs(fg, x0, opts: PlanOptions, search):
    """Two-loop recursion quasi-Newton descent.

    fg(x) returns (cost, gradient, weighted cost terms). Returns (x, trace,
    converged, reason); trace has one TRACE_COLUMNS row per accepted point,
    the start point first.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, terms = fg(x)
    gnorm = float(np.linalg.norm(g))
    # Flat doubles rather than a list of tuples: a stage-2 trace has ~1,000 rows.
    trace = array.array("d", (f, gnorm, 0.0, 1, *terms))
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    converged = False
    reason = "max_iterations"
    for _ in range(opts.max_iterations):
        if gnorm < opts.grad_tol:
            converged, reason = True, "gradient_tolerance"
            break
        # two-loop recursion
        d = -g
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s @ d)
            alphas.append(a)
            d = d - a * y
        if y_hist:
            y_last, s_last = y_hist[-1], s_hist[-1]
            d = d * (float(s_last @ y_last) / max(float(y_last @ y_last), 1e-300))
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * float(y @ d)
            d = d + (a - b) * s
        if float(g @ d) >= 0.0:
            # Fall back to steepest descent if curvature info went stale.
            d = -g
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
        res = search(fg, x, f, g, d)
        if res is None:
            converged, reason = False, "line_search_failure"
            break
        alpha, f_new, g_new, terms, evals = res
        s = alpha * d
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > LBFGS_MEMORY:
                s_hist.pop(0), y_hist.pop(0), rho_hist.pop(0)
        x = x + s
        rel = abs(f - f_new) / max(1.0, abs(f))
        f, g = f_new, g_new
        gnorm = float(np.linalg.norm(g))
        trace.extend((f, gnorm, alpha, evals, *terms))
        if rel < opts.cost_tol:
            converged, reason = True, "cost_tolerance"
            break
    return x, np.frombuffer(trace).reshape(-1, len(TRACE_COLUMNS)), converged, reason


# ---------------------------------------------------------------------------
# stage drivers


def _pack(q, tau):
    return np.concatenate([q.ravel(), tau])


def _unpack(z, n_interior):
    q = z[: 3 * n_interior].reshape(n_interior, 3)
    tau = z[3 * n_interior :]
    return q, tau


def _seed_durations(poses: np.ndarray, speed: float) -> np.ndarray:
    d = np.diff(poses[:, :2], axis=0)
    chord = np.hypot(d[:, 0], d[:, 1])
    return np.maximum(chord / max(speed, 1e-6), 0.1)


def optimize_stage1(
    init: InitialTrajectory,
    weights: PlannerWeights | None = None,
    opts: PlanOptions | None = None,
) -> PlanReport:
    """Smooth fit to the grid route: energy + time + anchor deviation."""
    weights = weights or PlannerWeights()
    opts = opts or PlanOptions()
    if init.count < 3:
        raise SizeMismatch("need at least 3 poses (one interior knot) to optimize")
    t0 = time.perf_counter()
    poses = init.poses
    boundary = Boundary.rest_to_rest(poses[0], poses[-1])
    q0 = poses[1:-1].copy()
    T0 = _seed_durations(poses, opts.init_speed)
    n_int = q0.shape[0]

    def fg(z):
        q, tau = _unpack(z, n_int)
        T = softplus(tau)
        traj = build_minco(q, T, boundary)
        e = energy_cost_with_grads(traj)
        tc = time_cost_with_grads(T)
        dev = deviation_cost_with_grads(traj, init)
        terms = (weights.energy * e.value, weights.time * tc.value, weights.deviation * dev.value, 0.0, 0.0)
        val = terms[0] + terms[1] + terms[2]
        gq = weights.energy * e.grad_q + weights.time * tc.grad_q + weights.deviation * dev.grad_q
        gT = weights.energy * e.grad_T + weights.time * tc.grad_T + weights.deviation * dev.grad_T
        return val, _pack(gq, gT * _sigmoid(tau)), terms

    z0 = _pack(q0, softplus_inverse(T0))
    z, trace, converged, reason = _lbfgs(fg, z0, opts, _wolfe_search)
    q, tau = _unpack(z, n_int)
    traj = build_minco(q, softplus(tau), boundary)
    return PlanReport(
        trajectory=traj,
        trace=trace,
        wall_time_s=time.perf_counter() - t0,
        converged=converged,
        reason=reason,
        stage="stage1",
    )


def check_feasibility(
    traj: MincoTrajectory, grid: GridMap, veh: VehicleParams, dt: float = 0.05
) -> tuple[bool, float]:
    """Dense hard collision check: footprint distance to every obstacle point at `dt` sampling.

    Returns (feasible, min_distance); feasible means the distance never goes
    negative, i.e. no obstacle cell center enters the footprint.
    """
    pts = grid.obstacle_points
    if pts.shape[0] == 0:
        return True, math.inf
    n = max(2, int(math.ceil(traj.total_time / dt)) + 1)
    ts = np.linspace(0.0, traj.total_time, n)
    poses = traj.sample(ts, 0)
    worst = math.inf
    for x, y, phi in poses:
        d = pts - (x, y)
        body = to_body_frame(d[:, 0], d[:, 1], math.cos(phi), math.sin(phi))
        f = footprint_sdf_values(body, veh.length, veh.width)
        worst = min(worst, float(f.min()))
    return worst >= 0.0, worst


def optimize_stage2(
    traj: MincoTrajectory,
    grid: GridMap,
    veh: VehicleParams,
    weights: PlannerWeights | None = None,
    opts: PlanOptions | None = None,
) -> PlanReport:
    """Collision- and sweep-aware refinement starting from the stage-1 spline."""
    weights = weights or PlannerWeights()
    opts = opts or PlanOptions()
    t0 = time.perf_counter()
    boundary = traj.boundary
    n_int = traj.waypoints.shape[0]
    neighbours = _NeighbourList(grid)

    def fg(z):
        q, tau = _unpack(z, n_int)
        T = softplus(tau)
        tr = build_minco(q, T, boundary)
        e = energy_cost_with_grads(tr)
        tc = time_cost_with_grads(T)
        ob = obstacle_cost_with_grads(tr, grid, veh, weights.safety_margin, neighbours)
        sv = sweep_cost_with_grads(tr)
        terms = (
            weights.energy * e.value, weights.time * tc.value, 0.0, weights.obstacle * ob.value, weights.sweep * sv.value
        )
        val = terms[0] + terms[1] + terms[3] + terms[4]
        gq = (
            weights.energy * e.grad_q
            + weights.time * tc.grad_q
            + weights.obstacle * ob.grad_q
            + weights.sweep * sv.grad_q
        )
        gT = (
            weights.energy * e.grad_T
            + weights.time * tc.grad_T
            + weights.obstacle * ob.grad_T
            + weights.sweep * sv.grad_T
        )
        return val, _pack(gq, gT * _sigmoid(tau)), terms

    z0 = _pack(traj.waypoints.copy(), softplus_inverse(np.maximum(traj.durations, T_MIN * 1.001)))
    z, trace, converged, reason = _lbfgs(fg, z0, opts, _armijo_search)
    q, tau = _unpack(z, n_int)
    out = build_minco(q, softplus(tau), boundary)
    feasible, min_clear = check_feasibility(out, grid, veh)
    if not feasible:
        reason += "; infeasible_result"
    return PlanReport(
        trajectory=out,
        trace=trace,
        wall_time_s=time.perf_counter() - t0,
        converged=converged,
        reason=reason,
        stage="stage2",
        feasible=feasible,
        min_clearance=min_clear,
    )
