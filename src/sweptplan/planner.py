"""Two-stage trajectory optimization over interior knots and durations.

Stage 1 fits a smooth, time-regularized spline to the grid route (energy +
total time + anchor deviation). Stage 2 drops the anchors and adds the
collision hinge and the sweep-alignment penalty, then verifies the result
against the obstacle points by the swept field's min-over-time search, whose
sign is certified in continuous time. Each stage is a table of weighted cost
terms handed to one driver, `_optimize`: a limited-memory quasi-Newton loop
over the knots and softplus-mapped durations, which stay above a floor, with
one strong Wolfe line search. The hinged stage switches its curvature test
off, which leaves backtracking on sufficient decrease. Each evaluation folds
every term's coefficient gradient onto (q, T) in one adjoint solve, then sums
the weighted terms. Each accepted point is traced with its gradient norm,
step, the evaluations its line search made and the weighted cost terms.

Stage 2 finds the obstacle points near each knot through a neighbour list
with a box-shaped skin, one exhaustive test serving every evaluation until a
knot moves or turns too far. Each evaluation rotates those candidates into
their knot's body frame, and only the ones inside the footprint box grown by
the hinge margin reach the exact SDF: no other point can activate the hinge.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    VehicleParams,
    footprint_sdf_batch,
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
from .sweptfield import TIME_TOL, UNWRITTEN, least_time_distance
from .worldmodel import GridMap, InitialTrajectory

T_MIN = 0.01  # duration floor under the softplus map, seconds
_QUERY_SLACK = 1e-6  # meters added to the neighbour-list rebuild box's half sides
_SKIN = 0.5  # meters a knot's box points may move, in body coordinates, before a rebuild
LBFGS_MEMORY = 8  # curvature pairs kept by the quasi-Newton loop
LINE_SEARCH_C1 = 1e-4  # sufficient-decrease (Armijo) constant of the line search
LINE_SEARCH_EVALS = 30  # cost evaluations one line search may make
SWEEP_MIN_SPEED_SQ = 1e-8  # (m/s)^2: the sweep term skips knots moving slower


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
    """One stage's outcome; its fields not marked UNWRITTEN are the stage's
    entry in plan_report.json, and `trace` is its rows of cost_trace.csv."""

    trajectory: MincoTrajectory = field(metadata=UNWRITTEN)
    trace: np.ndarray = field(metadata=UNWRITTEN)  # one TRACE_COLUMNS row per accepted point, the start point first
    converged: bool
    reason: str
    iterations: int  # optimizer steps taken: accepted points after the start point
    final_cost: float  # the cost of the last accepted point


@dataclass
class CheckedPlanReport(PlanReport):
    """A stage-2 outcome with its clearance check by `check_feasibility`."""

    feasible: bool
    min_clearance: float | None  # certified least footprint distance; None without obstacle points
    clearance_time_tol: float = TIME_TOL  # seconds down to which the sign of min_clearance is certified


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
    safety_margin: float,
    neighbours: _NeighbourList | None = None,
) -> CostWithGrads:
    """Cubic hinge on footprint distance to obstacle cell centers at each interior knot.

    Contribution per (knot, obstacle point): (margin - F)^3 where F is the
    world-frame footprint distance, active only when F < margin. Knot poses
    are the decision variables themselves, so gradients land directly on q.
    Only the points that pass the body-frame box test of `_NeighbourList.pairs`
    get the exact SDF: F is never below max(|bx| - L/2, |by| - W/2), so no
    other point can be active. neighbours, a list over `grid` kept across
    calls, saves the exhaustive rebuild; the result is the same with or
    without it.
    """
    n_seg = traj.n_segments
    q = traj.waypoints
    n_int = q.shape[0]
    grad_q = np.zeros_like(q)
    pts = grid.obstacle_points
    if pts.shape[0] == 0 or n_int == 0:
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    k_idx, body = (neighbours or _NeighbourList(grid)).pairs(q, veh.length, veh.width, safety_margin)
    if k_idx.size == 0:
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    f, g_body = footprint_sdf_batch(body, veh.length, veh.width)
    act = f < safety_margin
    if not act.any():
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    k_act = k_idx[act]
    h = safety_margin - f[act]
    value = float(np.sum(h**3))
    dJdF = -3.0 * h * h
    gb = g_body[act]
    c = np.cos(q[:, 2])[k_act]
    s = np.sin(q[:, 2])[k_act]
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
    """(knot, point) pairs whose body-frame offsets lie in the footprint box
    grown by a margin, from reused candidates.

    A Verlet list: one exhaustive test keeps, per knot, the obstacle points in
    the box grown by margin + _SKIN in its anchor pose's body frame. They
    serve every later call while each knot's drift d and turn dphi from its
    anchor keep |d| + |dphi| reach <= _SKIN, reach being the grown box's half
    diagonal: a point of the knot's grown box then lies within _SKIN of it
    per coordinate in the anchor's frame. A larger move, another box or knot
    count rebuilds. The exact box test decides, so rounding cannot change the pairs.
    """

    def __init__(self, grid: GridMap):
        self.grid = grid
        self.anchors = None
        self.box = None

    def _query(self, q: np.ndarray, box) -> None:
        self.anchors = q.copy()
        self.box = length, width, margin = box
        pts = self.grid.obstacle_points
        hx = length / 2.0 + margin + _SKIN + _QUERY_SLACK
        hy = width / 2.0 + margin + _SKIN + _QUERY_SLACK
        # The square around the box's circumcircle first, so few points rotate.
        r = math.hypot(hx, hy)
        ax, ay = pts[None, :, 0] - q[:, None, 0], pts[None, :, 1] - q[:, None, 1]
        k_idx, m_idx = np.nonzero((np.abs(ax, out=ax) <= r) & (np.abs(ay, out=ay) <= r))
        body = _body_offsets(q, k_idx, pts[m_idx, 0], pts[m_idx, 1])
        keep = (np.abs(body[:, 0]) <= hx) & (np.abs(body[:, 1]) <= hy)
        self.k_idx, m_idx = k_idx[keep], m_idx[keep]
        self.px, self.py = pts[m_idx, 0], pts[m_idx, 1]

    def pairs(self, q: np.ndarray, length: float, width: float, margin: float):
        """Knot indices, knot-major with points ascending, and the (m, 2)
        body-frame offsets, rotated as the SDF input is, of every pair with
        |bx| - length / 2 < margin and |by| - width / 2 < margin."""
        box, a = (length, width, margin), self.anchors
        reach = math.hypot(length / 2.0 + margin, width / 2.0 + margin)
        if (a is None or box != self.box or a.shape[0] != q.shape[0] or not (
                np.hypot(q[:, 0] - a[:, 0], q[:, 1] - a[:, 1]) + np.abs(q[:, 2] - a[:, 2]) * reach <= _SKIN).all()):
            self._query(q, box)
        body = _body_offsets(q, self.k_idx, self.px, self.py)
        # The same subtraction as the SDF's, so a dropped point's SDF is >= margin.
        keep = (np.abs(body[:, 0]) - length / 2.0 < margin) & (np.abs(body[:, 1]) - width / 2.0 < margin)
        return self.k_idx[keep], body[keep]


def _body_offsets(q: np.ndarray, k_idx: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """(m, 2) offsets of the points (px, py) in the body frames of their knots q[k_idx]."""
    c, s = np.cos(q[:, 2])[k_idx], np.sin(q[:, 2])[k_idx]
    return to_body_frame(px - q[k_idx, 0], py - q[k_idx, 1], c, s, out=np.empty((2, k_idx.size)))


def sweep_cost_with_grads(traj: MincoTrajectory) -> CostWithGrads:
    """Squared misalignment between knot heading and travel direction.

    delta = wrap(phi_j - atan2(Vy, Vx)) at each interior knot; junctions with
    degenerate planar speed (Vx^2 + Vy^2 < SWEEP_MIN_SPEED_SQ) are skipped.
    The velocity is read from the right-hand segment at local time zero, so
    its grad_C is a single basis row and it has no direct duration gradient.
    """
    n_seg = traj.n_segments
    grad_q = np.zeros((max(n_seg - 1, 0), 3))
    grad_C = np.zeros_like(traj.coeffs)
    value = 0.0
    rows = []  # per knot: the partials w.r.t. its heading and its velocity's x and y
    # Python floats do the same double arithmetic as numpy scalars, faster.
    knots = zip(traj.coeffs[1:, 1, :2].tolist(), traj.waypoints[:, 2].tolist())
    for (vx, vy), phi in knots:
        s2 = vx * vx + vy * vy
        if s2 < SWEEP_MIN_SPEED_SQ:
            rows.append((0.0, 0.0, 0.0))
            continue
        delta = wrap_angle(phi - math.atan2(vy, vx))
        value += delta * delta
        rows.append((2.0 * delta, 2.0 * delta * (vy / s2), 2.0 * delta * (-vx / s2)))
    # + 0.0 stores them as an add into zeros would: a -0.0 as +0.0.
    grad_q[:, 2], grad_C[1:, 1, 0], grad_C[1:, 1, 1] = (np.array(rows).reshape(-1, 3) + 0.0).T
    return CostWithGrads(value=value, grad_q=grad_q, grad_T=np.zeros(n_seg), grad_C=grad_C)


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
    # 1 / (1 + e^-tau) for tau >= 0 and e^tau / (1 + e^tau) below, neither overflowing.
    e = np.exp(-np.abs(tau))
    return np.where(tau >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# limited-memory quasi-Newton loop


def _line_search(fg, x, f, g, d, c2):
    """Strong Wolfe line search: double the step until it brackets an
    acceptable one, then bisect the bracket [lo, hi] (hi may lie below lo).

    c2 = math.inf switches the curvature test off, which leaves Armijo
    backtracking from the unit step (the bisection from lo = 0 halves hi),
    except that a trial after the first must lower the cost. The sufficient
    decrease test is negated so that a NaN cost fails it. Returns (alpha, f,
    g, terms, evals) of the accepted step, which is always the last point
    evaluated, or None.
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
        if evals >= LINE_SEARCH_EVALS:
            return None
        g_a = float(g_vec @ d)
        if not f_a <= f + LINE_SEARCH_C1 * alpha * g0 or (evals > 1 and f_a >= f_lo):
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
    for _ in range(max(LINE_SEARCH_EVALS - evals, 1)):
        alpha = 0.5 * (lo + hi)
        f_a, g_vec, terms = fg(x + alpha * d)
        evals += 1
        g_a = float(g_vec @ d)
        if not f_a <= f + LINE_SEARCH_C1 * alpha * g0 or f_a >= f_lo:
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


def _lbfgs(fg, x0, opts: PlanOptions, c2):
    """Two-loop recursion quasi-Newton descent.

    fg(x) returns (cost, gradient, weighted cost terms) and c2 is the line
    search's curvature constant. Returns (x, trace, converged, reason); trace
    has one TRACE_COLUMNS row per accepted point, the start point first.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, terms = fg(x)
    gnorm = math.sqrt(float(g @ g))  # np.linalg.norm's bits
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
            d -= a * y
        if y_hist:
            y_last, s_last = y_hist[-1], s_hist[-1]
            d *= float(s_last @ y_last) / max(float(y_last @ y_last), 1e-300)
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * float(y @ d)
            d += (a - b) * s
        if float(g @ d) >= 0.0:
            # Fall back to steepest descent if curvature info went stale.
            d = -g
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
        res = _line_search(fg, x, f, g, d, c2)
        if res is None:
            converged, reason = False, "line_search_failure"
            break
        alpha, f_new, g_new, terms, evals = res
        s = alpha * d
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > LBFGS_MEMORY:
                s_hist.pop(0), y_hist.pop(0), rho_hist.pop(0)
        x = x + s
        rel = abs(f - f_new) / max(1.0, abs(f))
        f, g = f_new, g_new
        gnorm = math.sqrt(float(g @ g))
        trace.extend((f, gnorm, alpha, evals, *terms))
        if rel < opts.cost_tol:
            converged, reason = True, "cost_tolerance"
            break
    return x, np.frombuffer(trace).reshape(-1, len(TRACE_COLUMNS)), converged, reason


# ---------------------------------------------------------------------------
# stage drivers


def _optimize(q0, T0, boundary, terms, opts, c2) -> PlanReport:
    """One stage's L-BFGS over knots q and durations T = softplus(tau) >= T_MIN.

    terms lists (TRACE_COLUMNS name, weight, cost(traj)) in column order; the
    cost and both gradients sum the weighted terms left to right, and a term
    not listed traces as 0.0. Callers build terms per call, not at import, so
    each row calls the module binding current then (a wrapper included).
    """
    n_q = q0.size

    def fg(z):
        tau = z[n_q:]
        traj = build_minco(z[:n_q].reshape(-1, 3), softplus(tau), boundary)
        traced = dict.fromkeys(TRACE_COLUMNS[4:], 0.0)
        # Row i: term i's weighted cost and (q, T) gradient, added left to right.
        rows = np.empty((len(terms), 1 + z.size))
        costs = propagate_gradient(traj, [cost(traj) for _, _, cost in terms])
        for row, (name, w, _), c in zip(rows, terms, costs):
            row[0] = traced[name] = w * c.value
            np.multiply(w, c.grad_q.ravel(), out=row[1 : 1 + n_q])
            np.multiply(w, c.grad_T, out=row[1 + n_q :])
        total = np.add.reduce(rows, axis=0)
        total[1 + n_q :] *= _sigmoid(tau)
        return float(total[0]), total[1:], tuple(traced.values())

    z0 = np.concatenate([q0.ravel(), softplus_inverse(np.maximum(T0, T_MIN * 1.001))])
    z, trace, converged, reason = _lbfgs(fg, z0, opts, c2)
    return PlanReport(
        trajectory=build_minco(z[:n_q].reshape(-1, 3), softplus(z[n_q:]), boundary),
        trace=trace,
        converged=converged,
        reason=reason,
        iterations=trace.shape[0] - 1,
        final_cost=float(trace[-1, 0]),
    )


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
    poses = init.poses
    chord = np.diff(poses[:, :2], axis=0)
    T0 = np.maximum(np.hypot(chord[:, 0], chord[:, 1]) / max(opts.init_speed, 1e-6), 0.1)
    terms = [
        ("energy", weights.energy, energy_cost_with_grads),
        ("time", weights.time, lambda traj: time_cost_with_grads(traj.durations)),
        ("deviation", weights.deviation, lambda traj: deviation_cost_with_grads(traj, init)),
    ]
    boundary = Boundary.rest_to_rest(poses[0], poses[-1])
    return _optimize(poses[1:-1], T0, boundary, terms, opts, 0.9)


def check_feasibility(traj, grid: GridMap, veh: VehicleParams) -> tuple[bool, float]:
    """(feasible, min_distance): the least `min_time_distance` over the
    obstacle points along `traj`, any path with `rate_bounds`, by
    `least_time_distance`. feasible means no obstacle cell center enters the
    footprint, certified in continuous time down to `sweptfield.TIME_TOL`."""
    worst = least_time_distance(grid.obstacle_points, traj, veh)
    return worst >= 0.0, worst


def optimize_stage2(
    traj: MincoTrajectory,
    grid: GridMap,
    veh: VehicleParams,
    weights: PlannerWeights | None = None,
    opts: PlanOptions | None = None,
) -> CheckedPlanReport:
    """Collision- and sweep-aware refinement starting from the stage-1 spline,
    then `check_feasibility` of the result; an infeasible result's reason
    ends in "; infeasible_result"."""
    weights = weights or PlannerWeights()
    opts = opts or PlanOptions()
    neighbours = _NeighbourList(grid)
    terms = [
        ("energy", weights.energy, energy_cost_with_grads),
        ("time", weights.time, lambda tr: time_cost_with_grads(tr.durations)),
        ("obstacle", weights.obstacle, lambda tr: obstacle_cost_with_grads(tr, grid, veh, weights.safety_margin, neighbours)),
        ("sweep", weights.sweep, sweep_cost_with_grads),
    ]
    report = _optimize(traj.waypoints, traj.durations, traj.boundary, terms, opts, math.inf)
    feasible, clearance = check_feasibility(report.trajectory, grid, veh)
    if not feasible:
        report.reason += "; infeasible_result"
    return CheckedPlanReport(
        **vars(report), feasible=feasible, min_clearance=clearance if math.isfinite(clearance) else None
    )
