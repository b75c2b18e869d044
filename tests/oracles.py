"""Independent reference computations the test suite checks the package against.

Everything here is written the slow, obvious way (dense sampling, exhaustive
enumeration, textbook graph search) so agreement with the fast library code
is evidence, not tautology. Nothing in this module imports from the planner,
field, or QP internals beyond plain data containers and the geometry
primitives.

The scalar MINCO and obstacle-prefilter forms at the end are the planner's
hot paths written one entry and one pair at a time. The vectorized library
code performs the same floating-point operations in the same order, so the
tests compare the two with exact equality. The loop forms of the MPC (per-step
QP assembly, row-by-row constraints and start shift, scalar ratio test) share
only the data containers and the feasible-start routine with the library, and
take the former range-space step (`range_space_step_before`);
`kkt_step_dense` is the independent check of that step.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dposv

from sweptplan._lapack import dgbsv, dgbtrs
from sweptplan.drivetrain import STEER_HOLD_SPEED, WheelCommand
from sweptplan.geometry import Pose2, footprint_sdf_batch, footprint_sdf_values, to_body_frame, wrap_angle
from sweptplan.minco import CostWithGrads, MincoTrajectory, NonPositiveDuration, SingularSystem
from sweptplan.mpc import NU, HeadingWrapMismatch, MpcProblem, _feasible_start, _qp_terms
from sweptplan.worldmodel import GoalOccupied, NoPath, StartOccupied, inflate_occupancy


def rect_boundary_points(length: float, width: float, n: int) -> np.ndarray:
    """Points spread along the rectangle boundary, roughly n of them."""
    hl, hw = length / 2.0, width / 2.0
    per_edge = max(2, n // 4)
    xs = np.linspace(-hl, hl, per_edge)
    ys = np.linspace(-hw, hw, per_edge)
    bottom = np.column_stack([xs, np.full(per_edge, -hw)])
    top = np.column_stack([xs, np.full(per_edge, hw)])
    left = np.column_stack([np.full(per_edge, -hl), ys])
    right = np.column_stack([np.full(per_edge, hl), ys])
    return np.vstack([bottom, top, left, right])


def boundary_distance(p: np.ndarray, boundary_pts: np.ndarray) -> float:
    d = boundary_pts - np.asarray(p, dtype=float)
    return float(np.sqrt((d * d).sum(axis=1)).min())


def fd_cost_grads(fn, q: np.ndarray, T: np.ndarray, step: float = 1e-6):
    """Central finite differences of fn(q, T) -> scalar over every entry."""
    q = np.asarray(q, dtype=float)
    T = np.asarray(T, dtype=float)
    gq = np.zeros_like(q)
    for idx in np.ndindex(q.shape):
        qp = q.copy()
        qm = q.copy()
        qp[idx] += step
        qm[idx] -= step
        gq[idx] = (fn(qp, T) - fn(qm, T)) / (2.0 * step)
    gT = np.zeros_like(T)
    for j in range(T.size):
        Tp = T.copy()
        Tm = T.copy()
        Tp[j] += step
        Tm[j] -= step
        gT[j] = (fn(q, Tp) - fn(q, Tm)) / (2.0 * step)
    return gq, gT


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Relative disagreement between two gradient stacks, scaled by their size."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def dijkstra_cost(free: np.ndarray, start_cell, goal_cell, resolution: float) -> float:
    """Shortest 8-connected path cost over a free-cell mask, euclidean edges.

    free is indexed [ix, iy]; returns math.inf when the goal is unreachable.
    """
    w, h = free.shape
    moves = [
        (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
        (1, 1, math.sqrt(2.0)), (1, -1, math.sqrt(2.0)),
        (-1, 1, math.sqrt(2.0)), (-1, -1, math.sqrt(2.0)),
    ]
    dist = {start_cell: 0.0}
    pq = [(0.0, start_cell)]
    while pq:
        d, c = heapq.heappop(pq)
        if c == goal_cell:
            return d * resolution
        if d > dist.get(c, math.inf):
            continue
        cx, cy = c
        for dx, dy, cost in moves:
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < w and 0 <= ny < h and free[nx, ny]:
                nd = d + cost
                nc = (nx, ny)
                if nd < dist.get(nc, math.inf) - 1e-15:
                    dist[nc] = nd
                    heapq.heappush(pq, (nd, nc))
    return math.inf


def sdf_values_brute(points_body: np.ndarray, length: float, width: float) -> np.ndarray:
    """Rectangle SDF written straight from its definition, no shared code."""
    p = np.atleast_2d(np.asarray(points_body, dtype=float))
    dx = np.abs(p[:, 0]) - length / 2.0
    dy = np.abs(p[:, 1]) - width / 2.0
    corner = (dx > 0.0) & (dy > 0.0)
    out = np.where(corner, np.hypot(dx, dy), np.maximum(dx, dy))
    return out


def sdf_values_where(points: np.ndarray, length: float, width: float) -> np.ndarray:
    """Footprint SDF values with the hypotenuse taken of where-masked operands everywhere."""
    pts = np.asarray(points, dtype=float)
    dx = np.abs(pts[..., 0]) - length / 2.0
    dy = np.abs(pts[..., 1]) - width / 2.0
    corner = (dx > 0.0) & (dy > 0.0)
    hyp = np.hypot(np.where(corner, dx, 1.0), np.where(corner, dy, 1.0))
    return np.where(corner, hyp, np.maximum(dx, dy))


def min_time_scan(points: np.ndarray, path, length: float, width: float, t_step: float = 1e-3):
    """Dense time-grid minimum of the pose-relative SDF for each query point.

    path only needs .total_time and .sample(ts, 0); returns (t_star, f_star)
    arrays aligned with the query points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    total = path.total_time
    n = int(math.floor(total / t_step)) + 1
    ts = np.minimum(np.arange(n + 1) * t_step, total)
    poses = path.sample(ts, 0)
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    best_f = np.full(pts.shape[0], np.inf)
    best_t = np.zeros(pts.shape[0])
    for k in range(ts.size):
        d = pts - poses[k, :2]
        body = np.column_stack([c[k] * d[:, 0] + s[k] * d[:, 1], -s[k] * d[:, 0] + c[k] * d[:, 1]])
        f = sdf_values_brute(body, length, width)
        better = f < best_f
        best_f[better] = f[better]
        best_t[better] = ts[k]
    return best_t, best_f


def _constraint_rows(n: int, nu: int, lb, ub, u_prev, du_lb, du_ub):
    """All box and step-to-step rate constraints as rows of A x <= b."""
    rows = []
    rhs = []
    eye = np.eye(n)
    for i in range(n):
        rows.append(eye[i])
        rhs.append(ub[i])
        rows.append(-eye[i])
        rhs.append(-lb[i])
    for i in range(n):
        d = eye[i].copy()
        base = 0.0
        if i >= nu:
            d = d - eye[i - nu]
        else:
            base = u_prev[i]
        rows.append(d)
        rhs.append(du_ub[i % nu] + base)
        rows.append(-d)
        rhs.append(-(du_lb[i % nu] + base))
    return np.asarray(rows), np.asarray(rhs)


def qp_enumerate(H, g, lb, ub, u_prev, du_lb, du_ub, nu: int, box_only_subsets: bool = False):
    """Global box/rate QP minimum by trying every candidate active set.

    For each subset of constraint rows (at most n of them), the equality-
    constrained stationary point is computed and kept when it satisfies every
    constraint; the feasible candidate with the lowest objective is the exact
    optimum because the true solution's own active set appears among the
    subsets. box_only_subsets restricts enumeration to the box rows and is
    only valid when the rate bounds are slack enough never to activate.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.size
    A, b = _constraint_rows(n, nu, lb, ub, u_prev, du_lb, du_ub)
    if box_only_subsets:
        candidates = range(2 * n)
    else:
        candidates = range(A.shape[0])
    best_x = None
    best_obj = np.inf
    for k in range(n + 1):
        for subset in itertools.combinations(candidates, k):
            idx = list(subset)
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = H
            if k:
                kkt[:n, n:] = A[idx].T
                kkt[n:, :n] = A[idx]
            rhs = np.concatenate([-g, b[idx]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            if np.all(A @ x <= b + 1e-9):
                obj = 0.5 * x @ H @ x + g @ x
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_x = x
    return best_x, best_obj


def disc_cell_count(bounds, resolution: float, cx: float, cy: float, r: float) -> int:
    """Exact number of grid-cell centers inside the disc."""
    xmin, ymin, xmax, ymax = bounds
    nx = int(round((xmax - xmin) / resolution))
    ny = int(round((ymax - ymin) / resolution))
    xs = xmin + (np.arange(nx) + 0.5) * resolution
    ys = ymin + (np.arange(ny) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return int(((gx - cx) ** 2 + (gy - cy) ** 2 <= r * r).sum())


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    fn = getattr(np, "trapezoid", None) or np.trapz
    return float(fn(y, x))


# ---------------------------------------------------------------------------
# scalar forms of the planner hot paths, for exact-equality checks

_BAND = 7  # sub/super-diagonal count of the MINCO coefficient system
_DERIV = [[float(math.perm(i, order)) for i in range(6)] for order in range(6)]


def _basis(t: float, order: int) -> np.ndarray:
    row = np.zeros(6)
    for i in range(order, 6):
        row[i] = _DERIV[order][i] * t ** (i - order)
    return row


def minco_band(T: np.ndarray):
    """MINCO system in solve_banded storage and its transpose, one entry at a time."""
    n_seg = T.shape[0]
    n = 6 * n_seg
    ab = np.zeros((2 * _BAND + 1, n))
    abt = np.zeros((2 * _BAND + 1, n))

    def put_row(r: int, seg: int, t: float, order: int, sign: float = 1.0) -> None:
        row = _basis(t, order)
        for i in range(6):
            if row[i] != 0.0:
                c = 6 * seg + i
                ab[_BAND + r - c, c] = sign * row[i]
                abt[_BAND + c - r, r] = sign * row[i]

    put_row(0, 0, 0.0, 0)
    put_row(1, 0, 0.0, 1)
    put_row(2, 0, 0.0, 2)
    for j in range(1, n_seg):
        r0 = 6 * j - 3
        put_row(r0, j - 1, T[j - 1], 0)
        for k in range(1, 5):
            put_row(r0 + k, j - 1, T[j - 1], k)
            put_row(r0 + k, j, 0.0, k, sign=-1.0)
        put_row(r0 + 5, j, 0.0, 0)
    put_row(n - 3, n_seg - 1, T[n_seg - 1], 0)
    put_row(n - 2, n_seg - 1, T[n_seg - 1], 1)
    put_row(n - 1, n_seg - 1, T[n_seg - 1], 2)
    return ab, abt


def segment_derivative(coeff: np.ndarray, tau: float, order: int) -> np.ndarray:
    """Order-th derivative of one (6, 3) quintic segment at local time tau, by Horner's rule."""
    d = _DERIV[order]
    out = np.zeros(3)
    for i in range(5, order - 1, -1):
        out = out * tau + d[i] * coeff[i]
    return out


def minco_adjoint(traj, grad_C, grad_T_direct=None, grad_q_direct=None):
    """(grad_q, grad_T) of a coefficient-space gradient, one knot and one row at a time."""
    n_seg = traj.n_segments
    n = 6 * n_seg
    _, abt = minco_band(traj.durations)
    lam = solve_banded((_BAND, _BAND), abt, np.asarray(grad_C, dtype=float).reshape(n, 3))
    grad_q = np.zeros((max(n_seg - 1, 0), 3))
    if grad_q_direct is not None:
        grad_q += grad_q_direct
    for j in range(1, n_seg):
        grad_q[j - 1] += lam[6 * j - 3] + lam[6 * j + 2]
    grad_T = np.zeros(n_seg)
    if grad_T_direct is not None:
        grad_T += grad_T_direct
    T = traj.durations
    for j in range(n_seg):
        if j < n_seg - 1:
            rows = [(6 * (j + 1) - 3 + k, k) for k in range(5)]
        else:
            rows = [(n - 3 + k, k) for k in range(3)]
        for r, order in rows:
            deriv = segment_derivative(traj.coeffs[j], T[j], order + 1)
            grad_T[j] -= float(lam[r] @ deriv)
    return grad_q, grad_T


def energy_direct_T(traj) -> np.ndarray:
    """Squared jerk at each segment end: the explicit duration term of the energy gradient."""
    out = np.empty(traj.n_segments)
    for j in range(traj.n_segments):
        jerk = segment_derivative(traj.coeffs[j], traj.durations[j], 3)
        out[j] = float(jerk @ jerk)
    return out


def energy_cost_written_out(traj):
    """The jerk energy's (value, grad_C, grad_T) as written out term by term,
    on (segments, 3) arrays: the form before it was stacked."""
    T = traj.durations
    C = traj.coeffs
    c3, c4, c5 = C[:, 3, :], C[:, 4, :], C[:, 5, :]
    t1 = T[:, None]
    t2 = t1 * t1
    t3 = t2 * t1
    t4 = t3 * t1
    t5 = t4 * t1
    value = float(
        np.sum(
            36.0 * c3 * c3 * t1
            + 144.0 * c3 * c4 * t2
            + (192.0 * c4 * c4 + 240.0 * c3 * c5) * t3
            + 720.0 * c4 * c5 * t4
            + 720.0 * c5 * c5 * t5
        )
    )
    grad_C = np.zeros_like(C)
    grad_C[:, 3, :] = 72.0 * c3 * t1 + 144.0 * c4 * t2 + 240.0 * c5 * t3
    grad_C[:, 4, :] = 144.0 * c3 * t2 + 384.0 * c4 * t3 + 720.0 * c5 * t4
    grad_C[:, 5, :] = 240.0 * c3 * t3 + 720.0 * c4 * t4 + 1440.0 * c5 * t5
    jerk = traj._end_rows[2]
    return value, grad_C, np.vecdot(jerk, jerk)


def sweep_cost_loop(traj, eps: float = 1e-8):
    """Sweep misalignment (value, grad_C, direct grad_q) on numpy scalars, one knot at a time."""
    n_seg = traj.n_segments
    grad_q = np.zeros((max(n_seg - 1, 0), 3))
    grad_C = np.zeros_like(traj.coeffs)
    value = 0.0
    for k in range(n_seg - 1):
        vx, vy = traj.coeffs[k + 1, 1, 0], traj.coeffs[k + 1, 1, 1]
        s2 = vx * vx + vy * vy
        if s2 < eps:
            continue
        delta = wrap_angle(traj.waypoints[k, 2] - math.atan2(vy, vx))
        value += delta * delta
        grad_q[k, 2] += 2.0 * delta
        grad_C[k + 1, 1, 0] += 2.0 * delta * (vy / s2)
        grad_C[k + 1, 1, 1] += 2.0 * delta * (-vx / s2)
    return value, grad_C, grad_q


def obstacle_pairs_all(q: np.ndarray, pts: np.ndarray, reach: float):
    """Every (knot, point) pair within reach, tested exhaustively: (k, m, dx, dy)."""
    dx = pts[None, :, 0] - q[:, None, 0]
    dy = pts[None, :, 1] - q[:, None, 1]
    k_idx, m_idx = np.nonzero(dx * dx + dy * dy <= reach * reach)
    return k_idx, m_idx, dx[k_idx, m_idx], dy[k_idx, m_idx]


def obstacle_cost_all_pairs(traj, pts: np.ndarray, veh, safety_margin: float):
    """Knot obstacle hinge (value, grad_q) over the exhaustive pair prefilter."""
    q = traj.waypoints
    n_int = q.shape[0]
    grad_q = np.zeros_like(q)
    if pts.shape[0] == 0 or n_int == 0:
        return 0.0, grad_q
    reach = safety_margin + veh.half_diagonal + 1e-9
    k_idx, _, dxn, dyn = obstacle_pairs_all(q, pts, reach)
    if k_idx.size == 0:
        return 0.0, grad_q
    c = np.cos(q[:, 2])[k_idx]
    s = np.sin(q[:, 2])[k_idx]
    body = to_body_frame(dxn, dyn, c, s)
    f, g_body = footprint_sdf_batch(body, veh.length, veh.width)
    act = f < safety_margin
    if not act.any():
        return 0.0, grad_q
    k_act = k_idx[act]
    h = safety_margin - f[act]
    value = float(np.sum(h**3))
    dJdF = -3.0 * h * h
    gb = g_body[act]
    c, s = c[act], s[act]
    gwx = c * gb[:, 0] - s * gb[:, 1]
    gwy = s * gb[:, 0] + c * gb[:, 1]
    body_act = body[act]
    dF_dphi = gb[:, 0] * body_act[:, 1] - gb[:, 1] * body_act[:, 0]
    grad_q[:, 0] = np.bincount(k_act, weights=dJdF * -gwx, minlength=n_int)
    grad_q[:, 1] = np.bincount(k_act, weights=dJdF * -gwy, minlength=n_int)
    grad_q[:, 2] = np.bincount(k_act, weights=dJdF * dF_dphi, minlength=n_int)
    return value, grad_q


def armijo_search(fg, x, f, g, d, c1=1e-4, shrink=0.5, max_evals=30):
    """Stage 2's line search as it was before the one line search: backtracking
    on sufficient decrease only, from the unit step, halving.

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


# ---------------------------------------------------------------------------
# The planner's step as it was before its per-call array work was cut: each
# rewritten routine's former body, whole. The library performs the same
# floating-point operations in the same order with fewer numpy calls, so the
# tests compare with exact equality, routine by routine and over whole stage
# runs. They share with the library only its data containers, the LAPACK
# wrappers and the trajectory's cached end rows and adjoint factors.

_LDAB = 3 * _BAND + 1
_T_MIN = 0.01
_SKIN = 0.5
_QUERY_SLACK = 1e-6
_TRACE_COLUMNS = ("cost", "grad_norm", "step", "evals", "energy", "time", "deviation", "obstacle", "sweep")


def _band_pattern_before(n_seg: int):
    rows, cols, power, factor = [], [], [], []

    def put_row(r: int, seg: int, at_end: bool, order: int, sign: float = 1.0) -> None:
        for i in range(order, 6) if at_end else (order,):
            rows.append(r)
            cols.append(6 * seg + i)
            power.append(6 * seg + (i - order if at_end else 0))
            factor.append(sign * _DERIV[order][i])

    for order in range(3):
        put_row(order, 0, False, order)
    for j in range(1, n_seg):
        r0 = 6 * j - 3
        put_row(r0, j - 1, True, 0)
        for k in range(1, 5):
            put_row(r0 + k, j - 1, True, k)
            put_row(r0 + k, j, False, k, sign=-1.0)
        put_row(r0 + 5, j, False, 0)
    for order in range(3):
        put_row(6 * n_seg - 3 + order, n_seg - 1, True, order)
    rows, cols = np.array(rows), np.array(cols)
    ab_flat = cols * _LDAB + 2 * _BAND + rows - cols
    abt_flat = rows * _LDAB + 2 * _BAND + cols - rows
    return ab_flat, abt_flat, np.array(power), np.array(factor)


def _check_finite_before(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def assemble_before(T: np.ndarray):
    """minco._assemble: a nested list of t**p, two zero buffers, two scatters."""
    n_seg = T.shape[0]
    n = 6 * n_seg
    ab_flat, abt_flat, power, factor = _band_pattern_before(n_seg)
    powers = np.array([[t**p for p in range(6)] for t in T.tolist()])
    values = factor * powers.ravel()[power]
    _check_finite_before(values)
    ab = np.zeros((n, _LDAB)).T
    abt = np.zeros((n, _LDAB)).T
    ab.T.ravel()[ab_flat] = values
    abt.T.ravel()[abt_flat] = values
    return ab, abt


def build_minco_before(q, T, boundary) -> MincoTrajectory:
    """minco.build_minco with its former assembly and checks."""
    T = np.asarray(T, dtype=float)
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    n_seg = T.shape[0]
    if np.any(T <= 0.0):
        raise NonPositiveDuration(f"durations must be positive, got {T}")
    if np.any(T < 1e-6):
        raise SingularSystem(f"durations below 1e-6 s make the system numerically singular: {T}")
    ab, abt = assemble_before(T)
    n = 6 * n_seg
    b = np.zeros((3, n)).T
    b[0:3] = boundary.start
    b[3 : n - 3 : 6] = q
    b[8 : n - 3 : 6] = q
    b[-3:] = boundary.end
    _check_finite_before(b)
    _, _, flat, info = dgbsv(_BAND, _BAND, ab, b, overwrite_ab=1, overwrite_b=1)
    assert info == 0
    return MincoTrajectory(durations=T, waypoints=q, boundary=boundary, coeffs=flat.reshape(n_seg, 6, 3), adjoint_band=abt)


def propagate_gradient_before(traj, costs: list) -> list:
    """minco.propagate_gradient: the grad_C blocks stacked by np.array, then copied."""
    out = list(costs)
    coupled = [i for i, c in enumerate(costs) if c.grad_C is not None]
    if not coupled:
        return out
    n_seg, k = traj.n_segments, len(coupled)
    n = 6 * n_seg
    lu, piv = traj._adjoint_lu
    b = np.zeros((k, 3, n + 3))
    b[:, :, :n] = np.array([costs[i].grad_C for i in coupled]).reshape(k, n, 3).transpose(0, 2, 1)
    _check_finite_before(b)
    lam, _ = dgbtrs(lu, _BAND, _BAND, b.reshape(3 * k, n + 3).T, piv, overwrite_b=1)
    rows = lam.T[:, 3:].reshape(k, 3, n_seg, 6).transpose(0, 2, 3, 1)
    grad_q = np.array([costs[i].grad_q for i in coupled]) + 0.0
    grad_q += rows[:, :-1, 0] + rows[:, :-1, 5]
    terms = np.empty((k, n_seg, 6))
    terms[:, :, 0] = np.array([costs[i].grad_T for i in coupled]) + 0.0
    np.vecdot(rows[:, :, :5], traj._end_rows.transpose(1, 0, 2), out=terms[:, :, 1:])
    grad_T = np.subtract.reduce(terms, axis=2)
    for c, i in enumerate(coupled):
        out[i] = CostWithGrads(value=costs[i].value, grad_q=grad_q[c], grad_T=grad_T[c])
    return out


def energy_cost_before(traj) -> CostWithGrads:
    """minco.energy_cost_with_grads: index lists and the power table built per call."""
    T = traj.durations
    C = traj.coeffs
    c = C[:, 3:, :].transpose(1, 0, 2)
    tp = np.cumprod(np.repeat(T[:, None], 5, axis=1), axis=1).T[:, :, None]
    k = np.array([36.0, 144.0, 240.0, 720.0, 720.0, 192.0])
    prod = (k[:, None, None] * c[[0, 0, 0, 1, 2, 1]]) * c[[0, 1, 2, 2, 2, 1]]
    prod[2] += prod[5]
    value = float(np.sum(np.add.reduce(prod[:5] * tp, axis=0, initial=-0.0)))
    grad_k = np.array([[72.0, 144.0, 240.0], [144.0, 384.0, 720.0], [240.0, 720.0, 1440.0]])[:, :, None, None]
    grad_C = np.zeros_like(C)
    grad_rows = np.add.reduce((grad_k * c) * tp[np.add.outer(np.arange(3), np.arange(3))], axis=1, initial=-0.0)
    grad_C[:, 3:, :] = grad_rows.transpose(1, 0, 2)
    jerk = traj._end_rows[2]
    grad_q = np.zeros((max(traj.n_segments - 1, 0), 3))
    return CostWithGrads(value=value, grad_q=grad_q, grad_T=np.vecdot(jerk, jerk), grad_C=grad_C)


def time_cost_before(T) -> CostWithGrads:
    T = np.asarray(T, dtype=float)
    return CostWithGrads(value=float(T.sum()), grad_q=np.zeros((max(T.shape[0] - 1, 0), 3)), grad_T=np.ones_like(T))


def deviation_cost_before(traj, ref) -> CostWithGrads:
    diff = traj.waypoints - ref.poses[1:-1]
    w = np.remainder(diff[:, 2], 2.0 * math.pi)
    diff[:, 2] = np.where(w > math.pi, w - 2.0 * math.pi, w)
    return CostWithGrads(value=float(np.sum(diff * diff)), grad_q=2.0 * diff, grad_T=np.zeros(traj.n_segments))


def footprint_sdf_batch_before(points, length: float, width: float):
    """geometry.footprint_sdf_batch: its gradient columns joined by np.stack."""
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    dx = np.abs(x) - length / 2.0
    dy = np.abs(y) - width / 2.0
    sx = np.where(x >= 0.0, 1.0, -1.0)
    sy = np.where(y >= 0.0, 1.0, -1.0)
    corner = (dx > 0.0) & (dy > 0.0)
    hyp = np.hypot(np.where(corner, dx, 1.0), np.where(corner, dy, 1.0))
    values = np.where(corner, hyp, np.maximum(dx, dy))
    gx = np.where(corner, dx * sx / hyp, np.where(dx >= dy, sx, 0.0))
    gy = np.where(corner, dy * sy / hyp, np.where(dx >= dy, 0.0, sy))
    return values, np.stack([gx, gy], axis=-1)


def _body_offsets_before(q, k_idx, px, py):
    c, s = np.cos(q[:, 2])[k_idx], np.sin(q[:, 2])[k_idx]
    return to_body_frame(px - q[k_idx, 0], py - q[k_idx, 1], c, s, out=np.empty((2, k_idx.size)))


class NeighbourListBefore:
    """planner._NeighbourList: strided point columns, cos and sin per call."""

    def __init__(self, grid):
        self.grid = grid
        self.anchors = None
        self.box = None
        self.queries = 0

    def _query(self, q, box) -> None:
        self.queries += 1
        self.anchors = q.copy()
        self.box = length, width, margin = box
        pts = self.grid.obstacle_points
        hx = length / 2.0 + margin + _SKIN + _QUERY_SLACK
        hy = width / 2.0 + margin + _SKIN + _QUERY_SLACK
        r = math.hypot(hx, hy)
        ax, ay = pts[None, :, 0] - q[:, None, 0], pts[None, :, 1] - q[:, None, 1]
        k_idx, m_idx = np.nonzero((np.abs(ax, out=ax) <= r) & (np.abs(ay, out=ay) <= r))
        body = _body_offsets_before(q, k_idx, pts[m_idx, 0], pts[m_idx, 1])
        keep = (np.abs(body[:, 0]) <= hx) & (np.abs(body[:, 1]) <= hy)
        self.k_idx, m_idx = k_idx[keep], m_idx[keep]
        self.px, self.py = pts[m_idx, 0], pts[m_idx, 1]

    def pairs(self, q, length: float, width: float, margin: float):
        box, a = (length, width, margin), self.anchors
        reach = math.hypot(length / 2.0 + margin, width / 2.0 + margin)
        if (a is None or box != self.box or a.shape[0] != q.shape[0] or not (
                np.hypot(q[:, 0] - a[:, 0], q[:, 1] - a[:, 1]) + np.abs(q[:, 2] - a[:, 2]) * reach <= _SKIN).all()):
            self._query(q, box)
        body = _body_offsets_before(q, self.k_idx, self.px, self.py)
        keep = (np.abs(body[:, 0]) - length / 2.0 < margin) & (np.abs(body[:, 1]) - width / 2.0 < margin)
        return self.k_idx[keep], body[keep]


def obstacle_cost_before(traj, grid, veh, safety_margin: float, neighbours=None) -> CostWithGrads:
    """planner.obstacle_cost_with_grads: the knot headings' cos and sin taken twice."""
    n_seg = traj.n_segments
    q = traj.waypoints
    n_int = q.shape[0]
    grad_q = np.zeros_like(q)
    if grid.obstacle_points.shape[0] == 0 or n_int == 0:
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    k_idx, body = (neighbours or NeighbourListBefore(grid)).pairs(q, veh.length, veh.width, safety_margin)
    if k_idx.size == 0:
        return CostWithGrads(value=0.0, grad_q=grad_q, grad_T=np.zeros(n_seg))
    f, g_body = footprint_sdf_batch_before(body, veh.length, veh.width)
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
    gwx = c * gb[:, 0] - s * gb[:, 1]
    gwy = s * gb[:, 0] + c * gb[:, 1]
    body_act = body[act]
    dF_dphi = gb[:, 0] * body_act[:, 1] - gb[:, 1] * body_act[:, 0]
    grad_q[:, 0] = np.bincount(k_act, weights=dJdF * -gwx, minlength=n_int)
    grad_q[:, 1] = np.bincount(k_act, weights=dJdF * -gwy, minlength=n_int)
    grad_q[:, 2] = np.bincount(k_act, weights=dJdF * dF_dphi, minlength=n_int)
    return CostWithGrads(value=value, grad_q=grad_q, grad_T=np.zeros(n_seg))


def sweep_cost_before(traj, min_speed_sq: float = 1e-8) -> CostWithGrads:
    """planner.sweep_cost_with_grads: one tuple per knot."""
    n_seg = traj.n_segments
    grad_q = np.zeros((max(n_seg - 1, 0), 3))
    grad_C = np.zeros_like(traj.coeffs)
    value = 0.0
    rows = []
    for (vx, vy), phi in zip(traj.coeffs[1:, 1, :2].tolist(), traj.waypoints[:, 2].tolist()):
        s2 = vx * vx + vy * vy
        if s2 < min_speed_sq:
            rows.append((0.0, 0.0, 0.0))
            continue
        delta = wrap_angle(phi - math.atan2(vy, vx))
        value += delta * delta
        rows.append((2.0 * delta, 2.0 * delta * (vy / s2), 2.0 * delta * (-vx / s2)))
    grad_q[:, 2], grad_C[1:, 1, 0], grad_C[1:, 1, 1] = (np.array(rows).reshape(-1, 3) + 0.0).T
    return CostWithGrads(value=value, grad_q=grad_q, grad_T=np.zeros(n_seg), grad_C=grad_C)


def _softplus(tau):
    return np.where(tau > 30.0, tau, np.log1p(np.exp(np.minimum(tau, 30.0)))) + _T_MIN


def _sigmoid(tau):
    e = np.exp(-np.abs(tau))
    return np.where(tau >= 0, 1.0, e) / (1.0 + e)


def line_search_before(fg, x, f, g, d, c2, c1=1e-4, max_evals=30):
    """planner._line_search with its dot products by @."""
    g0 = float(g @ d)
    if g0 >= 0.0:
        return None
    lo, f_lo = 0.0, f
    alpha = 1.0
    f_a, g_vec, terms = fg(x + alpha * d)
    evals = 1
    while True:
        if evals >= max_evals:
            return None
        g_a = float(g_vec @ d)
        if not f_a <= f + c1 * alpha * g0 or (evals > 1 and f_a >= f_lo):
            hi = alpha
            break
        if abs(g_a) <= -c2 * g0:
            return alpha, f_a, g_vec, terms, evals
        if g_a >= 0.0:
            lo, f_lo, hi = alpha, f_a, lo
            break
        lo, f_lo = alpha, f_a
        alpha = min(2.0 * alpha, 1e4)
        if alpha >= 1e4:
            return None
        f_a, g_vec, terms = fg(x + alpha * d)
        evals += 1
    for _ in range(max(max_evals - evals, 1)):
        alpha = 0.5 * (lo + hi)
        f_a, g_vec, terms = fg(x + alpha * d)
        evals += 1
        g_a = float(g_vec @ d)
        if not f_a <= f + c1 * alpha * g0 or f_a >= f_lo:
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


def lbfgs_before(fg, x0, opts, c2, memory: int = 8):
    """planner._lbfgs: history lists trimmed by pop(0), the scale's dot
    products taken again each step, and the accepted point as x + s."""
    x = np.asarray(x0, dtype=float).copy()
    f, g, terms = fg(x)
    gnorm = math.sqrt(float(g @ g))
    trace = [(f, gnorm, 0.0, 1, *terms)]
    s_hist, y_hist, rho_hist = [], [], []
    converged, reason = False, "max_iterations"
    for _ in range(opts.max_iterations):
        if gnorm < opts.grad_tol:
            converged, reason = True, "gradient_tolerance"
            break
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
            d = -g
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
        res = line_search_before(fg, x, f, g, d, c2)
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
            if len(s_hist) > memory:
                s_hist.pop(0), y_hist.pop(0), rho_hist.pop(0)
        x = x + s
        rel = abs(f - f_new) / max(1.0, abs(f))
        f, g = f_new, g_new
        gnorm = math.sqrt(float(g @ g))
        trace.append((f, gnorm, alpha, evals, *terms))
        if rel < opts.cost_tol:
            converged, reason = True, "cost_tolerance"
            break
    return x, np.array(trace, dtype=float), converged, reason


def optimize_before(q0, T0, boundary, terms, opts, c2):
    """planner._optimize's former closure and loop over frozen routines:
    (trajectory, trace, converged, reason). terms lists (name, weight, cost(traj))."""
    n_q = q0.size

    def fg(z):
        tau = z[n_q:]
        traj = build_minco_before(z[:n_q].reshape(-1, 3), _softplus(tau), boundary)
        traced = dict.fromkeys(_TRACE_COLUMNS[4:], 0.0)
        rows = np.empty((len(terms), 1 + z.size))
        costs = propagate_gradient_before(traj, [cost(traj) for _, _, cost in terms])
        for row, (name, w, _), c in zip(rows, terms, costs):
            row[0] = traced[name] = w * c.value
            np.multiply(w, c.grad_q.ravel(), out=row[1 : 1 + n_q])
            np.multiply(w, c.grad_T, out=row[1 + n_q :])
        total = np.add.reduce(rows, axis=0)
        total[1 + n_q :] *= _sigmoid(tau)
        return float(total[0]), total[1:], tuple(traced.values())

    y = np.asarray(np.maximum(T0, _T_MIN * 1.001), dtype=float) - _T_MIN
    tau0 = np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))
    z, trace, converged, reason = lbfgs_before(fg, np.concatenate([q0.ravel(), tau0]), opts, c2)
    return build_minco_before(z[:n_q].reshape(-1, 3), _softplus(z[n_q:]), boundary), trace, converged, reason


def astar_before(grid, start_xy, goal_xy, clearance: float = 0.0) -> np.ndarray:
    """worldmodel.astar_plan on numpy score, parent and closed arrays, with a
    bounds test per neighbour."""
    blocked = inflate_occupancy(grid, clearance)
    start = grid.world_to_cell(start_xy)
    goal = grid.world_to_cell(goal_xy)
    if not grid.in_bounds(*start) or blocked[start]:
        raise StartOccupied(f"start cell {start} is blocked or out of bounds")
    if not grid.in_bounds(*goal) or blocked[goal]:
        raise GoalOccupied(f"goal cell {goal} is blocked or out of bounds")
    res = grid.resolution
    g_score = np.full((grid.width, grid.height), np.inf)
    parent = np.full((grid.width, grid.height, 2), -1, dtype=int)
    closed = np.zeros((grid.width, grid.height), dtype=bool)
    g_score[start] = 0.0

    def h(c):
        return math.hypot(c[0] - goal[0], c[1] - goal[1]) * res

    counter = 0
    open_heap = [(h(start), counter, start)]
    neighbours = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    while open_heap:
        _, _, cur = heapq.heappop(open_heap)
        if closed[cur]:
            continue
        closed[cur] = True
        if cur == goal:
            break
        cx, cy = cur
        for dx, dy in neighbours:
            nx, ny = cx + dx, cy + dy
            if not grid.in_bounds(nx, ny) or blocked[nx, ny] or closed[nx, ny]:
                continue
            step = res * (math.sqrt(2.0) if dx != 0 and dy != 0 else 1.0)
            cand = g_score[cur] + step
            if cand < g_score[nx, ny] - 1e-12:
                g_score[nx, ny] = cand
                parent[nx, ny] = cur
                counter += 1
                heapq.heappush(open_heap, (cand + h((nx, ny)), counter, (nx, ny)))
    else:
        raise NoPath("open set exhausted before reaching the goal")
    cells = [goal]
    while cells[-1] != start:
        cells.append(tuple(parent[cells[-1]]))
    cells.reverse()
    cx, cy = grid.axes()
    ix, iy = np.array(cells).T
    return np.column_stack([cx[ix], cy[iy]])


# The swept-field search as it was before the coarse poses were shared: every
# point samples the path at every coarse time, refinement re-evaluates g at
# its start times, and a final evaluation recomputes g at the refined times.
# The library now performs the same floating-point operations on the same
# operands with less repeated work, so the tests compare with exact equality.

_COARSE_SAMPLES = 64
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_TIME_TOL = 1e-4
_MAX_REFINE_ITERS = 60


def horner_six_gathers(coeffs: np.ndarray, seg, tau, order: int) -> np.ndarray:
    """Order-th derivative of segments seg at local times tau, gathering coeffs[seg, i] per power."""
    d = _DERIV[order]
    tau = np.asarray(tau, dtype=float)[..., None]
    out = np.zeros(tau.shape[:-1] + (3,))
    for i in range(5, order - 1, -1):
        out = out * tau + d[i] * coeffs[seg, i]
    return out


def _g_values(path, veh, points, ts):
    poses = path.sample(ts, 0)
    d = points - poses[:, :2]
    body = to_body_frame(d[:, 0], d[:, 1], np.cos(poses[:, 2]), np.sin(poses[:, 2]))
    return footprint_sdf_values(body, veh.length, veh.width)


def _g_and_slope(path, veh, points, ts):
    poses = path.sample(ts, 0)
    twists = path.sample(ts, 1)
    d = points - poses[:, :2]
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    val, grad = footprint_sdf_batch(to_body_frame(d[:, 0], d[:, 1], c, s), veh.length, veh.width)
    w = twists[:, 2]
    jx = d[:, 1]
    jy = -d[:, 0]
    u = to_body_frame(jx * w - twists[:, 0], jy * w - twists[:, 1], c, s)
    return val, grad[:, 0] * u[:, 0] + grad[:, 1] * u[:, 1]


def _refine_per_point_starts(points, t0, path, veh, t_min, t_max, step0):
    m = points.shape[0]
    t = t0
    f = _g_values(path, veh, points, t)
    alpha = np.full(m, step0)
    active = np.ones(m, dtype=bool)
    for _ in range(_MAX_REFINE_ITERS):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        g_val, slope = _g_and_slope(path, veh, points[idx], t[idx])
        f[idx] = g_val
        d = np.where(slope > 0.0, -1.0, 1.0)
        flat = np.abs(slope) < 1e-12
        at_lo = (t[idx] <= t_min + 1e-15) & (d < 0.0)
        at_hi = (t[idx] >= t_max - 1e-15) & (d > 0.0)
        done = flat | at_lo | at_hi
        if done.any():
            active[idx[done]] = False
            idx = idx[~done]
            if idx.size == 0:
                continue
            g_val = g_val[~done]
            slope = slope[~done]
            d = d[~done]
        a = alpha[idx].copy()
        accepted = np.zeros(idx.size, dtype=bool)
        t_new = t[idx].copy()
        f_new = g_val.copy()
        for _ in range(40):
            trying = ~accepted & (a > 1e-12)
            if not trying.any():
                break
            tt = np.clip(t[idx[trying]] + a[trying] * d[trying], t_min, t_max)
            ft = _g_values(path, veh, points[idx[trying]], tt)
            ok = ft <= g_val[trying] - _ARMIJO_C * a[trying] * np.abs(slope[trying])
            sel = np.nonzero(trying)[0]
            acc = sel[ok]
            t_new[acc] = tt[ok]
            f_new[acc] = ft[ok]
            accepted[acc] = True
            a[sel[~ok]] *= _SHRINK
        moved = np.abs(t_new - t[idx])
        t[idx] = t_new
        f[idx] = f_new
        alpha[idx] = np.maximum(a * 2.0, 1e-9)
        settle = ~accepted | (moved < _TIME_TOL)
        active[idx[settle]] = False
    f = _g_values(path, veh, points, t)
    return t, f


def min_time_per_point_poses(points, path, veh, t_min: float, t_max: float):
    """(t*, f*) of the coarse scan plus refinement, sampling each coarse pose once per point."""
    m = points.shape[0]
    if t_max <= t_min:
        ts = np.full(m, t_min)
        return ts, _g_values(path, veh, points, ts)
    k = _COARSE_SAMPLES
    grid_ts = np.linspace(t_min, t_max, k)
    vals = np.empty((k, m))
    for j, ti in enumerate(grid_ts):
        vals[j] = _g_values(path, veh, points, np.full(m, ti))
    is_min = np.ones((k, m), dtype=bool)
    is_min[1:] &= vals[1:] <= vals[:-1]
    is_min[:-1] &= vals[:-1] <= vals[1:]
    masked = np.where(is_min, vals, np.inf)
    order = np.argsort(masked, axis=0, kind="stable")
    cols = np.arange(m)
    step0 = (t_max - t_min) / (k - 1)
    best_t, best_f = _refine_per_point_starts(points, grid_ts[order[0]], path, veh, t_min, t_max, step0)
    for r in range(1, min(4, k)):
        has = np.isfinite(masked[order[r], cols])
        if not has.any():
            break
        sub = np.nonzero(has)[0]
        tr, fr = _refine_per_point_starts(points[sub], grid_ts[order[r][sub]], path, veh, t_min, t_max, step0)
        better = fr < best_f[sub]
        best_f[sub[better]] = fr[better]
        best_t[sub[better]] = tr[better]
    return best_t, best_f


def write_csv_per_value(path: str, header: list, rows) -> None:
    """CSV writer that formats one value at a time with repr(float(v))."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def prediction_loop(cfg):
    """Psi and Theta with Theta filled one dt*I block at a time."""
    np_, nc = cfg.horizon, cfg.control_horizon
    psi = np.tile(np.eye(NU), (np_, 1))
    theta = np.zeros((NU * np_, NU * nc))
    for r in range(np_):
        for c in range(min(r + 1, nc)):
            theta[NU * r : NU * r + NU, NU * c : NU * c + NU] = cfg.dt * np.eye(NU)
    return psi, theta


def build_qp_per_step(state, ref, u_prev, cfg) -> MpcProblem:
    """The tracking QP with every term rebuilt from the config on each call."""
    ref = np.asarray(ref, dtype=float).ravel()
    np_, nc = cfg.horizon, cfg.control_horizon
    psi, theta = prediction_loop(cfg)
    qbar = np.kron(np.eye(np_), cfg.state_weight)
    rbar = np.kron(np.eye(nc), cfg.input_weight)
    h = theta.T @ qbar @ theta + rbar
    h = 0.5 * (h + h.T)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        h = h + 1e-9 * np.eye(h.shape[0])
    g = theta.T @ qbar @ (psi @ state.as_array() - ref)
    return MpcProblem(
        H=h,
        g=g,
        lb=np.tile(cfg.u_min, nc),
        ub=np.tile(cfg.u_max, nc),
        du_lb=cfg.du_min.copy(),
        du_ub=cfg.du_max.copy(),
        u_prev=np.asarray(u_prev, dtype=float).reshape(NU),
        nc=nc,
    )


def constraint_rows_loop(prob: MpcProblem):
    """Box upper, box lower, rate upper, rate lower rows, one row at a time."""
    n = NU * prob.nc
    rows = []
    rhs = []
    for i in range(n):
        if np.isfinite(prob.ub[i]):
            e = np.zeros(n)
            e[i] = 1.0
            rows.append(e)
            rhs.append(prob.ub[i])
    for i in range(n):
        if np.isfinite(prob.lb[i]):
            e = np.zeros(n)
            e[i] = -1.0
            rows.append(e)
            rhs.append(-prob.lb[i])
    for i in range(n):
        comp = i % NU
        if np.isfinite(prob.du_ub[comp]):
            e = np.zeros(n)
            e[i] = 1.0
            off = prob.du_ub[comp]
            if i >= NU:
                e[i - NU] = -1.0
            else:
                off += prob.u_prev[comp]
            rows.append(e)
            rhs.append(off)
    for i in range(n):
        comp = i % NU
        if np.isfinite(prob.du_lb[comp]):
            e = np.zeros(n)
            e[i] = -1.0
            off = -prob.du_lb[comp]
            if i >= NU:
                e[i - NU] = 1.0
            else:
                off -= prob.u_prev[comp]
            rows.append(e)
            rhs.append(off)
    if rows:
        return np.array(rows), np.array(rhs)
    return np.zeros((0, n)), np.zeros(0)


def shift_start_loop(prob: MpcProblem, x, active_set):
    """The next step's start, one entry and one row at a time.

    x0 repeats x one control step later, its last block held. A row of the
    next step's problem is in the shifted set when a row it continues is in
    active_set: the same kind of row one block later (for a rate row only
    when that block is not the first of the next problem), or, for a box row
    of the last block, the same row.
    """
    n = NU * prob.nc
    keys = []  # (kind, input index) of each row, in constraint_rows_loop order
    for kind, bound in ((0, prob.ub), (1, prob.lb)):
        keys += [(kind, i) for i in range(n) if np.isfinite(bound[i])]
    for kind, bound in ((2, prob.du_ub), (3, prob.du_lb)):
        keys += [(kind, i) for i in range(n) if np.isfinite(bound[i % NU])]
    active = {keys[r] for r in active_set}
    x0 = np.empty(n)
    for i in range(n):
        x0[i] = x[i + NU] if i + NU < n else x[i]
    rows = []
    for r, (kind, i) in enumerate(keys):
        sources = []
        if i + NU < n and (kind < 2 or i >= NU):
            sources.append((kind, i + NU))
        if kind < 2 and i // NU == prob.nc - 1:
            sources.append((kind, i))
        if any(src in active for src in sources):
            rows.append(r)
    return x0, tuple(rows)


def kkt_step_dense(prob: MpcProblem, x, aw):
    """Step and multipliers from one dense LU solve of the working-set KKT system."""
    n, k = NU * prob.nc, aw.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = prob.H
    rhs = np.zeros(n + k)
    rhs[:n] = -(prob.H @ x + prob.g)
    if k:
        kkt[:n, n:] = aw.T
        kkt[n:, :n] = aw
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def solve_qp_scalar(prob: MpcProblem, start=None, dense_kkt: bool = False):
    """Primal active-set solve whose ratio test visits one row at a time.

    Steps come from the former range-space step (`range_space_step_before`)
    on H^-1, or with dense_kkt=True from `kkt_step_dense`.
    """
    n = NU * prob.nc
    a_mat, b_vec = constraint_rows_loop(prob)
    m = a_mat.shape[0]
    if not dense_kkt:
        h_inv = hessian_inverse_before(n, np.asarray(prob.H, dtype=float).tobytes())
        h_inv_g = h_inv @ prob.g
    work = []
    if start is not None and all(float(a_mat[i] @ start[0]) - b_vec[i] < 1e-10 for i in range(m)):
        x = start[0]
        for idx in start[1]:
            if 0 <= idx < m and abs(a_mat[idx] @ x - b_vec[idx]) < 1e-10:
                work.append(idx)
    else:
        x = _feasible_start(prob)
    max_iter = 50 * max(n, 1)
    # A zero step on the working set, relative to the gradient's scale.
    step_tol = 1e-11 * max(1.0, float(np.abs(prob.g).max(initial=0.0)))
    status = "max_iterations"
    lam_full = np.zeros(m)
    for it in range(max_iter):
        k = len(work)
        if dense_kkt:
            p, lam = kkt_step_dense(prob, x, a_mat[work])
        else:
            p, lam = range_space_step_before(h_inv, x + h_inv_g, a_mat[work])
        if float(np.abs(p).max(initial=0.0)) <= step_tol:
            if k == 0 or lam.min() >= -1e-9:
                status = "optimal"
                lam_full = np.zeros(m)
                lam_full[work] = lam
                break
            work.pop(int(np.argmin(lam)))
            continue
        alpha = 1.0
        blocker = -1
        for i in range(m):
            if i in work:
                continue
            ap = float(a_mat[i] @ p)
            if ap > 1e-12:
                ratio = (b_vec[i] - float(a_mat[i] @ x)) / ap
                if ratio < alpha - 1e-12:
                    alpha = max(ratio, 0.0)
                    blocker = i
        x = x + alpha * p
        if blocker >= 0:
            work.append(blocker)
            work.sort()
    kkt_residual = float(np.abs(prob.H @ x + prob.g + a_mat.T @ lam_full).max(initial=0.0)) if status == "optimal" else math.inf
    info = {
        "status": status,
        "iterations": it + 1 if status == "optimal" else max_iter,
        "active_set": tuple(sorted(work)),
        "kkt_residual": kkt_residual,
    }
    return x, info


def mpc_step_per_step(state, ref, u_prev, cfg, start=None):
    """One MPC update on a sampled (Np, 3) window through build_qp_per_step, solve_qp_scalar and shift_start_loop."""
    np_ = cfg.horizon
    ref = np.array(ref, dtype=float)
    prev_phi = state.phi
    for i in range(np_):
        ref[i, 2] = prev_phi + wrap_angle(ref[i, 2] - prev_phi)
        prev_phi = ref[i, 2]
    prob = build_qp_per_step(state, ref.ravel(), u_prev, cfg)
    u, info = solve_qp_scalar(prob, start=start)
    info["next_start"] = shift_start_loop(prob, u, info["active_set"])
    return u[:NU], info


# The swept-field engine as it was before the coefficient table, the sparse
# candidate selection and the compacted backtracking: Horner on gathered
# coefficients (horner_six_gathers), a stable argsort over the masked
# (64, m) table of sampled values, and backtracking passes that re-mask the
# whole active set. The library performs the same floating-point operations
# on the same operands, so the tests compare with exact equality, signed
# zeros included.


class GatheredMinco:
    """A MINCO trajectory's sample() by clipped knot search and horner_six_gathers."""

    def __init__(self, traj):
        self.traj = traj
        self.total_time = traj.total_time

    def sample(self, ts, order: int = 0) -> np.ndarray:
        tr = self.traj
        ts = np.asarray(ts, dtype=float)
        j = np.clip(np.searchsorted(tr.knot_times, ts, side="right") - 1, 0, tr.n_segments - 1)
        tau = np.clip(ts, 0.0, tr.total_time) - tr.knot_times[j]
        return horner_six_gathers(tr.coeffs, j, tau, order)


def coarse_values(points, path, veh, t_min: float, t_max: float):
    """The 64 coarse times and the (64, m) table of g at them."""
    grid_ts = np.linspace(t_min, t_max, _COARSE_SAMPLES)
    poses = path.sample(grid_ts, 0)
    cs, ss = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    px, py = points[:, 0], points[:, 1]
    vals = np.empty((grid_ts.shape[0], points.shape[0]))
    for j in range(grid_ts.shape[0]):
        body = to_body_frame(px - poses[j, 0], py - poses[j, 1], cs[j], ss[j])
        vals[j] = footprint_sdf_values(body, veh.length, veh.width)
    return grid_ts, vals


def scan_per_sample_bound(veh, px, py, coarse, rates, level, floor, vals):
    """sweptfield._scan as it was before the bound was deferred: every
    point's interval bound folded into the per-sample loop, from the distance
    to the previous sample's center. The same arguments and results; floor
    is ignored, every bound is computed, the hidden intervals are those with
    bound <= 0 of every point whose samples are all positive, and the level
    is level(g_min)."""
    _, xs, ys, cs, ss = coarse
    vmax, wmax, h = rates
    rows = np.empty((2, px.size))
    g_min, j_min = np.empty(px.size), np.zeros(px.size, dtype=np.intp)
    low = []  # per interval: (i, col, dist) where its bound is <= 0
    for j in range(xs.size):
        dx = px - xs[j]
        dy = py - ys[j]
        body = to_body_frame(dx, dy, cs[j], ss[j], out=rows)
        footprint_sdf_values(body, veh.length, veh.width, out=vals[j])
        if j == 0:
            g_min[:] = vals[0]
            bound = vals[0].copy()
        else:
            i = j - 1
            np.copyto(j_min, j, where=vals[j] < g_min)
            np.minimum(g_min, vals[j], out=g_min)
            lip = vmax[i] + wmax[i] * (dist_prev + vmax[i] * h[i])
            b = np.minimum(0.5 * (vals[i] + vals[j]) - 0.5 * lip * h[i], vals[j])
            np.minimum(bound, b, out=bound)
            col = np.flatnonzero(b <= 0.0)
            low.append((np.full(col.size, i), col, dist_prev[col]))
        dist_prev = np.hypot(dx, dy)
    i, col, dist = (np.concatenate(x) for x in zip(*low))
    keep = g_min[col] > 0.0
    return g_min, j_min, bound, (col[keep], i[keep], dist[keep]), level(g_min)


def sampled_minima(vals: np.ndarray) -> np.ndarray:
    """(64, m) mask of the sampled local minima (ties count on both sides)."""
    is_min = np.ones(vals.shape, dtype=bool)
    is_min[1:] &= vals[1:] <= vals[:-1]
    is_min[:-1] &= vals[:-1] <= vals[1:]
    return is_min


def refine_times_masked(points, t, f, path, veh, t_min, t_max, step0):
    """Armijo descent in lockstep under masks over the whole active set."""
    m = points.shape[0]
    alpha = np.full(m, step0)
    active = np.ones(m, dtype=bool)
    for _ in range(_MAX_REFINE_ITERS):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        g_val, slope = _g_and_slope(path, veh, points[idx], t[idx])
        f[idx] = g_val
        d = np.where(slope > 0.0, -1.0, 1.0)
        flat = np.abs(slope) < 1e-12
        at_lo = (t[idx] <= t_min + 1e-15) & (d < 0.0)
        at_hi = (t[idx] >= t_max - 1e-15) & (d > 0.0)
        done = flat | at_lo | at_hi
        if done.any():
            active[idx[done]] = False
            idx = idx[~done]
            if idx.size == 0:
                continue
            g_val = g_val[~done]
            slope = slope[~done]
            d = d[~done]
        a = alpha[idx].copy()
        accepted = np.zeros(idx.size, dtype=bool)
        t_new = t[idx].copy()
        f_new = g_val.copy()
        for _ in range(40):
            trying = ~accepted & (a > 1e-12)
            if not trying.any():
                break
            tt = np.clip(t[idx[trying]] + a[trying] * d[trying], t_min, t_max)
            ft = _g_values(path, veh, points[idx[trying]], tt)
            ok = ft <= g_val[trying] - _ARMIJO_C * a[trying] * np.abs(slope[trying])
            sel = np.nonzero(trying)[0]
            acc = sel[ok]
            t_new[acc] = tt[ok]
            f_new[acc] = ft[ok]
            accepted[acc] = True
            a[sel[~ok]] *= _SHRINK
        moved = np.abs(t_new - t[idx])
        t[idx] = t_new
        f[idx] = f_new
        alpha[idx] = np.maximum(a * 2.0, 1e-9)
        settle = ~accepted | (moved < _TIME_TOL)
        active[idx[settle]] = False
    return t, f


def min_time_batch_argsort(points, path, veh, t_min: float, t_max: float):
    """(t*, f*): refine the four deepest sampled minima per point, taken from a
    stable argsort over the masked (64, m) table; the deepest result wins."""
    m = points.shape[0]
    if t_max <= t_min:
        ts = np.full(m, t_min)
        return ts, _g_values(path, veh, points, ts)
    grid_ts, vals = coarse_values(points, path, veh, t_min, t_max)
    k = grid_ts.shape[0]
    masked = np.where(sampled_minima(vals), vals, np.inf)
    order = np.argsort(masked, axis=0, kind="stable")
    cols = np.arange(m)
    step0 = (t_max - t_min) / (k - 1)
    best_t, best_f = refine_times_masked(
        points, grid_ts[order[0]], vals[order[0], cols], path, veh, t_min, t_max, step0
    )
    for r in range(1, min(4, k)):
        has = np.isfinite(masked[order[r], cols])
        if not has.any():
            break
        sub = np.nonzero(has)[0]
        start = order[r][sub]
        tr, fr = refine_times_masked(points[sub], grid_ts[start], vals[start, sub], path, veh, t_min, t_max, step0)
        better = fr < best_f[sub]
        best_f[sub[better]] = fr[better]
        best_t[sub[better]] = tr[better]
    return best_t, best_f


def _contour_interp(pa, va, pb, vb):
    t = va / (va - vb)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def contour_segments_loop(field, level: float = 0.0):
    """Marching-squares segments of f* = level, visiting every cell in a Python loop."""
    f = field.f_star - level
    nx, ny = f.shape
    ox = field.origin[0] + 0.5 * field.resolution
    oy = field.origin[1] + 0.5 * field.resolution
    res = field.resolution
    segs = []
    for ix in range(nx - 1):
        x0 = ox + ix * res
        x1 = x0 + res
        for iy in range(ny - 1):
            v00 = f[ix, iy]
            v10 = f[ix + 1, iy]
            v11 = f[ix + 1, iy + 1]
            v01 = f[ix, iy + 1]
            case = (
                (1 if v00 <= 0 else 0)
                | (2 if v10 <= 0 else 0)
                | (4 if v11 <= 0 else 0)
                | (8 if v01 <= 0 else 0)
            )
            if case in (0, 15):
                continue
            y0 = oy + iy * res
            y1 = y0 + res
            p00, p10, p11, p01 = (x0, y0), (x1, y0), (x1, y1), (x0, y1)
            bottom = _contour_interp(p00, v00, p10, v10) if (case & 1) != (case >> 1 & 1) else None
            right = _contour_interp(p10, v10, p11, v11) if (case >> 1 & 1) != (case >> 2 & 1) else None
            top = _contour_interp(p01, v01, p11, v11) if (case >> 3 & 1) != (case >> 2 & 1) else None
            left = _contour_interp(p00, v00, p01, v01) if (case & 1) != (case >> 3 & 1) else None
            if case in (5, 10):
                center_inside = (v00 + v10 + v11 + v01) <= 0.0
                if case == 5:
                    if center_inside:
                        segs.append((left, bottom))
                        segs.append((top, right))
                    else:
                        segs.append((left, top))
                        segs.append((bottom, right))
                else:
                    if center_inside:
                        segs.append((bottom, right))
                        segs.append((top, left))
                    else:
                        segs.append((bottom, left))
                        segs.append((top, right))
                continue
            pts = [p for p in (bottom, right, top, left) if p is not None]
            if len(pts) == 2:
                segs.append((pts[0], pts[1]))
    return segs


# The SVG's footprint outlines and obstacle runs drawn the slow way: each
# corner is formatted to 4 decimals, parsed back, moved into view coordinates
# (x - xmin, ymax - y) and formatted again, and runs are found by walking
# every cell of a row.


def _fmt4(v: float) -> str:
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


def footprint_polygon_text(pose, veh, bounds) -> str:
    """The `points` attribute of one footprint outline, formatted twice."""
    xmin, _, _, ymax = (float(b) for b in bounds)
    hl, hw = veh.length / 2.0, veh.width / 2.0
    c, s = math.cos(pose[2]), math.sin(pose[2])
    world = []
    for bx, by in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
        world.append(f"{_fmt4(pose[0] + c * bx - s * by)},{_fmt4(pose[1] + s * bx + c * by)}")
    view = []
    for pair in world:
        sx, sy = pair.split(",")
        view.append(f"{_fmt4(float(sx) - xmin)},{_fmt4(ymax - float(sy))}")
    return " ".join(view)


def occupancy_rects_loop(grid) -> list:
    """Per-row runs of occupied cells as (x, y, w, h), one cell at a time."""
    rects = []
    res = grid.resolution
    ox, oy = grid.origin
    for iy in range(grid.height):
        ix = 0
        while ix < grid.width:
            if not grid.occupancy[ix, iy]:
                ix += 1
                continue
            run = ix
            while run < grid.width and grid.occupancy[run, iy]:
                run += 1
            rects.append((ox + ix * res, oy + iy * res, (run - ix) * res, res))
            ix = run
    return rects


# The track step as it was before the working-set factor cache: each
# iteration gathered A_w, formed A_w H^-1 and A_w H^-1 A_w^T and solved with
# dposv; build_qp copied H and built the bounds per call; mpc_step unwrapped
# through wrap_angle; allocate went through wheel_velocity and fold_steering
# on each wheel; and the closed loop rotated the applied twist with
# to_body_frame. They share only the data containers, `_qp_terms` and
# `_feasible_start` with the library, so the tests compare with exact
# equality, signed zeros included.


@functools.lru_cache(maxsize=16)
def hessian_inverse_before(n: int, h: bytes) -> np.ndarray:
    l_inv = np.linalg.inv(np.linalg.cholesky(np.frombuffer(h).reshape(n, n)))
    h_inv = l_inv.T @ l_inv
    h_inv.flags.writeable = False
    return h_inv


def range_space_step_before(h_inv: np.ndarray, y: np.ndarray, aw: np.ndarray):
    if not aw.shape[0]:
        return -y, np.zeros(0)
    w = aw @ h_inv
    _, lam, info = dposv(w @ aw.T, -(aw @ y))
    if info:
        raise np.linalg.LinAlgError(f"working-set matrix is not positive definite (dposv info {info})")
    return -y - w.T @ lam, lam


def build_qp_before(state, ref, u_prev, cfg) -> MpcProblem:
    ref = np.asarray(ref, dtype=float).ravel()
    np_, nc = cfg.horizon, cfg.control_horizon
    if ref.shape[0] != NU * np_:
        raise ValueError(f"reference must have length {NU * np_}")
    u_prev = np.asarray(u_prev, dtype=float).reshape(NU)
    phis = np.concatenate([[state.phi], ref.reshape(np_, NU)[:, 2]])
    if np.any(np.abs(np.diff(phis)) > math.pi + 1e-9):
        raise HeadingWrapMismatch("reference heading jumps by more than pi per step")
    weights = (np.asarray(w, dtype=float).tobytes() for w in (cfg.state_weight, cfg.input_weight))
    psi, h, theta_t_qbar = _qp_terms(cfg.dt, np_, nc, *weights)
    g = theta_t_qbar @ (psi @ state.as_array() - ref)
    return MpcProblem(
        H=h.copy(),
        g=g,
        lb=np.concatenate([cfg.u_min] * nc),
        ub=np.concatenate([cfg.u_max] * nc),
        du_lb=cfg.du_min.copy(),
        du_ub=cfg.du_max.copy(),
        u_prev=u_prev,
        nc=nc,
    )


@functools.lru_cache(maxsize=16)
def _row_layout_before(nc: int, box_ub: bytes, box_lb: bytes, du_ub: bytes, du_lb: bytes):
    n = NU * nc
    masks = [np.frombuffer(box_ub, dtype=bool), np.frombuffer(box_lb, dtype=bool)]
    masks += [np.tile(np.frombuffer(m, dtype=bool), nc) for m in (du_ub, du_lb)]
    eye = np.eye(n)
    lag = np.eye(n, k=-NU)
    a_mat = np.concatenate([eye[masks[0]], (0.0 - eye)[masks[1]], (eye - lag)[masks[2]], (lag - eye)[masks[3]]])
    a_mat.flags.writeable = False
    keys = [(kind, j) for kind, mask in enumerate(masks) for j in np.flatnonzero(mask).tolist()]
    row_of = {key: r for r, key in enumerate(keys)}
    shift = []
    for kind, j in keys:
        block = j // NU
        targets = []
        if block >= (1 if kind < 2 else 2):
            targets.append((kind, j - NU))
        if kind < 2 and block == nc - 1:
            targets.append((kind, j))
        shift.append(tuple(row_of[t] for t in targets if t in row_of))
    return a_mat, tuple(masks), tuple(shift)


def _layout_before(prob: MpcProblem):
    finite = (np.isfinite(v).tobytes() for v in (prob.ub, prob.lb, prob.du_ub, prob.du_lb))
    return _row_layout_before(prob.nc, *finite)


def constraint_rows_before(prob: MpcProblem):
    a_mat, (box_ub, box_lb, du_ub, du_lb), _ = _layout_before(prob)
    rate_ub = np.concatenate([prob.du_ub] * prob.nc)
    rate_ub[:NU] = prob.du_ub + prob.u_prev
    rate_lb = np.concatenate([-prob.du_lb] * prob.nc)
    rate_lb[:NU] = (-prob.du_lb) - prob.u_prev
    b_vec = np.concatenate([prob.ub[box_ub], -prob.lb[box_lb], rate_ub[du_ub], rate_lb[du_lb]])
    return a_mat, b_vec


def shift_start_before(prob: MpcProblem, x, active_set):
    shift = _layout_before(prob)[2]
    rows = sorted({t for r in active_set for t in shift[r]})
    return np.concatenate([x[NU:], x[-NU:]]), tuple(rows)


def solve_qp_before(prob: MpcProblem, start=None, iterations_per_variable: int = 50):
    n = NU * prob.nc
    h_inv = hessian_inverse_before(n, np.asarray(prob.H, dtype=float).tobytes())
    h_inv_g = h_inv @ prob.g
    a_mat, b_vec = constraint_rows_before(prob)
    m = a_mat.shape[0]
    work = []
    resid = None if start is None else a_mat @ start[0] - b_vec
    if resid is not None and np.all(resid < 1e-10):
        x = start[0]
        work = [idx for idx in start[1] if 0 <= idx < m and abs(resid[idx]) < 1e-10]
    else:
        x = _feasible_start(prob)
    max_iter = iterations_per_variable * max(n, 1)
    step_tol = 1e-11 * max(1.0, float(np.abs(prob.g).max(initial=0.0)))
    status = "max_iterations"
    lam_full = np.zeros(m)
    for it in range(max_iter):
        p, lam = range_space_step_before(h_inv, x + h_inv_g, a_mat[work])
        if float(np.abs(p).max(initial=0.0)) <= step_tol:
            if not work or lam.min() >= -1e-9:
                status = "optimal"
                lam_full = np.zeros(m)
                lam_full[work] = lam
                break
            drop = int(np.argmin(lam))
            work.pop(drop)
            continue
        alpha = 1.0
        blocker = -1
        ap = a_mat @ p
        moving = ap > 1e-12
        moving[work] = False
        rows = moving.nonzero()[0]
        ratios = (b_vec[rows] - a_mat[rows] @ x) / ap[rows]
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < alpha - 1e-12:
                alpha = max(ratio, 0.0)
                blocker = i
        x = x + alpha * p
        if blocker >= 0:
            work.append(blocker)
            work.sort()
    else:
        it = max_iter
    kkt_residual = float(np.abs(prob.H @ x + prob.g + a_mat.T @ lam_full).max(initial=0.0)) if status == "optimal" else math.inf
    info = {
        "status": status,
        "iterations": it + 1 if status == "optimal" else max_iter,
        "active_set": tuple(sorted(work)),
        "kkt_residual": kkt_residual,
    }
    return x, info


def mpc_step_before(state, ref, u_prev, cfg, start=None):
    ref = np.array(ref, dtype=float).reshape(cfg.horizon, NU)
    prev_phi, phis = state.phi, []
    for phi in ref[:, 2].tolist():
        prev_phi += wrap_angle(phi - prev_phi)
        phis.append(prev_phi)
    ref[:, 2] = phis
    prob = build_qp_before(state, ref.ravel(), u_prev, cfg)
    u, info = solve_qp_before(prob, start=start)
    info["next_start"] = shift_start_before(prob, u, info["active_set"])
    return u[:NU], info


def _wheel_velocity_before(u_body, wheel_xy):
    vx, vy, w = (float(v) for v in u_body)
    xw, yw = float(wheel_xy[0]), float(wheel_xy[1])
    return vx - w * yw, vy + w * xw


def _fold_steering_before(v, prev_gamma: float = 0.0) -> WheelCommand:
    vx, vy = float(v[0]), float(v[1])
    speed = math.hypot(vx, vy)
    if speed < STEER_HOLD_SPEED:
        return WheelCommand(gamma=prev_gamma, speed=vx * math.cos(prev_gamma) + vy * math.sin(prev_gamma))
    gamma = math.atan2(vy, vx)
    if gamma > math.pi / 2.0:
        return WheelCommand(gamma=gamma - math.pi, speed=-speed)
    if gamma <= -math.pi / 2.0:
        return WheelCommand(gamma=gamma + math.pi, speed=-speed)
    return WheelCommand(gamma=gamma, speed=speed)


def allocate_before(u_body, veh, prev_gamma=None) -> list:
    wheels = np.atleast_2d(np.asarray(veh.wheel_positions, dtype=float)).tolist()
    held = [0.0] * len(wheels) if prev_gamma is None else [float(g) for g in prev_gamma]
    return [_fold_steering_before(_wheel_velocity_before(u_body, w), g) for w, g in zip(wheels, held, strict=True)]


def run_closed_loop_before(traj, veh, mpc_cfg, sim_cfg, start_pose=None) -> dict:
    """The closed loop's fields by SimTrace name (no timings), through the former step and allocation."""
    dt = mpc_cfg.dt
    duration = traj.total_time + sim_cfg.settle_time
    steps = max(1, int(round(duration / dt)))
    n_w = np.atleast_2d(veh.wheel_positions).shape[0]
    m = steps + 1
    out_t = np.arange(m) * dt
    out_pose = np.empty((m, 3))
    out_ref = np.empty((m, 3))
    out_u = np.full((m, 3), np.nan)
    out_ephi = np.empty(m)
    out_g = np.full((m, n_w), np.nan)
    out_s = np.full((m, n_w), np.nan)
    qp_log = []
    aborted = None
    refs = traj.sample(np.minimum(out_t, traj.total_time), 0)
    ahead = np.clip(out_t[:, None] + dt * np.arange(1, mpc_cfg.horizon + 1), 0.0, traj.total_time)
    windows = traj.sample(ahead.ravel(), 0).reshape(m, mpc_cfg.horizon, NU)
    pose = Pose2(*refs[0]) if start_pose is None else start_pose
    u_prev = np.zeros(3)
    u_applied = [0.0, 0.0, 0.0]
    start = None
    lag_alpha = 1.0 - math.exp(-dt / sim_cfg.input_lag_tau) if sim_cfg.input_lag_tau > 0.0 else 1.0
    gamma = [0.0] * n_w
    for k, (rx, ry, rphi) in enumerate(refs.tolist()):
        out_pose[k] = pose.x, pose.y, pose.phi
        out_ref[k] = rx, ry, wrap_angle(rphi)
        out_ephi[k] = wrap_angle(pose.phi - rphi)
        try:
            u, info = mpc_step_before(pose, windows[k], u_prev, mpc_cfg, start=start)
            start = info["next_start"]
            qp_log.append([int(info["status"] == "optimal"), info["iterations"], len(info["active_set"])])
        except Exception as exc:  # noqa: BLE001
            aborted = f"{type(exc).__name__}: {exc}"
            m = k + 1
            break
        out_u[k] = u
        u_applied = [a + lag_alpha * (b - a) for a, b in zip(u_applied, u.tolist())]
        v_body = to_body_frame(u_applied[0], u_applied[1], math.cos(pose.phi), math.sin(pose.phi))
        u_body = (*v_body.tolist(), u_applied[2])
        cmds = allocate_before(u_body, veh, prev_gamma=gamma)
        out_g[k] = gamma = [cmd.gamma for cmd in cmds]
        out_s[k] = [cmd.speed for cmd in cmds]
        if k < steps:
            ux, uy, w = (float(v) for v in u_applied)
            pose = Pose2(pose.x + dt * ux, pose.y + dt * uy, pose.phi + dt * w)
            u_prev = u
    pose_m, ref_m = out_pose[:m], out_ref[:m]
    phi = ref_m[:, 2]
    e_y = np.cos(phi) * (pose_m[:, 1] - ref_m[:, 1]) - np.sin(phi) * (pose_m[:, 0] - ref_m[:, 0])
    return {
        "t": out_t[:m], "pose": pose_m, "ref": ref_m, "u": out_u[:m], "e_y": e_y, "e_phi": out_ephi[:m],
        "wheel_gamma": out_g[:m], "wheel_speed": out_s[:m], "aborted": aborted,
        "qp": np.array(qp_log, dtype=int).reshape(-1, 3),
    }
