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
only the data containers, the feasible-start routine and the range-space step
with the library; `kkt_step_dense` is the independent check of that step.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from scipy.linalg import solve_banded

from sweptplan.geometry import footprint_sdf_batch, footprint_sdf_values, to_body_frame, wrap_angle
from sweptplan.mpc import NU, MpcProblem, _feasible_start, _hessian_inverse, _range_space_step


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

    Steps come from the library's range-space step on its cached H^-1, or
    with dense_kkt=True from `kkt_step_dense`.
    """
    n = NU * prob.nc
    a_mat, b_vec = constraint_rows_loop(prob)
    m = a_mat.shape[0]
    if not dense_kkt:
        h_inv = _hessian_inverse(n, np.asarray(prob.H, dtype=float).tobytes())
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
            p, lam = _range_space_step(h_inv, x + h_inv_g, a_mat[work])
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
