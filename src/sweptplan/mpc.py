"""Box-constrained linear MPC for trajectory tracking.

The tracked plant is a kinematic integrator in (x, y, phi): state plus dt
times the commanded twist. Stacking Np predicted states over an Nc-step
input sequence gives a dense least-squares tracking objective; bounds on the
inputs and their first differences make it a box/rate-constrained strictly
convex QP, solved by a primal active-set method with deterministic
tie-breaking.

Psi, H and Theta^T Qbar depend only on the config, and the constraint matrix
only on the control horizon and on which bounds are finite, so they are built
once per distinct config; each step forms only the gradient and the bounds.

A closed loop hot-starts each solve after the first from the previous
solution shifted one control step, x0 = (x[3:], x[-3:]), with its active
rows shifted to match (`_shift_start`; Ferreau, Bock and Diehl, IJRNC 2008).
The previous optimum is then feasible up to rounding and mostly tight where
the new optimum is, so a step takes a few active-set iterations instead of
rebuilding its working set one row per iteration from `_feasible_start`.

Each active-set step is taken in the range space of H (Nocedal and Wright,
Numerical Optimization, section 16.5). H^-1 is formed once per distinct H
and cached, and H^-1 g once per solve; an iteration then solves only the
k x k system A_w H^-1 A_w^T for the working set's multipliers, by Cholesky.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from ._lapack import dposv

from .geometry import Pose2, wrap_angle

NU = 3  # inputs per step: Vx, Vy, omega
ITERATIONS_PER_VARIABLE = 50  # solve_qp's cap is this times the number of inputs


class Infeasible(Exception):
    """Raised when the box and rate constraints admit no input sequence."""


class HeadingWrapMismatch(Exception):
    """Raised when a reference heading sequence jumps by more than pi per step."""


@dataclass
class MpcConfig:
    dt: float = 0.05
    horizon: int = 20  # Np, prediction steps
    control_horizon: int = 10  # Nc <= Np, free input steps; later inputs are zero
    state_weight: np.ndarray = field(default_factory=lambda: np.diag([10.0, 10.0, 10.0]))
    input_weight: np.ndarray = field(default_factory=lambda: np.diag([0.05, 0.05, 0.05]))
    u_min: np.ndarray = field(default_factory=lambda: np.array([-2.0, -2.0, -1.0]))
    u_max: np.ndarray = field(default_factory=lambda: np.array([2.0, 2.0, 1.0]))
    du_min: np.ndarray = field(default_factory=lambda: np.full(NU, -np.inf))
    du_max: np.ndarray = field(default_factory=lambda: np.full(NU, np.inf))

    def __post_init__(self) -> None:
        self.state_weight = np.asarray(self.state_weight, dtype=float).reshape(NU, NU)
        self.input_weight = np.asarray(self.input_weight, dtype=float).reshape(NU, NU)
        for name in ("u_min", "u_max", "du_min", "du_max"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(NU))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if not 1 <= self.control_horizon <= self.horizon:
            raise ValueError("need 1 <= control_horizon <= horizon")
        for m, name in ((self.state_weight, "state_weight"), (self.input_weight, "input_weight")):
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(m).min() < -1e-10:
                raise ValueError(f"{name} must be positive semidefinite")
        if np.any(self.u_min >= self.u_max):
            raise ValueError("u_min must be below u_max componentwise")
        if np.any(self.du_min > self.du_max):
            raise ValueError("du_min must not exceed du_max componentwise")


@dataclass
class MpcProblem:
    H: np.ndarray
    g: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    du_lb: np.ndarray
    du_ub: np.ndarray
    u_prev: np.ndarray
    nc: int


def build_prediction(cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stacked prediction operators: X_pred = Psi x0 + Theta U.

    With identity state dynamics and input matrix dt*I, Psi stacks Np
    identities and Theta has block (r, c) = dt*I for r >= c, c < Nc (inputs
    beyond the control horizon are zero).
    """
    np_, nc = cfg.horizon, cfg.control_horizon
    psi = np.tile(np.eye(NU), (np_, 1))
    theta = np.kron(np.tril(np.ones((np_, nc))), cfg.dt * np.eye(NU))
    return psi, theta


@functools.lru_cache(maxsize=16)
def _qp_terms(dt, horizon: int, control_horizon: int, state_weight: bytes, input_weight: bytes):
    """Read-only (Psi, H, Theta^T Qbar), keyed by the weights' bytes so an in-place edit is a new key."""
    cfg = SimpleNamespace(dt=dt, horizon=horizon, control_horizon=control_horizon)
    psi, theta = build_prediction(cfg)
    qbar = np.kron(np.eye(horizon), np.frombuffer(state_weight).reshape(NU, NU))
    rbar = np.kron(np.eye(control_horizon), np.frombuffer(input_weight).reshape(NU, NU))
    theta_t_qbar = theta.T @ qbar
    h = theta_t_qbar @ theta + rbar
    h = 0.5 * (h + h.T)
    # Regularize only if the assembled Hessian is not already positive definite.
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        h = h + 1e-9 * np.eye(h.shape[0])
    for a in (psi, h, theta_t_qbar):
        a.flags.writeable = False
    return psi, h, theta_t_qbar


def build_qp(state: Pose2, ref: np.ndarray, u_prev: np.ndarray, cfg: MpcConfig) -> MpcProblem:
    """Assemble the tracking QP for a stacked reference Y_t (3*Np,).

    Reference headings must already be unwrapped relative to state.phi; a
    per-step jump above pi raises HeadingWrapMismatch.
    """
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


def _feasible_start(prob: MpcProblem) -> np.ndarray:
    """Deterministic strictly feasible point via per-component interval propagation."""
    nc = prob.nc
    u0 = np.empty(NU * nc)
    for comp in range(NU):
        lo = prob.lb[comp::NU]
        hi = prob.ub[comp::NU]
        dl, du = prob.du_lb[comp], prob.du_ub[comp]
        # Forward reachable intervals from u_prev.
        fwd = []
        a, b = prob.u_prev[comp] + dl, prob.u_prev[comp] + du
        for i in range(nc):
            a, b = max(a, lo[i]), min(b, hi[i])
            if a > b + 1e-12:
                raise Infeasible(
                    f"box and rate constraints conflict for input component {comp} at step {i}"
                )
            fwd.append((a, b))
            a, b = a + dl, b + du
        # Backward prune so any in-interval choice can still finish the chain.
        back_lo, back_hi = -np.inf, np.inf
        for i in range(nc - 1, -1, -1):
            a = max(fwd[i][0], back_lo)
            b = min(fwd[i][1], back_hi)
            if a > b + 1e-12:
                raise Infeasible(
                    f"box and rate constraints conflict for input component {comp} at step {i}"
                )
            fwd[i] = (a, b)
            back_lo, back_hi = a - du, b - dl
        prev = prob.u_prev[comp]
        for i in range(nc):
            a = max(fwd[i][0], prev + dl)
            b = min(fwd[i][1], prev + du)
            v = min(max(0.0, a), b)  # prefer zero, else nearest feasible
            u0[NU * i + comp] = v
            prev = v
    return u0


@functools.lru_cache(maxsize=16)
def _row_layout(nc: int, box_ub: bytes, box_lb: bytes, du_ub: bytes, du_lb: bytes):
    """Read-only rows of a^T u <= b and the shift map, for one pattern of finite bounds.

    Rows run box upper, box lower, rate upper, rate lower, each in input
    order; zeros are +0.0. shift[r] lists the rows that row r becomes one
    control step later, under the start x0 = (x[NU:], x[-NU:]):
    - a box or rate row on input j becomes the same kind of row on j - NU;
    - the last block's box rows also stay where they are;
    - rows of block 0, and the rate rows of block 1, are dropped. With u_prev
      fixed, a block-1 rate row becomes a one-variable row on u_0 that can
      repeat or chain with box rows and make the KKT system singular.
    A target whose bound is infinite has no row and is dropped too.
    """
    n = NU * nc
    masks = [np.frombuffer(box_ub, dtype=bool), np.frombuffer(box_lb, dtype=bool)]
    masks += [np.tile(np.frombuffer(m, dtype=bool), nc) for m in (du_ub, du_lb)]
    eye = np.eye(n)
    lag = np.eye(n, k=-NU)  # row i picks u[i - NU]
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


def _layout(prob: MpcProblem):
    finite = (np.isfinite(v).tobytes() for v in (prob.ub, prob.lb, prob.du_ub, prob.du_lb))
    return _row_layout(prob.nc, *finite)


def _constraint_rows(prob: MpcProblem):
    """Rows of a^T u <= b: box upper, box lower, rate upper, rate lower; zeros are +0.0.

    The matrix is the cached, read-only one of the problem's layout; only b is built here.
    """
    a_mat, (box_ub, box_lb, du_ub, du_lb), _ = _layout(prob)
    rate_ub = np.concatenate([prob.du_ub] * prob.nc)
    rate_ub[:NU] = prob.du_ub + prob.u_prev
    rate_lb = np.concatenate([-prob.du_lb] * prob.nc)
    rate_lb[:NU] = (-prob.du_lb) - prob.u_prev
    b_vec = np.concatenate([prob.ub[box_ub], -prob.lb[box_lb], rate_ub[du_ub], rate_lb[du_lb]])
    return a_mat, b_vec


def _shift_start(prob: MpcProblem, x: np.ndarray, active_set) -> tuple[np.ndarray, tuple[int, ...]]:
    """The start for the next step's problem of the same config: x one control step later, and its rows.

    x0 = (x[NU:], x[-NU:]), with the active rows mapped by the layout's shift
    map (see `_row_layout`). The next step's u_prev is x[:NU].
    """
    shift = _layout(prob)[2]
    rows = sorted({t for r in active_set for t in shift[r]})
    return np.concatenate([x[NU:], x[-NU:]]), tuple(rows)


@functools.lru_cache(maxsize=16)
def _hessian_inverse(n: int, h: bytes) -> np.ndarray:
    """Read-only H^-1 = L^-T L^-1 from the Cholesky factor of the (n, n) H with these bytes.

    A Hessian that is not positive definite raises np.linalg.LinAlgError.
    """
    l_inv = np.linalg.inv(np.linalg.cholesky(np.frombuffer(h).reshape(n, n)))
    h_inv = l_inv.T @ l_inv
    h_inv.flags.writeable = False
    return h_inv


def _range_space_step(h_inv: np.ndarray, y: np.ndarray, aw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step p and multipliers lam of the working-set KKT system, with y = x + H^-1 g.

    [H aw^T; aw 0] [p; lam] = [-(H x + g); 0] gives aw H^-1 aw^T lam = -aw y
    and p = -y - H^-1 aw^T lam. A working-set matrix that Cholesky cannot
    factor (dependent rows) raises np.linalg.LinAlgError.
    """
    if not aw.shape[0]:
        return -y, np.zeros(0)
    w = aw @ h_inv
    _, lam, info = dposv(w @ aw.T, -(aw @ y))
    if info:
        raise np.linalg.LinAlgError(f"working-set matrix is not positive definite (dposv info {info})")
    return -y - w.T @ lam, lam


def solve_qp(prob: MpcProblem, start=None):
    """Primal active-set solve of min 1/2 u^T H u + g^T u under box/rate constraints.

    start is (x0, rows): a point and the constraint rows to start the working
    set from, such as `_shift_start` of the previous step's solution. It is
    taken when every row holds at x0 within 1e-10, and then keeps the given
    rows that are tight within 1e-10. Otherwise, and when start is None, the
    solve starts cold: from `_feasible_start` with an empty working set.

    Each step comes from `_range_space_step` on H^-1, which is cached per
    distinct H, so a closed loop inverts its Hessian once; H^-1 g is formed
    once per solve. An H that is not positive definite, or a working set
    with dependent rows, raises np.linalg.LinAlgError.

    Returns (x, info): the stacked input vector and a dict with iterations,
    the final active set, KKT residual, and a status of "optimal" or
    "max_iterations" (best feasible iterate). Ties break on the lowest
    constraint index so identical problems reproduce identical paths.
    """
    n = NU * prob.nc
    h_inv = _hessian_inverse(n, np.asarray(prob.H, dtype=float).tobytes())
    h_inv_g = h_inv @ prob.g
    a_mat, b_vec = _constraint_rows(prob)
    m = a_mat.shape[0]
    work: list[int] = []
    # Rows hold one or two +-1 entries, so a @ x rounds once, as row by row: resid also picks tight rows.
    resid = None if start is None else a_mat @ start[0] - b_vec
    if resid is not None and np.all(resid < 1e-10):
        x = start[0]
        work = [idx for idx in start[1] if 0 <= idx < m and abs(resid[idx]) < 1e-10]
    else:
        x = _feasible_start(prob)
    max_iter = ITERATIONS_PER_VARIABLE * max(n, 1)
    # A zero step on the working set, relative to the gradient's scale.
    step_tol = 1e-11 * max(1.0, float(np.abs(prob.g).max(initial=0.0)))
    status = "max_iterations"
    lam_full = np.zeros(m)
    for it in range(max_iter):
        # Equality-constrained step on the working set.
        p, lam = _range_space_step(h_inv, x + h_inv_g, a_mat[work])
        if float(np.abs(p).max(initial=0.0)) <= step_tol:
            if not work or lam.min() >= -1e-9:
                status = "optimal"
                lam_full = np.zeros(m)
                lam_full[work] = lam
                break
            drop = int(np.argmin(lam))
            work.pop(drop)
            continue
        # Step length to the nearest violated constraint not in the working set.
        # Rows hold one or two +-1 entries, so a @ p and a @ x round once, as
        # in a row-by-row scan. Candidates are scanned in index order and a
        # later ratio must undercut alpha by 1e-12, so near-ties keep the lower index.
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


def reference_windows(traj, ts: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """(len(ts), Np, 3) references at the Np control steps after each time in ts, in one sample call.

    Each window is t + dt * (1..Np), clipped to [0, total_time], so past the
    end it holds the trajectory's final pose.
    """
    ts = np.asarray(ts, dtype=float)
    ahead = np.clip(ts[:, None] + cfg.dt * np.arange(1, cfg.horizon + 1), 0.0, traj.total_time)
    return traj.sample(ahead.ravel(), 0).reshape(ts.shape[0], cfg.horizon, NU)


def mpc_step(state: Pose2, ref: np.ndarray, u_prev: np.ndarray, cfg: MpcConfig, start=None):
    """One receding-horizon update: returns (u, info), the first commanded
    twist (world frame) and the solve's info dict.

    ref is the (Np, 3) reference sampled at the next Np steps, clamped to the
    trajectory's final pose past its end (`reference_windows` samples a
    whole run's windows at once). Its headings are unwrapped here relative
    to the current state so the QP never sees a branch jump. start is passed
    to `solve_qp`, whose info dict this returns with "next_start" added:
    this solution shifted one control step for the next update, which must
    use the same config and take the returned twist as its u_prev.
    """
    ref = np.array(ref, dtype=float).reshape(cfg.horizon, NU)
    prev_phi, phis = state.phi, []
    for phi in ref[:, 2].tolist():
        prev_phi += wrap_angle(phi - prev_phi)
        phis.append(prev_phi)
    ref[:, 2] = phis
    prob = build_qp(state, ref.ravel(), u_prev, cfg)
    u, info = solve_qp(prob, start=start)
    info["next_start"] = _shift_start(prob, u, info["active_set"])
    return u[:NU], info
