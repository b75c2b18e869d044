"""Minimum-control-effort quintic splines over (x, y, phi).

A trajectory with N knots is N-1 quintic segments per component. Interior
knot positions q and segment durations T determine all 6(N-1) polynomial
coefficients per component through one banded linear system: junction
positions (both sides), derivative continuity of orders 1-4 at every
junction, and position/velocity/acceleration at both boundaries. Heading is
treated as an unwrapped real scalar throughout.

Costs evaluated on the spline return gradients with respect to (q, T); the
dependence of the coefficients on (q, T) is folded in by an adjoint solve
against the transposed system, so callers get total derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

_BAND = 7  # sub/super-diagonal count of the coefficient system

# _DERIV[order][i]: factor of t^(i - order) in the order-th derivative of t^i,
# the falling factorial i (i - 1) ... (i - order + 1); zero when i < order.
_DERIV = [[float(math.perm(i, order)) for i in range(6)] for order in range(6)]


class NonPositiveDuration(Exception):
    pass


class SingularSystem(Exception):
    pass


class OutOfDomain(Exception):
    pass


@dataclass
class Boundary:
    """Boundary state rows: start/end are (3, 3) arrays [position; velocity; acceleration]."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self) -> None:
        self.start = np.asarray(self.start, dtype=float).reshape(3, 3)
        self.end = np.asarray(self.end, dtype=float).reshape(3, 3)

    @classmethod
    def rest_to_rest(cls, start_pose, end_pose) -> "Boundary":
        s = np.zeros((3, 3))
        e = np.zeros((3, 3))
        s[0] = np.asarray(start_pose, dtype=float)
        e[0] = np.asarray(end_pose, dtype=float)
        return cls(start=s, end=e)


@dataclass
class CostWithGrads:
    """Scalar cost plus total gradients w.r.t. interior knots and durations."""

    value: float
    grad_q: np.ndarray  # (N-2, 3)
    grad_T: np.ndarray  # (N-1,)


def _basis(t: float, order: int) -> np.ndarray:
    """Row of the order-th derivative of [1, t, t^2, t^3, t^4, t^5]."""
    row = np.zeros(6)
    for i in range(order, 6):
        row[i] = _DERIV[order][i] * t ** (i - order)
    return row


def _assemble(T: np.ndarray):
    """Banded storage of the coefficient system for solve_banded, plus its transpose."""
    n_seg = T.shape[0]
    n = 6 * n_seg
    ab = np.zeros((2 * _BAND + 1, n))
    abt = np.zeros((2 * _BAND + 1, n))

    def put(r: int, c: int, v: float) -> None:
        ab[_BAND + r - c, c] = v
        abt[_BAND + c - r, r] = v

    def put_row(r: int, seg: int, t: float, order: int, sign: float = 1.0) -> None:
        row = _basis(t, order)
        base = 6 * seg
        for i in range(6):
            if row[i] != 0.0:
                put(r, base + i, sign * row[i])

    put_row(0, 0, 0.0, 0)
    put_row(1, 0, 0.0, 1)
    put_row(2, 0, 0.0, 2)
    for j in range(1, n_seg):  # junction between segment j-1 and j (0-based)
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


def _rhs(q: np.ndarray, boundary: Boundary, n_seg: int) -> np.ndarray:
    b = np.zeros((6 * n_seg, 3))
    b[0:3] = boundary.start
    for j in range(1, n_seg):
        b[6 * j - 3] = q[j - 1]
        b[6 * j + 2] = q[j - 1]
    b[-3:] = boundary.end
    return b


class MincoTrajectory:
    """Solved spline: durations, interior knots, boundary, and coefficients.

    coeffs has shape (N-1, 6, 3): segment, monomial power, component.
    """

    def __init__(self, durations, waypoints, boundary: Boundary, coeffs, band=None):
        self.durations = np.asarray(durations, dtype=float)
        self.waypoints = np.asarray(waypoints, dtype=float).reshape(-1, 3)
        self.boundary = boundary
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.knot_times = np.concatenate([[0.0], np.cumsum(self.durations)])
        self._band = band

    @property
    def n_segments(self) -> int:
        return self.durations.shape[0]

    @property
    def total_time(self) -> float:
        return float(self.knot_times[-1])

    @property
    def junction_times(self) -> np.ndarray:
        return self.knot_times[1:-1]

    def _segment_of(self, t: float) -> tuple[int, float]:
        total = self.total_time
        if t < -1e-9 or t > total + 1e-9:
            raise OutOfDomain(f"t={t} outside [0, {total}]")
        t = min(max(t, 0.0), total)
        j = int(np.searchsorted(self.knot_times, t, side="right")) - 1
        j = min(max(j, 0), self.n_segments - 1)
        return j, t - self.knot_times[j]

    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """Trajectory derivative of the given order at time t, shape (3,)."""
        if not 0 <= order <= 5:
            raise ValueError("order must be in 0..5")
        j, tau = self._segment_of(t)
        return _eval_segment(self.coeffs[j], tau, order)

    def sample(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """Vectorized eval over an array of times, shape (m, 3). Times are clamped to the domain."""
        ts = np.asarray(ts, dtype=float)
        j = np.clip(np.searchsorted(self.knot_times, ts, side="right") - 1, 0, self.n_segments - 1)
        tau = np.clip(ts, 0.0, self.total_time) - self.knot_times[j]
        out = np.zeros(ts.shape + (3,))
        for i in range(5, order - 1, -1):
            out = out * tau[..., None] + _DERIV[order][i] * self.coeffs[j, i]
        return out

    def arc_length(self, samples_per_second: float = 100.0) -> float:
        """Polyline arc length of the planar center path at a fixed sampling rate."""
        n = max(2, int(math.ceil(self.total_time * samples_per_second)) + 1)
        ts = np.linspace(0.0, self.total_time, n)
        p = self.sample(ts, 0)[:, :2]
        d = np.diff(p, axis=0)
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def to_dict(self) -> dict:
        return {
            "durations": self.durations.tolist(),
            "waypoints": self.waypoints.tolist(),
            "boundary": {
                "start": self.boundary.start.tolist(),
                "end": self.boundary.end.tolist(),
            },
            "coefficients": self.coeffs.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MincoTrajectory":
        boundary = Boundary(
            start=np.array(d["boundary"]["start"]), end=np.array(d["boundary"]["end"])
        )
        return cls(
            durations=np.array(d["durations"]),
            waypoints=np.array(d["waypoints"]).reshape(-1, 3),
            boundary=boundary,
            coeffs=np.array(d["coefficients"]),
        )


def build_minco(q: np.ndarray, T: np.ndarray, boundary: Boundary) -> MincoTrajectory:
    """Solve the banded coefficient system for interior knots q and durations T.

    q has shape (N-2, 3) (possibly empty when N = 2), T has shape (N-1,).
    """
    T = np.asarray(T, dtype=float)
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    n_seg = T.shape[0]
    if n_seg < 1:
        raise ValueError("need at least one segment")
    if q.shape[0] != n_seg - 1:
        raise ValueError(f"waypoint count {q.shape[0]} does not match segment count {n_seg}")
    if np.any(T <= 0.0):
        raise NonPositiveDuration(f"durations must be positive, got {T}")
    if np.any(T < 1e-6):
        raise SingularSystem(f"durations below 1e-6 s make the system numerically singular: {T}")
    ab, abt = _assemble(T)
    b = _rhs(q, boundary, n_seg)
    try:
        flat = solve_banded((_BAND, _BAND), ab, b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by the T checks above
        raise SingularSystem(str(exc)) from exc
    coeffs = flat.reshape(n_seg, 6, 3)
    return MincoTrajectory(durations=T, waypoints=q, boundary=boundary, coeffs=coeffs, band=(ab, abt))


def propagate_gradient(
    traj: MincoTrajectory,
    grad_C: np.ndarray,
    grad_T_direct: np.ndarray | None = None,
    grad_q_direct: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a coefficient-space gradient back onto (q, T) through the linear system.

    grad_C is (N-1, 6, 3), the partial derivative of a scalar cost w.r.t. the
    coefficients at fixed (q, T). Returns (grad_q, grad_T) totals: the adjoint
    solve against the transposed system contributes d(cost)/dq through the
    right-hand side and -lambda^T (dM/dT) C through the matrix.
    """
    n_seg = traj.n_segments
    n = 6 * n_seg
    if traj._band is None:
        ab, abt = _assemble(traj.durations)
    else:
        ab, abt = traj._band
    g = np.asarray(grad_C, dtype=float).reshape(n, 3)
    lam = solve_banded((_BAND, _BAND), abt, g)

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
            deriv = _eval_segment(traj.coeffs[j], T[j], order + 1)
            grad_T[j] -= float(lam[r] @ deriv)
    return grad_q, grad_T


def _eval_segment(coeff: np.ndarray, tau: float, order: int) -> np.ndarray:
    """Order-th derivative of one segment's quintic at local time tau, by Horner's rule."""
    d = _DERIV[order]
    out = np.zeros(3)
    for i in range(5, order - 1, -1):
        out = out * tau + d[i] * coeff[i]
    return out


def energy_cost_with_grads(traj: MincoTrajectory) -> CostWithGrads:
    """Integrated squared jerk over the trajectory, with total (q, T) gradients.

    Per segment and component, with c3..c5 the cubic..quintic coefficients:
    integral = 36 c3^2 T + 144 c3 c4 T^2 + (192 c4^2 + 240 c3 c5) T^3
             + 720 c4 c5 T^4 + 720 c5^2 T^5.
    """
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
    # Direct T dependence: the integrand (squared jerk) evaluated at the segment end.
    direct_T = np.empty(traj.n_segments)
    for j in range(traj.n_segments):
        jerk = _eval_segment(C[j], T[j], 3)
        direct_T[j] = float(jerk @ jerk)
    grad_q, grad_T = propagate_gradient(traj, grad_C, grad_T_direct=direct_T)
    return CostWithGrads(value=value, grad_q=grad_q, grad_T=grad_T)


def time_cost_with_grads(T: np.ndarray) -> CostWithGrads:
    """Total duration with its trivial gradients."""
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0.0):
        raise NonPositiveDuration(f"durations must be positive, got {T}")
    return CostWithGrads(
        value=float(T.sum()),
        grad_q=np.zeros((max(T.shape[0] - 1, 0), 3)),
        grad_T=np.ones_like(T),
    )
