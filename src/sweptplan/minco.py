"""Minimum-control-effort quintic splines over (x, y, phi).

A trajectory with N knots is N-1 quintic segments per component. Interior
knot positions q and segment durations T determine all 6(N-1) polynomial
coefficients per component through one banded linear system: junction
positions (both sides), derivative continuity of orders 1-4 at every
junction, and position/velocity/acceleration at both boundaries. Heading is
treated as an unwrapped real scalar throughout.

Costs on the spline return their partial w.r.t. the coefficients (`grad_C`)
with their direct (q, T) gradients, and `propagate_gradient` folds every
`grad_C` of one evaluation onto (q, T) in one adjoint solve against the
transposed system. The system goes to LAPACK's banded solver (`dgbsv`, the
routine behind `scipy.linalg.solve_banded`); the transposed system is
LU-factored once per trajectory (`dgbtrf`), so each adjoint is one `dgbtrs`.
`dgbsv` is `dgbtrf` then `dgbtrs`, so both give `solve_banded`'s bits.

Every evaluation (`MincoTrajectory.sample`, the one public evaluator, and
the derivative rows of the adjoint and the energy gradient) goes through one
Horner evaluator. It reads a component-major table of the coefficients, each
already multiplied by its derivative factor, built once per trajectory on
first use. A Horner step is then one `np.take` gather and one in-place
multiply-add on (3, m) arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from ._lapack import dgbsv, dgbtrf, dgbtrs

_BAND = 7  # sub/super-diagonal count of the coefficient system
# Rows of LAPACK's banded storage: _BAND rows of fill-in space above the
# 2 _BAND + 1 diagonals, which sit at rows _BAND.. (solve_banded's layout).
_LDAB = 3 * _BAND + 1

# _DERIV[order][i]: factor of t^(i - order) in the order-th derivative of t^i,
# the falling factorial i (i - 1) ... (i - order + 1); zero when i < order.
_DERIV = [[float(math.perm(i, order)) for i in range(6)] for order in range(6)]
# Relative slack on rate_bounds: the rounding of its Horner sums and of a
# sampled rate stays far below it.
_RATE_MARGIN = 1e-9
ARC_LENGTH_RATE = 100.0  # samples per second of the polyline arc length


class NonPositiveDuration(Exception):
    pass


class SingularSystem(Exception):
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
    """Scalar cost plus (q, T) gradients: totals, or only the direct ones beside a grad_C."""

    value: float
    grad_q: np.ndarray  # (N-2, 3)
    grad_T: np.ndarray  # (N-1,)
    grad_C: np.ndarray | None = None  # (N-1, 6, 3), partial w.r.t. coeffs at fixed (q, T)


@functools.lru_cache(maxsize=8)
def _band_pattern(n_seg: int):
    """Fixed sparsity of the coefficient system for n_seg segments.

    Entry k has the value factor[k] * powers[power[k]], where powers is the
    (n_seg, 6) table of T_seg ** p flattened (rows evaluated at local time 0
    use p = 0). It sits at flat index ab_flat[k] of the column-major banded
    storage and at abt_flat[k] of the transpose's. The arrays are shared, so
    read-only.
    """
    rows, cols, power, factor = [], [], [], []

    def put_row(r: int, seg: int, at_end: bool, order: int, sign: float = 1.0) -> None:
        # At local time 0 only the t^order term of the derivative row survives.
        for i in range(order, 6) if at_end else (order,):
            rows.append(r)
            cols.append(6 * seg + i)
            power.append(6 * seg + (i - order if at_end else 0))
            factor.append(sign * _DERIV[order][i])

    for order in range(3):
        put_row(order, 0, False, order)
    for j in range(1, n_seg):  # junction between segment j-1 and j (0-based)
        r0 = 6 * j - 3
        put_row(r0, j - 1, True, 0)
        for k in range(1, 5):
            put_row(r0 + k, j - 1, True, k)
            put_row(r0 + k, j, False, k, sign=-1.0)
        put_row(r0 + 5, j, False, 0)
    for order in range(3):
        put_row(6 * n_seg - 3 + order, n_seg - 1, True, order)
    rows, cols = np.array(rows), np.array(cols)
    # Entry (i, j) of a banded matrix sits at row 2 _BAND + i - j of column j.
    ab_flat = cols * _LDAB + 2 * _BAND + rows - cols
    abt_flat = rows * _LDAB + 2 * _BAND + cols - rows
    pattern = (ab_flat, abt_flat, np.array(power), np.array(factor))
    for a in pattern:
        a.setflags(write=False)
    return pattern


def _check_finite(a: np.ndarray) -> None:
    # The failure solve_banded's check_finite gives; LAPACK would return NaNs.
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _assemble(T: np.ndarray):
    """LAPACK banded storage of the coefficient system, plus its transpose's.

    Rows _BAND.. of each hold solve_banded's (2 _BAND + 1, n) layout.
    """
    n_seg = T.shape[0]
    n = 6 * n_seg
    ab_flat, abt_flat, power, factor = _band_pattern(n_seg)
    # Powers from Python floats: numpy's array power rounds some of them differently.
    powers = np.array([[t**p for p in range(6)] for t in T.tolist()])
    values = factor * powers.ravel()[power]
    _check_finite(values)
    # Column-major (_LDAB, n), so LAPACK works on them in place.
    ab = np.zeros((n, _LDAB)).T
    abt = np.zeros((n, _LDAB)).T
    ab.T.ravel()[ab_flat] = values
    abt.T.ravel()[abt_flat] = values
    return ab, abt


def _rhs(q: np.ndarray, boundary: Boundary, n_seg: int) -> np.ndarray:
    """Right-hand side, column-major so LAPACK solves in place."""
    n = 6 * n_seg
    b = np.zeros((3, n)).T
    b[0:3] = boundary.start
    # Knot j (1-based junction) fills rows 6 j - 3 and 6 j + 2.
    b[3 : n - 3 : 6] = q
    b[8 : n - 3 : 6] = q
    b[-3:] = boundary.end
    return b


class MincoTrajectory:
    """Solved spline: durations, interior knots, boundary, and coefficients.

    coeffs has shape (N-1, 6, 3): segment, monomial power, component. It
    must not change after the first evaluation, which builds `_tables` from it.
    adjoint_band is the transposed system's banded storage when the caller
    already has it; the first adjoint solve factors it in place.
    """

    def __init__(self, durations, waypoints, boundary: Boundary, coeffs, adjoint_band=None):
        self.durations = np.asarray(durations, dtype=float)
        self.waypoints = np.asarray(waypoints, dtype=float).reshape(-1, 3)
        self.boundary = boundary
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.knot_times = np.concatenate([[0.0], np.cumsum(self.durations)])
        self._adjoint_band = adjoint_band

    @functools.cached_property
    def _tables(self) -> np.ndarray:
        """(6, 6, 3, N-1) table: [order, power, component, segment] holds the
        power's coefficient times its order-th derivative factor _DERIV."""
        return np.array(_DERIV)[:, :, None, None] * self.coeffs.transpose(1, 2, 0)

    @functools.cached_property
    def _adjoint_lu(self):
        """LU factors and pivots of the transposed system (LAPACK dgbtrf)."""
        abt = self._adjoint_band
        if abt is None:
            abt = _assemble(self.durations)[1]
        self._adjoint_band = None  # dgbtrf overwrites it
        lu, piv, info = dgbtrf(abt, _BAND, _BAND, overwrite_ab=1)
        if info != 0:
            raise SingularSystem(f"dgbtrf info {info} on the transposed system")
        return lu, piv

    @functools.cached_property
    def _end_rows(self) -> np.ndarray:
        """Derivatives of orders 1-5 at each segment's end, [order - 1] -> (N-1, 3).

        _horner's steps at tau = T for every segment at once: order k takes
        the steps of powers 4 down to k, so a step updates a prefix of orders.
        """
        T = self.durations
        tables = self._tables[1:]
        out = tables[:, 5] + 0.0 * T
        for i in range(4, 0, -1):
            out[:i] *= T
            out[:i] += tables[:i, i]
        return out.transpose(0, 2, 1)

    @property
    def n_segments(self) -> int:
        return self.durations.shape[0]

    @property
    def total_time(self) -> float:
        return float(self.knot_times[-1])

    @property
    def junction_times(self) -> np.ndarray:
        return self.knot_times[1:-1]

    def sample(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """Derivative of the given order (0..5) at the times ts, shape ts.shape + (3,).

        Times are clamped to [0, total_time]; a time on a junction takes the
        later segment. The result is the transpose of a component-major
        array, so each component is contiguous.
        """
        if not 0 <= order <= 5:
            raise ValueError("order must be in 0..5")
        ts = np.asarray(ts, dtype=float)
        # Junctions at or before t: the segment index, already in 0..N-2.
        j = np.searchsorted(self.junction_times, ts, side="right")
        tau = np.clip(ts, 0.0, self.total_time) - np.take(self.knot_times, j)
        return _horner(self, j, tau, order)

    def rate_bounds(self, ts: np.ndarray):
        """(vmax, wmax) per interval [ts[j], ts[j+1]]: upper bounds on the planar
        speed and |heading rate| there, from coefficient magnitudes.

        ts is increasing and inside [0, total_time]. Each interval is cut at
        the knots it spans. On a piece from a, u seconds long, the velocity's
        Taylor coefficients d_k at a bound each component by
        |p'(a + u)| <= sum_k |d_k| u^k, so the speed is at most the hypot of
        the x and y sums. Both bounds carry a relative margin for rounding.
        """
        ts = np.asarray(ts, dtype=float)
        knots = self.junction_times
        cuts = np.sort(np.concatenate([ts, knots[(knots > ts[0]) & (knots < ts[-1])]]))
        cuts = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]  # np.union1d without np.unique's numpy.ma import
        a, u = cuts[:-1], np.diff(cuts)[:, None]
        seg = np.searchsorted(knots, a, side="right")
        tau = a - np.take(self.knot_times, seg)
        # Horner in u over |d_k| = |p^(k+1)(a)| / k!, from k = 4 down.
        b = np.abs(_horner(self, seg, tau, 5)) / 24.0
        for k in range(3, -1, -1):
            b = b * u + np.abs(_horner(self, seg, tau, k + 1)) / math.factorial(k)
        b *= 1.0 + _RATE_MARGIN
        first = np.searchsorted(cuts, ts[:-1])
        return np.maximum.reduceat(np.hypot(b[:, 0], b[:, 1]), first), np.maximum.reduceat(b[:, 2], first)

    def arc_length(self) -> float:
        """Polyline arc length of the planar center path, sampled ARC_LENGTH_RATE times a second."""
        n = max(2, int(math.ceil(self.total_time * ARC_LENGTH_RATE)) + 1)
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
    _check_finite(b)
    _, _, flat, info = dgbsv(_BAND, _BAND, ab, b, overwrite_ab=1, overwrite_b=1)
    if info != 0:  # pragma: no cover - guarded by the T checks above
        raise SingularSystem(f"dgbsv info {info}")
    coeffs = flat.reshape(n_seg, 6, 3)
    return MincoTrajectory(durations=T, waypoints=q, boundary=boundary, coeffs=coeffs, adjoint_band=abt)


def propagate_gradient(traj: MincoTrajectory, costs: list[CostWithGrads]) -> list[CostWithGrads]:
    """Fold each cost's grad_C onto (q, T): one dgbtrs call, one 3-column block per cost.

    A cost with grad_C comes back with totals and no grad_C: its direct
    gradients plus the adjoint's, d(cost)/dq through the right-hand side and
    -lambda^T (dM/dT) C through the matrix. Others come back unchanged.
    """
    out = list(costs)
    coupled = [i for i, c in enumerate(costs) if c.grad_C is not None]
    if not coupled:
        return out
    n_seg, k = traj.n_segments, len(coupled)
    n = 6 * n_seg
    lu, piv = traj._adjoint_lu
    # Column-major, with three zero rows after the n rows LAPACK solves.
    b = np.zeros((k, 3, n + 3))
    b[:, :, :n] = np.array([costs[i].grad_C for i in coupled]).reshape(k, n, 3).transpose(0, 2, 1)
    _check_finite(b)
    lam, _ = dgbtrs(lu, _BAND, _BAND, b.reshape(3 * k, n + 3).T, piv, overwrite_b=1)
    # rows[c, j, o] is row 6 j + 3 + o of cost c's lambda: knot j + 1 enters rows 6 j + 3
    # and 6 j + 8, and segment j's end rows of order 1 + o are its junction's or the last three.
    rows = lam.T[:, 3:].reshape(k, 3, n_seg, 6).transpose(0, 2, 3, 1)
    # Direct terms added to zeros first, so a -0.0 among them folds as +0.0.
    grad_q = np.array([costs[i].grad_q for i in coupled]) + 0.0
    grad_q += rows[:, :-1, 0] + rows[:, :-1, 5]
    # grad_T minus the end-row products, left to right: a zero row's 0 changes nothing but a -0.0, never held.
    terms = np.empty((k, n_seg, 6))
    terms[:, :, 0] = np.array([costs[i].grad_T for i in coupled]) + 0.0
    np.vecdot(rows[:, :, :5], traj._end_rows.transpose(1, 0, 2), out=terms[:, :, 1:])
    grad_T = np.subtract.reduce(terms, axis=2)
    for c, i in enumerate(coupled):
        out[i] = CostWithGrads(value=costs[i].value, grad_q=grad_q[c], grad_T=grad_T[c])
    return out


def _horner(traj: MincoTrajectory, seg, tau, order: int) -> np.ndarray:
    """Order-th derivative of traj's segments seg at local times tau (Horner).

    seg and tau are scalars or matching arrays; the result is tau.shape + (3,),
    a view of a component-major array. The steps are those of
    out = out * tau + d_i c_i from out = 0, with d_i c_i read from the
    trajectory's table; the first step keeps its 0 * tau term, so signed
    zeros and non-finite times come out as from a zero start.
    """
    table = traj._tables[order]
    tau = np.asarray(tau, dtype=float)
    out = table[5].take(seg, axis=1)
    np.add(0.0 * tau, out, out=out)
    for i in range(4, order - 1, -1):
        out *= tau
        out += table[i].take(seg, axis=1)
    return out.transpose((*range(1, out.ndim), 0))


# Energy coefficients: of the six products c_a c_b (36 c3^2, 144 c3 c4,
# 240 c3 c5, 720 c4 c5, 720 c5^2, 192 c4^2), and of grad_C row r's term in
# c_k, multiplied by T^(r + k + 1).
_ENERGY_K = np.array([36.0, 144.0, 240.0, 720.0, 720.0, 192.0])
_ENERGY_GRAD_K = np.array([[72.0, 144.0, 240.0], [144.0, 384.0, 720.0], [240.0, 720.0, 1440.0]])[:, :, None, None]
_ENERGY_GRAD_T = np.add.outer(np.arange(3), np.arange(3))


def energy_cost_with_grads(traj: MincoTrajectory) -> CostWithGrads:
    """Integrated squared jerk over the trajectory, with its grad_C and direct grad_T.

    Per segment and component, with c3..c5 the cubic..quintic coefficients:
    integral = 36 c3^2 T + 144 c3 c4 T^2 + (192 c4^2 + 240 c3 c5) T^3
             + 720 c4 c5 T^4 + 720 c5^2 T^5.
    """
    T = traj.durations
    C = traj.coeffs
    # c[k] is the (3 + k)-th coefficient of every segment and tp[i] = T^(i + 1)
    # by repeated multiplication. The sums run over a leading, non-contiguous
    # axis, so they add left to right as the written-out terms do; starting
    # from -0.0, the exact additive identity, keeps a sum of -0.0 terms -0.0.
    c = C[:, 3:, :].transpose(1, 0, 2)
    tp = np.cumprod(np.repeat(T[:, None], 5, axis=1), axis=1).T[:, :, None]
    # The six products K a b, 192 c4^2 last so it adds into 240 c3 c5.
    prod = (_ENERGY_K[:, None, None] * c[[0, 0, 0, 1, 2, 1]]) * c[[0, 1, 2, 2, 2, 1]]
    prod[2] += prod[5]
    value = float(np.sum(np.add.reduce(prod[:5] * tp, axis=0, initial=-0.0)))
    grad_C = np.zeros_like(C)
    grad_rows = np.add.reduce((_ENERGY_GRAD_K * c) * tp[_ENERGY_GRAD_T], axis=1, initial=-0.0)
    grad_C[:, 3:, :] = grad_rows.transpose(1, 0, 2)
    # Direct T dependence: the integrand (squared jerk) evaluated at the segment end.
    jerk = traj._end_rows[2]
    grad_q = np.zeros((max(traj.n_segments - 1, 0), 3))
    return CostWithGrads(value=value, grad_q=grad_q, grad_T=np.vecdot(jerk, jerk), grad_C=grad_C)


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
