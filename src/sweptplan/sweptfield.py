"""Swept-volume field: per-point minimum footprint distance over a trajectory.

For a query point p and a pose path P(t), g(t) = F_SDF(p, P(t)) is the
footprint distance at time t. Its minimum over the trajectory duration,
f*(p) = min_t g(t), is negative exactly where the vehicle body passes, so the
f* <= 0 sublevel set is the swept area. One search, `_min_over_time`, serves
the field, the swept-cell count, `min_time_distance` and
`least_time_distance`, the planner's feasibility check over the obstacle
points. Cells are pure functions of
the inputs, so how they are batched does not change the output.

The search samples g at K coarse times, their poses sampled once per call,
into one (K, SCAN_BLOCK) table per block of points. Between samples j and
j+1, h apart, g changes no faster than L_j = vmax_j + wmax_j * (|p - c_j| +
vmax_j * h), with vmax_j and wmax_j the path's `rate_bounds` on speed and
|heading rate| over the interval and c_j the sampled pose center, so min g >=
(g_j + g_{j+1}) / 2 - L_j * h / 2 there (conservative advancement). From the
table come the deepest sample g_min and its first index; the caller refines
the points whose g_min lies above a floor and whose bound, the least over
the intervals, is at most a level.

The field and the count search a grid by one stamp (`_search`). Within
interval j the body stays inside a disc of radius half_diagonal + vmax_j * h
around c_j, so a cell farther than that plus the level from every coarse
center has f* > level: it is never searched.

- `compute_swept_field` refines a cell when its bound is at most B =
  `field_band(resolution)`. Any other searched cell keeps its deepest sample
  and that sample's time: a value >= f* and > B. A cell never searched holds
  +inf and NaN. The zero contour, the swept area and the planner's
  clearances all lie inside the band.
- `count_swept_cells` needs only the f* <= 0 count, so its level is
  CERT_MARGIN. A cell with a positive bound is outside, one with a
  non-positive sample inside; only the rest are refined, to the field's
  values, so the count equals the field's. `min_time_distance` refines its
  point.
- `least_time_distance` needs only the least f*, which the least deepest
  sample so far bounds from above: a block's level is that, never below 0,
  plus CERT_MARGIN. Each point refines alone, so the least keeps its bits.

The bound is computed only where it can reach the level. The footprint lies
within R = half_diagonal of its center, so g_j >= |p - c_j| - R, and where
wmax_j h <= 1 the interval's bound is at least g_min (1 - wmax_j h / 2) -
kappa_j, kappa_j = (vmax_j + wmax_j (R + vmax_j h)) h / 2. A point whose
g_min exceeds G = max_j (level + kappa_j) / (1 - wmax_j h / 2), plus
CERT_MARGIN, has every bound above the level and keeps its deepest sample
unbounded (`_bound_reach`); every point is bounded when some interval has
wmax_j h > 1.

A refined point's starts are its sampled local minima ranked by value, ties
to the lower sample index, at most four, or sample 0 when it has none. If all
K samples are positive, every interval whose bound is <= 0 may hide a basin;
the scan flags it as it bounds it, and it is bisected: each half gets the
same bound and is dropped once the bound clears it; a midpoint where g <= 0,
or whose half is shorter than TIME_TOL and not cleared, is one more start.
All starts descend at once by Armijo-backtracked gradient descent on g over
[0, T]. A point keeps its deepest ranked result, ties to the lower rank,
unless that is positive and a bisected start ends deeper. So every cell's
sign is certified down to TIME_TOL: f* <= 0 comes with a time where g = f*,
and f* > 0 means the bound clears every interval but pieces shorter than
TIME_TOL, whose descents stay positive. In-band values are the deepest of the
basins searched.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .geometry import VehicleParams, footprint_sdf_batch, footprint_sdf_values, to_body_frame
from .worldmodel import Grid

# at vehicle-scale speeds a body passage spans several of 64 samples, so few
# intervals need bisecting
COARSE_SAMPLES = 64
ARMIJO_C = 1e-4
SHRINK = 0.5
TIME_TOL = 1e-4  # seconds; refinement stops below this step, bisection below this piece
MAX_REFINE_ITERS = 60
# meters; certificates must clear floating-point noise in g and its bound by this much
CERT_MARGIN = 1e-9
# points per block of the coarse scan. Blocked, the per-sample temporaries
# stay in cache (turn90's planned field on a 2-CPU Xeon with 4 MiB of L2 per
# core: 0.72 s of CPU against 1.01 s unblocked). The (64, SCAN_BLOCK) table
# is 4 MiB; 16,384 points took the same CPU within 1% and 5 MiB more peak
# RSS on straight's sweep.
SCAN_BLOCK = 8192


def field_band(resolution: float) -> float:
    """B, the level below which `compute_swept_field` refines: 0.5 m or two
    cells, whichever is larger. f* is 1-Lipschitz in p, so each cell of a
    square that the zero contour crosses has f* <= sqrt(2) * resolution < B."""
    return max(0.5, 2.0 * resolution)


class RegionTooSmall(Exception):
    """Raised when the requested field region does not contain the swept footprint."""


@dataclass
class SweptField(Grid):
    """Sampled f*(p) and arg-min times on a uniform grid, indexed [ix, iy]."""

    f_star: np.ndarray
    t_star: np.ndarray
    refined: np.ndarray  # (width, height): the cells whose f* and t* were refined


# The report records (SweepCount, AreaReport, sim.MetricsReport and the
# planner's PlanReport) are written as JSON objects, one key per field, except
# the fields marked UNWRITTEN: a nested record, trajectory or trace (each has
# its own file), a wall-clock time (it goes to timings.json only) and the
# swept-cell count (its area is written).
UNWRITTEN = {"written": False}


@dataclass
class SweepCount:
    """How `count_swept_cells` decided each cell; the four classes sum to `cells`."""

    cells: int
    skipped_far: int
    certified_inside: int
    certified_outside: int
    refined: int
    swept: int = dataclasses.field(metadata=UNWRITTEN)  # cells with f* <= 0


@dataclass
class AreaReport:
    swept_area: float
    baseline_area: float
    excess_area: float


class LinearPosePath:
    """Piecewise-linear pose path over given sample times; heading must be unwrapped.

    Provides the same sample()/total_time/arc_length surface as a spline
    trajectory so swept fields can be computed for driven pose logs.
    """

    def __init__(self, times: np.ndarray, poses: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self.poses = np.asarray(poses, dtype=float).reshape(-1, 3)
        if self.times.ndim != 1 or self.times.shape[0] != self.poses.shape[0]:
            raise ValueError("times and poses must have matching lengths")
        if self.times.shape[0] < 1:
            raise ValueError("need at least one sample")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def total_time(self) -> float:
        return float(self.times[-1])

    def sample(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        ts = np.clip(np.asarray(ts, dtype=float), self.times[0], self.times[-1])
        if order == 0:
            out = np.empty(ts.shape + (3,))
            for c in range(3):
                out[..., c] = np.interp(ts, self.times, self.poses[:, c])
            return out
        if order == 1:
            if self.times.shape[0] < 2:
                return np.zeros(ts.shape + (3,))
            seg = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, self.times.shape[0] - 2)
            dt = np.diff(self.times)[seg]
            return (self.poses[seg + 1] - self.poses[seg]) / dt[..., None]
        return np.zeros(ts.shape + (3,))

    def rate_bounds(self, ts: np.ndarray):
        """(vmax, wmax) per interval [ts[j], ts[j+1]]: the largest translational
        speed and |heading rate| of the linear pieces that interval overlaps."""
        ts = np.asarray(ts, dtype=float)
        n = self.times.shape[0]
        if n < 2:
            zero = np.zeros(ts.shape[0] - 1)
            return zero, zero
        dt = np.diff(self.times)
        d = np.diff(self.poses, axis=0)
        speed = np.hypot(d[:, 0], d[:, 1]) / dt
        rate = np.abs(d[:, 2]) / dt
        lo = np.clip(np.searchsorted(self.times, ts[:-1], side="right") - 1, 0, n - 2)
        hi = np.maximum(np.minimum(np.searchsorted(self.times, ts[1:], side="left"), n - 1), lo + 1)
        vmax = np.array([speed[a:b].max() for a, b in zip(lo, hi)])
        wmax = np.array([rate[a:b].max() for a, b in zip(lo, hi)])
        return vmax, wmax

    def arc_length(self) -> float:
        d = np.diff(self.poses[:, :2], axis=0)
        return float(np.hypot(d[:, 0], d[:, 1]).sum()) if d.size else 0.0


def _g_values(path, veh: VehicleParams, points: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """g(t_i) for each (point_i, t_i) pair; points (m,2), ts (m,)."""
    poses = path.sample(ts, 0)
    d = points - poses[:, :2]
    body = to_body_frame(d[:, 0], d[:, 1], np.cos(poses[:, 2]), np.sin(poses[:, 2]))
    return footprint_sdf_values(body, veh.length, veh.width)


def _g_and_slope(path, veh: VehicleParams, points: np.ndarray, ts: np.ndarray):
    """g(t) and dg/dt for per-point times. The slope chains the body-frame SDF
    gradient through the rigid transform rate: u' = R^T (J (p - c) w - c')."""
    poses = path.sample(ts, 0)
    twists = path.sample(ts, 1)
    d = points - poses[:, :2]
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    val, grad = footprint_sdf_batch(to_body_frame(d[:, 0], d[:, 1], c, s), veh.length, veh.width)
    w = twists[:, 2]
    # J (p - c) with J = [[0, 1], [-1, 0]]
    jx = d[:, 1]
    jy = -d[:, 0]
    u = to_body_frame(jx * w - twists[:, 0], jy * w - twists[:, 1], c, s)
    slope = grad[:, 0] * u[:, 0] + grad[:, 1] * u[:, 1]
    return val, slope


def min_time_distance(points: np.ndarray, path, veh: VehicleParams) -> tuple[np.ndarray, np.ndarray]:
    """(t_star, f_star) arrays: min_t F_SDF(p, t) over [0, path.total_time]
    for each row p of the (m, 2) `points`, by the search of the module
    docstring with every point refined. Each sign is certified down to
    TIME_TOL, and each value is the deepest of the basins searched; the
    endpoints are admissible. `path` must provide `rate_bounds`.
    """
    return _min_over_time(path, veh, np.asarray(points, dtype=float), _coarse_poses(path))[:2]


def least_time_distance(points: np.ndarray, path, veh: VehicleParams) -> float:
    """The least f* of `min_time_distance` over the (m, 2) `points`, bit for
    bit, +inf for none, refining only the points that can hold it."""
    lowest = math.inf

    def level(g_min):  # see the module docstring
        nonlocal lowest
        lowest = min(lowest, max(0.0, float(g_min.min()) + CERT_MARGIN))
        return lowest

    f = _min_over_time(path, veh, np.asarray(points, dtype=float), _coarse_poses(path), level)[1]
    return float(f.min(initial=math.inf))


def _coarse_poses(path):
    """The coarse scan's times over [0, path.total_time] with their poses as
    (ts, x, y, cos, sin), sampled once and shared by every point; None for a
    path of zero duration."""
    if path.total_time <= 0.0:
        return None
    ts = np.linspace(0.0, path.total_time, COARSE_SAMPLES)
    poses = path.sample(ts, 0)
    return ts, poses[:, 0], poses[:, 1], np.cos(poses[:, 2]), np.sin(poses[:, 2])


def _interval_bound(g_prev, g, dist_prev, vmax, wmax, h):
    """Lower bound on g over an interval h long, from its end values g_prev
    and g, the point's distance dist_prev from the first end's pose center,
    and the interval's rate bounds; never above g."""
    lip = vmax + wmax * (dist_prev + vmax * h)
    return np.minimum(0.5 * (g_prev + g) - 0.5 * lip * h, g)


def _bound_reach(level, vmax, wmax, h, radius):
    """G of the module docstring: every interval bound of a point whose
    deepest coarse sample exceeds it lies above `level`, the footprint lying
    within `radius` of its center; +inf when some interval has wmax h > 1."""
    wh = wmax * h
    if not np.all(wh <= 1.0):
        return math.inf
    kappa = 0.5 * (vmax + wmax * (radius + vmax * h)) * h
    return max(level, float(np.max((level + kappa) / (1.0 - 0.5 * wh)))) + CERT_MARGIN


def _scan(veh: VehicleParams, px: np.ndarray, py: np.ndarray, coarse, rates, level, floor: float, vals):
    """One block's coarse scan: g at the K coarse samples into vals, (K,
    px.size), and (g_min, j_min, bound, hidden, lvl), the deepest sample, its
    first index, the least interval bound, the (column, interval, distance
    from its first center) of every interval bound <= 0 where g_min > 0, and
    the block's level lvl = level(g_min). rates holds the intervals' (vmax,
    wmax, h). The bound is computed only where floor < g_min <= G of lvl
    (`_bound_reach`), one sample's columns at a time so that no temporary
    outgrows a row, and is +inf elsewhere."""
    _, xs, ys, cs, ss = coarse
    vmax, wmax, h = rates
    rows = np.empty((2, px.size))  # the body-frame coordinates
    g_min, j_min = np.empty(px.size), np.zeros(px.size, dtype=np.intp)
    for j in range(xs.size):
        body = to_body_frame(px - xs[j], py - ys[j], cs[j], ss[j], out=rows)
        footprint_sdf_values(body, veh.length, veh.width, out=vals[j])
        if j == 0:
            g_min[:] = vals[0]
        else:
            np.copyto(j_min, j, where=vals[j] < g_min)
            np.minimum(g_min, vals[j], out=g_min)
    lvl = level(g_min)
    reach = _bound_reach(lvl, vmax, wmax, h, veh.half_diagonal)
    cand = np.flatnonzero((g_min <= reach) & (g_min > floor))
    cx, cy = px[cand], py[cand]
    positive = g_min.take(cand) > 0.0
    g_prev = vals[0].take(cand)
    least = g_prev.copy()
    hidden = []
    for i in range(h.size):
        g = vals[i + 1].take(cand)
        dist = np.hypot(cx - xs[i], cy - ys[i])
        b = _interval_bound(g_prev, g, dist, vmax[i], wmax[i], h[i])
        np.minimum(least, b, out=least)
        k = np.flatnonzero((b <= 0.0) & positive)
        hidden.append((cand[k], np.full(k.size, i), dist[k]))
        g_prev = g
    bound = np.full(px.size, np.inf)
    bound[cand] = least
    return g_min, j_min, bound, tuple(np.concatenate(x) for x in zip(*hidden)), lvl


def _min_over_time(path, veh: VehicleParams, points: np.ndarray, coarse, level=lambda g_min: math.inf, floor=-math.inf):
    """(t, f, refined) per point: (t*, f*) where the deepest coarse sample is
    above `floor` and the coarse bound at most the level, every point by
    default, and elsewhere the deepest coarse sample and its time. The scan,
    the start table, the bisection and the descent of the module docstring.
    `level` gives a block's level, >= 0, from its points' deepest coarse
    samples; `path` must provide `rate_bounds`."""
    m = points.shape[0]
    if coarse is None or m == 0:
        t = np.zeros(m)
        return t, _g_values(path, veh, points, t), np.ones(m, dtype=bool)
    ts = coarse[0]
    h = np.diff(ts)
    vmax, wmax = path.rate_bounds(ts)
    t, f, refined = np.empty(m), np.empty(m), np.empty(m, dtype=bool)
    table = np.empty((ts.size, min(m, SCAN_BLOCK)))
    starts, pieces = [], []  # start rows (point, t, g); intervals to bisect
    for b in range(0, m, SCAN_BLOCK):
        px, py = points[b : b + SCAN_BLOCK, 0], points[b : b + SCAN_BLOCK, 1]
        vals = table[:, : px.size]
        g_min, j_min, bound, hidden, lvl = _scan(veh, px, py, coarse, (vmax, wmax, h), level, floor, vals)
        sel = (g_min > floor) & (bound <= lvl)
        refined[b : b + px.size], t[b : b + px.size], f[b : b + px.size] = sel, ts[j_min], g_min

        # Ranked starts: the selected points' finite sampled local minima by
        # value, ties to the lower index, at most four; else sample 0.
        cols = np.flatnonzero(sel)
        v = vals[:, cols]
        is_min = v < np.inf
        is_min[1:] &= v[1:] <= v[:-1]
        is_min[:-1] &= v[:-1] <= v[1:]
        j, c = np.nonzero(is_min)
        order = np.lexsort((j, v[j, c], c))
        j, c = j[order], c[order]
        top = np.arange(c.size) - np.searchsorted(c, c) < 4  # rank < 4
        none = np.flatnonzero(np.bincount(c, minlength=cols.size) == 0)
        j, c = np.concatenate([j[top], np.zeros_like(none)]), np.concatenate([c[top], none])
        starts.append((b + cols[c], ts[j], v[j, c]))

        # Intervals that may hide a basin, of selected points (bound <= 0 <= level).
        col, i, dist = hidden
        pieces.append((b + col, ts[i], ts[i + 1], vals[i, col], vals[i + 1, col], dist, vmax[i], wmax[i]))
        del v, is_min  # freed before the next block's scan
    del table, vals  # the table would otherwise stay resident through the descent

    n_ranked = sum(cell.size for cell, _, _ in starts)
    piece = [np.concatenate(x) for x in zip(*pieces)]
    while piece[0].size:
        # Halve every piece at its midpoint; each half gets the interval's bound.
        pc, ta, tb, ga, gb, da, vm, wm = piece
        tm = 0.5 * (ta + tb)
        pose = path.sample(tm, 0)
        dx, dy = points[pc, 0] - pose[:, 0], points[pc, 1] - pose[:, 1]
        body = to_body_frame(dx, dy, np.cos(pose[:, 2]), np.sin(pose[:, 2]), out=np.empty((2, pc.size)))
        gm = footprint_sdf_values(body, veh.length, veh.width)
        dm = np.hypot(dx, dy)
        left = _interval_bound(ga, gm, da, vm, wm, tm - ta) <= 0.0
        right = _interval_bound(gm, gb, dm, vm, wm, tb - tm) <= 0.0
        hit, short = gm <= 0.0, tm - ta < TIME_TOL
        start = hit | (short & (left | right))
        starts.append((pc[start], tm[start], gm[start]))
        left &= ~(hit | short)
        right &= ~(hit | short)
        piece = [np.concatenate([x[left], y[right]]) for x, y in
                 ((pc, pc), (ta, tm), (tm, tb), (ga, gm), (gm, gb), (da, dm), (vm, vm), (wm, wm))]

    cell, t0, f0 = (np.concatenate(x) for x in zip(*starts))
    rt, rf = _refine_times(points[cell], t0, f0, path, veh)
    # A point keeps its deepest ranked result, ties to the lower rank; a
    # bisected start replaces it only where that is positive and the bisected
    # one ends deeper. The stable sort keeps a point's equal results in row order.
    near = np.flatnonzero(refined)
    order = np.lexsort((rf, cell))
    best, best_ranked = (o[np.searchsorted(cell.take(o), near)] for o in (order, order[order < n_ranked]))
    best = np.where(rf[best_ranked] > 0.0, best, best_ranked)
    t[near], f[near] = rt[best], rf[best]
    return t, f, refined


def _refine_times(points: np.ndarray, t: np.ndarray, f: np.ndarray, path, veh: VehicleParams):
    """Armijo-backtracked descent on g(t) over [0, path.total_time] from
    per-point starts t with values f = g(t), first step one coarse interval;
    mutates and returns both.

    All points iterate in lockstep, each touching only its own state, so
    results do not depend on how points are batched. Every update of t comes
    with g at the new t, so f needs no final re-evaluation. The backtracking
    passes carry a compacted set of only the points still trying a step.
    """
    m = points.shape[0]
    t_end = path.total_time
    alpha = np.full(m, t_end / (COARSE_SAMPLES - 1))
    idx = np.arange(m)  # the points still descending
    for _ in range(MAX_REFINE_ITERS):
        if idx.size == 0:
            break
        t0 = t.take(idx)
        pts = points.take(idx, axis=0)
        g_val, slope = _g_and_slope(path, veh, pts, t0)
        f[idx] = g_val
        d = np.where(slope > 0.0, -1.0, 1.0)
        # Stationary or pressed against the boundary: done.
        flat = np.abs(slope) < 1e-12
        at_lo = (t0 <= 1e-15) & (d < 0.0)
        at_hi = (t0 >= t_end - 1e-15) & (d > 0.0)
        go = np.flatnonzero(~(flat | at_lo | at_hi))
        idx, t0, pts, g_val, slope, d = (x.take(go, axis=0) for x in (idx, t0, pts, g_val, slope, d))
        a = alpha.take(idx)
        t_new = t0.copy()
        f_new = g_val.copy()
        accepted = np.zeros(idx.size, dtype=bool)
        # The backtracking passes carry only the points still trying a step:
        # their positions in idx and their operands.
        live = np.flatnonzero(a > 1e-12)
        lt, la, ld, lp, lg, ls = (x.take(live, axis=0) for x in (t0, a, d, pts, g_val, np.abs(slope)))
        for _ in range(40):
            if live.size == 0:
                break
            tt = np.clip(lt + la * ld, 0.0, t_end)
            ft = _g_values(path, veh, lp, tt)
            ok = ft <= lg - ARMIJO_C * la * ls
            hit = np.flatnonzero(ok)
            acc = live.take(hit)
            t_new[acc] = tt.take(hit)
            f_new[acc] = ft.take(hit)
            accepted[acc] = True
            la = np.where(ok, la, la * SHRINK)
            a[live] = la
            rest = np.flatnonzero(~ok & (la > 1e-12))
            live, lt, la, ld, lp, lg, ls = (x.take(rest, axis=0) for x in (live, lt, la, ld, lp, lg, ls))
        moved = np.abs(t_new - t0)
        t[idx] = t_new
        f[idx] = f_new
        alpha[idx] = np.maximum(a * 2.0, 1e-9)
        idx = idx.take(np.flatnonzero(accepted & ~(moved < TIME_TOL)))
    return t, f


def footprint_bounds(path, veh: VehicleParams):
    """(xmin, ymin, xmax, ymax) of the footprint's circumscribed circle over
    512 poses evenly spaced in time."""
    poses = path.sample(np.linspace(0.0, path.total_time, 512), 0)
    r = veh.half_diagonal
    return (
        float(poses[:, 0].min()) - r,
        float(poses[:, 1].min()) - r,
        float(poses[:, 0].max()) + r,
        float(poses[:, 1].max()) + r,
    )


def auto_region(path, veh: VehicleParams, margin: float = 0.3):
    """Trajectory footprint bounding box inflated by vehicle length + margin."""
    xmin, ymin, xmax, ymax = footprint_bounds(path, veh)
    pad = veh.length + margin
    return (xmin - pad, ymin - pad, xmax + pad, ymax + pad)


def _region_grid(path, veh: VehicleParams, region, resolution: float) -> Grid:
    """The grid covering `region`, None for an auto-sized box. Raises
    RegionTooSmall unless the region holds `footprint_bounds(path, veh)`."""
    if region is None:
        region = auto_region(path, veh)
    xmin, ymin, xmax, ymax = (float(v) for v in region)
    if not (xmax > xmin and ymax > ymin):
        raise RegionTooSmall(f"degenerate region {region!r}")
    fx0, fy0, fx1, fy1 = footprint_bounds(path, veh)
    if fx0 < xmin or fy0 < ymin or fx1 > xmax or fy1 > ymax:
        raise RegionTooSmall("trajectory footprint leaves the requested region")
    return Grid.covering(region, resolution)


def _search(path, veh: VehicleParams, region, resolution: float, level: float, floor: float):
    """(grid, ix, iy, (t, f, refined)): the grid of `_region_grid` and
    `_min_over_time` at this level and floor over the cells (ix, iy) that the
    stamp of the module docstring keeps, ix outer, iy inner; every cell for a
    path of zero duration."""
    grid = _region_grid(path, veh, region, resolution)
    cx, cy = grid.axes()
    coarse = _coarse_poses(path)
    near = np.full((cx.size, cy.size), coarse is None)
    if coarse is not None:
        ts, xs, ys, _, _ = coarse
        h = np.diff(ts)
        vmax, _ = path.rate_bounds(ts)
        reach = veh.half_diagonal + vmax * h + level
        for j in range(h.size):
            ix0, ix1 = np.searchsorted(cx, [xs[j] - reach[j], xs[j] + reach[j]], side="left")
            iy0, iy1 = np.searchsorted(cy, [ys[j] - reach[j], ys[j] + reach[j]], side="left")
            dx = cx[ix0:ix1, None] - xs[j]
            dy = cy[None, iy0:iy1] - ys[j]
            near[ix0:ix1, iy0:iy1] |= dx * dx + dy * dy <= reach[j] * reach[j]
    ix, iy = np.nonzero(near)
    found = _min_over_time(path, veh, np.column_stack([cx[ix], cy[iy]]), coarse, lambda g_min: level, floor)
    return grid, ix, iy, found


def compute_swept_field(path, veh: VehicleParams, region=None, resolution: float = 0.05) -> SweptField:
    """Evaluate f* and t* on a uniform grid covering `region`, exactly in the
    band: a cell is refined unless its stamp or its coarse bound certifies f*
    > B = `field_band(resolution)`. A searched cell that is not refined keeps
    its deepest coarse sample and that sample's time, a value >= f* and > B;
    a cell never searched holds +inf and NaN.

    region is (xmin, ymin, xmax, ymax) or None for an auto-sized box, and
    must hold `footprint_bounds(path, veh)`.
    """
    level = field_band(resolution) + CERT_MARGIN
    grid, ix, iy, (t, f, refined) = _search(path, veh, region, resolution, level, -math.inf)
    shape = (grid.width, grid.height)
    field = SweptField(**vars(grid), f_star=np.full(shape, np.inf), t_star=np.full(shape, np.nan),
                       refined=np.zeros(shape, dtype=bool))
    field.f_star[ix, iy], field.t_star[ix, iy], field.refined[ix, iy] = f, t, refined
    return field


def count_swept_cells(path, veh: VehicleParams, region, resolution: float) -> SweepCount:
    """Number of f* <= 0 cells of `compute_swept_field(path, veh, region,
    resolution)`, without computing the field.

    Cells are certified from the stamp and the coarse scan (see the module
    docstring) and only the undecided ones are refined, by the same search
    and coarse poses as the field; their results do not depend on how cells
    are batched, so the count is exact. `path` must provide `rate_bounds`.
    """
    grid, ix, iy, (_, f, refined) = _search(path, veh, region, resolution, CERT_MARGIN, -CERT_MARGIN)
    cells, n_refined = grid.width * grid.height, int(np.count_nonzero(refined))
    # An unrefined cell holds its deepest sample: <= -CERT_MARGIN inside, and
    # otherwise its bound is > CERT_MARGIN.
    inside = int(np.count_nonzero(~refined & (f <= -CERT_MARGIN)))
    return SweepCount(
        cells=cells,
        skipped_far=cells - ix.size,
        certified_inside=inside,
        certified_outside=ix.size - inside - n_refined,
        refined=n_refined,
        swept=int(np.count_nonzero(f <= 0.0)),
    )


def swept_area(field: SweptField) -> float:
    """Area of the f* <= 0 sublevel set, counted by cell centers."""
    return float(np.count_nonzero(field.f_star <= 0.0)) * field.resolution**2


def excess_area(field: SweptField, path, veh: VehicleParams) -> AreaReport:
    """The field's swept area against the ribbon baseline of `path`."""
    return ribbon_report(swept_area(field), path, veh)


def ribbon_report(area: float, path, veh: VehicleParams) -> AreaReport:
    """Swept area minus the ribbon baseline: width * center-path arc length
    plus one footprint, the minimum any rigid translation along the path must
    cover."""
    baseline = veh.width * path.arc_length() + veh.length * veh.width
    return AreaReport(swept_area=area, baseline_area=baseline, excess_area=area - baseline)
