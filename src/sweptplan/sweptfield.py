"""Swept-volume field: per-point minimum footprint distance over a trajectory.

For a query point p and a pose path P(t), g(t) = F_SDF(p, P(t)) is the
footprint distance at time t. Its minimum over the trajectory duration,
f*(p) = min_t g(t), is negative exactly where the vehicle body passes, so the
f* <= 0 sublevel set is the swept area. Every point is scanned at K coarse
times, whose poses are sampled once per call; cells are pure functions of the
inputs, so how they are batched does not change the output.

Between coarse samples j and j+1, h apart, g changes no faster than
L_j = vmax_j + wmax_j * (|p - c_j| + vmax_j * h), with vmax_j and wmax_j the
path's `rate_bounds` on speed and |heading rate| over the interval and c_j
the sampled pose center, so min g >= (g_j + g_{j+1}) / 2 - L_j * h / 2 there.
`_scan` walks the K samples once and keeps three running minima per point:
the deepest coarse value, the first sample index that reaches it, and this
certified bound, the least over the intervals. Both consumers use it:

- `compute_swept_field` is exact only in a band. A cell is refined when its
  bound is at most B = `field_band(resolution)`. Any other cell keeps its
  deepest coarse sample and that sample's time, unrefined: a value >= the
  refined f* and > B. The zero contour, the swept area and the planner's
  clearances all lie inside the band.
- When only the f* <= 0 cell count is needed (the driven path's swept area),
  `count_swept_cells` decides most cells from the scan alone. A cell whose
  bound is positive is certified outside; one with a non-positive coarse
  sample is inside, because refinement only ever accepts decreases from the
  deepest sample. Cells farther than half_diagonal + vmax_j * h from every
  coarse center skip the SDF. The rest are refined exactly as in
  `compute_swept_field`, so the count equals that field's count.

Refinement (`_min_time_batch`) runs Armijo-backtracked gradient descent on g
over [0, T] from one table of starts: per point its sampled local minima
ranked by value, ties to the lower sample index, at most four, or sample 0
when it has none. The first index of the deepest sample is itself a sampled
local minimum, so the rank-0 start is the scan's (g_min, j_min). The table
descends in one call; a point keeps its deepest result, ties to the lower
rank. Each backtracking pass evaluates only the points still trying a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import VehicleParams, footprint_sdf_batch, footprint_sdf_values, to_body_frame

# 64 samples keep basins narrower than the between-sample spacing from
# hiding: at vehicle-scale speeds a body passage spans several samples
COARSE_SAMPLES = 64
ARMIJO_C = 1e-4
SHRINK = 0.5
TIME_TOL = 1e-4  # seconds; refinement stops below this step size
MAX_REFINE_ITERS = 60
# meters; certificates must clear floating-point noise in g and its bound by this much
CERT_MARGIN = 1e-9
# points per block of the coarse scan. Each coarse sample allocates and
# frees about twenty per-point temporaries; at this size they stay in cache
# and are reused, where whole-grid ones fault in fresh pages every sample
# (turn90's planned field, one call per fresh process on a 2-CPU Xeon with
# 4 MiB of L2 per core: 0.72 s of CPU against 1.01 s unblocked).
SCAN_BLOCK = 16384
# cell classes of the certified count
FAR, INSIDE, OUTSIDE, REFINED = range(4)


def field_band(resolution: float) -> float:
    """B, the level below which `compute_swept_field` refines: 0.5 m or two
    cells, whichever is larger. f* is 1-Lipschitz in p, so each cell of a
    square that the zero contour crosses has f* <= sqrt(2) * resolution < B."""
    return max(0.5, 2.0 * resolution)


class RegionTooSmall(Exception):
    """Raised when the requested field region does not contain the swept footprint."""


@dataclass
class SweptField:
    """Sampled f*(p) and arg-min times on a uniform grid, indexed [ix, iy]."""

    origin: np.ndarray
    resolution: float
    width: int
    height: int
    f_star: np.ndarray
    t_star: np.ndarray
    # (width, height): the cells whose f* and t* were refined; None when unknown,
    # as for a field loaded from field.csv
    refined: np.ndarray | None = None

    def cell_centers(self) -> np.ndarray:
        ix, iy = np.meshgrid(np.arange(self.width), np.arange(self.height), indexing="ij")
        return self.origin + (np.stack([ix.ravel(), iy.ravel()], axis=1) + 0.5) * self.resolution


@dataclass
class SweepCount:
    """How `count_swept_cells` decided each cell; the four classes sum to `cells`."""

    cells: int
    skipped_far: int
    certified_inside: int
    certified_outside: int
    refined: int
    swept: int  # cells with f* <= 0


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


def min_time_distance(p: np.ndarray, path, veh: VehicleParams) -> tuple[float, float]:
    """Globalized search for min_t F_SDF(p, t) over [0, path.total_time].

    Returns (t_star, f_star). A K-sample coarse scan collects candidate
    basins (its local minima), Armijo-backtracked descent on g(t) refines
    the best few of them, and the deepest refined minimizer wins; the
    endpoints are admissible.
    """
    pts = np.asarray(p, dtype=float).reshape(1, 2)
    t, f = _min_time_batch(pts, path, veh, _coarse_poses(path))
    return float(t[0]), float(f[0])


def _coarse_poses(path):
    """The coarse scan's times over [0, path.total_time] with their poses as
    (ts, x, y, cos, sin), sampled once and shared by every point; None for a
    path of zero duration."""
    if path.total_time <= 0.0:
        return None
    ts = np.linspace(0.0, path.total_time, COARSE_SAMPLES)
    poses = path.sample(ts, 0)
    return ts, poses[:, 0], poses[:, 1], np.cos(poses[:, 2]), np.sin(poses[:, 2])


def _min_time_batch(points: np.ndarray, path, veh: VehicleParams, coarse):
    """(t*, f*) per point from the coarse scan and candidate refinement."""
    m = points.shape[0]
    if coarse is None:
        ts = np.zeros(m)
        return ts, _g_values(path, veh, points, ts)
    grid_ts, xs, ys, cs, ss = coarse
    k = grid_ts.shape[0]
    px, py = points[:, 0], points[:, 1]
    vals = np.empty((k, m))
    for j in range(k):
        body = to_body_frame(px - xs[j], py - ys[j], cs[j], ss[j])
        vals[j] = footprint_sdf_values(body, veh.length, veh.width)

    # Every sampled local minimum is a candidate basin; the sample ordering by
    # value can differ from the ordering of the true basin depths, so the best
    # four per point, in rank order, and sample 0 for a point with none, form
    # one table of starts, each refined independently.
    is_min = np.ones((k, m), dtype=bool)
    is_min[1:] &= vals[1:] <= vals[:-1]
    is_min[:-1] &= vals[:-1] <= vals[1:]
    j, cell = np.nonzero(is_min)
    v = vals[j, cell]
    finite = v < np.inf
    j, cell, v = j[finite], cell[finite], v[finite]
    order = np.lexsort((j, v, cell))
    j, cell = j[order], cell[order]
    top = np.arange(cell.size) - np.searchsorted(cell, cell) < 4  # rank < 4
    none = np.setdiff1d(np.arange(m), cell)
    j = np.concatenate([j[top], np.zeros_like(none)])
    cell = np.concatenate([cell[top], none])
    f = vals[j, cell]
    del vals  # the (64, m) table would otherwise stay resident through the descent
    t, f = _refine_times(points[cell], grid_ts[j], f, path, veh)
    # The stable sort keeps a point's equal results in rank order.
    order = np.lexsort((f, cell))
    best = order[np.searchsorted(cell[order], np.arange(m))]
    return t[best], f[best]


def _interval_bound(g_prev, g, dist_prev, vmax: float, wmax: float, h: float):
    """Lower bound on g over a coarse interval h long, from its end values
    g_prev and g, the point's distance dist_prev from the first sample's pose
    center, and the interval's rate bounds; never above g."""
    lip = vmax + wmax * (dist_prev + vmax * h)
    return np.minimum(0.5 * (g_prev + g) - 0.5 * lip * h, g)


def _scan(path, veh: VehicleParams, points: np.ndarray, coarse):
    """(g_min, j_min, bound) per point from one pass over the coarse samples:
    the deepest coarse value, the first sample index that reaches it, and the
    certified lower bound on min g over the trajectory, never above g_min.

    Keeps running minima only, so memory stays linear in the number of points
    whatever the sample count; points are scanned SCAN_BLOCK at a time.
    `path` must provide `rate_bounds`.
    """
    ts, xs, ys, cs, ss = coarse
    h = np.diff(ts)
    vmax, wmax = path.rate_bounds(ts)
    m = points.shape[0]
    g_min, j_min, bound = np.empty(m), np.zeros(m, dtype=np.intp), np.empty(m)
    for b in range(0, m, SCAN_BLOCK):
        blk = slice(b, b + SCAN_BLOCK)
        px, py = points[blk, 0], points[blk, 1]
        gm, jm, lo = g_min[blk], j_min[blk], bound[blk]
        for j in range(ts.size):
            dx = px - xs[j]
            dy = py - ys[j]
            g = footprint_sdf_values(to_body_frame(dx, dy, cs[j], ss[j]), veh.length, veh.width)
            if j == 0:
                gm[:] = g
                lo[:] = g
            else:
                i = j - 1  # the interval from sample j-1 to sample j
                np.copyto(jm, j, where=g < gm)
                np.minimum(gm, g, out=gm)
                np.minimum(lo, _interval_bound(g_prev, g, dist_prev, vmax[i], wmax[i], h[i]), out=lo)
            g_prev = g
            dist_prev = np.hypot(dx, dy)
    return g_min, j_min, bound


def _refine_times(
    points: np.ndarray,
    t: np.ndarray,
    f: np.ndarray,
    path,
    veh: VehicleParams,
):
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


def _region_grid(path, veh: VehicleParams, region, resolution: float):
    """(origin, width, height, cx, cy) of the grid over `region`, None for an
    auto-sized box; cx and cy are the cell-center coordinates along x and y.
    Raises RegionTooSmall unless the region holds `footprint_bounds(path, veh)`."""
    if region is None:
        region = auto_region(path, veh)
    xmin, ymin, xmax, ymax = (float(v) for v in region)
    if not (xmax > xmin and ymax > ymin):
        raise RegionTooSmall(f"degenerate region {region!r}")
    fx0, fy0, fx1, fy1 = footprint_bounds(path, veh)
    if fx0 < xmin or fy0 < ymin or fx1 > xmax or fy1 > ymax:
        raise RegionTooSmall("trajectory footprint leaves the requested region")
    width = int(math.ceil((xmax - xmin) / resolution))
    height = int(math.ceil((ymax - ymin) / resolution))
    origin = np.array([xmin, ymin])
    cx = origin[0] + (np.arange(width) + 0.5) * resolution
    cy = origin[1] + (np.arange(height) + 0.5) * resolution
    return origin, width, height, cx, cy


def compute_swept_field(path, veh: VehicleParams, region=None, resolution: float = 0.05) -> SweptField:
    """Evaluate f* and t* on a uniform grid covering `region`, exactly in the
    band: a cell is refined unless its coarse bound certifies f* > B =
    `field_band(resolution)`, and otherwise keeps its deepest coarse sample
    and that sample's time, a value >= the refined f* and > B.

    region is (xmin, ymin, xmax, ymax) or None for an auto-sized box, and
    must hold `footprint_bounds(path, veh)`.
    """
    origin, width, height, cx, cy = _region_grid(path, veh, region, resolution)
    pts = np.column_stack([np.repeat(cx, height), np.tile(cy, width)])
    coarse = _coarse_poses(path)
    if coarse is None:
        f, t = np.empty(pts.shape[0]), np.empty(pts.shape[0])
        refined = np.ones(pts.shape[0], dtype=bool)
    else:
        f, j_min, bound = _scan(path, veh, pts, coarse)
        t = coarse[0][j_min]
        refined = bound <= field_band(resolution) + CERT_MARGIN
    near = np.flatnonzero(refined)
    t[near], f[near] = _min_time_batch(pts[near], path, veh, coarse)
    return SweptField(
        origin=origin,
        resolution=resolution,
        width=width,
        height=height,
        f_star=f.reshape(width, height),
        t_star=t.reshape(width, height),
        refined=refined.reshape(width, height),
    )


def _certify(path, veh: VehicleParams, cx: np.ndarray, cy: np.ndarray, coarse) -> np.ndarray:
    """Class of every cell of the (cx x cy) grid, shape (cx.size, cy.size):
    FAR, INSIDE, OUTSIDE, or REFINED where the coarse scan cannot decide.
    Only the cells that are not FAR are scanned."""
    ts, xs, ys, cs, ss = coarse
    h = np.diff(ts)
    vmax, wmax = path.rate_bounds(ts)
    # Within interval j the body stays inside a disc of this radius around c_j.
    reach = veh.half_diagonal + vmax * h + CERT_MARGIN
    near = np.zeros((cx.size, cy.size), dtype=bool)
    for j in range(h.size):
        ix0, ix1 = np.searchsorted(cx, [xs[j] - reach[j], xs[j] + reach[j]], side="left")
        iy0, iy1 = np.searchsorted(cy, [ys[j] - reach[j], ys[j] + reach[j]], side="left")
        dx = cx[ix0:ix1, None] - xs[j]
        dy = cy[None, iy0:iy1] - ys[j]
        near[ix0:ix1, iy0:iy1] |= dx * dx + dy * dy <= reach[j] * reach[j]

    ix, iy = np.nonzero(near)
    g_min, _, bound = _scan(path, veh, np.column_stack([cx[ix], cy[iy]]), coarse)
    cls = np.full((cx.size, cy.size), FAR, dtype=np.int8)
    cls[ix, iy] = np.where(g_min <= -CERT_MARGIN, INSIDE, np.where(bound > CERT_MARGIN, OUTSIDE, REFINED))
    return cls


def count_swept_cells(path, veh: VehicleParams, region, resolution: float) -> SweepCount:
    """Number of f* <= 0 cells of `compute_swept_field(path, veh, region,
    resolution)`, without computing the field.

    Cells are certified from the coarse scan (see the module docstring) and
    only the undecided ones are refined, by the same code and coarse poses as
    the field; their results do not depend on how cells are batched, so the
    count is exact. The bound needs rate bounds, so `path` must provide
    `rate_bounds`.
    """
    _, width, height, cx, cy = _region_grid(path, veh, region, resolution)
    coarse = _coarse_poses(path)
    if coarse is None:
        cls = np.full((width, height), REFINED, dtype=np.int8)
    else:
        cls = _certify(path, veh, cx, cy, coarse)
    ix, iy = np.nonzero(cls == REFINED)
    _, f = _min_time_batch(np.column_stack([cx[ix], cy[iy]]), path, veh, coarse)
    n = np.bincount(cls.ravel(), minlength=4)
    return SweepCount(
        cells=width * height,
        skipped_far=int(n[FAR]),
        certified_inside=int(n[INSIDE]),
        certified_outside=int(n[OUTSIDE]),
        refined=int(n[REFINED]),
        swept=int(n[INSIDE]) + int(np.count_nonzero(f <= 0.0)),
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
