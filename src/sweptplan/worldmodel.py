"""Occupancy world model: rasterization, grid search, and heading estimation.

A scene is described by box/disc obstacles rasterized onto a uniform grid
(cell occupied iff its center lies inside a shape). A clearance-inflated
8-connected A* provides the coarse route; arc-length resampling plus
finite-difference headings turn that route into the pose sequence the
trajectory optimizer is seeded with.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geometry import wrap_angle


class EmptyRegion(Exception):
    """Raised when the requested raster bounds are degenerate."""


class NoPath(Exception):
    """Raised when the start and goal cells are not connected."""


class StartOccupied(Exception):
    pass


class GoalOccupied(Exception):
    pass


class DegeneratePath(Exception):
    """Raised when a path is too short to resample at the requested spacing."""


@dataclass
class Box:
    """Axis-aligned box obstacle, inclusive bounds."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return (
            (pts[:, 0] >= self.xmin)
            & (pts[:, 0] <= self.xmax)
            & (pts[:, 1] >= self.ymin)
            & (pts[:, 1] <= self.ymax)
        )


@dataclass
class Disc:
    """Disc obstacle, boundary inclusive."""

    cx: float
    cy: float
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return (pts[:, 0] - self.cx) ** 2 + (pts[:, 1] - self.cy) ** 2 <= self.radius**2


@dataclass
class Grid:
    """Square cells of side `resolution`, `width` along x by `height` along
    y, indexed [ix, iy] from the low corner `origin`. Every grid of the
    package, the occupancy raster and the swept field, takes its cell counts
    from `covering` and its cell centers from `axes`."""

    origin: np.ndarray
    resolution: float
    width: int
    height: int

    @staticmethod
    def covering(bounds, resolution: float) -> Grid:
        """The grid from (xmin, ymin) with the fewest cells that cover bounds (xmin, ymin, xmax, ymax)."""
        xmin, ymin, xmax, ymax = (float(v) for v in bounds)
        width, height = (int(math.ceil(extent / resolution)) for extent in (xmax - xmin, ymax - ymin))
        return Grid(np.array([xmin, ymin]), resolution, width, height)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(cx, cy), the cell-center coordinates along x and along y."""
        cx, cy = (o + (np.arange(n) + 0.5) * self.resolution for o, n in zip(self.origin, (self.width, self.height)))
        return cx, cy

    def centers(self) -> np.ndarray:
        """Every cell center as (width * height, 2) rows, ix outer, iy inner."""
        cx, cy = self.axes()
        return np.column_stack([np.repeat(cx, self.height), np.tile(cy, self.width)])


@dataclass
class GridMap(Grid):
    """Uniform occupancy grid. occupancy is indexed [ix, iy], x fastest in world."""

    occupancy: np.ndarray
    obstacle_points: np.ndarray

    def world_to_cell(self, p: np.ndarray) -> tuple[int, int]:
        c = np.floor((np.asarray(p, dtype=float) - self.origin) / self.resolution).astype(int)
        return int(c[0]), int(c[1])

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.width and 0 <= iy < self.height


def rasterize_obstacles(shapes, bounds, resolution: float) -> GridMap:
    """Rasterize box/disc shapes onto a grid; a cell is occupied iff its center is inside a shape.

    bounds is (xmin, ymin, xmax, ymax). obstacle_points collects the centers of
    occupied cells in row-major (ix, then iy) order.
    """
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    if not (xmax > xmin and ymax > ymin) or resolution <= 0.0:
        raise EmptyRegion(f"degenerate raster region {bounds!r} at resolution {resolution}")
    grid = Grid.covering(bounds, resolution)
    centers = grid.centers()
    occ = np.zeros(centers.shape[0], dtype=bool)
    for shape in shapes:
        occ |= shape.contains(centers)
    return GridMap(**vars(grid), occupancy=occ.reshape(grid.width, grid.height), obstacle_points=centers[occ])


def inflate_occupancy(grid: GridMap, clearance: float) -> np.ndarray:
    """Occupancy after blocking every cell within `clearance` of an occupied cell center.

    An OR over the integer cell offsets (dx, dy) with
    sqrt(dx*dx + dy*dy) * resolution <= clearance. For each dy the admitted
    dx form one run |dx| <= r, applied as a window count along x.
    """
    occ = grid.occupancy
    if clearance <= 0.0 or not occ.any():
        return occ.copy()
    w, h = occ.shape
    # below[i]: occupied cells with x index < i, per y
    below = np.zeros((w + 1, h), dtype=np.intp)
    np.cumsum(occ, axis=0, out=below[1:])
    ix = np.arange(w)
    blocked = np.zeros_like(occ)
    n = int(clearance / grid.resolution) + 1  # no admitted offset is longer
    r = min(n, w)
    for dy in range(min(n, h - 1) + 1):
        # r only shrinks as |dy| grows
        while r >= 0 and math.sqrt(r * r + dy * dy) * grid.resolution > clearance:
            r -= 1
        if r < 0:
            break
        near = below[np.minimum(ix + r + 1, w)] > below[np.maximum(ix - r, 0)]
        for s in {dy, -dy}:
            blocked[:, max(s, 0) : h + min(s, 0)] |= near[:, max(-s, 0) : h + min(-s, 0)]
    return blocked


_NEIGHBORS = (
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
)


def astar_plan(grid: GridMap, start_xy, goal_xy, clearance: float = 0.0) -> np.ndarray:
    """8-connected A* over the clearance-inflated grid.

    Edge costs are Euclidean center-to-center distances, the heuristic is the
    Euclidean distance to the goal cell (admissible and consistent), so the
    returned path cost is optimal. Returns the world coordinates of the path
    cell centers, shape (m, 2).
    """
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
    while open_heap:
        _, _, cur = heapq.heappop(open_heap)
        if closed[cur]:
            continue
        closed[cur] = True
        if cur == goal:
            break
        cx, cy = cur
        for dx, dy in _NEIGHBORS:
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


@dataclass
class InitialTrajectory:
    """Arc-length resampled route with estimated headings.

    poses is (m, 3) rows (x, y, phi); headings are unwrapped so consecutive
    differences never exceed pi, which keeps downstream spline fitting free of
    branch jumps.
    """

    poses: np.ndarray

    def __post_init__(self) -> None:
        self.poses = np.asarray(self.poses, dtype=float)

    @property
    def count(self) -> int:
        return self.poses.shape[0]


def _arc_resample(path: np.ndarray, spacing: float):
    deltas = np.diff(path, axis=0)
    seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
    s = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = float(s[-1])
    if total < spacing:
        raise DegeneratePath(f"path length {total:.3f} m is below the resample spacing {spacing} m")
    # At least two segments so the optimizer always sees an interior waypoint.
    n_seg = max(2, int(round(total / spacing)))
    targets = np.linspace(0.0, total, n_seg + 1)
    out = np.empty((n_seg + 1, 2))
    out[:, 0] = np.interp(targets, s, path[:, 0])
    out[:, 1] = np.interp(targets, s, path[:, 1])
    return out


def estimate_headings(path: np.ndarray, spacing: float = 1.0) -> InitialTrajectory:
    """Resample a polyline at uniform arc length and attach tangent headings.

    Headings come from central differences of the resampled points (one-sided
    at the ends) and are unwrapped into a continuous sequence.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 2 or path.shape[0] < 2:
        raise DegeneratePath("need at least two path points")
    pts = _arc_resample(path, spacing)
    m = pts.shape[0]
    phi = np.empty(m)
    phi[0] = math.atan2(pts[1, 1] - pts[0, 1], pts[1, 0] - pts[0, 0])
    phi[-1] = math.atan2(pts[-1, 1] - pts[-2, 1], pts[-1, 0] - pts[-2, 0])
    for j in range(1, m - 1):
        phi[j] = math.atan2(pts[j + 1, 1] - pts[j - 1, 1], pts[j + 1, 0] - pts[j - 1, 0])
    # Unwrap so no consecutive jump exceeds pi.
    for j in range(1, m):
        phi[j] = phi[j - 1] + wrap_angle(phi[j] - phi[j - 1])
    poses = np.column_stack([pts, phi])
    return InitialTrajectory(poses=poses)
