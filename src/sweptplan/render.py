"""Static SVG rendering of scenes, trajectories, and swept-field contours.

Everything is emitted with fixed 4-decimal formatting so identical inputs
produce byte-identical files. No external drawing library is used; the
document is assembled as a list of shape strings in world coordinates with
the y axis flipped for screen display.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import VehicleParams
from .sweptfield import SweptField
from .worldmodel import GridMap

N_FOOTPRINTS = 10  # footprint outlines drawn at evenly spaced trajectory times


def _fmt(v: float) -> str:
    s = f"{v:.4f}"
    # normalize negative zero so equal inputs cannot differ in sign display
    if s == "-0.0000":
        s = "0.0000"
    return s


def _pair(p, sep: str = ",") -> str:
    return f"{_fmt(p[0])}{sep}{_fmt(p[1])}"


def _occupancy_rects(grid: GridMap) -> list[tuple[float, float, float, float]]:
    """Merge occupied cells into per-row run rectangles (x, y, w, h)."""
    rects = []
    res = grid.resolution
    ox, oy = grid.origin
    for iy in range(grid.height):
        row = np.concatenate([[False], grid.occupancy[:, iy], [False]])
        ends = np.flatnonzero(row[1:] != row[:-1]).tolist()  # run starts and stops, alternating
        rects += [(ox + a * res, oy + iy * res, (b - a) * res, res) for a, b in zip(ends[::2], ends[1::2])]
    return rects


def _interp(pa, va, pb, vb):
    t = va / (va - vb)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


# Saddle cells split by the cell-center average: (case, center inside) -> the
# two segments, as pairs of indices into the edges (bottom, right, top, left).
_SADDLE_SEGMENTS = {
    (5, True): ((3, 0), (2, 1)),
    (5, False): ((3, 2), (0, 1)),
    (10, True): ((0, 1), (2, 3)),
    (10, False): ((0, 3), (2, 1)),
}


def _contour_segments(field: SweptField, level: float = 0.0):
    """Marching-squares line segments of the f* = level isocontour.

    The case codes of all cells come from one vectorized pass; only the
    mixed cells (neither all inside nor all outside) are visited, in the
    same (ix outer, iy inner) order as a full scan.
    """
    f = field.f_star - level
    ox = field.origin[0] + 0.5 * field.resolution
    oy = field.origin[1] + 0.5 * field.resolution
    res = field.resolution
    inside = f <= 0
    codes = (
        inside[:-1, :-1] * 1
        | inside[1:, :-1] * 2
        | inside[1:, 1:] * 4
        | inside[:-1, 1:] * 8
    )
    segs = []
    for ix, iy in np.argwhere((codes != 0) & (codes != 15)).tolist():
        case = int(codes[ix, iy])
        x0 = ox + ix * res
        x1 = x0 + res
        v00 = f[ix, iy]
        v10 = f[ix + 1, iy]
        v11 = f[ix + 1, iy + 1]
        v01 = f[ix, iy + 1]
        y0 = oy + iy * res
        y1 = y0 + res
        p00, p10, p11, p01 = (x0, y0), (x1, y0), (x1, y1), (x0, y1)
        bottom = _interp(p00, v00, p10, v10) if (case & 1) != (case >> 1 & 1) else None
        right = _interp(p10, v10, p11, v11) if (case >> 1 & 1) != (case >> 2 & 1) else None
        top = _interp(p01, v01, p11, v11) if (case >> 3 & 1) != (case >> 2 & 1) else None
        left = _interp(p00, v00, p01, v01) if (case & 1) != (case >> 3 & 1) else None
        edges = (bottom, right, top, left)
        if case in (5, 10):
            center_inside = bool((v00 + v10 + v11 + v01) <= 0.0)
            segs.extend((edges[a], edges[b]) for a, b in _SADDLE_SEGMENTS[case, center_inside])
        else:
            segs.append(tuple(p for p in edges if p is not None))
    return segs


def render_scene(
    out_path: str,
    veh: VehicleParams,
    traj,
    grid: GridMap,
    field: SweptField,
    bounds,
) -> None:
    """Write an SVG of the scene inside the view box bounds (xmin, ymin, xmax, ymax).

    Layers, back to front: occupied cells, swept-field zero contour, vehicle
    footprints at N_FOOTPRINTS evenly spaced trajectory times, center path.
    """
    xmin, ymin, xmax, ymax = (float(b) for b in bounds)
    w, h = xmax - xmin, ymax - ymin

    def T(x, y):
        return x - xmin, ymax - y

    parts = []
    px_w = 900
    px_h = max(1, int(round(px_w * h / w))) if w > 0 else 900
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{px_w}" height="{px_h}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">'
    )
    parts.append(f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff"/>')

    for rx, ry, rw, rh in _occupancy_rects(grid):
        tx, ty = T(rx, ry + rh)
        parts.append(
            f'<rect x="{_fmt(tx)}" y="{_fmt(ty)}" width="{_fmt(rw)}" '
            f'height="{_fmt(rh)}" fill="#555555"/>'
        )

    segs = _contour_segments(field)
    if segs:
        d = "".join(f"M{_pair(T(*a), ' ')}L{_pair(T(*b), ' ')}" for a, b in segs)
        parts.append(
            f'<path d="{d}" stroke="#2060c0" stroke-width="0.04" fill="none"/>'
        )

    hl, hw = veh.length / 2.0, veh.width / 2.0
    corners = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    for x, y, phi in traj.sample(np.linspace(0.0, traj.total_time, N_FOOTPRINTS), 0).tolist():
        c, s = math.cos(phi), math.sin(phi)
        vp = " ".join(_pair(T(x + c * bx - s * by, y + s * bx + c * by)) for bx, by in corners)
        parts.append(
            f'<polygon points="{vp}" stroke="#999999" '
            f'stroke-width="0.03" fill="none"/>'
        )
    dense = traj.sample(np.linspace(0.0, traj.total_time, 400), 0)
    path_pts = " ".join(_pair(T(p[0], p[1])) for p in dense)
    parts.append(
        f'<polyline points="{path_pts}" stroke="#c03030" stroke-width="0.05" fill="none"/>'
    )

    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
