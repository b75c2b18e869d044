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


def _occupancy_rects(grid: GridMap) -> list[tuple[float, float, float, float]]:
    """Merge occupied cells into per-row run rectangles (x, y, w, h)."""
    rects = []
    res = grid.resolution
    ox, oy = grid.origin
    occ = grid.occupancy
    for iy in range(grid.height):
        ix = 0
        while ix < grid.width:
            if not occ[ix, iy]:
                ix += 1
                continue
            run = ix
            while run < grid.width and occ[run, iy]:
                run += 1
            rects.append((ox + ix * res, oy + iy * res, (run - ix) * res, res))
            ix = run
    return rects


def _interp(pa, va, pb, vb):
    t = va / (va - vb)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


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
        if case in (5, 10):
            # saddle: split by the cell-center average
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


def _footprint_points(pose: np.ndarray, veh: VehicleParams) -> str:
    hl, hw = veh.length / 2.0, veh.width / 2.0
    c, s = math.cos(pose[2]), math.sin(pose[2])
    pts = []
    for bx, by in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
        pts.append((pose[0] + c * bx - s * by, pose[1] + s * bx + c * by))
    return " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)


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
        d = []
        for (ax, ay), (bx, by) in segs:
            a = T(ax, ay)
            b = T(bx, by)
            d.append(f"M{_fmt(a[0])} {_fmt(a[1])}L{_fmt(b[0])} {_fmt(b[1])}")
        parts.append(
            f'<path d="{"".join(d)}" stroke="#2060c0" stroke-width="0.04" fill="none"/>'
        )

    for pose in traj.sample(np.linspace(0.0, traj.total_time, N_FOOTPRINTS), 0):
        pts = _footprint_points(pose, veh)
        # reproject into view coordinates
        vp = []
        for pair in pts.split(" "):
            sx, sy = pair.split(",")
            tx, ty = T(float(sx), float(sy))
            vp.append(f"{_fmt(tx)},{_fmt(ty)}")
        parts.append(
            f'<polygon points="{" ".join(vp)}" stroke="#999999" '
            f'stroke-width="0.03" fill="none"/>'
        )
    dense = traj.sample(np.linspace(0.0, traj.total_time, 400), 0)
    path_pts = " ".join(f"{_fmt(T(p[0], p[1])[0])},{_fmt(T(p[0], p[1])[1])}" for p in dense)
    parts.append(
        f'<polyline points="{path_pts}" stroke="#c03030" stroke-width="0.05" fill="none"/>'
    )

    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
