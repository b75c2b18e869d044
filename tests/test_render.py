import re

import numpy as np

import pytest

from helpers import small_vehicle, straight_traj
from oracles import contour_segments_loop, footprint_polygon_text, occupancy_rects_loop
from sweptplan.render import N_FOOTPRINTS, _contour_segments, _occupancy_rects, render_scene
from sweptplan.sweptfield import LinearPosePath, SweptField, compute_swept_field
from sweptplan.worldmodel import Box, Disc, GridMap, rasterize_obstacles


VIEW = (-2.0, -4.0, 14.0, 6.0)


@pytest.fixture(scope="module")
def line_field(veh, line_traj):
    return compute_swept_field(line_traj, veh, resolution=0.1)


@pytest.fixture(scope="module")
def empty_grid():
    return rasterize_obstacles([], VIEW, 0.2)


def test_render_full_scene(tmp_path, veh, line_traj, line_field):
    grid = rasterize_obstacles([Box(4.0, 3.0, 6.0, 4.0)], VIEW, 0.2)
    out = tmp_path / "scene.svg"
    render_scene(str(out), veh, line_traj, grid, line_field, VIEW)
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "<rect" in text  # obstacle cells
    assert "<polygon" in text  # footprint outlines
    assert text.count("<polygon") == 10
    assert "<polyline" in text  # center path
    assert "<path" in text  # zero contour


def test_render_deterministic(tmp_path, veh, line_traj, line_field, empty_grid):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_scene(str(a), veh, line_traj, empty_grid, line_field, VIEW)
    render_scene(str(b), veh, line_traj, empty_grid, line_field, VIEW)
    assert a.read_bytes() == b.read_bytes()


def test_render_bounds_override(tmp_path, veh, line_traj, line_field, empty_grid):
    out = tmp_path / "bounded.svg"
    render_scene(str(out), veh, line_traj, empty_grid, line_field, (-5.0, -5.0, 20.0, 5.0))
    text = out.read_text()
    assert 'width="900"' in text


def _corner_field(values, origin=(0.25, -1.0), resolution=0.5):
    f = np.asarray(values, dtype=float)
    return SweptField(
        origin=np.array(origin),
        resolution=resolution,
        width=f.shape[0],
        height=f.shape[1],
        f_star=f,
        t_star=np.zeros_like(f),
        refined=np.ones(f.shape, dtype=bool),
    )


# One cell each, corners [[v00, v01], [v10, v11]]: saddle 5 (v00, v11 inside)
# and saddle 10 (v10, v01 inside), with the cell-center sum inside, outside,
# and exactly zero (inside); then edges through exact zeros of both signs.
SADDLES = {
    "5_inside": [[-1.0, 0.5], [0.5, -1.0]],
    "5_outside": [[-0.5, 1.0], [1.0, -0.5]],
    "5_zero_sum": [[-1.0, 1.0], [1.0, -1.0]],
    "10_inside": [[0.5, -1.0], [-1.0, 0.5]],
    "10_outside": [[1.0, -0.5], [-0.5, 1.0]],
    "10_zero_sum": [[0.5, -1.0], [-0.0, 0.5]],
    "zeros": [[0.0, 0.3], [-0.0, 0.7]],
}


@pytest.mark.parametrize("name", list(SADDLES))
def test_contour_segments_equal_cell_loop(name):
    field = _corner_field(SADDLES[name])
    segs = _contour_segments(field)
    assert len(segs) == (2 if name.startswith(("5", "10")) else 1)
    assert repr(segs) == repr(contour_segments_loop(field))


def test_contour_segments_equal_cell_loop_on_fields(veh, line_traj):
    rng = np.random.default_rng(5)
    noisy = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(40, 30))
    for field in (_corner_field(noisy), compute_swept_field(line_traj, veh, resolution=0.1)):
        assert repr(_contour_segments(field)) == repr(contour_segments_loop(field))
        assert repr(_contour_segments(field, level=0.5)) == repr(contour_segments_loop(field, level=0.5))


# View bounds with at most four decimals, as the shipped scenarios have: there
# the direct transform and the oracle's format-parse-format give the same text.
@pytest.mark.parametrize("bounds", [VIEW, (-3.0, -2.0, 1.7, 4.1234), (0.0, 0.0, 9.5, 7.25)])
def test_footprint_polygons_equal_twice_formatted_corners(tmp_path, veh, bounds):
    rng = np.random.default_rng(7)
    xmin, ymin, xmax, ymax = bounds
    field = _corner_field(np.ones((3, 3)))
    grid = rasterize_obstacles([], bounds, 0.5)
    for trial in range(50):
        poses = np.column_stack(
            [
                rng.uniform(xmin, xmax, N_FOOTPRINTS),
                rng.uniform(ymin, ymax, N_FOOTPRINTS),
                rng.uniform(-4.0, 4.0, N_FOOTPRINTS),
            ]
        )
        path = LinearPosePath(np.arange(N_FOOTPRINTS, dtype=float), poses)
        out = tmp_path / f"{trial}.svg"
        render_scene(str(out), veh, path, grid, field, bounds)
        drawn = re.findall(r'<polygon points="([^"]*)"', out.read_text())
        sampled = path.sample(np.linspace(0.0, path.total_time, N_FOOTPRINTS), 0)
        assert drawn == [footprint_polygon_text(p, veh, bounds) for p in sampled]


def test_occupancy_rects_equal_cell_walk():
    rng = np.random.default_rng(3)
    shapes = [Box(1.0, 1.0, 3.0, 2.5), Disc(6.0, 4.0, 1.5), Box(-2.0, -4.0, 14.0, -3.5)]
    grids = [rasterize_obstacles(shapes, VIEW, 0.2)]
    for density in (0.0, 0.3, 1.0):
        occ = rng.random((23, 17)) < density
        grids.append(GridMap(np.array([-1.5, 2.25]), 0.25, 23, 17, occ, np.zeros((0, 2))))
    for grid in grids:
        assert repr(_occupancy_rects(grid)) == repr(occupancy_rects_loop(grid))
