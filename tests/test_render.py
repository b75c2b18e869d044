import numpy as np

import pytest

from helpers import small_vehicle, straight_traj
from oracles import contour_segments_loop
from sweptplan.render import _contour_segments, render_scene
from sweptplan.sweptfield import SweptField, compute_swept_field
from sweptplan.worldmodel import Box, rasterize_obstacles


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
