import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import ndimage

from oracles import dijkstra_cost, disc_cell_count
from sweptplan.worldmodel import (
    Box,
    DegeneratePath,
    Disc,
    EmptyRegion,
    GoalOccupied,
    GridMap,
    NoPath,
    StartOccupied,
    astar_plan,
    estimate_headings,
    inflate_occupancy,
    rasterize_obstacles,
)


BOUNDS = (0.0, 0.0, 10.0, 10.0)


def test_rasterize_empty():
    g = rasterize_obstacles([], BOUNDS, 0.5)
    assert not g.occupancy.any()
    assert g.obstacle_points.shape == (0, 2)


def test_rasterize_full_cover():
    g = rasterize_obstacles([Box(-1.0, -1.0, 11.0, 11.0)], BOUNDS, 0.5)
    assert g.occupancy.all()
    assert g.obstacle_points.shape[0] == g.width * g.height


def test_rasterize_disc_cell_count():
    res = 0.5
    g = rasterize_obstacles([Disc(5.0, 5.0, 1.0)], BOUNDS, res)
    got = int(g.occupancy.sum())
    assert got == disc_cell_count(BOUNDS, res, 5.0, 5.0, 1.0)
    assert abs(got - math.pi / res**2) <= 0.2 * math.pi / res**2


def test_rasterize_obstacle_points_are_occupied_centers():
    g = rasterize_obstacles([Box(2.0, 2.0, 4.0, 3.0)], BOUNDS, 0.5)
    pts = g.obstacle_points
    assert pts.shape[0] == int(g.occupancy.sum())
    for p in pts:
        ix, iy = g.world_to_cell(p)
        assert g.occupancy[ix, iy]
        assert p.tolist() == (g.origin + (np.array([ix, iy]) + 0.5) * g.resolution).tolist()


def test_rasterize_degenerate_bounds():
    with pytest.raises(EmptyRegion):
        rasterize_obstacles([], (0.0, 0.0, 0.0, 5.0), 0.5)


def test_astar_empty_map_diagonal():
    g = rasterize_obstacles([], (0.0, 0.0, 5.0, 5.0), 0.5)
    path = astar_plan(g, (0.25, 0.25), (4.75, 4.75))
    # pure diagonal: 9 steps of res*sqrt(2)
    steps = np.diff(path, axis=0)
    cost = np.linalg.norm(steps, axis=1).sum()
    npt.assert_allclose(cost, 9.0 * 0.5 * math.sqrt(2.0), rtol=1e-12)


def test_astar_passes_through_gap():
    wall = [Box(0.0, 4.0, 4.4, 4.6), Box(5.6, 4.0, 10.0, 4.6)]
    g = rasterize_obstacles(wall, BOUNDS, 0.5)
    path = astar_plan(g, (5.0, 1.0), (5.0, 9.0))
    crossing = path[(path[:, 1] > 3.9) & (path[:, 1] < 4.7)]
    assert crossing.shape[0] >= 1
    assert np.all(np.abs(crossing[:, 0] - 5.0) < 0.8)


def test_astar_no_path():
    ring = [
        Box(3.0, 3.0, 7.0, 3.5),
        Box(3.0, 6.5, 7.0, 7.0),
        Box(3.0, 3.0, 3.5, 7.0),
        Box(6.5, 3.0, 7.0, 7.0),
    ]
    g = rasterize_obstacles(ring, BOUNDS, 0.25)
    with pytest.raises(NoPath):
        astar_plan(g, (5.0, 5.0), (1.0, 1.0))


def test_astar_occupied_endpoints():
    g = rasterize_obstacles([Box(4.0, 4.0, 6.0, 6.0)], BOUNDS, 0.5)
    with pytest.raises(StartOccupied):
        astar_plan(g, (5.0, 5.0), (1.0, 1.0))
    with pytest.raises(GoalOccupied):
        astar_plan(g, (1.0, 1.0), (5.0, 5.0))


def test_astar_respects_clearance():
    g = rasterize_obstacles([Box(4.5, 0.0, 5.5, 7.0)], BOUNDS, 0.25)
    clearance = 1.0
    path = astar_plan(g, (1.0, 1.0), (9.0, 1.0), clearance=clearance)
    free = inflate_occupancy(g, clearance)
    for p in path:
        ix, iy = g.world_to_cell(p)
        assert not free[ix, iy]


def _edt_inflation(occupancy, resolution, clearance):
    # The exact Euclidean distance transform, in cells, thresholded in meters.
    return ndimage.distance_transform_edt(~occupancy) * resolution <= clearance


def _grid(occupancy, resolution):
    w, h = occupancy.shape
    return GridMap(np.zeros(2), resolution, w, h, occupancy, np.zeros((0, 2)))


@pytest.mark.parametrize("res", [0.1, 0.2, 0.25, 0.3])
def test_inflation_equals_distance_transform(res):
    rng = np.random.default_rng(5)
    cases = 0
    for trial in range(40):
        w, h = rng.integers(1, 40, 2)
        occ = rng.random((w, h)) < rng.choice([0.002, 0.02, 0.2])
        if not occ.any():
            continue
        # random radii, radii exactly on a lattice distance sqrt(k) * res or
        # just below one, and one reaching far past the grid
        k = int(rng.integers(0, 200))
        tie = math.sqrt(k) * res
        for clearance in (rng.uniform(0.0, 12.0) * res, tie, math.nextafter(tie, 0.0), 1e3 * res):
            got = inflate_occupancy(_grid(occ, res), clearance)
            assert np.array_equal(got, _edt_inflation(occ, res, clearance)), (trial, clearance)
            cases += 1
    assert cases > 80


def test_astar_cost_matches_dijkstra_seeded():
    rng = np.random.default_rng(7)
    res = 0.5
    for trial in range(20):
        shapes = []
        for _ in range(rng.integers(2, 6)):
            x0, y0 = rng.uniform(0.5, 8.0, 2)
            w, h = rng.uniform(0.5, 2.5, 2)
            shapes.append(Box(x0, y0, min(x0 + w, 9.5), min(y0 + h, 9.5)))
        g = rasterize_obstacles(shapes, BOUNDS, res)
        start, goal = (0.25, 0.25), (9.75, 9.75)
        blocked = inflate_occupancy(g, 0.0)
        sc = g.world_to_cell(np.array(start))
        gc = g.world_to_cell(np.array(goal))
        if blocked[sc] or blocked[gc]:
            continue
        oracle = dijkstra_cost(~blocked, sc, gc, res)
        try:
            path = astar_plan(g, start, goal)
        except NoPath:
            assert math.isinf(oracle)
            continue
        steps = np.diff(path, axis=0)
        cost = np.linalg.norm(steps, axis=1).sum()
        npt.assert_allclose(cost, oracle, rtol=1e-9)


def test_headings_straight_x():
    path = np.column_stack([np.linspace(0.0, 8.0, 9), np.zeros(9)])
    init = estimate_headings(path, spacing=1.0)
    npt.assert_allclose(init.poses[:, 2], 0.0, atol=1e-12)


def test_headings_straight_y():
    path = np.column_stack([np.zeros(9), np.linspace(0.0, 8.0, 9)])
    init = estimate_headings(path, spacing=1.0)
    npt.assert_allclose(init.poses[:, 2], math.pi / 2.0, atol=1e-12)


def test_headings_l_shape_monotone():
    leg1 = np.column_stack([np.linspace(0.0, 5.0, 11), np.zeros(11)])
    leg2 = np.column_stack([np.full(10, 5.0), np.linspace(0.5, 5.0, 10)])
    init = estimate_headings(np.vstack([leg1, leg2]), spacing=0.5)
    phi = init.poses[:, 2]
    assert np.all(np.diff(phi) >= -1e-9)
    assert np.all(np.abs(np.diff(phi)) <= math.pi)
    assert abs(phi[0]) < 1e-9
    npt.assert_allclose(phi[-1], math.pi / 2.0, atol=1e-9)


def test_headings_spacing_and_continuity(rng):
    for trial in range(10):
        pts = np.cumsum(rng.uniform(-1.0, 1.5, size=(30, 2)), axis=0)
        spacing = 0.8
        if np.linalg.norm(np.diff(pts, axis=0), axis=1).sum() < spacing:
            continue
        init = estimate_headings(pts, spacing=spacing)
        gaps = np.linalg.norm(np.diff(init.poses[:, :2], axis=0), axis=1)
        assert np.all(gaps <= 2.0 * spacing + 1e-9)
        assert np.all(np.abs(np.diff(init.poses[:, 2])) <= math.pi + 1e-12)


def test_headings_degenerate_path():
    with pytest.raises(DegeneratePath):
        estimate_headings(np.array([[0.0, 0.0], [0.1, 0.0]]), spacing=1.0)
