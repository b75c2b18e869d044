import json
import math
import os

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial import cKDTree

from helpers import curved_traj, rotation_traj, small_vehicle, straight_traj
import oracles
from oracles import (
    GatheredMinco,
    coarse_values,
    min_time_batch_argsort,
    min_time_per_point_poses,
    min_time_scan,
    sampled_minima,
)
from sweptplan import sweptfield
from sweptplan.cli import load_trace_csv, parse_scenario, run_pipeline
from sweptplan.geometry import Pose2, to_body_frame, world_sdf_with_grad
from sweptplan.minco import Boundary, MincoTrajectory, build_minco
from sweptplan.render import render_scene
from sweptplan.sim import driven_path
from sweptplan.sweptfield import (
    COARSE_SAMPLES,
    AreaReport,
    LinearPosePath,
    RegionTooSmall,
    SweptField,
    auto_region,
    compute_swept_field,
    count_swept_cells,
    excess_area,
    min_time_distance,
    swept_area,
)
from sweptplan.worldmodel import rasterize_obstacles


def test_min_time_straight_passage(veh, line_traj):
    t_star, f_star = min_time_distance(np.array([5.0, 3.0]), line_traj, veh)
    npt.assert_allclose(f_star, 2.5, atol=1e-6)
    # the minimum is flat: every t with |x(t) - 5| <= 1 attains 2.5
    assert 3.95 <= t_star <= 6.05


def test_min_time_interior_point(veh, line_traj):
    t_star, f_star = min_time_distance(np.array([5.0, 0.0]), line_traj, veh)
    npt.assert_allclose(f_star, -0.5, atol=1e-9)


def test_min_time_clamps_to_interval_start(veh, line_traj):
    t_star, f_star = min_time_distance(np.array([-100.0, 0.0]), line_traj, veh)
    assert t_star == 0.0
    expect = world_sdf_with_grad(np.array([-100.0, 0.0]), Pose2(0.0, 0.0, 0.0), veh).value
    npt.assert_allclose(f_star, expect, atol=1e-9)


def test_min_time_matches_dense_scan(veh, bend_traj, rng):
    pts = rng.uniform([-1.0, -4.0], [11.0, 6.0], size=(60, 2))
    t_oracle, f_oracle = min_time_scan(pts, bend_traj, veh.length, veh.width)
    for i in range(pts.shape[0]):
        _, f = min_time_distance(pts[i], bend_traj, veh)
        assert f <= f_oracle[i] + 1e-2


def test_zero_length_trajectory_field_is_static_sdf(veh):
    pose = (1.0, 2.0, 0.5)
    boundary = Boundary.rest_to_rest(pose, pose)
    traj = build_minco(np.zeros((0, 3)), np.array([1.0]), boundary)
    field = compute_swept_field(traj, veh, region=(-2.0, -1.0, 4.0, 5.0), resolution=0.1)
    centers = field.cell_centers()
    static = Pose2(*pose)
    for idx in range(0, centers.shape[0], 97):
        expect = world_sdf_with_grad(centers[idx], static, veh).value
        got = field.f_star[idx // field.height, idx % field.height]
        npt.assert_allclose(got, expect, atol=1e-9)


def test_straight_line_swept_area(veh, line_traj):
    field = compute_swept_field(line_traj, veh, resolution=0.05)
    area = swept_area(field)
    npt.assert_allclose(area, 12.0, rtol=0.02)


def test_rotation_swept_area(veh):
    traj = rotation_traj()
    field = compute_swept_field(traj, veh, resolution=0.05)
    npt.assert_allclose(swept_area(field), 1.25 * math.pi, rtol=0.02)


def test_resolution_refinement_converges(veh, line_traj):
    a1 = swept_area(compute_swept_field(line_traj, veh, resolution=0.04))
    a2 = swept_area(compute_swept_field(line_traj, veh, resolution=0.02))
    assert abs(a1 - a2) / a2 < 0.01


def test_swept_area_all_positive_field():
    field = SweptField(
        origin=np.zeros(2),
        resolution=0.1,
        width=20,
        height=10,
        f_star=np.full((20, 10), 0.3),
        t_star=np.zeros((20, 10)),
    )
    assert swept_area(field) == 0.0


def test_excess_straight_is_small(veh, line_traj):
    field = compute_swept_field(line_traj, veh, resolution=0.05)
    report = excess_area(field, line_traj, veh)
    assert isinstance(report, AreaReport)
    npt.assert_allclose(report.baseline_area, 12.0, rtol=1e-3)
    assert abs(report.excess_area) < 0.12
    npt.assert_allclose(
        report.excess_area, report.swept_area - report.baseline_area, atol=1e-12
    )


def test_excess_rotation_analytic(veh):
    traj = rotation_traj()
    field = compute_swept_field(traj, veh, resolution=0.05)
    report = excess_area(field, traj, veh)
    # stationary center: ribbon collapses to the footprint itself
    npt.assert_allclose(report.baseline_area, 2.0, atol=1e-3)
    npt.assert_allclose(report.excess_area, 1.25 * math.pi - 2.0, rtol=0.03)


def test_field_mirror_symmetry(veh, bend_traj):
    # region extents are exact multiples of the resolution so the mirrored
    # grid samples exactly the mirrored cell centers
    region = (-3.0, -5.0, 13.0, 7.0)
    ts = np.linspace(0.0, bend_traj.total_time, 400)
    poses = bend_traj.sample(ts, 0)
    direct = compute_swept_field(
        LinearPosePath(ts, poses), veh, region=region, resolution=0.25
    )
    mirrored = poses * np.array([1.0, -1.0, -1.0])
    m_region = (region[0], -region[3], region[2], -region[1])
    m_field = compute_swept_field(
        LinearPosePath(ts, mirrored), veh, region=m_region, resolution=0.25
    )
    npt.assert_allclose(m_field.f_star, direct.f_star[:, ::-1], atol=1e-9)


def test_t_star_within_domain(veh, bend_traj):
    field = compute_swept_field(bend_traj, veh, resolution=0.3)
    assert field.t_star.min() >= 0.0
    assert field.t_star.max() <= bend_traj.total_time + 1e-12


def test_region_must_cover_trajectory(veh, line_traj):
    with pytest.raises(RegionTooSmall):
        compute_swept_field(line_traj, veh, region=(2.0, -1.0, 4.0, 1.0), resolution=0.1)


def test_auto_region_covers_footprint(veh, bend_traj):
    xmin, ymin, xmax, ymax = auto_region(bend_traj, veh, margin=0.5)
    poses = bend_traj.sample(np.linspace(0.0, bend_traj.total_time, 200), 0)
    r = veh.half_diagonal
    assert xmin <= (poses[:, 0] - r).min() + 1e-9
    assert xmax >= (poses[:, 0] + r).max() - 1e-9
    assert ymin <= (poses[:, 1] - r).min() + 1e-9
    assert ymax >= (poses[:, 1] + r).max() - 1e-9


def test_linear_pose_path_sampling():
    times = np.array([0.0, 1.0, 3.0])
    poses = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [2.0, 4.0, 1.0]])
    path = LinearPosePath(times, poses)
    npt.assert_allclose(path.sample(np.array([0.5]), 0)[0], [1.0, 0.0, 0.5])
    npt.assert_allclose(path.sample(np.array([2.0]), 0)[0], [2.0, 2.0, 1.0])
    npt.assert_allclose(path.arc_length(), 6.0, rtol=1e-9)


def test_region_check_matches_footprint_bounds(veh, bend_traj):
    compute_swept_field(bend_traj, veh, region=auto_region(bend_traj, veh, margin=0.0), resolution=0.5)
    tight = sweptfield.footprint_bounds(bend_traj, veh)
    compute_swept_field(bend_traj, veh, region=tight, resolution=0.5)
    for side in range(4):
        shrunk = list(tight)
        shrunk[side] += 0.01 if side < 2 else -0.01
        with pytest.raises(RegionTooSmall):
            compute_swept_field(bend_traj, veh, region=shrunk, resolution=0.5)


# The coarse poses are sampled once per call and refinement starts from the
# coarse values; oracles.min_time_per_point_poses samples every coarse pose
# once per point and re-evaluates g around refinement. The operations and
# operands are the same, so the results must agree bit for bit.


def _exact_path(kind: str, bend_traj):
    if kind == "minco":
        return bend_traj
    ts = np.linspace(0.0, bend_traj.total_time, 300)
    return LinearPosePath(ts, bend_traj.sample(ts, 0))


def _query_points(path, veh, n: int) -> np.ndarray:
    xmin, ymin, xmax, ymax = auto_region(path, veh)
    return np.random.default_rng(n).uniform([xmin, ymin], [xmax, ymax], size=(n, 2))


def _batch(points, path, veh, t_min, t_max):
    coarse = sweptfield._coarse_poses(path, t_min, t_max)
    return sweptfield._min_time_batch(points, path, veh, t_min, t_max, coarse)


@pytest.mark.parametrize("n", [1, 7, 20_000])
@pytest.mark.parametrize("kind", ["minco", "linear"])
def test_min_time_batch_equals_per_point_oracle(veh, bend_traj, kind, n):
    path = _exact_path(kind, bend_traj)
    pts = _query_points(path, veh, n)
    t, f = _batch(pts, path, veh, 0.0, path.total_time)
    t_ref, f_ref = min_time_per_point_poses(pts, path, veh, 0.0, path.total_time)
    assert np.array_equal(f, f_ref)
    assert np.array_equal(t, t_ref)


@pytest.mark.parametrize("kind", ["minco", "linear"])
def test_min_time_batch_subinterval_equals_oracle(veh, bend_traj, kind):
    path = _exact_path(kind, bend_traj)
    pts = _query_points(path, veh, 500)
    t_min, t_max = 0.7, 0.6 * path.total_time
    t, f = _batch(pts, path, veh, t_min, t_max)
    t_ref, f_ref = min_time_per_point_poses(pts, path, veh, t_min, t_max)
    assert np.array_equal(f, f_ref)
    assert np.array_equal(t, t_ref)
    assert t.min() >= t_min and t.max() <= t_max


@pytest.mark.parametrize("n", [1, 7, 20_000])
def test_empty_interval_equals_oracle(veh, bend_traj, n):
    pts = _query_points(bend_traj, veh, n)
    for t_min, t_max in ((2.0, 2.0), (3.0, 1.0)):
        t, f = _batch(pts, bend_traj, veh, t_min, t_max)
        t_ref, f_ref = min_time_per_point_poses(pts, bend_traj, veh, t_min, t_max)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(t, t_ref)
        assert np.all(t == t_min)
    assert min_time_distance(pts[0], bend_traj, veh, t_min=3.0, t_max=1.0) == (t_ref[0], f_ref[0])


def _assert_band_contract(field, path, veh, t_ref, f_ref, oracle_path=None):
    """Every cell pinned bit for bit to the exact oracle (t_ref, f_ref): a
    refined cell holds the oracle's refined values; any other holds the
    oracle's deepest coarse sample and that sample's time, with the oracle's
    refined f* above the band."""
    grid_ts, vals = coarse_values(field.cell_centers(), oracle_path or path, veh, 0.0, path.total_time)
    deep = vals.argmin(axis=0)
    refined = field.refined.ravel()
    out = np.flatnonzero(~refined)
    f, t = field.f_star.ravel(), field.t_star.ravel()
    _assert_same_bits(f[refined], f_ref[refined])
    _assert_same_bits(t[refined], t_ref[refined])
    _assert_same_bits(f[out], vals[deep[out], out])
    _assert_same_bits(t[out], grid_ts[deep[out]])
    assert np.all(f_ref[out] > sweptfield.field_band(field.resolution))
    assert refined.any() and out.size


def test_field_equals_per_point_oracle(veh, bend_traj):
    field = compute_swept_field(bend_traj, veh, resolution=0.25)
    t_ref, f_ref = min_time_per_point_poses(field.cell_centers(), bend_traj, veh, 0.0, bend_traj.total_time)
    _assert_band_contract(field, bend_traj, veh, t_ref, f_ref)


def test_field_does_not_depend_on_the_scan_block(veh, bend_traj, monkeypatch):
    field = compute_swept_field(bend_traj, veh, resolution=0.25)
    monkeypatch.setattr(sweptfield, "SCAN_BLOCK", 97)
    blocked = compute_swept_field(bend_traj, veh, resolution=0.25)
    assert field.width * field.height > 10 * 97
    _assert_same_bits(blocked.f_star, field.f_star)
    _assert_same_bits(blocked.t_star, field.t_star)
    assert np.array_equal(blocked.refined, field.refined)


class _CountingPath:
    """Path proxy recording the number of times each sample() call evaluates."""

    def __init__(self, path):
        self.path = path
        self.total_time = path.total_time
        self.points = 0

    def sample(self, ts, order=0):
        self.points += np.size(ts)
        return self.path.sample(ts, order)

    def rate_bounds(self, ts):
        return self.path.rate_bounds(ts)


def test_coarse_poses_are_not_sampled_per_cell(veh, bend_traj):
    path = _CountingPath(bend_traj)
    field = compute_swept_field(path, veh, region=auto_region(bend_traj, veh), resolution=0.25)
    # Sampling the coarse poses once per cell alone would take this many.
    assert path.points < COARSE_SAMPLES * field.width * field.height


def test_coarse_scan_rotates_by_one_cos_sin_per_time(veh, bend_traj, monkeypatch):
    scalar_calls = []

    def spy(dx, dy, c, s):
        if np.ndim(c) == 0:
            scalar_calls.append(c)
        return to_body_frame(dx, dy, c, s)

    monkeypatch.setattr(sweptfield, "to_body_frame", spy)
    pts = _query_points(bend_traj, veh, 7)
    _batch(pts, bend_traj, veh, 0.0, bend_traj.total_time)
    assert len(scalar_calls) == COARSE_SAMPLES


# The certified count must equal the full field's f* <= 0 count exactly. The
# paths below stress each part of the certificate:
# - spin: the heading-rate term of the Lipschitz bound;
# - random_walk: large uneven steps, where the bound decides almost nothing;
# - dash: several footprint diagonals between coarse samples (the stamp's reach);
# - jab: a sideways jab hidden between two coarse samples whose sampled
#   velocity is 0 (the exact per-piece rate maxima);
# - edge_line: cell centers exactly on the footprint edge (f* = 0);
# - touch_and_retreat: an exact interval bound of 0 that evaluates to +3e-17
#   (the float margin).


def _spin_path():
    ts = np.linspace(0.0, 6.0, 40)
    return LinearPosePath(ts, np.column_stack([np.zeros(40), np.zeros(40), ts * math.pi]))


def _random_walk(seed: int):
    rng = np.random.default_rng(seed)
    n = 40
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.6, n - 1))])
    xy = np.cumsum(rng.normal(0.0, 1.5, (n, 2)), axis=0)
    phi = np.cumsum(rng.normal(0.0, 1.0, n))
    return LinearPosePath(times, np.column_stack([xy, phi]))


def _jab_path():
    # 1 m sideways and back at 20 m/s, strictly between the samples at 7.75 s and 8 s
    times = np.array([0.0, 7.8, 7.85, 7.9, 15.75])
    poses = np.zeros((5, 3))
    poses[2, 1] = 1.0
    return LinearPosePath(times, poses)


def _bend_path():
    traj = curved_traj(seed=11, n_interior=5)
    ts = np.linspace(0.0, traj.total_time, 300)
    return LinearPosePath(ts, traj.sample(ts, 0))


def _auto(path):
    return path, auto_region(path, small_vehicle()), 0.1


def _line(times, poses):
    return LinearPosePath(np.array(times), np.array(poses, dtype=float))


# name -> () -> (path, region, resolution). The hand-set regions put 0.25 m cell
# centers on multiples of 0.25 m, so edge_line's rows at y = +-0.5 lie on the
# long edges and touch_and_retreat's row at y = 2 meets the top edge at 7.875 s,
# midway between coarse samples 0.25 s apart.
COUNT_CASES = {
    "bend": lambda: _auto(_bend_path()),
    "spin": lambda: _auto(_spin_path()),
    "random_walk": lambda: _auto(_random_walk(3)),
    "jab": lambda: _auto(_jab_path()),
    "dash": lambda: (_line([0.0, 1.0], [[0, 0, 0], [200, 0, 0]]), (-1.25, -1.25, 201.25, 1.25), 0.25),
    "edge_line": lambda: (_line([0.0, 10.0], [[0, 0, 0], [10, 0, 0]]), (-3.125, -2.125, 13.125, 2.125), 0.25),
    "touch_and_retreat": lambda: (
        _line([0.0, 7.875, 15.75], [[0, 0, 0], [0, 1.5, 0], [0, 0, 0]]),
        (-3.125, -2.125, 3.125, 2.875),
        0.25,
    ),
    "one_sample": lambda: (_line([0.0], [[1.0, 2.0, 0.4]]), (-2.0, -1.0, 4.0, 5.0), 0.05),
    "minco": lambda: _auto(curved_traj(seed=11, n_interior=5)),
    "minco_spin": lambda: _auto(rotation_traj()),
}


@pytest.mark.parametrize("scenario", ["straight", "turn90"])
def test_count_swept_cells_equals_full_field_on_scenarios(tmp_path, scenario):
    sc = parse_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{scenario}.json"))
    assert run_pipeline(sc, ["plan", "sweep", "track"], str(tmp_path)) == 0
    traj = MincoTrajectory.from_dict(json.loads((tmp_path / "trajectory.json").read_text()))
    path = driven_path(load_trace_csv(str(tmp_path / "trace.csv")))
    region = auto_region(traj, sc.veh, margin=sc.sweep_margin)
    field = compute_swept_field(path, sc.veh, region=region, resolution=sc.sweep_resolution)
    count = count_swept_cells(path, sc.veh, region, sc.sweep_resolution)
    assert count.swept == np.count_nonzero(field.f_star <= 0.0)
    assert count.refined < 0.05 * count.cells
    # The same engine on the planned trajectory gives the sweep stage's swept cells.
    area = json.loads((tmp_path / "area.json").read_text())
    planned = count_swept_cells(traj, sc.veh, area["region"], area["resolution"])
    assert planned.cells == area["field_cells"]
    assert planned.swept * area["resolution"] ** 2 == area["swept_area"]


@pytest.mark.parametrize("name", list(COUNT_CASES))
def test_count_swept_cells_equals_full_field(veh, name):
    path, region, res = COUNT_CASES[name]()
    field = compute_swept_field(path, veh, region=region, resolution=res)
    count = count_swept_cells(path, veh, region, res)
    assert count.swept == np.count_nonzero(field.f_star <= 0.0)
    assert count.cells == field.width * field.height
    assert count.skipped_far + count.certified_inside + count.certified_outside + count.refined == count.cells


@pytest.mark.xfail(strict=True, reason="refinement starts only from sampled minima, so a basin between samples is missed")
def test_field_finds_a_basin_between_coarse_samples(veh):
    # jab's 1 m sideways excursion lies strictly between two coarse samples.
    path, region, res = COUNT_CASES["jab"]()
    field = compute_swept_field(path, veh, region=region, resolution=res)
    _, f_scan = min_time_scan(field.cell_centers(), path, veh.length, veh.width, t_step=path.total_time / 19_999)
    assert np.count_nonzero(field.f_star <= 0.0) == np.count_nonzero(f_scan <= 0.0)


def test_count_edge_cases_hit_zero(veh):
    # The edge rows and the touched row really sit at f* = 0.
    for path, region, res in (COUNT_CASES["edge_line"](), COUNT_CASES["touch_and_retreat"]()):
        field = compute_swept_field(path, veh, region=region, resolution=res)
        assert np.count_nonzero(field.f_star == 0.0) >= 7


def _classes(path, veh, region, res):
    _, _, _, cx, cy = sweptfield._region_grid(path, veh, region, res)
    cls = sweptfield._certify(path, veh, cx, cy, sweptfield._coarse_poses(path, 0.0, path.total_time))
    ix, iy = np.meshgrid(np.arange(cx.size), np.arange(cy.size), indexing="ij")
    return cls.ravel(), np.column_stack([cx[ix.ravel()], cy[iy.ravel()]])


@pytest.mark.parametrize("name", ["bend", "dash", "jab", "edge_line", "touch_and_retreat", "minco"])
def test_certificates_hold_on_dense_samples(veh, name):
    path, region, res = COUNT_CASES[name]()
    cls, pts = _classes(path, veh, region, res)
    outside = pts[cls == sweptfield.OUTSIDE]
    assert outside.size
    _, g_min = min_time_scan(outside, path, veh.length, veh.width, t_step=path.total_time / 19_999)
    assert g_min.min() > 0.0
    centers = path.sample(np.linspace(0.0, path.total_time, 20_000), 0)[:, :2]
    dist, _ = cKDTree(centers).query(pts[cls == sweptfield.FAR])
    assert np.all(dist > veh.half_diagonal)


def test_rate_bounds_are_per_piece_maxima():
    times = np.array([0.0, 1.0, 1.1, 3.0])
    poses = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [2.0, 0.0, -0.5], [2.0, 3.8, -0.5]])
    vmax, wmax = LinearPosePath(times, poses).rate_bounds(np.array([0.0, 0.5, 1.5, 3.0]))
    # the fast 0.1 s piece lies strictly inside the second interval
    npt.assert_allclose(vmax, [1.0, 10.0, 2.0])
    npt.assert_allclose(wmax, [0.5, 10.0, 0.0])
    zero_v, zero_w = LinearPosePath(np.array([0.0]), np.zeros((1, 3))).rate_bounds(np.array([0.0, 1.0]))
    assert zero_v.tolist() == [0.0] and zero_w.tolist() == [0.0]


def test_count_region_must_cover_path(veh):
    with pytest.raises(RegionTooSmall):
        count_swept_cells(_spin_path(), veh, (0.0, 0.0, 2.0, 2.0), 0.1)


# The coefficient table, the sparse candidate selection and the compacted
# backtracking against the engine as it was (oracles.min_time_batch_argsort on
# oracles.GatheredMinco). The operations and operands are the same, so f* and
# t* must agree bit for bit, signed zeros included.


def _frozen(path):
    return GatheredMinco(path) if isinstance(path, MincoTrajectory) else path


def _assert_same_bits(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


FROZEN_PATHS = {
    "minco": lambda: curved_traj(seed=11, n_interior=5),
    "linear": _bend_path,
    # y coefficients of both signs of zero
    "line_x": lambda: straight_traj(distance=10.0, speed=1.0, n_interior=3),
}


def test_line_x_has_signed_zero_coefficients():
    y = FROZEN_PATHS["line_x"]().coeffs[:, :, 1]
    assert np.all(y == 0.0) and np.signbit(y).any() and not np.signbit(y).all()


@pytest.mark.parametrize("n", [1, 7, 20_000])
@pytest.mark.parametrize("kind", list(FROZEN_PATHS))
def test_min_time_batch_equals_frozen_engine(veh, kind, n):
    path = FROZEN_PATHS[kind]()
    pts = _query_points(path, veh, n)
    intervals = [(0.0, path.total_time), (0.7, 0.6 * path.total_time), (2.0, 2.0), (3.0, 1.0)]
    for t_min, t_max in intervals:
        t, f = _batch(pts, path, veh, t_min, t_max)
        t_ref, f_ref = min_time_batch_argsort(pts, _frozen(path), veh, t_min, t_max)
        _assert_same_bits(f, f_ref)
        _assert_same_bits(t, t_ref)


@pytest.mark.parametrize("kind", list(FROZEN_PATHS))
def test_field_equals_frozen_engine(veh, kind):
    path = FROZEN_PATHS[kind]()
    field = compute_swept_field(path, veh, resolution=0.25)
    t_ref, f_ref = min_time_batch_argsort(field.cell_centers(), _frozen(path), veh, 0.0, path.total_time)
    _assert_band_contract(field, path, veh, t_ref, f_ref, oracle_path=_frozen(path))


# The band holds the zero contour: f* is 1-Lipschitz in p, so every corner of
# a grid square that the contour crosses has f* <= sqrt(2) * resolution < B.


@pytest.mark.parametrize("res", [0.1, 0.4])
@pytest.mark.parametrize("kind", list(FROZEN_PATHS))
def test_contour_squares_are_refined(veh, kind, res):
    field = compute_swept_field(FROZEN_PATHS[kind](), veh, resolution=res)
    inside = field.f_star <= 0.0
    corners = (inside[:-1, :-1], inside[1:, :-1], inside[:-1, 1:], inside[1:, 1:])
    mixed = np.logical_or.reduce(corners) & ~np.logical_and.reduce(corners)
    touched = np.zeros_like(inside)
    for dx in (0, 1):
        for dy in (0, 1):
            touched[dx : dx + mixed.shape[0], dy : dy + mixed.shape[1]] |= mixed
    assert mixed.any()
    assert field.refined[touched].all()
    assert not field.refined.all()


def test_scene_from_banded_field_equals_exact(tmp_path, veh, bend_traj):
    field = compute_swept_field(bend_traj, veh, resolution=0.1)
    t_ref, f_ref = min_time_batch_argsort(field.cell_centers(), GatheredMinco(bend_traj), veh, 0.0, bend_traj.total_time)
    shape = (field.width, field.height)
    exact = SweptField(field.origin, field.resolution, *shape, f_ref.reshape(shape), t_ref.reshape(shape))
    assert not np.array_equal(field.f_star, exact.f_star)
    bounds = (*field.origin, *(field.origin + field.resolution * np.array(shape)))
    grid = rasterize_obstacles([], bounds, field.resolution)
    render_scene(str(tmp_path / "band.svg"), veh, bend_traj, grid, field, bounds)
    render_scene(str(tmp_path / "exact.svg"), veh, bend_traj, grid, exact, bounds)
    assert (tmp_path / "band.svg").read_bytes() == (tmp_path / "exact.svg").read_bytes()


def _spin_dash():
    # Five turns while creeping 2 m: coarse samples half a radian of heading
    # apart miss corner passes, so only the bound's heading-rate term keeps
    # the cells those corners pass near inside the band.
    ts = np.linspace(0.0, 10.0, 200)
    return LinearPosePath(ts, np.column_stack([0.2 * ts, np.zeros(200), math.pi * ts]))


@pytest.mark.parametrize("kind", ["minco", "linear", "spin_dash"])
def test_band_certificate_holds_on_dense_samples(veh, kind):
    path = _spin_dash() if kind == "spin_dash" else FROZEN_PATHS[kind]()
    field = compute_swept_field(path, veh, resolution=0.25)
    out = field.cell_centers()[~field.refined.ravel()]
    assert out.size
    _, g_min = min_time_scan(out, path, veh.length, veh.width, t_step=path.total_time / 19_999)
    assert g_min.min() > sweptfield.field_band(field.resolution)


# Equal bits alone do not show that no work is repeated: a selection that
# refines a cell's first candidate again when it has fewer than four minima
# returns the same f* and t*. So count the work. rotation_traj spins in place:
# at the origin all 64 coarse samples are bit-equal minima, so ranks 0-3 are
# decided by the sample index alone.


@pytest.mark.parametrize("kind", ["bend", "rotation"])
def test_refinement_work_equals_frozen_engine(veh, bend_traj, kind, monkeypatch):
    path = bend_traj if kind == "bend" else rotation_traj()
    pts = compute_swept_field(path, veh, resolution=0.25).cell_centers()
    if kind == "rotation":
        pts = np.vstack([pts, [0.0, 0.0]])
    cell_of = {p: i for i, p in enumerate(map(tuple, pts.tolist()))}
    starts = np.zeros(len(cell_of), dtype=int)
    points = {}

    def counted(name, fn):
        def wrapper(path, veh, pts, ts):
            points[name] = points.get(name, 0) + pts.shape[0]
            return fn(path, veh, pts, ts)

        return wrapper

    refine = sweptfield._refine_times

    def counting_refine(p, *args):
        np.add.at(starts, [cell_of[q] for q in map(tuple, p.tolist())], 1)
        return refine(p, *args)

    monkeypatch.setattr(sweptfield, "_refine_times", counting_refine)
    for module, prefix in ((sweptfield, ""), (oracles, "ref")):
        for name in ("_g_values", "_g_and_slope"):
            monkeypatch.setattr(module, name, counted(prefix + name, getattr(module, name)))
    t, f = _batch(pts, path, veh, 0.0, path.total_time)
    t_ref, f_ref = min_time_batch_argsort(pts, _frozen(path), veh, 0.0, path.total_time)
    _assert_same_bits(f, f_ref)
    _assert_same_bits(t, t_ref)

    _, vals = coarse_values(pts, path, veh, 0.0, path.total_time)
    n_min = sampled_minima(vals).sum(axis=0)
    assert np.array_equal(starts, np.minimum(4, n_min))
    assert (n_min < 4).any() and (n_min > 4).any()
    assert points["_g_values"] == points["ref_g_values"] > 0
    assert points["_g_and_slope"] == points["ref_g_and_slope"] > 0
    if kind == "rotation":
        assert n_min[-1] == 64 and np.all(vals[:, -1] == vals[0, -1])
