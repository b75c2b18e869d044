"""Command-line pipeline: scenario files in, staged runs, artifacts out.

Stages: plan (route search + two-stage spline optimization), sweep (swept
field of the planned trajectory), track (closed-loop MPC simulation), metrics
(driven-pose sweep + tracking statistics). Every stage loads its inputs from
the output directory, so an `all` run and four one-stage runs take the same
code path. The sweep stage alone decides the swept-field grid: it records
the region and resolution in area.json, and the metrics stage counts the
driven cells on that grid, reading only trace.csv and area.json.

All artifacts are deterministic: floats are serialized with shortest
round-trip repr, JSON keys are sorted, and CSV layouts are fixed. Wall-clock
measurements live only in timings.json, which is a diagnostic sidecar and is
expected to differ between runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, fields

import numpy as np

from .geometry import VehicleParams
from .minco import MincoTrajectory
from .mpc import MpcConfig
from .planner import TRACE_COLUMNS, PlanOptions, PlannerWeights, optimize_stage1, optimize_stage2
from .render import render_scene
from .sim import QP_COLUMNS, SimConfig, SimTrace, compute_metrics, run_closed_loop
from .sweptfield import UNWRITTEN, SweptField, auto_region, compute_swept_field, excess_area
from .worldmodel import (
    Box,
    Disc,
    GridMap,
    astar_plan,
    estimate_headings,
    rasterize_obstacles,
)

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Scenario file is not valid JSON or contains unknown keys."""


class ValidationError(ValueError):
    """Scenario file is missing required content or violates an invariant."""


class MissingArtifact(RuntimeError):
    """A stage dependency was neither run nor found on disk."""


# ---------------------------------------------------------------------------
# scenario parsing


def _as_number(v, ctx: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{ctx} must be a number, got {type(v).__name__}")
    try:
        number = float(v)
    except OverflowError:  # an integer literal beyond the double range
        number = math.inf
    if not math.isfinite(number):  # JSON reads a float literal beyond it as inf
        raise ValidationError(f"{ctx} must be a finite number")
    return number


def _as_int(v, ctx: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{ctx} must be an integer, got {type(v).__name__}")
    return v


def _as_vector(v, n: int, ctx: str) -> np.ndarray:
    if not isinstance(v, list) or len(v) != n:
        raise ValidationError(f"{ctx} must be a list of {n} numbers")
    return np.array([_as_number(x, f"{ctx}[{i}]") for i, x in enumerate(v)])


def _check_keys(block: dict, allowed: set, ctx: str) -> None:
    for key in block:
        if key not in allowed:
            raise ParseError(f"unknown key '{key}' in {ctx}")


def _vector(n: int):
    return lambda v, ctx: _as_vector(v, n, ctx).tolist()


def _string(v, ctx: str) -> str:
    if not isinstance(v, str):
        raise ValidationError(f"{ctx} must be a string")
    return v


def _wheels(v, ctx: str) -> list:
    if not isinstance(v, list) or not v:
        raise ValidationError(f"{ctx} must be a nonempty list of [x, y]")
    return [_as_vector(w, 2, f"{ctx}[{i}]").tolist() for i, w in enumerate(v)]


def _rate_cap(v, ctx: str):
    return None if v is None else _as_vector(v, 3, ctx).tolist()


def _obstacles(raw, ctx: str) -> list:
    """Obstacles as {"type": "box", "min", "max"} or {"type": "disc", "center", "radius"}."""
    if not isinstance(raw, list):
        raise ValidationError(f"{ctx} must be a list")
    shapes = []
    for i, item in enumerate(raw):
        ictx = f"{ctx}[{i}]"
        if not isinstance(item, dict) or "type" not in item:
            raise ValidationError(f"{ictx} must be an object with a 'type' key")
        kind = item["type"]
        keys = {"box": ("min", "max"), "disc": ("center", "radius")}.get(kind)
        if keys is None:
            raise ValidationError(f"{ictx}: unknown obstacle type '{kind}'")
        _check_keys(item, {"type", *keys}, ictx)
        for key in keys:
            if key not in item:
                raise ValidationError(f"{ictx}: {kind} needs '{key}'")
        if kind == "box":
            lo = _as_vector(item["min"], 2, f"{ictx}.min")
            hi = _as_vector(item["max"], 2, f"{ictx}.max")
            if not np.all(hi > lo):
                raise ValidationError(f"{ictx}: box max must exceed min componentwise")
            shapes.append({"type": "box", "min": lo.tolist(), "max": hi.tolist()})
        else:
            center = _as_vector(item["center"], 2, f"{ictx}.center")
            radius = _as_number(item["radius"], f"{ictx}.radius")
            if radius <= 0:
                raise ValidationError(f"{ictx}: disc radius must be positive")
            shapes.append({"type": "disc", "center": center.tolist(), "radius": radius})
    return shapes


def _positive(v, r):
    return "must be positive" if v <= 0 else None


def _nonnegative(v, r):
    return "must be nonnegative" if v < 0 else None


def _ordered_bounds(v, r):
    return None if v[2] > v[0] and v[3] > v[1] else "must satisfy xmin < xmax and ymin < ymax"


def _inside_world(v, r):
    b = r["world"]["bounds"]
    if b[0] <= v[0] <= b[2] and b[1] <= v[1] <= b[3]:
        return None
    return f"position {v[:2]} lies outside world.bounds"


def _default_wheels(r, path):
    # One wheel pair per axle: axles at pitch length/axle_count symmetric
    # about the center, one wheel on each side at the footprint edge.
    v = r["vehicle"]
    n = v["axle_count"]
    xs = (np.arange(n) - (n - 1) / 2.0) * (v["length"] / max(n, 1))
    return np.array([[x, sgn * v["width"] / 2.0] for x in xs for sgn in (1.0, -1.0)]).tolist()


def _speed_caps(r) -> list:
    v = r["vehicle"]
    return [v["v_max"], v["v_max"], v["omega_max"]]


REQUIRED = object()

# Every scenario setting, in resolution order: (block, key, parse, default,
# check). Block None is the top level. parse(raw, ctx) returns the resolved
# JSON value; a callable default is computed as default(resolved, path) from
# the settings resolved before it; check(value, resolved) returns an error
# message or None. README.md's scenario table documents the same rows.
SCENARIO_SCHEMA = (
    ("vehicle", "length", _as_number, REQUIRED, None),
    ("vehicle", "width", _as_number, REQUIRED, None),
    ("vehicle", "axle_count", _as_int, REQUIRED, None),
    ("vehicle", "wheel_positions", _wheels, _default_wheels, None),
    ("vehicle", "v_max", _as_number, VehicleParams.v_max, None),
    ("vehicle", "omega_max", _as_number, VehicleParams.omega_max, None),
    ("world", "bounds", _vector(4), REQUIRED, _ordered_bounds),
    ("world", "resolution", _as_number, 0.1, _positive),
    ("world", "clearance", _as_number, lambda r, path: r["vehicle"]["width"] / 2.0, _nonnegative),
    ("world", "obstacles", _obstacles, lambda r, path: [], None),
    (None, "start", _vector(3), REQUIRED, _inside_world),
    (None, "goal", _vector(3), REQUIRED, _inside_world),
    ("planner", "energy", _as_number, PlannerWeights.energy, _nonnegative),
    ("planner", "time", _as_number, PlannerWeights.time, _nonnegative),
    ("planner", "deviation", _as_number, PlannerWeights.deviation, _nonnegative),
    ("planner", "obstacle", _as_number, PlannerWeights.obstacle, _nonnegative),
    ("planner", "sweep", _as_number, PlannerWeights.sweep, _nonnegative),
    ("planner", "safety_margin", _as_number, PlannerWeights.safety_margin, _positive),
    ("planner", "max_iterations", _as_int, PlanOptions.max_iterations, _positive),
    ("planner", "grad_tol", _as_number, PlanOptions.grad_tol, _nonnegative),
    ("planner", "cost_tol", _as_number, PlanOptions.cost_tol, _nonnegative),
    ("planner", "init_speed", _as_number, PlanOptions.init_speed, _positive),
    ("planner", "waypoint_spacing", _as_number, 1.0, _positive),
    ("mpc", "dt", _as_number, MpcConfig.dt, None),
    ("mpc", "horizon", _as_int, MpcConfig.horizon, None),
    ("mpc", "control_horizon", _as_int, MpcConfig.control_horizon, None),
    ("mpc", "state_weight", _vector(3), lambda r, path: np.diag(MpcConfig().state_weight).tolist(), None),
    ("mpc", "input_weight", _vector(3), lambda r, path: np.diag(MpcConfig().input_weight).tolist(), None),
    ("mpc", "u_min", _vector(3), lambda r, path: [-u for u in _speed_caps(r)], None),
    ("mpc", "u_max", _vector(3), lambda r, path: _speed_caps(r), None),
    ("mpc", "du_max", _rate_cap, None, None),  # null: unbounded
    ("sim", "settle_time", _as_number, SimConfig.settle_time, _nonnegative),
    ("sim", "input_lag_tau", _as_number, SimConfig.input_lag_tau, _nonnegative),
    ("sweep", "resolution", _as_number, 0.05, _positive),
    ("sweep", "margin", _as_number, 0.3, None),
    (None, "name", _string, lambda r, path: os.path.splitext(os.path.basename(path))[0], None),
)

_BLOCK_KEYS = {block: {k for b, k, *_ in SCENARIO_SCHEMA if b == block} for block, *_ in SCENARIO_SCHEMA}
_REQUIRED_BLOCKS = {b for b, _, _, default, _ in SCENARIO_SCHEMA if b and default is REQUIRED}


def _open_block(doc: dict, block) -> dict:
    if block is None:
        _check_keys(doc, {"schema", *_BLOCK_KEYS[None], *filter(None, _BLOCK_KEYS)}, "scenario")
        if "schema" not in doc:
            raise ValidationError("missing required key 'schema'")
        if doc["schema"] != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema {doc['schema']!r}; this tool reads schema {SCHEMA_VERSION}")
        return doc
    if block not in doc:
        if block in _REQUIRED_BLOCKS:
            raise ValidationError(f"missing required block '{block}'")
        return {}
    raw = doc[block]
    if not isinstance(raw, dict):
        raise ValidationError(f"'{block}' must be an object")
    _check_keys(raw, _BLOCK_KEYS[block], block)
    return raw


def _resolve(doc: dict, path: str) -> dict:
    """Walk SCENARIO_SCHEMA over a scenario document and return every setting
    after defaults, nested like the document: rejects unknown keys, reports
    missing required keys, fills defaults and runs the checks."""
    resolved: dict = {}
    raw_blocks = {None: _open_block(doc, None)}
    for block, key, parse, default, check in SCENARIO_SCHEMA:
        if block not in raw_blocks:
            raw_blocks[block] = _open_block(doc, block)
            resolved[block] = {}
        raw = raw_blocks[block]
        ctx = f"{block}.{key}" if block else key
        if key in raw:
            value = parse(raw[key], ctx)
        elif default is REQUIRED:
            raise ValidationError(f"{block + ': ' if block else ''}missing required key '{key}'")
        else:
            value = default(resolved, path) if callable(default) else default
        problem = check(value, resolved) if check else None
        if problem:
            raise ValidationError(f"{ctx} {problem}")
        (resolved[block] if block else resolved)[key] = value
    return resolved


@dataclass
class Scenario:
    """Fully resolved run configuration; `echo` holds every value after defaults."""

    name: str
    veh: VehicleParams
    bounds: tuple
    resolution: float
    clearance: float
    obstacles: list
    start: np.ndarray
    goal: np.ndarray
    weights: PlannerWeights
    plan_opts: PlanOptions
    waypoint_spacing: float
    mpc: MpcConfig
    sim: SimConfig
    sweep_resolution: float
    sweep_margin: float
    echo: dict


def _build_scenario(echo: dict) -> Scenario:
    world, planner, m = echo["world"], echo["planner"], echo["mpc"]
    try:
        veh = VehicleParams(**echo["vehicle"])
    except ValueError as exc:
        raise ValidationError(f"vehicle: {exc}") from exc
    du_max = np.full(3, np.inf) if m["du_max"] is None else np.array(m["du_max"])
    weights = {key: np.diag(m[key]) for key in ("state_weight", "input_weight")}
    try:
        mpc = MpcConfig(**{**m, **weights, "du_min": -du_max, "du_max": du_max})
    except ValueError as exc:
        raise ValidationError(f"mpc: {exc}") from exc
    return Scenario(
        name=echo["name"],
        veh=veh,
        bounds=tuple(world["bounds"]),
        resolution=world["resolution"],
        clearance=world["clearance"],
        obstacles=[
            Box(*o["min"], *o["max"]) if o["type"] == "box" else Disc(*o["center"], o["radius"])
            for o in world["obstacles"]
        ],
        start=np.array(echo["start"]),
        goal=np.array(echo["goal"]),
        weights=PlannerWeights(**{f.name: planner[f.name] for f in fields(PlannerWeights)}),
        plan_opts=PlanOptions(**{f.name: planner[f.name] for f in fields(PlanOptions)}),
        waypoint_spacing=planner["waypoint_spacing"],
        mpc=mpc,
        sim=SimConfig(**echo["sim"]),
        sweep_resolution=echo["sweep"]["resolution"],
        sweep_margin=echo["sweep"]["margin"],
        echo=echo,
    )


def _reject_constant(name: str):
    raise ParseError(f"invalid JSON constant '{name}': scenario numbers must be finite")


def parse_scenario(path: str) -> Scenario:
    """Strict scenario load: unknown keys and invariant violations are errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario file is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    return _build_scenario(_resolve(doc, path))


# ---------------------------------------------------------------------------
# artifact serialization


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record(report) -> dict:
    """A report record as its JSON object: every field not marked UNWRITTEN, by name."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.metadata != UNWRITTEN}


FIELD_COLUMNS = ["x", "y", "f_star", "t_star"]


def _write_csv(path: str, header: list, rows) -> None:
    data = np.asarray(rows, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, r)) + "\n" for r in data.tolist())


def write_field_csv(path: str, field: SweptField) -> None:
    """One row per refined cell, whose f* and t* are exact, in (ix outer, iy
    inner) order so files compare bytewise. The grid is area.json's."""
    ix, iy = np.nonzero(field.refined)
    cx, cy = field.axes()
    _write_csv(path, FIELD_COLUMNS, np.column_stack([cx[ix], cy[iy], field.f_star[ix, iy], field.t_star[ix, iy]]))


def load_field_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, f_star, t_star) of field.csv's rows: (n, 2), (n,) and (n,).
    No stage reads field.csv back."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip().split(",") != FIELD_COLUMNS:
            raise MissingArtifact(f"{path} does not have the field.csv columns")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)  # a handle, not a path: no gzip import
    return data[:, :2], data[:, 2], data[:, 3]


# trace.csv's layout: each SimTrace field in column order with its column
# names. A field named by one string is 1-D; a "{}" name is one column per
# wheel, numbered from 1.
TRACE_CSV = (
    ("t", "t"),
    ("pose", ("x", "y", "phi")),
    ("ref", ("ref_x", "ref_y", "ref_phi")),
    ("u", ("vx", "vy", "omega")),
    ("e_y", "e_y"),
    ("e_phi", "e_phi"),
    ("wheel_gamma", ("gamma_{}",)),
    ("wheel_speed", ("speed_{}",)),
)


def _trace_layout(n_wheels: int) -> list:
    """(field, column names, index into a row) of each TRACE_CSV field for
    n_wheels wheels: a column number for a 1-D field, a slice otherwise."""
    layout, start = [], 0
    for name, cols in TRACE_CSV:
        if isinstance(cols, str):
            layout.append((name, [cols], start))
        else:
            names = [c.format(i + 1) for c in cols for i in range(n_wheels if "{}" in c else 1)]
            layout.append((name, names, slice(start, start + len(names))))
        start += len(layout[-1][1])
    return layout


def write_trace_csv(path: str, trace: SimTrace) -> None:
    layout = _trace_layout(trace.wheel_gamma.shape[1])
    header = [col for _, names, _ in layout for col in names]
    _write_csv(path, header, np.column_stack([getattr(trace, name) for name, _, _ in layout]))


def write_qp_log(path: str, trace: SimTrace) -> None:
    """One row per solved MPC step: its step number, then SimTrace.qp's QP_COLUMNS."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["step", *QP_COLUMNS]) + "\n")
        fh.writelines([",".join(map(str, [k, *row])) + "\n" for k, row in enumerate(trace.qp.tolist())])


def load_trace_csv(path: str) -> SimTrace:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)  # a handle, not a path: no gzip import
    if data.shape[0] < 2:
        raise MissingArtifact(f"{path} holds fewer than two samples")
    fixed, one = (sum(len(names) for _, names, _ in _trace_layout(n)) for n in (0, 1))
    layout = _trace_layout((len(header) - fixed) // (one - fixed))
    if [col for _, names, _ in layout for col in names] != header:
        raise MissingArtifact(f"{path} does not have the trace.csv columns")
    return SimTrace(**{name: data[:, index] for name, _, index in layout})


def _merge_timings(out_dir: str, updates: dict, stale=()) -> None:
    """Add `updates` to timings.json after dropping the keys of the `stale` stages."""
    path = os.path.join(out_dir, "timings.json")
    current = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                current = json.load(fh)
        except (json.JSONDecodeError, OSError):
            current = {}
    current = {k: v for k, v in current.items() if k.split("_", 1)[0] not in stale}
    current.update(updates)
    _write_json(path, current)


# ---------------------------------------------------------------------------
# pipeline


def _build_grid(sc: Scenario) -> GridMap:
    return rasterize_obstacles(sc.obstacles, sc.bounds, sc.resolution)


def _plan_init(sc: Scenario, grid: GridMap):
    route = astar_plan(grid, sc.start[:2], sc.goal[:2], clearance=sc.clearance)
    route = np.vstack([sc.start[:2], route, sc.goal[:2]])
    init = estimate_headings(route, spacing=sc.waypoint_spacing)
    poses = init.poses
    # Pin the commanded endpoint headings, then restore unwrapped continuity.
    poses[0, 2] = sc.start[2]
    for j in range(1, poses.shape[0]):
        d = math.remainder(poses[j, 2] - poses[j - 1, 2], 2.0 * math.pi)
        poses[j, 2] = poses[j - 1, 2] + d
    d_end = math.remainder(sc.goal[2] - poses[-2, 2], 2.0 * math.pi)
    poses[-1, 2] = poses[-2, 2] + d_end
    return init


def _stage_plan(sc: Scenario, out_dir: str, seed) -> None:
    grid = _build_grid(sc)
    t0 = time.perf_counter()
    init = _plan_init(sc, grid)
    t1 = time.perf_counter()
    report1 = optimize_stage1(init, sc.weights, sc.plan_opts)
    t2 = time.perf_counter()
    report2 = optimize_stage2(report1.trajectory, grid, sc.veh, sc.weights, sc.plan_opts)
    t3 = time.perf_counter()
    traj = report2.trajectory

    doc = {
        "schema": SCHEMA_VERSION,
        "scenario": sc.echo,
        "seed": seed,
        "stage1": _record(report1),
        "stage2": _record(report2),
        "total_time_s": traj.total_time,
    }
    _write_json(os.path.join(out_dir, "plan_report.json"), doc)
    evals = TRACE_COLUMNS.index("evals")
    with open(os.path.join(out_dir, "cost_trace.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(["stage", "iteration", *TRACE_COLUMNS]) + "\n")
        for stage, r in (("stage1", report1), ("stage2", report2)):
            for i, row in enumerate(r.trace.tolist()):
                row[evals] = int(row[evals])
                fh.write(",".join([stage, str(i), *map(repr, row)]) + "\n")
    _merge_timings(
        out_dir,
        {
            "plan_s": t3 - t0,
            "plan_init_s": t1 - t0,
            "plan_stage1_s": t2 - t1,
            "plan_stage2_s": t3 - t2,
        },
    )
    if not report2.feasible:
        raise RuntimeError(
            "planned trajectory violates the hard clearance check "
            f"(min footprint distance {report2.min_clearance:.4f} m)"
        )
    _write_json(os.path.join(out_dir, "trajectory.json"), traj.to_dict())


def _load_traj(out_dir: str) -> MincoTrajectory:
    path = os.path.join(out_dir, "trajectory.json")
    if not os.path.exists(path):
        raise MissingArtifact("stage needs trajectory.json; run the plan stage first")
    with open(path, "r", encoding="utf-8") as fh:
        return MincoTrajectory.from_dict(json.load(fh))


def _stage_sweep(sc: Scenario, out_dir: str) -> None:
    """Swept field of the plan; area.json records its region and resolution for the metrics stage."""
    traj, grid = _load_traj(out_dir), _build_grid(sc)
    t0 = time.perf_counter()
    region = list(auto_region(traj, sc.veh, margin=sc.sweep_margin))
    field = compute_swept_field(traj, sc.veh, region=region, resolution=sc.sweep_resolution)
    sweep_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    write_field_csv(os.path.join(out_dir, "field.csv"), field)
    csv_time = time.perf_counter() - t0
    report = excess_area(field, traj, sc.veh)
    area = {
        **_record(report),
        "region": region,
        "resolution": sc.sweep_resolution,
        "field_cells": field.width * field.height,
        "field_refined": int(np.count_nonzero(field.refined)),
    }
    _write_json(os.path.join(out_dir, "area.json"), area)
    t0 = time.perf_counter()
    render_scene(
        os.path.join(out_dir, "scene.svg"),
        sc.veh,
        traj=traj,
        grid=grid,
        field=field,
        bounds=sc.bounds,
    )
    svg_time = time.perf_counter() - t0
    _merge_timings(out_dir, {"sweep_s": sweep_time, "sweep_csv_s": csv_time, "sweep_svg_s": svg_time})


# the area.json keys the metrics stage reads; the planned areas go to metrics.json as planned_<key>
_PLANNED_AREAS = ("swept_area", "excess_area")
_AREA_KEYS = (*_PLANNED_AREAS, "region", "resolution")


def _load_area(out_dir: str) -> dict:
    path = os.path.join(out_dir, "area.json")
    if not os.path.exists(path):
        raise MissingArtifact("metrics needs area.json; run the sweep stage first")
    with open(path, "r", encoding="utf-8") as fh:
        area = json.load(fh)
    missing = [key for key in _AREA_KEYS if key not in area]
    if missing:
        raise MissingArtifact(f"area.json lacks {', '.join(missing)}; rerun the sweep stage")
    return area


def _stage_track(sc: Scenario, out_dir: str) -> None:
    traj = _load_traj(out_dir)
    t0 = time.perf_counter()
    trace = run_closed_loop(traj, sc.veh, sc.mpc, sc.sim)
    track_time = time.perf_counter() - t0
    write_trace_csv(os.path.join(out_dir, "trace.csv"), trace)
    write_qp_log(os.path.join(out_dir, "qp_log.csv"), trace)
    _merge_timings(out_dir, {"track_s": track_time, "track_mpc_s": trace.mpc_s, "track_alloc_s": trace.alloc_s})
    if trace.aborted is not None:
        raise RuntimeError(f"controller aborted mid-run: {trace.aborted}")


def _load_trace(out_dir: str) -> SimTrace:
    path = os.path.join(out_dir, "trace.csv")
    if not os.path.exists(path):
        raise MissingArtifact("metrics needs trace.csv; run the track stage first")
    trace = load_trace_csv(path)
    if np.isnan(trace.u[-1]).any():
        raise MissingArtifact("trace.csv ends in an aborted controller step; rerun the track stage")
    return trace


def _stage_metrics(sc: Scenario, out_dir: str) -> None:
    """Driven-path metrics on the sweep stage's grid; the planned areas are area.json's."""
    trace, area = _load_trace(out_dir), _load_area(out_dir)
    t0 = time.perf_counter()
    report = compute_metrics(trace, sc.veh, area["region"], area["resolution"])
    planned = {f"planned_{key}": area[key] for key in _PLANNED_AREAS}
    _write_json(os.path.join(out_dir, "metrics.json"), {**_record(report), **planned})
    _write_json(os.path.join(out_dir, "metrics_sweep.json"), _record(report.sweep))
    _merge_timings(out_dir, {"metrics_s": time.perf_counter() - t0, "metrics_area_s": report.area_s})


# The stages in run order, name: (run(sc, out_dir), the artifacts it writes besides timings.json,
# the earlier stages whose artifacts it loads from out_dir). plan's run also takes the seed.
# Each stage's timings.json keys start with its name and "_".
STAGES = {
    "plan": (_stage_plan, ("trajectory.json", "plan_report.json", "cost_trace.csv"), ()),
    "sweep": (_stage_sweep, ("field.csv", "area.json", "scene.svg"), ("plan",)),
    "track": (_stage_track, ("trace.csv", "qp_log.csv"), ("plan",)),
    "metrics": (_stage_metrics, ("metrics.json", "metrics_sweep.json"), ("sweep", "track")),
}


def _remove_stale(out_dir: str, stage: str) -> None:
    """Delete the artifacts and timings of `stage` and of every stage reading them, directly or not."""
    stale = {stage}
    present = set(os.listdir(out_dir))
    for name, (_, writes, reads) in STAGES.items():
        if name in stale or stale.intersection(reads):
            stale.add(name)
            for artifact in present.intersection(writes):
                os.remove(os.path.join(out_dir, artifact))
    if "timings.json" in present:
        _merge_timings(out_dir, {}, stale)


def run_pipeline(sc: Scenario, stages, out_dir: str, seed: int | None = None) -> int:
    """Execute the requested stages in STAGES order, writing artifacts into out_dir.

    Each stage loads its inputs from out_dir after deleting its earlier artifacts
    and those of their readers. Returns 0 on success; on failure writes error.json
    naming the stage, the exception and the innermost traceback frame, and returns
    1. An empty list or an unknown stage name raises ValueError before anything runs.
    """
    unknown = [s for s in stages if s not in STAGES]
    if unknown or not stages:
        raise ValueError(f"unknown stages {unknown}" if unknown else "no stages requested")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for stage in (s for s in STAGES if s in stages):
            _remove_stale(out_dir, stage)
            run = functools.partial(_stage_plan, seed=seed) if stage == "plan" else STAGES[stage][0]
            run(sc, out_dir)
    except Exception as exc:  # noqa: BLE001 - every failure becomes a machine-readable report
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        _write_json(
            os.path.join(out_dir, "error.json"),
            {"stage": stage, "error": type(exc).__name__, "message": str(exc), "where": where},
        )
        print(f"error in stage '{stage}': {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    err_path = os.path.join(out_dir, "error.json")
    if os.path.exists(err_path):
        os.remove(err_path)
    return 0


def _run_ablation(sc: Scenario, stages, out_dir: str, seed) -> int:
    """Run the pipeline twice: as configured, and with the sweep weight zeroed.

    Both runs always run, so neither subdirectory keeps an older run's artifacts, and the first
    nonzero exit code is returned. An old ablation.json is deleted first; a new one is written
    only when both runs produce metrics."""
    os.makedirs(out_dir, exist_ok=True)
    ablation = os.path.join(out_dir, "ablation.json")
    if os.path.exists(ablation):
        os.remove(ablation)
    sv_off = _build_scenario(dict(sc.echo, planner=dict(sc.echo["planner"], sweep=0.0)))
    codes, results = [], {}
    for label, run_sc in (("sv_on", sc), ("sv_off", sv_off)):
        sub = os.path.join(out_dir, label)
        codes.append(run_pipeline(run_sc, stages, sub, seed=seed))
        metrics_path = os.path.join(sub, "metrics.json")
        if os.path.exists(metrics_path):
            with open(metrics_path, "r", encoding="utf-8") as fh:
                results[label] = json.load(fh)
    if "sv_on" in results and "sv_off" in results:
        _write_json(
            ablation,
            {
                "sv_on_excess": results["sv_on"]["excess_swept_area"],
                "sv_off_excess": results["sv_off"]["excess_swept_area"],
                "improvement": results["sv_off"]["excess_swept_area"]
                - results["sv_on"]["excess_swept_area"],
            },
        )
    return next((code for code in codes if code), 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sweptplan",
        description="Plan, sweep-analyze, track, and score swerve-drive trajectories.",
    )
    parser.add_argument(
        "stages",
        choices=[*STAGES, "all"],
        help="pipeline stage to run ('all' runs plan, sweep, track, metrics in order)",
    )
    parser.add_argument("--config", required=True, help="scenario JSON file (schema 1)")
    parser.add_argument("--out", default="out", help="artifact output directory (default: ./out)")
    parser.add_argument(
        "--ablate-sv",
        action="store_true",
        help="run twice (sv_on/, sv_off/ subdirectories) and compare excess swept areas",
    )
    parser.add_argument("--seed", type=int, default=None, help="echoed into reports; the pipeline is deterministic")
    args = parser.parse_args(argv)

    try:
        sc = parse_scenario(args.config)
    except FileNotFoundError:
        print(f"error: scenario file not found: {args.config}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read scenario file {args.config}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    stages = list(STAGES) if args.stages == "all" else [args.stages]
    if args.ablate_sv:
        return _run_ablation(sc, stages, args.out, args.seed)
    return run_pipeline(sc, stages, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
