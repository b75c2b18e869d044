import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import numpy.testing as npt
import pytest

from helpers import on_area_grid, straight_traj
from oracles import write_csv_per_value
import sweptplan.cli as cli
import sweptplan.mpc as mpc
import sweptplan.planner as planner
import sweptplan.sim as sim
from sweptplan.cli import (
    MissingArtifact,
    ParseError,
    ValidationError,
    load_field_csv,
    load_trace_csv,
    main,
    parse_scenario,
    run_pipeline,
    write_field_csv,
)
from sweptplan.minco import MincoTrajectory
from sweptplan.planner import TRACE_COLUMNS, CheckedPlanReport, PlanReport
from sweptplan.sweptfield import UNWRITTEN, AreaReport, SweepCount, SweptField, compute_swept_field, min_time_distance
from sweptplan.worldmodel import Grid

STRAIGHT = os.path.join(os.path.dirname(__file__), "..", "scenarios", "straight.json")
ARTIFACTS = [name for _, writes, _ in cli.STAGES.values() for name in writes]


def _write(tmp_path, body, name="sc.json"):
    p = tmp_path / name
    p.write_text(body if isinstance(body, str) else json.dumps(body))
    return str(p)


def _minimal(**over):
    sc = {
        "schema": 1,
        "name": "mini",
        "vehicle": {"length": 2.0, "width": 1.0, "axle_count": 2},
        "world": {"bounds": [-2.0, -3.0, 14.0, 3.0]},
        "start": [0.0, 0.0, 0.0],
        "goal": [10.0, 0.0, 0.0],
    }
    sc.update(over)
    return sc


def test_parse_minimal_defaults(tmp_path):
    sc = parse_scenario(_write(tmp_path, _minimal()))
    assert sc.name == "mini"
    assert sc.resolution == 0.1
    npt.assert_allclose(sc.clearance, 0.5)  # half width
    assert sc.veh.wheel_positions.shape == (4, 2)
    assert sc.weights.deviation > 0.0
    assert sc.mpc.dt == 0.05
    assert sc.sweep_resolution == 0.05
    # resolved defaults are echoed for the run report
    assert sc.echo["world"]["resolution"] == 0.1
    assert sc.echo["planner"]["waypoint_spacing"] == 1.0


def test_parse_missing_vehicle(tmp_path):
    body = _minimal()
    del body["vehicle"]
    with pytest.raises(ValidationError, match="vehicle"):
        parse_scenario(_write(tmp_path, body))


def test_parse_unknown_key_named(tmp_path):
    body = _minimal()
    body["vehicle"]["wheels_raidus"] = 0.3
    with pytest.raises(ParseError, match="wheels_raidus"):
        parse_scenario(_write(tmp_path, body))


def test_parse_bad_schema(tmp_path):
    with pytest.raises(ValidationError, match="schema"):
        parse_scenario(_write(tmp_path, _minimal(schema=2)))


def test_parse_invalid_json_line_info(tmp_path):
    with pytest.raises(ParseError, match="line"):
        parse_scenario(_write(tmp_path, '{"schema": 1,\n  "name": }'))


def test_parse_start_outside_bounds(tmp_path):
    with pytest.raises(ValidationError, match="start"):
        parse_scenario(_write(tmp_path, _minimal(start=[-50.0, 0.0, 0.0])))


def test_parse_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_scenario("/nonexistent/path/sc.json")


def test_parse_rejects_boolean_number(tmp_path):
    body = _minimal()
    body["vehicle"]["length"] = True
    with pytest.raises((ParseError, ValidationError)):
        parse_scenario(_write(tmp_path, body))


DELETE = object()

# One fault per scenario, each with the exact error it must raise. A path
# names the key to set (or DELETE) in the minimal scenario. A row's test id is
# its path, plus its optional fifth element, a tag that keeps a later row for
# the same key from renumbering the earlier ones.
SINGLE_FAULTS = [
    (('extra',), 1, ParseError, "unknown key 'extra' in scenario"),
    (('schema',), DELETE, ValidationError, "missing required key 'schema'"),
    (('schema',), 2, ValidationError, 'unsupported schema 2; this tool reads schema 1'),
    (('name',), 5, ValidationError, 'name must be a string'),
    (('vehicle',), DELETE, ValidationError, "missing required block 'vehicle'"),
    (('vehicle',), [1], ValidationError, "'vehicle' must be an object"),
    (('vehicle', 'wheels_raidus'), 0.3, ParseError, "unknown key 'wheels_raidus' in vehicle"),
    (('vehicle', 'length'), DELETE, ValidationError, "vehicle: missing required key 'length'"),
    (('vehicle', 'width'), DELETE, ValidationError, "vehicle: missing required key 'width'"),
    (('vehicle', 'axle_count'), DELETE, ValidationError, "vehicle: missing required key 'axle_count'"),
    (('vehicle', 'length'), '2', ValidationError, 'vehicle.length must be a number, got str'),
    (('vehicle', 'length'), True, ValidationError, 'vehicle.length must be a number, got bool'),
    (('vehicle', 'length'), -2.0, ValidationError, 'vehicle: footprint dimensions must be positive'),
    (('vehicle', 'axle_count'), 2.0, ValidationError, 'vehicle.axle_count must be an integer, got float'),
    (('vehicle', 'axle_count'), -1, ValidationError, 'vehicle: axle_count must be >= 1'),
    (('vehicle', 'axle_count'), 0, ValidationError, 'vehicle: axle_count must be >= 1'),
    (('vehicle', 'wheel_positions'), [], ValidationError, 'vehicle.wheel_positions must be a nonempty list of [x, y]'),
    (('vehicle', 'wheel_positions'), [[0.0, 0.0, 0.0]], ValidationError, 'vehicle.wheel_positions[0] must be a list of 2 numbers'),
    (('vehicle', 'wheel_positions'), [[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]], ValidationError, 'vehicle: wheel positions are collinear; twist reconstruction would be rank deficient'),
    (('vehicle', 'wheel_positions'), [[-0.5, 0.4], [0.5, 0.4], [0.0, -2.0]], ValidationError, 'vehicle: wheel positions must lie inside the footprint'),
    (('vehicle', 'v_max'), 'fast', ValidationError, 'vehicle.v_max must be a number, got str'),
    (('vehicle', 'omega_max'), 0.0, ValidationError, 'vehicle: rate limits must be positive'),
    (('world',), DELETE, ValidationError, "missing required block 'world'"),
    (('world',), 'x', ValidationError, "'world' must be an object"),
    (('world', 'origin'), [0, 0], ParseError, "unknown key 'origin' in world"),
    (('world', 'bounds'), DELETE, ValidationError, "world: missing required key 'bounds'"),
    (('world', 'bounds'), [0.0, 0.0, 1.0], ValidationError, 'world.bounds must be a list of 4 numbers'),
    (('world', 'bounds'), [14.0, -3.0, -2.0, 3.0], ValidationError, 'world.bounds must satisfy xmin < xmax and ymin < ymax'),
    (('world', 'bounds'), [-2.0, 'a', 14.0, 3.0], ValidationError, 'world.bounds[1] must be a number, got str'),
    (('world', 'resolution'), 0.0, ValidationError, 'world.resolution must be positive'),
    (('world', 'clearance'), 'x', ValidationError, 'world.clearance must be a number, got str'),
    (('world', 'clearance'), -5.0, ValidationError, 'world.clearance must be nonnegative', 'negative'),
    (('world', 'obstacles'), {}, ValidationError, 'world.obstacles must be a list'),
    (('world', 'obstacles'), [{'min': [0, 0]}], ValidationError, "world.obstacles[0] must be an object with a 'type' key"),
    (('world', 'obstacles'), [{'type': 'triangle'}], ValidationError, "world.obstacles[0]: unknown obstacle type 'triangle'"),
    (('world', 'obstacles'), [{'type': 'box', 'min': [0, 0]}], ValidationError, "world.obstacles[0]: box needs 'max'"),
    (('world', 'obstacles'), [{'type': 'box', 'min': [1, 1], 'max': [0, 2]}], ValidationError, 'world.obstacles[0]: box max must exceed min componentwise'),
    (('world', 'obstacles'), [{'type': 'box', 'min': [0, 0], 'max': [1, 1], 'color': 'red'}], ParseError, "unknown key 'color' in world.obstacles[0]"),
    (('world', 'obstacles'), [{'type': 'disc', 'center': [3, 3], 'radius': 0}], ValidationError, 'world.obstacles[0]: disc radius must be positive'),
    (('world', 'obstacles'), [{'type': 'disc', 'center': [3], 'radius': 1}], ValidationError, 'world.obstacles[0].center must be a list of 2 numbers'),
    (('world', 'obstacles'), [{'type': 'disc', 'center': [3, 3]}], ValidationError, "world.obstacles[0]: disc needs 'radius'"),
    (('start',), DELETE, ValidationError, "missing required key 'start'"),
    (('goal',), [10.0, 0.0], ValidationError, 'goal must be a list of 3 numbers'),
    (('start',), [-50.0, 0.0, 0.0], ValidationError, 'start position [-50.0, 0.0] lies outside world.bounds'),
    (('goal',), [10.0, 9.0, 0.0], ValidationError, 'goal position [10.0, 9.0] lies outside world.bounds'),
    (('planner',), 3, ValidationError, "'planner' must be an object"),
    (('planner', 'solver'), 'lbfgs', ParseError, "unknown key 'solver' in planner"),
    (('planner', 'energy'), -1.0, ValidationError, 'planner.energy must be nonnegative'),
    (('planner', 'sweep'), -0.5, ValidationError, 'planner.sweep must be nonnegative'),
    (('planner', 'safety_margin'), 0.0, ValidationError, 'planner.safety_margin must be positive'),
    (('planner', 'max_iterations'), 1.5, ValidationError, 'planner.max_iterations must be an integer, got float'),
    (('planner', 'max_iterations'), -5, ValidationError, 'planner.max_iterations must be positive', 'nonpositive'),
    (('planner', 'init_speed'), -1.0, ValidationError, 'planner.init_speed must be positive', 'nonpositive'),
    (('planner', 'grad_tol'), 'tiny', ValidationError, 'planner.grad_tol must be a number, got str'),
    (('planner', 'grad_tol'), -1.0, ValidationError, 'planner.grad_tol must be nonnegative', 'negative'),
    (('planner', 'cost_tol'), -1.0, ValidationError, 'planner.cost_tol must be nonnegative', 'negative'),
    (('planner', 'waypoint_spacing'), 0.0, ValidationError, 'planner.waypoint_spacing must be positive'),
    (('mpc', 'input_hold_beyond_nc'), True, ParseError, "unknown key 'input_hold_beyond_nc' in mpc"),
    (('mpc', 'dt'), 'x', ValidationError, 'mpc.dt must be a number, got str'),
    (('mpc', 'horizon'), 2.5, ValidationError, 'mpc.horizon must be an integer, got float'),
    (('mpc', 'state_weight'), [1.0, 2.0], ValidationError, 'mpc.state_weight must be a list of 3 numbers'),
    (('mpc', 'du_max'), [1.0, 1.0], ValidationError, 'mpc.du_max must be a list of 3 numbers'),
    (('mpc', 'du_max'), [-0.1, 0.1, 0.1], ValidationError, 'mpc: du_min must not exceed du_max componentwise', 'negative'),
    (('mpc', 'u_min'), [-1.0, False, -1.0], ValidationError, 'mpc.u_min[1] must be a number, got bool'),
    (('mpc', 'dt'), 0.0, ValidationError, 'mpc: dt must be positive'),
    (('mpc', 'control_horizon'), 30, ValidationError, 'mpc: need 1 <= control_horizon <= horizon'),
    (('mpc', 'u_min'), [3.0, -2.0, -1.0], ValidationError, 'mpc: u_min must be below u_max componentwise'),
    (('mpc', 'input_weight'), [-1.0, 0.05, 0.05], ValidationError, 'mpc: input_weight must be positive semidefinite'),
    (('sim', 'paper_wheel_matrix'), True, ParseError, "unknown key 'paper_wheel_matrix' in sim"),
    (('sim', 'settle_time'), -1.0, ValidationError, 'sim.settle_time must be nonnegative'),
    (('sim', 'input_lag_tau'), 'slow', ValidationError, 'sim.input_lag_tau must be a number, got str'),
    (('sim', 'input_lag_tau'), -0.1, ValidationError, 'sim.input_lag_tau must be nonnegative', 'negative'),
    (('sweep', 'threads'), 2, ParseError, "unknown key 'threads' in sweep"),
    (('sweep', 'resolution'), 0.0, ValidationError, 'sweep.resolution must be positive'),
    (('sweep', 'margin'), 'x', ValidationError, 'sweep.margin must be a number, got str'),
]


@pytest.mark.parametrize(
    "path, value, exc, message",
    [case[:4] for case in SINGLE_FAULTS],
    ids=["/".join(case[0] + case[4:]) for case in SINGLE_FAULTS],
)
def test_parse_single_fault_message(tmp_path, path, value, exc, message):
    body = _minimal()
    block = body
    for key in path[:-1]:
        block = block.setdefault(key, {})
    if value is DELETE:
        del block[path[-1]]
    else:
        block[path[-1]] = value
    with pytest.raises(exc) as info:
        parse_scenario(_write(tmp_path, body))
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize(
    "body, message",
    [
        ("[1, 2]", "scenario document must be a JSON object"),
        ('{"schema": 1,\n  "name": }', "invalid JSON at line 2 column 11: Expecting value"),
    ],
)
def test_parse_document_fault_message(tmp_path, body, message):
    with pytest.raises(ParseError) as info:
        parse_scenario(_write(tmp_path, body))
    assert str(info.value) == message


@pytest.mark.parametrize("scenario", ["straight.json", "turn90.json"])
def test_parse_echo_round_trip(tmp_path, scenario):
    sc = parse_scenario(os.path.join(os.path.dirname(STRAIGHT), scenario))
    assert sc.echo["mpc"]["du_max"] is None
    again = parse_scenario(_write(tmp_path, dict(sc.echo, schema=1)))
    assert again.echo == sc.echo
    npt.assert_array_equal(again.mpc.du_max, np.full(3, np.inf))


@pytest.fixture(scope="module")
def straight_all(tmp_path_factory):
    """Output directory of one `all` run on straight.json."""
    out = tmp_path_factory.mktemp("straight_all")
    assert run_pipeline(parse_scenario(STRAIGHT), ["plan", "sweep", "track", "metrics"], str(out)) == 0
    return out


def test_pipeline_straight_all_stages(straight_all):
    out = straight_all
    for name in (*ARTIFACTS, "timings.json"):
        assert (out / name).exists(), name
    timings = json.loads((out / "timings.json").read_text())
    for key in ("sweep_s", "sweep_csv_s", "sweep_svg_s"):
        assert timings[key] > 0.0, key
    qp_rows = (out / "qp_log.csv").read_text().splitlines()
    assert qp_rows[0] == "step,optimal,iterations,active_set_size"
    assert len(qp_rows) - 1 == len(load_trace_csv(str(out / "trace.csv")).t)
    assert all(row.split(",")[1] == "1" for row in qp_rows[1:])
    metrics = json.loads((out / "metrics.json").read_text())
    assert abs(metrics["excess_swept_area"]) < 0.2
    assert metrics["max_abs_e_y"] < 0.05
    # wall-clock timings stay out of the deterministic artifacts
    assert "planning_time" not in metrics
    report = json.loads((out / "plan_report.json").read_text())
    assert report["stage2"]["feasible"] is True
    assert report["scenario"]["name"] == "straight"


def test_cost_trace_columns_explain_convergence(straight_all):
    lines = (straight_all / "cost_trace.csv").read_text().splitlines()
    assert lines[0] == "stage,iteration,cost,grad_norm,step,evals,energy,time,deviation,obstacle,sweep"
    fields = [line.split(",") for line in lines[1:]]
    report = json.loads((straight_all / "plan_report.json").read_text())
    # stage is named as in plan_report.json; iteration and evals are integers.
    assert {f[0] for f in fields} == {"stage1", "stage2"}
    assert all(f[5] == str(int(f[5])) for f in fields)
    for key in ("stage1", "stage2"):
        part = [f for f in fields if f[0] == key]
        assert [f[1] for f in part] == [str(i) for i in range(len(part))]
        assert report[key]["iterations"] == len(part) - 1
        assert report[key]["final_cost"] == float(part[-1][2])
        assert part[0][4:6] == ["0.0", "1"]
    for row in (list(map(float, f[2:])) for f in fields):
        total = row[4]
        for term in row[5:]:
            total += term
        assert total == row[0]


def _written(record) -> set:
    return {f.name for f in dataclasses.fields(record) if f.metadata != UNWRITTEN}


def test_plan_report_stage_entries_are_their_records(straight_all):
    report = json.loads((straight_all / "plan_report.json").read_text())
    assert set(report["stage1"]) == _written(PlanReport)
    assert set(report["stage2"]) == _written(CheckedPlanReport)


def test_plan_stage2_time_covers_the_feasibility_check(tmp_path, monkeypatch):
    """plan_stage2_s runs through check_feasibility, and the plan's three
    parts fit inside plan_s."""
    check = planner.check_feasibility

    def slow_check(*args):
        time.sleep(0.2)
        return check(*args)

    monkeypatch.setattr(planner, "check_feasibility", slow_check)
    assert run_pipeline(parse_scenario(STRAIGHT), ["plan"], str(tmp_path)) == 0
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert timings["plan_stage2_s"] >= 0.2
    assert timings["plan_init_s"] + timings["plan_stage1_s"] + timings["plan_stage2_s"] <= timings["plan_s"]


@pytest.mark.parametrize(
    "stages, message", [(["plan", "metircs"], r"unknown stages \['metircs'\]"), ([], "no stages requested")]
)
def test_pipeline_rejects_bad_stage_lists_before_running(tmp_path, stages, message):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        run_pipeline(parse_scenario(STRAIGHT), stages, str(out))
    assert not out.exists()


def test_plan_report_counts_steps_not_points(tmp_path):
    out = tmp_path / "out"
    sc = parse_scenario(_write(tmp_path, _minimal(planner={"max_iterations": 5})))
    assert run_pipeline(sc, ["plan"], str(out)) == 0
    report = json.loads((out / "plan_report.json").read_text())
    assert report["stage1"]["iterations"] == report["stage2"]["iterations"] == 5
    assert report["stage1"]["reason"] == report["stage2"]["reason"] == "max_iterations"
    assert len((out / "cost_trace.csv").read_text().splitlines()) == 1 + 2 * 6


@pytest.mark.parametrize("case", ["no_trajectory", "no_area", "stale_area", "no_trace"])
def test_pipeline_stage_dependency_missing(tmp_path, straight_all, case):
    out = tmp_path / "out"
    out.mkdir()
    stage, loader, message = "track", "_load_traj", "trajectory.json"
    if case == "no_trace":
        stage, loader, message = "metrics", "_load_trace", "trace.csv"
        shutil.copy(straight_all / "area.json", out)
    elif case != "no_trajectory":
        stage, loader, message = "metrics", "_load_area", "area.json"
        shutil.copy(straight_all / "trace.csv", out)
    if case == "stale_area":
        # an area.json from before the sweep stage recorded its grid
        area = json.loads((straight_all / "area.json").read_text())
        del area["region"], area["resolution"]
        (out / "area.json").write_text(json.dumps(area))
        message = "area.json lacks region, resolution"
    rc = run_pipeline(parse_scenario(STRAIGHT), [stage], str(out))
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["stage"] == stage
    assert err["error"] == "MissingArtifact"
    assert message in err["message"], err["message"]
    assert re.fullmatch(rf"cli\.py:\d+ in {loader}", err["where"]), err["where"]


def test_pipeline_unreachable_goal_error_report(tmp_path):
    body = _minimal()
    # goal sealed inside a box of walls
    body["world"]["obstacles"] = [
        {"type": "box", "min": [8.0, -2.0], "max": [8.4, 2.0]},
        {"type": "box", "min": [12.0, -2.0], "max": [12.4, 2.0]},
        {"type": "box", "min": [8.0, -2.0], "max": [12.4, -1.6]},
        {"type": "box", "min": [8.0, 1.6], "max": [12.4, 2.0]},
    ]
    sc = parse_scenario(_write(tmp_path, body))
    out = tmp_path / "out"
    rc = run_pipeline(sc, ["plan"], str(out))
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["stage"] == "plan"
    assert err["error"] == "NoPath"


def test_pipeline_staged_execution_from_disk(tmp_path, straight_all):
    sc = parse_scenario(STRAIGHT)
    out = tmp_path / "out"
    assert run_pipeline(sc, ["plan"], str(out)) == 0
    assert run_pipeline(sc, ["sweep"], str(out)) == 0
    assert run_pipeline(sc, ["track"], str(out)) == 0
    assert run_pipeline(sc, ["metrics"], str(out)) == 0
    assert (out / "metrics.json").exists()
    assert not (out / "error.json").exists()
    # four staged calls write the same bytes as one `all` call; only wall times differ
    names = sorted(set(os.listdir(straight_all)) - {"timings.json"})
    assert sorted(set(os.listdir(out)) - {"timings.json"}) == names
    assert [n for n in names if (out / n).read_bytes() != (straight_all / n).read_bytes()] == []


def test_all_run_loads_every_input_from_out_dir(tmp_path, straight_all, monkeypatch):
    # A run of all four stages takes the staged path: each stage reads its inputs through its loader.
    seen = []
    for loader in ("_load_traj", "_load_trace", "_load_area"):

        def spy(out_dir, real=getattr(cli, loader), loader=loader):
            seen.append((sys._getframe(1).f_code.co_name, loader))
            return real(out_dir)

        monkeypatch.setattr(cli, loader, spy)
    out = tmp_path / "out"
    assert run_pipeline(parse_scenario(STRAIGHT), list(cli.STAGES), str(out)) == 0
    assert seen == [
        ("_stage_sweep", "_load_traj"),
        ("_stage_track", "_load_traj"),
        ("_stage_metrics", "_load_trace"),
        ("_stage_metrics", "_load_area"),
    ]
    assert [n for n in ARTIFACTS if (out / n).read_bytes() != (straight_all / n).read_bytes()] == []


@pytest.mark.parametrize(
    "stage, kept",
    [("plan", ()), ("sweep", ("plan", "track")), ("track", ("plan", "sweep")), ("metrics", ("plan", "sweep", "track"))],
)
def test_a_stage_removes_its_artifacts_and_those_of_their_readers(tmp_path, stage, kept):
    # metrics reads sweep and track, so a rerun of plan removes it too; sweep keeps the trace.
    for name in (*ARTIFACTS, "timings.json", "error.json"):
        (tmp_path / name).write_text("old")
    cli._remove_stale(str(tmp_path), stage)
    expect = {n for s in kept for n in cli.STAGES[s][1]} | {"timings.json", "error.json"}
    assert set(os.listdir(tmp_path)) == expect


def _assert_later_stages_fail(sc, out):
    """sweep, track and metrics each fail on the missing plan, and no artifact of theirs is left."""
    for stage in ("sweep", "track", "metrics"):
        assert run_pipeline(sc, [stage], str(out)) == 1, stage
        err = json.loads((out / "error.json").read_text())
        assert (err["stage"], err["error"]) == (stage, "MissingArtifact"), err
    later = {n for s in ("sweep", "track", "metrics") for n in cli.STAGES[s][1]}
    assert set(os.listdir(out)) & (later | {"trajectory.json"}) == set()


def test_plan_failing_the_clearance_check_writes_no_trajectory(tmp_path):
    raw = json.loads(open(STRAIGHT, encoding="utf-8").read())
    raw["world"]["clearance"] = 0.0
    raw["world"]["obstacles"] = [
        {"type": "box", "min": [4.8, -3.0], "max": [5.2, -0.3]},
        {"type": "box", "min": [4.8, 0.3], "max": [5.2, 3.0]},
    ]
    raw["planner"]["obstacle"] = 0.0
    sc = parse_scenario(_write(tmp_path, raw))
    out = tmp_path / "out"
    assert run_pipeline(sc, ["plan"], str(out)) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["stage"] == "plan" and "hard clearance check" in err["message"], err
    # the failed plan is still recorded
    assert json.loads((out / "plan_report.json").read_text())["stage2"]["feasible"] is False
    assert (out / "cost_trace.csv").exists()
    _assert_later_stages_fail(sc, out)


def test_failed_plan_leaves_no_earlier_run_behind(tmp_path, straight_all):
    out = tmp_path / "out"
    shutil.copytree(straight_all, out)
    raw = json.loads(open(STRAIGHT, encoding="utf-8").read())
    raw["world"]["obstacles"] = [{"type": "box", "min": [4.8, -3.0], "max": [5.2, 3.0]}]
    sc = parse_scenario(_write(tmp_path, raw))
    assert run_pipeline(sc, ["plan"], str(out)) == 1
    assert json.loads((out / "error.json").read_text())["error"] == "NoPath"
    _assert_later_stages_fail(sc, out)


def _timing_stages(out):
    """The stages whose keys timings.json in `out` holds."""
    return {key.split("_", 1)[0] for key in json.loads((out / "timings.json").read_text())}


def test_timing_keys_start_with_their_stage_name(straight_all):
    assert _timing_stages(straight_all) == set(cli.STAGES)


def test_a_stage_drops_the_timings_of_the_artifacts_it_removes(tmp_path, straight_all):
    out = tmp_path / "out"
    shutil.copytree(straight_all, out)
    old = json.loads((out / "timings.json").read_text())
    (out / "timings.json").write_text(json.dumps(dict.fromkeys(old, -1.0)))
    assert run_pipeline(parse_scenario(STRAIGHT), ["sweep"], str(out)) == 0
    now = json.loads((out / "timings.json").read_text())
    assert {k: v for k, v in now.items() if not k.startswith("sweep_")} == {
        k: -1.0 for k in old if k.startswith(("plan_", "track_"))
    }
    assert {k for k in now if k.startswith("sweep_")} == {k for k in old if k.startswith("sweep_")}
    assert all(v >= 0.0 for k, v in now.items() if k.startswith("sweep_"))


@pytest.fixture(scope="module")
def straight_ablation(tmp_path_factory):
    """Output directory of one `all --ablate-sv` run on straight.json."""
    out = tmp_path_factory.mktemp("straight_ablation")
    assert main(["all", "--config", STRAIGHT, "--out", str(out), "--ablate-sv"]) == 0
    assert (out / "ablation.json").exists()
    return out


def test_ablation_rerun_leaves_no_stale_timings_or_comparison(tmp_path, straight_ablation):
    out = tmp_path / "out"
    shutil.copytree(straight_ablation, out)
    assert main(["plan", "--config", STRAIGHT, "--out", str(out), "--ablate-sv"]) == 0
    assert sorted(os.listdir(out)) == ["sv_off", "sv_on"]
    for sub in ("sv_on", "sv_off"):
        assert set(os.listdir(out / sub)) == {*cli.STAGES["plan"][1], "timings.json"}
        assert _timing_stages(out / sub) == {"plan"}


def test_failed_ablation_rerun_leaves_no_stale_timings_or_comparison(tmp_path, straight_ablation):
    out = tmp_path / "out"
    shutil.copytree(straight_ablation, out)
    raw = json.loads(open(STRAIGHT, encoding="utf-8").read())
    raw["world"]["obstacles"] = [{"type": "box", "min": [4.8, -3.0], "max": [5.2, 3.0]}]
    assert main(["plan", "--config", _write(tmp_path, raw), "--out", str(out), "--ablate-sv"]) == 1
    assert not (out / "ablation.json").exists()
    # both sub-runs run, so sv_off/ holds no artifact of the earlier scenario either
    for sub in ("sv_on", "sv_off"):
        assert set(os.listdir(out / sub)) == {"error.json", "timings.json"}
        assert json.loads((out / sub / "error.json").read_text())["error"] == "NoPath"
        assert _timing_stages(out / sub) == set()


def test_pipeline_rerun_overwrites_identically(tmp_path):
    sc = parse_scenario(STRAIGHT)
    out = tmp_path / "out"
    assert run_pipeline(sc, ["plan", "sweep"], str(out)) == 0
    first = (out / "field.csv").read_bytes()
    first_traj = (out / "trajectory.json").read_bytes()
    assert run_pipeline(sc, ["plan", "sweep"], str(out)) == 0
    assert (out / "field.csv").read_bytes() == first
    assert (out / "trajectory.json").read_bytes() == first_traj


def test_csv_round_trip(tmp_path):
    sc = parse_scenario(STRAIGHT)
    out = tmp_path / "out"
    assert run_pipeline(sc, ["plan", "sweep", "track"], str(out)) == 0
    centers, f_star, t_star = load_field_csv(str(out / "field.csv"))
    assert f_star.size > 0 and centers.shape == (f_star.size, 2) and t_star.shape == f_star.shape
    trace = load_trace_csv(str(out / "trace.csv"))
    assert trace.t.shape[0] == trace.pose.shape[0]
    # repr-format floats reload to the exact same values
    _, f_star2, _ = load_field_csv(str(out / "field.csv"))
    npt.assert_array_equal(f_star, f_star2)


def _odd_trace(n_wheels: int, rows: int = 6) -> sim.SimTrace:
    """A SimTrace of seeded values with signed zeros, a subnormal and large
    magnitudes, whose last row is an aborted step (nan twist and wheels)."""
    rng = np.random.default_rng(n_wheels)
    parts = {}
    for name, columns, index in cli._trace_layout(n_wheels):
        shape = (rows,) if isinstance(index, int) else (rows, len(columns))
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        values.flat[:3] = (-0.0, 0.0, 5e-324)
        parts[name] = values
    for name in ("u", "wheel_gamma", "wheel_speed"):
        parts[name][-1] = np.nan
    return sim.SimTrace(**parts)


@pytest.mark.parametrize("n_wheels", [1, 4, 10])
def test_trace_csv_round_trip_is_bitwise(tmp_path, n_wheels):
    trace = _odd_trace(n_wheels)
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(str(path), trace)
    back = load_trace_csv(str(path))
    for name, _ in cli.TRACE_CSV:
        want, got = getattr(trace, name), getattr(back, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # -0.0 and nan kept
    header = path.read_text().splitlines()[0].split(",")
    assert header[-2 * n_wheels :] == [f"{k}_{i + 1}" for k in ("gamma", "speed") for i in range(n_wheels)]
    again = tmp_path / "again.csv"
    cli.write_trace_csv(str(again), back)
    assert again.read_bytes() == path.read_bytes()


def test_load_trace_csv_rejects_other_columns(tmp_path):
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(str(path), _odd_trace(2))
    header, *rows = path.read_text().splitlines()
    renamed = [header.replace("ref_phi", "ref_heading"), *rows]
    extra = [header + ",extra", *(row + ",0.0" for row in rows)]
    for lines in (renamed, extra):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingArtifact, match="does not have the trace.csv columns"):
            load_trace_csv(str(path))


def test_grid_res_override(tmp_path):
    sc = parse_scenario(STRAIGHT)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_pipeline(sc, ["plan", "sweep"], str(out1)) == 0
    with open(STRAIGHT, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    body["sweep"]["resolution"] = 0.1
    sc2 = parse_scenario(_write(tmp_path, body))
    assert run_pipeline(sc2, ["plan", "sweep"], str(out2)) == 0
    rows = []
    for out, res in ((out1, 0.05), (out2, 0.1)):
        # area.json records the exact resolution the field was computed at,
        # and every row lies on a center of its grid, bit for bit
        area = json.loads((out / "area.json").read_text())
        assert area["resolution"] == res
        centers, f_star, _ = load_field_csv(str(out / "field.csv"))
        assert on_area_grid(centers, area)
        rows.append(f_star.size)
    assert rows[0] > rows[1]


def test_main_help_and_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    rc = main(["all", "--config", "/nonexistent.json", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_main_parse_error_exit_code(tmp_path):
    bad = _write(tmp_path, '{"schema": 1')
    rc = main(["all", "--config", bad, "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_non_finite_constant(tmp_path, constant, capsys):
    body = json.dumps(_minimal()).replace('"world": {', f'"world": {{"resolution": {constant}, ', 1)
    path = _write(tmp_path, body)
    with pytest.raises(ParseError) as info:
        parse_scenario(path)
    assert str(info.value) == f"invalid JSON constant '{constant}': scenario numbers must be finite"
    assert main(["plan", "--config", path, "--out", str(tmp_path / "x")]) == 2
    assert constant in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"length": 2.0', '"length": 1e400', "vehicle.length"),
        ('"goal": [10.0, 0.0, 0.0]', '"goal": [10.0, 0.0, 1e999]', "goal[2]"),
        ('"length": 2.0', '"length": 1' + "0" * 400, "vehicle.length"),
    ],
    ids=["float_overflow", "vector_entry_overflow", "integer_overflow"],
)
def test_main_rejects_overflowing_number(tmp_path, old, new, key, capsys):
    with open(STRAIGHT, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = _write(tmp_path, text.replace(old, new))
    assert main(["all", "--config", path, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: ValidationError: {key} must be a finite number\n", err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("kind", ["file", "below_file"])
def test_main_out_that_cannot_be_created_exit_code(tmp_path, kind, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker if kind == "file" else blocker / "out"
    assert main(["plan", "--config", STRAIGHT, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ") and len(err.splitlines()) == 1, err
    assert blocker.read_text() == "keep"


def test_plan_substage_timings(tmp_path):
    out = tmp_path / "out"
    assert run_pipeline(parse_scenario(STRAIGHT), ["plan"], str(out)) == 0
    timings = json.loads((out / "timings.json").read_text())
    parts = [timings[k] for k in ("plan_init_s", "plan_stage1_s", "plan_stage2_s")]
    assert all(p > 0.0 for p in parts)
    assert sum(parts) <= timings["plan_s"]


def test_cli_subprocess_smoke(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sweptplan", "plan", "--config", STRAIGHT, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.json").exists()


def test_ablation_leaves_scenario_unchanged(tmp_path, monkeypatch):
    sc = parse_scenario(STRAIGHT)
    echo_before = json.dumps(sc.echo, sort_keys=True)
    seen = []

    def fake_run(run_sc, stages, out_dir, seed=None):
        seen.append((run_sc.weights.sweep, run_sc.echo["planner"]["sweep"]))
        return 0

    monkeypatch.setattr(cli, "run_pipeline", fake_run)
    assert cli._run_ablation(sc, ["plan"], str(tmp_path), None) == 0
    assert seen == [(300.0, 300.0), (0.0, 0.0)]
    assert sc.weights.sweep == 300.0
    assert json.dumps(sc.echo, sort_keys=True) == echo_before


def test_load_field_csv_rejects_other_columns(tmp_path):
    path = tmp_path / "field.csv"
    write_field_csv(str(path), _field([[-0.25, 0.5]], [[1.0, 2.0]]))
    header, *rows = path.read_text().splitlines()
    assert header == "x,y,f_star,t_star" and len(rows) == 2
    renamed = [header.replace("t_star", "t"), *rows]
    extra = [header + ",extra", *(row + ",0.0" for row in rows)]
    for lines in (renamed, extra):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingArtifact, match="does not have the field.csv columns"):
            load_field_csv(str(path))


def _field(f_star, t_star, origin=(-1.25, 0.5), resolution=0.1, refined=None):
    f_star = np.asarray(f_star, dtype=float)
    width, height = f_star.shape
    return SweptField(
        origin=np.array(origin),
        resolution=resolution,
        width=width,
        height=height,
        f_star=f_star,
        t_star=np.asarray(t_star, dtype=float),
        refined=np.ones(f_star.shape, dtype=bool) if refined is None else refined,
    )


def _write_field_per_value(path, field):
    """The refined cells' rows, ix outer and iy inner, one value at a time."""
    rows = [
        (field.origin[0] + (ix + 0.5) * field.resolution, field.origin[1] + (iy + 0.5) * field.resolution,
         field.f_star[ix, iy], field.t_star[ix, iy])
        for ix in range(field.width)
        for iy in range(field.height)
        if field.refined[ix, iy]
    ]
    write_csv_per_value(path, ["x", "y", "f_star", "t_star"], rows)


_ODD_VALUES = [-0.0, 1e-05, 1e22, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf, 0.1, -1.5]


@pytest.mark.parametrize(
    "shape, origin",
    [((2, 5), (-1.25, 0.5)), ((1, 10), (0.0, -0.0)), ((10, 1), (1e22, -3.3)), ((1, 1), (-0.05, -0.05))],
    ids=["grid", "one_column", "one_row", "one_cell"],
)
def test_field_csv_bytes_equal_per_value_writer(tmp_path, shape, origin):
    n = shape[0] * shape[1]
    f_star = np.resize(_ODD_VALUES, n).reshape(shape)
    t_star = np.resize(_ODD_VALUES[::-1], n).reshape(shape)
    # every third cell not refined, so not written
    refined = np.resize([True, True, False], n).reshape(shape)
    field = _field(f_star, t_star, origin=origin, refined=refined)
    write_field_csv(str(tmp_path / "a.csv"), field)
    _write_field_per_value(str(tmp_path / "b.csv"), field)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 1 + np.count_nonzero(refined)


def test_field_csv_formats_signed_zero_and_nan_times_apart(tmp_path):
    # -0.0 and 0.0 compare equal but print differently; NaN prints as nan
    t_star = np.array([[0.0, -0.0, 0.0, math.nan], [-0.0, 2.5, math.nan, 2.5]])
    field = _field(np.zeros_like(t_star), t_star)
    write_field_csv(str(tmp_path / "a.csv"), field)
    _write_field_per_value(str(tmp_path / "b.csv"), field)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    times = [row.rsplit(",", 1)[1] for row in (tmp_path / "a.csv").read_text().splitlines()[1:]]
    assert times == ["0.0", "-0.0", "0.0", "nan", "-0.0", "2.5", "nan", "2.5"]


def test_field_csv_rows_are_the_exact_refined_cells(straight_all):
    # One row per refined cell of the sweep stage's field, in (ix, iy) order,
    # each the exact f* and t* at its cell center.
    sc = parse_scenario(STRAIGHT)
    area = json.loads((straight_all / "area.json").read_text())
    traj = MincoTrajectory.from_dict(json.loads((straight_all / "trajectory.json").read_text()))
    field = compute_swept_field(traj, sc.veh, region=area["region"], resolution=area["resolution"])
    ix, iy = np.nonzero(field.refined)
    cx, cy = Grid.covering(area["region"], area["resolution"]).axes()
    centers, f_star, t_star = load_field_csv(str(straight_all / "field.csv"))
    assert f_star.size == area["field_refined"] == ix.size
    assert centers.tobytes() == np.column_stack([cx[ix], cy[iy]]).tobytes()
    t_ref, f_ref = min_time_distance(centers, traj, sc.veh)
    assert f_star.tobytes() == f_ref.tobytes()
    assert t_star.tobytes() == t_ref.tobytes()


def test_metrics_stage_samples_the_driven_footprint_once(tmp_path, straight_all, monkeypatch):
    # The metrics stage takes one 512-pose footprint sample, of the driven path.
    out = tmp_path / "out"
    shutil.copytree(straight_all, out)
    calls = []
    for cls in (cli.MincoTrajectory, sim.LinearPosePath):
        real = cls.sample

        def counting(self, ts, order=0, real=real, name=cls.__name__):
            if np.size(ts) == 512 and np.array_equal(ts, np.linspace(0.0, self.total_time, 512)):
                calls.append(name)
            return real(self, ts, order)

        monkeypatch.setattr(cls, "sample", counting)
    assert run_pipeline(parse_scenario(STRAIGHT), ["sweep"], str(out)) == 0
    calls.clear()
    assert run_pipeline(parse_scenario(STRAIGHT), ["metrics"], str(out)) == 0
    assert calls == ["LinearPosePath"]
    for name in ("field.csv", "area.json", "metrics.json", "metrics_sweep.json"):
        assert (out / name).read_bytes() == (straight_all / name).read_bytes()


def test_sweep_stage_rejects_a_region_too_small(tmp_path, straight_all):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(straight_all / "trajectory.json", out)
    raw = json.loads(open(STRAIGHT, encoding="utf-8").read())
    # the auto region's pad, vehicle length + margin, ends 1 cm inside the footprint box
    raw.setdefault("sweep", {})["margin"] = -parse_scenario(STRAIGHT).veh.length - 0.01
    rc = run_pipeline(parse_scenario(_write(tmp_path, raw)), ["sweep"], str(out))
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["stage"] == "sweep" and err["error"] == "RegionTooSmall"
    assert "footprint leaves the requested region" in err["message"]


def _readme_scenario_keys():
    """{(block, key)} named in README.md's scenario table; block None is the top level."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Scenario format", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("Block", "---"):
            continue
        block = None if cells[0] == "top level" else cells[0]
        keys |= {(block, key) for key in re.findall(r"`(\w+)`", cells[1])}
    return keys


def test_readme_scenario_table_matches_schema():
    documented = _readme_scenario_keys()
    schema = {(block, key) for block, key, *_ in cli.SCENARIO_SCHEMA}
    optional = {(block, key) for block, key, _, default, _ in cli.SCENARIO_SCHEMA if default is not cli.REQUIRED}
    assert optional - documented == set()
    assert documented - schema == set()


def test_write_csv_equals_per_value_oracle(tmp_path):
    odd = np.array(
        [
            [-0.0, 1e-05, 1e22, 3.0],
            [5e-324, 2.2250738585072014e-308 / 3.0, -7.0, 0.1],
            [np.nan, np.inf, -np.inf, 1.0 / 3.0],
        ]
    )
    many = np.random.default_rng(0).standard_normal((517, 3))
    # Row counts on both sides of 4,096, with the odd values scattered through them.
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 1e16, 5e-324, -5e-324, 1e-7, 123456789.0, 0.0])
    blocks = []
    for n_rows in (4095, 4096, 4097, 8193):
        rows = np.random.default_rng(n_rows).standard_normal((n_rows, 4)) * 10.0 ** np.arange(-8, 8, 4)
        rows.ravel()[:: 97] = np.resize(special, rows.ravel()[:: 97].size)
        blocks.append(rows)
    cases = (odd, odd.tolist(), [(0.0, 1, -2), (1.0, 2, 10**22)], np.arange(6).reshape(3, 2), [], many, special[:, None], *blocks)
    for i, rows in enumerate(cases):
        got, ref = tmp_path / f"got{i}.csv", tmp_path / f"ref{i}.csv"
        cli._write_csv(str(got), ["a", "b"], rows)
        write_csv_per_value(str(ref), ["a", "b"], rows)
        assert got.read_bytes() == ref.read_bytes(), i


def test_qp_log_records_non_optimal_solves(tmp_path, monkeypatch):
    real = mpc.solve_qp
    calls = []

    def stub(*args, **kwargs):
        x, info = real(*args, **kwargs)
        calls.append(info)
        if len(calls) == 3:
            info = dict(info, status="max_iterations", iterations=50)
        return x, info

    monkeypatch.setattr(mpc, "solve_qp", stub)
    sc = parse_scenario(STRAIGHT)
    cli._write_json(str(tmp_path / "trajectory.json"), straight_traj(distance=2.0, n_interior=1).to_dict())
    cli._stage_track(sc, str(tmp_path))
    rows = (tmp_path / "qp_log.csv").read_text().splitlines()
    assert len(rows) - 1 == len(calls)
    assert rows[3] == f"2,0,50,{len(calls[2]['active_set'])}"
    assert all(row.split(",")[1] == "1" for row in rows[1:] if row != rows[3])
    header = (tmp_path / "trace.csv").read_text().splitlines()[0].split(",")
    assert header[:12] == ["t", "x", "y", "phi", "ref_x", "ref_y", "ref_phi", "vx", "vy", "omega", "e_y", "e_phi"]


def test_metrics_sweep_counters_and_area_timing(straight_all):
    sweep = json.loads((straight_all / "metrics_sweep.json").read_text())
    parts = ("skipped_far", "certified_inside", "certified_outside", "refined")
    assert set(sweep) == {"cells", *parts}
    assert sum(sweep[k] for k in parts) == sweep["cells"]
    assert sweep["refined"] < sweep["cells"]
    timings = json.loads((straight_all / "timings.json").read_text())
    assert 0.0 <= timings["metrics_area_s"] <= timings["metrics_s"]


def _readme_artifact_rows() -> dict:
    """{artifact: the backticked names of its row after the file name} of README.md's artifact table."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        section = fh.read().split("## Artifacts", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|(.*)$", section, flags=re.MULTILINE)
    return {name: set(re.findall(r"`([^`]+)`", rest)) for name, rest in rows}


def test_readme_artifact_table_names_every_file(straight_all):
    rows = _readme_artifact_rows()
    assert set(os.listdir(straight_all)) - set(rows) == set()
    # the timings.json row names exactly the keys a run writes; other backticked names are artifacts
    keys = rows["timings.json"] - set(rows)
    assert keys == set(json.loads((straight_all / "timings.json").read_text()))


def test_readme_artifact_table_names_every_column_and_key(straight_all):
    rows = _readme_artifact_rows()
    columns = {c.replace("{}", "*") for _, cols in cli.TRACE_CSV for c in ([cols] if isinstance(cols, str) else cols)}
    assert columns - rows["trace.csv"] == set()
    assert {"step", *sim.QP_COLUMNS} - rows["qp_log.csv"] == set()
    assert {"stage", "iteration", *TRACE_COLUMNS} - rows["cost_trace.csv"] == set()
    records = {"area.json": AreaReport, "metrics.json": sim.MetricsReport, "metrics_sweep.json": SweepCount}
    for name, record in records.items():
        keys = set(json.loads((straight_all / name).read_text()))
        assert _written(record) <= keys, name
        assert keys - rows[name] == set(), name
    plan = json.loads((straight_all / "plan_report.json").read_text())
    assert {*plan, *plan["stage1"], *plan["stage2"]} - rows["plan_report.json"] == set()


def test_readme_flags_list_every_cli_option(capsys):
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        flags = fh.read().split("\nFlags:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^- `(--[a-z-]+)", flags, flags=re.MULTILINE)
    with pytest.raises(SystemExit):
        main(["--help"])
    options = set(re.findall(r"(--[a-z][a-z-]*)", capsys.readouterr().out)) - {"--help"}
    assert sorted(documented) == sorted(options)


def test_track_substage_timings(tmp_path):
    cli._write_json(str(tmp_path / "trajectory.json"), straight_traj(distance=2.0, n_interior=1).to_dict())
    cli._stage_track(parse_scenario(STRAIGHT), str(tmp_path))
    timings = json.loads((tmp_path / "timings.json").read_text())
    parts = [timings[k] for k in ("track_mpc_s", "track_alloc_s")]
    assert all(p >= 0.0 for p in parts)
    assert sum(parts) <= timings["track_s"]


def test_aborted_trace_csv_is_deterministic(tmp_path, monkeypatch):
    real = sim.mpc_step
    calls = []

    def stub(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("stubbed failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "mpc_step", stub)
    sc = parse_scenario(STRAIGHT)
    traj = straight_traj(distance=2.0, n_interior=1)
    for run in ("a", "b"):
        calls.clear()
        (tmp_path / run).mkdir()
        cli._write_json(str(tmp_path / run / "trajectory.json"), traj.to_dict())
        with pytest.raises(RuntimeError, match="controller aborted mid-run: RuntimeError: stubbed failure"):
            cli._stage_track(sc, str(tmp_path / run))
    first = (tmp_path / "a" / "trace.csv").read_bytes()
    assert first == (tmp_path / "b" / "trace.csv").read_bytes()
    last = first.decode().splitlines()[-1].split(",")
    assert len(first.decode().splitlines()) == 5
    assert all(v != "nan" for v in last[:7] + last[10:12])
    assert all(v == "nan" for v in last[7:10] + last[12:])


def test_metrics_refuses_an_aborted_trace(tmp_path, straight_all, monkeypatch):
    real = sim.mpc_step
    calls = []

    def stub(*args, **kwargs):
        calls.append(1)
        if len(calls) == 11:
            raise RuntimeError("stubbed failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "mpc_step", stub)
    out = tmp_path / "out"
    out.mkdir()
    for name in ("trajectory.json", "area.json"):
        shutil.copy(straight_all / name, out)
    sc = parse_scenario(STRAIGHT)
    assert run_pipeline(sc, ["track"], str(out)) == 1
    assert len((out / "trace.csv").read_text().splitlines()) == 12
    # A separate metrics call must not score the aborted run.
    assert run_pipeline(sc, ["metrics"], str(out)) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["stage"] == "metrics"
    assert err["error"] == "MissingArtifact"
    assert "aborted" in err["message"]
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_main_unreadable_scenario_exit_code(tmp_path, kind, capsys):
    if kind == "directory":
        path = tmp_path / "dir.json"
        path.mkdir()
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(_minimal(name="café"), ensure_ascii=False).encode("latin-1"))
    assert main(["plan", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("origin", [(-0.35, -0.25), (-0.45, -0.05)], ids=["across_zero", "at_zero"])
def test_field_csv_equals_per_value_oracle_across_zero(tmp_path, origin):
    # Axis values below, at and above zero, each formatted once and looked up
    # by many cells; and an empty field, which has the header alone.
    rng = np.random.default_rng(3)
    shape = (7, 9)
    refined = rng.random(shape) < 0.6
    field = _field(rng.standard_normal(shape), rng.uniform(0.0, 5.0, shape), origin=origin, refined=refined)
    assert (field.axes()[0] < 0.0).any() and (field.axes()[0] > 0.0).any()
    empty = _field(np.zeros(shape), np.zeros(shape), origin=origin, refined=np.zeros(shape, dtype=bool))
    for i, f in enumerate((field, empty)):
        ix, iy = np.nonzero(f.refined)
        cx, cy = f.axes()
        rows = [(cx[a], cy[b], f.f_star[a, b], f.t_star[a, b]) for a, b in zip(ix, iy)]
        write_field_csv(str(tmp_path / f"got{i}.csv"), f)
        write_csv_per_value(str(tmp_path / f"ref{i}.csv"), cli.FIELD_COLUMNS, rows)
        assert (tmp_path / f"got{i}.csv").read_bytes() == (tmp_path / f"ref{i}.csv").read_bytes()
    assert (tmp_path / "got1.csv").read_text() == "x,y,f_star,t_star\n"
