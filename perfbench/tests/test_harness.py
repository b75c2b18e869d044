"""Self-test of the benchmark harness on a cheap scenario.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import sys
import time

import numpy as np
import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from speed import BRACKET, SpeedProbe  # noqa: E402
from tracer import MissingFunction, Tracer, wrapped_leftovers  # noqa: E402

import sweptplan  # noqa: E402
import sweptplan.cli  # noqa: E402,F401 - loads every sweptplan module

TINY = {
    "schema": 1,
    "name": "tiny",
    "vehicle": {"length": 2.0, "width": 1.0, "axle_count": 2},
    "world": {
        "bounds": [-2.0, -3.0, 6.0, 3.0],
        "resolution": 0.2,
        "obstacles": [{"type": "box", "min": [1.0, 1.8], "max": [2.0, 2.6]}],
    },
    "start": [0.0, 0.0, 0.0],
    "goal": [3.0, 0.0, 0.0],
    "planner": {"waypoint_spacing": 1.0},
    "sweep": {"resolution": 0.2},
}


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.fixture()
def tiny_root(tmp_path, monkeypatch):
    """A checkout holding src/ and one cheap workload, 'tiny'."""
    root = tmp_path / "checkout"
    (root / "scenarios").mkdir(parents=True)
    shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (root / "scenarios" / "tiny.json").write_text(json.dumps(TINY))
    table = {"tiny": "scenarios/tiny.json"}
    monkeypatch.setattr(workloads, "WORKLOADS", table)
    monkeypatch.setattr(bench, "WORKLOADS", table)
    monkeypatch.chdir(root)
    return root


def _run(trace: int, capsys):
    code = bench.main(["--workload", "tiny", "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(tiny_root, capsys, trace, section):
    code, lines, err = _run(trace, capsys)
    assert code == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, err
    declared = _declared(section)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        assert any(line.startswith(f"perfbench {name}: ") and line.endswith(f" {unit}") for line in lines), name


def test_traced_run_fails_loudly_on_a_renamed_public_function(tiny_root, capsys):
    for dirpath, _, files in os.walk(tiny_root / "src"):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace("propagate_gradient", "propagate_gradient_renamed"))
    code, lines, err = _run(1, capsys)
    result = json.loads(lines[-1])
    assert code == 0
    assert not result["correct"] and result["failed"] == result["attempted"] == 2
    assert result["metrics"] == {}
    assert "MissingFunction: sweptplan.minco.propagate_gradient is not defined" in err


def test_harness_timeout_exits_without_a_result(tiny_root, capsys, monkeypatch):
    monkeypatch.setattr(bench, "CHILD_TIMEOUT_S", 0.01)
    code, lines, err = _run(0, capsys)
    assert code == 3
    assert lines == []
    assert "harness timeout" in err


def test_speed_probe_samples_during_the_block_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        c0 = time.process_time()
        while time.process_time() - c0 < 0.5:
            sum(range(1000))
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) > 2 * BRACKET  # samples were taken inside the block
    assert 0.0 < probe.inside_cpu_s <= probe.inside_s < 0.5
    assert probe.factor() > 0.0


def _bindings_snapshot() -> dict:
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "sweptplan" or modname.startswith("sweptplan.")):
            for attr, value in vars(mod).items():
                snap[(modname, attr)] = value
                if isinstance(value, type) and value.__module__ == modname:
                    snap.update({(modname, f"{attr}.{k}"): v for k, v in vars(value).items()})
    return snap


def test_uninstall_removes_every_wrapper():
    before = _bindings_snapshot()
    tracer = Tracer("selftest")
    tracer.install()
    try:
        # Every binding of a traced function holds the same wrapper.
        assert sweptplan.sim.mpc_step is sweptplan.mpc.mpc_step is sweptplan.mpc_step
        assert hasattr(sweptplan.sim.mpc_step, "__perfbench_original__")
        assert hasattr(sweptplan.minco.MincoTrajectory.sample, "__perfbench_original__")
        tracer.stage = "probe"
        sweptplan.sweptfield.footprint_sdf_values(np.zeros((3, 2)), 2.0, 1.0)
    finally:
        tracer.uninstall()
    assert [s[1] for s in tracer.spans] == ["geometry.footprint_sdf_values"]
    assert tracer.counts == {"geometry.footprint_sdf_values.points@probe": 3}
    assert wrapped_leftovers() == []
    assert _bindings_snapshot() == before


@pytest.mark.parametrize("owner, attr", [
    (sweptplan.minco, "propagate_gradient"),
    (sweptplan.sweptfield.LinearPosePath, "sample"),
])
def test_missing_public_function_fails_install(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    with pytest.raises(MissingFunction):
        Tracer("selftest").install()
    assert wrapped_leftovers() == []


def _record(label, digests):
    return {"label": label, "result": {"stages": {"sweep": {"rc": 0}}}, "stages": [("sweep", "sweep", "base")],
            "reasons": [], "errors": [], "plan_report": None, "digests": digests}


def test_gate_fails_runs_whose_artifacts_disagree():
    runs = [_record("a", {"f": "1"}), _record("b", {"f": "1"}), _record("c", {"f": "2"})]
    bench.gate(runs)
    assert [bool(r["reasons"]) for r in runs] == [False, False, True]
    tie = [_record("a", {"f": "1"}), _record("b", {"f": "2"})]
    bench.gate(tie)
    assert all(r["reasons"] for r in tie)


def test_failed_runs_give_no_metrics():
    failed = _record("a", {"f": "1"})
    failed["reasons"].append("stage 2 is infeasible or unreported")
    assert bench.end_to_end([failed], [0.5]) == ({}, {})


def test_seed_zero_is_the_shipped_scenario_and_other_seeds_spare_the_planner():
    with open(os.path.join(ROOT, "scenarios", "turn90.json"), "r", encoding="utf-8") as fh:
        shipped = json.load(fh)
    assert workloads.scenario_docs(ROOT, "turn90", 0)["base"] == shipped
    docs = workloads.scenario_docs(ROOT, "turn90", 7)
    assert docs == workloads.scenario_docs(ROOT, "turn90", 7)
    changed = {k for k in shipped if docs["base"][k] != shipped[k]}
    assert changed == {"sweep", "mpc"}
    assert docs["ratelimit"]["mpc"]["du_max"] == workloads.RATE_LIMIT
    # straight leaves sweep.margin unset; the seed perturbs the program's default.
    default = sweptplan.cli.parse_scenario(os.path.join(ROOT, "scenarios", "straight.json")).echo["sweep"]["margin"]
    margin = workloads.scenario_docs(ROOT, "straight", 7)["base"]["sweep"]["margin"]
    assert 0.0 <= margin - default <= workloads.MARGIN_SHIFT_M
