"""One benchmark run in a fresh interpreter.

Usage: python3 perfbench/worker.py <spec.json> <launch time>

The launch time is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux), so setup_s runs
from process start through ``import sweptplan`` and ``parse_scenario``. Each
stage is then one ``run_pipeline(sc, [stage], out)`` call, timed from
outside by the wall clock and by the process CPU clock. With ``probe`` in
the spec, speed.SpeedProbe samples the host's speed during each call, and
the calls' times are also given scaled to the reference speed (``norm_s``,
``norm_cpu_s``) by one factor for the run (``speed``). The result goes to
the spec's ``result`` path as JSON.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time


def _qp_rows(cfg) -> int:
    """Inequality rows of one step's QP: one per finite bound (box upper and
    lower, rate upper and lower) on each of the control horizon's inputs."""
    import numpy as np

    bounds = (cfg.u_max, cfg.u_min, cfg.du_max, cfg.du_min)
    return int(cfg.control_horizon * sum(np.count_nonzero(np.isfinite(b)) for b in bounds))


def _context(scenarios: dict, out_dir: str) -> dict:
    """Input properties of the run, read after timing from the artifacts."""
    import numpy as np
    import scipy

    from sweptplan.worldmodel import rasterize_obstacles

    sc = scenarios["base"]
    ctx = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "obstacle_points": int(rasterize_obstacles(sc.obstacles, sc.bounds, sc.resolution).obstacle_points.shape[0]),
        "qp_rows_per_step": {variant: _qp_rows(s.mpc) for variant, s in scenarios.items()},
    }
    traj_path = os.path.join(out_dir, "trajectory.json")
    if os.path.exists(traj_path):
        with open(traj_path, "r", encoding="utf-8") as fh:
            ctx["knots"] = len(json.load(fh)["waypoints"]) + 2
    field_path = os.path.join(out_dir, "field.csv")
    if os.path.exists(field_path):
        f_star = np.loadtxt(field_path, delimiter=",", skiprows=1, usecols=2, ndmin=1)
        ctx["field_cells"] = int(f_star.size)
        ctx["far_cell_share"] = float(np.count_nonzero(f_star > 1.0) / f_star.size)
    return ctx


def main(spec_path: str, launched: float) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import sweptplan.cli as cli

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, call_cost

        tracer = Tracer(spec["run_id"])
        tracer.install()
    scenarios = {variant: cli.parse_scenario(path) for variant, path in spec["scenarios"].items()}
    result = {"setup_s": time.monotonic() - launched, "stages": {}}
    if spec.get("setup_only"):
        _write(spec["result"], result)
        return 0

    from speed import SpeedProbe

    probe = SpeedProbe()

    for label, stage, variant in spec["stages"]:
        out_dir = spec["outs"][variant]
        os.makedirs(out_dir, exist_ok=True)
        if variant != "base" and stage != "plan":
            shutil.copy(os.path.join(spec["outs"]["base"], "trajectory.json"), out_dir)
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.stage = label
            span = tracer.span(f"stage.{label}")
        elif spec.get("probe"):
            span = probe
        with span:
            t0, c0 = time.perf_counter(), time.process_time()
            rc = cli.run_pipeline(scenarios[variant], [stage], out_dir)
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        call = result["stages"][label] = {"s": elapsed, "cpu_s": cpu, "rc": rc}
        if span is probe:
            call.update(probe_s=probe.inside_s, probe_cpu_s=probe.inside_cpu_s)
        if rc != 0:
            break
    if probe.samples:
        # One speed factor for the run, from every sample of its stage calls;
        # the probe's own samples inside a call are taken out before scaling.
        result["speed"] = probe.factor()
        for call in result["stages"].values():
            call.update(norm_s=(call["s"] - call["probe_s"]) * result["speed"],
                        norm_cpu_s=(call["cpu_s"] - call["probe_cpu_s"]) * result["speed"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.stage = None
        tracer.uninstall()
        tracer.write_spans(spec["spans"])
        result["trace"] = tracer.summary()
        result["trace_spans"] = len(tracer.spans)
        result["trace_call_cost_s"] = call_cost()
    result["context"] = _context(scenarios, spec["outs"]["base"])
    _write(spec["result"], result)
    return 0


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
