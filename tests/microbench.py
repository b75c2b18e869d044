"""Per-layer microbenchmarks of the planner's hot calls, in microseconds per call.

    PYTHONPATH=src python3 tests/microbench.py [--scenario scenarios/turn90.json] [--repeat 5]

It plans the scenario once, then times, on the scenario's own data:

- `build_minco` at stage 2's accepted points;
- one stage-1 and one stage-2 cost evaluation (the `_optimize` closure),
  replayed over the points that stage evaluated;
- `propagate_gradient` on a fresh trajectory's stage-2 cost rows;
- one `_lbfgs` step of stage 2 without its evaluations: the loop and line
  search replayed against the recorded evaluation results;
- `cli._write_csv` of the scenario's field.csv rows, and `cli.write_field_csv`
  of the sweep stage's field;
- `astar_plan` of the scenario's route;
- the track stage's calls, replayed from the scenario's own closed loops,
  box-only (the scenario's MPC config) and rate-limited (the same with
  `du_max = [0.1, 0.1, 0.05]`, as the benchmark's `track_ratelimit`):
  `mpc_step` and `solve_qp` of every step, `allocate` of every step of the
  box-only loop, `cli.write_trace_csv` of its trace, and each whole
  `run_closed_loop`. The replays run in the loop's order, so caches that a
  loop fills (the Hessian inverse, and any kept per working set) are warm
  after the first pass, as they are for all but a run's first steps.

Each figure is the best of --repeat passes. It uses only names that the
package has kept, so it runs against any checkout put on PYTHONPATH, and a
before/after table is two runs. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
import time

import numpy as np

from sweptplan import cli, mpc, planner, sim
from sweptplan.minco import build_minco, energy_cost_with_grads, propagate_gradient, time_cost_with_grads
from sweptplan.planner import _NeighbourList, obstacle_cost_with_grads, sweep_cost_with_grads, softplus
from sweptplan.worldmodel import astar_plan

RATE_LIMIT = np.array([0.1, 0.1, 0.05])  # mpc.du_max of the rate-limited loop


def _best_us(fn, items, repeat: int) -> float:
    """Least mean microseconds per item of fn over the items, in repeat passes."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, (time.perf_counter() - t0) / len(items))
    return best * 1e6


def _record_stages(sc, grid, init):
    """Both stages as the pipeline runs them, with each stage's closure and
    the (point, result) of every evaluation it made, in call order."""
    real = planner._lbfgs
    stages = []

    def spy(fg, x0, opts, c2):
        calls = []

        def recorded(z):
            out = fg(z)
            calls.append((z.copy(), out))
            return out

        stages.append((fg, x0, opts, c2, calls))
        return real(recorded, x0, opts, c2)

    planner._lbfgs = spy
    try:
        r1 = planner.optimize_stage1(init, sc.weights, sc.plan_opts)
        r2 = planner.optimize_stage2(r1.trajectory, grid, sc.veh, sc.weights, sc.plan_opts)
    finally:
        planner._lbfgs = real
    return stages, (r1, r2)


def _replay_lbfgs_us(stage, iterations: int, repeat: int) -> float:
    """Microseconds per step of `_lbfgs` and its line searches alone: every
    evaluation answers from the recorded results, in call order."""
    _, x0, opts, c2, calls = stage
    best = float("inf")
    for _ in range(repeat):
        answers = iter([out for _, out in calls])
        t0 = time.perf_counter()
        planner._lbfgs(lambda z: next(answers), x0, opts, c2)
        best = min(best, time.perf_counter() - t0)
    return best / iterations * 1e6


def _record_track(traj, sc, cfg):
    """The closed loop under cfg, with the args of its mpc_step, solve_qp and allocate calls in call order."""
    calls = {"mpc_step": [], "solve_qp": [], "allocate": []}
    spied = ((sim, "mpc_step"), (mpc, "solve_qp"), (sim, "allocate"))
    real = {name: getattr(mod, name) for mod, name in spied}

    def spy(name):
        def recorded(*args, **kwargs):
            calls[name].append((args, kwargs))
            return real[name](*args, **kwargs)
        return recorded

    for mod, name in spied:
        setattr(mod, name, spy(name))
    try:
        trace = sim.run_closed_loop(traj, sc.veh, cfg, sc.sim)
    finally:
        for mod, name in spied:
            setattr(mod, name, real[name])
    return trace, calls


def _track_rows(traj, sc, repeat: int) -> list:
    rows = []
    limited = dataclasses.replace(sc.mpc, du_min=-RATE_LIMIT, du_max=RATE_LIMIT)
    for label, cfg in (("box-only", sc.mpc), ("rate-limited", limited)):
        trace, calls = _record_track(traj, sc, cfg)
        for name, fn in (("mpc_step", mpc.mpc_step), ("solve_qp", mpc.solve_qp)):
            items = calls[name]
            rows.append((f"{name}, {label}", len(items), _best_us(lambda c: fn(*c[0], **c[1]), items, repeat)))
        if label == "box-only":
            items = calls["allocate"]
            rows.append(("allocate", len(items), _best_us(lambda c: sim.allocate(*c[0], **c[1]), items, repeat)))
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "trace.csv")
                rows.append(("write_trace_csv", 1, _best_us(lambda _: cli.write_trace_csv(path, trace), [None], repeat)))
        rows.append((f"run_closed_loop, {label}", 1, _best_us(
            lambda _: sim.run_closed_loop(traj, sc.veh, cfg, sc.sim), [None], repeat)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    parser.add_argument("--scenario", default=os.path.join(root, "scenarios", "turn90.json"))
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)

    sc = cli.parse_scenario(args.scenario)
    grid = cli._build_grid(sc)
    init = cli._plan_init(sc, grid)
    stages, (r1, r2) = _record_stages(sc, grid, init)
    n_q = r2.trajectory.waypoints.size
    points2 = [z for z, _ in stages[1][4]]
    inputs = [(z[:n_q].reshape(-1, 3), softplus(z[n_q:])) for z in points2]
    boundary = r2.trajectory.boundary

    def stage2_costs(traj):
        w = sc.weights
        return [
            energy_cost_with_grads(traj),
            time_cost_with_grads(traj.durations),
            obstacle_cost_with_grads(traj, grid, sc.veh, w.safety_margin, neighbours),
            sweep_cost_with_grads(traj),
        ]

    neighbours = _NeighbourList(grid)
    rows = []
    for label, items, fn in (
        ("build_minco", inputs, lambda qT: build_minco(qT[0], qT[1], boundary)),
        ("stage-1 evaluation", [z for z, _ in stages[0][4]], stages[0][0]),
        ("stage-2 evaluation", points2, stages[1][0]),
    ):
        rows.append((label, len(items), _best_us(fn, items, args.repeat)))

    # propagate_gradient factors each trajectory's adjoint system on first use, so every pass gets fresh ones.
    best = float("inf")
    for _ in range(args.repeat):
        work = []
        for q, T in inputs:
            traj = build_minco(q, T, boundary)
            work.append((traj, stage2_costs(traj)))
        t0 = time.perf_counter()
        for traj, costs in work:
            propagate_gradient(traj, costs)
        best = min(best, (time.perf_counter() - t0) / len(work))
    rows.append(("propagate_gradient", len(inputs), best * 1e6))
    rows.append(("_lbfgs step, stage 2, no evaluations", r2.iterations, _replay_lbfgs_us(stages[1], r2.iterations, args.repeat)))

    with tempfile.TemporaryDirectory() as tmp:
        written = []
        real_write = cli.write_field_csv
        cli.write_field_csv = lambda path, field: written.append(field) or real_write(path, field)
        try:
            cli.run_pipeline(sc, ["plan", "sweep"], tmp)
        finally:
            cli.write_field_csv = real_write
        centers, f_star, t_star = cli.load_field_csv(os.path.join(tmp, "field.csv"))
        field_rows = np.column_stack([centers, f_star, t_star])
        path = os.path.join(tmp, "bench.csv")
        rows.append(("_write_csv, field.csv", 1, _best_us(
            lambda _: cli._write_csv(path, cli.FIELD_COLUMNS, field_rows), [None], args.repeat)))
        rows.append(("write_field_csv", 1, _best_us(lambda _: cli.write_field_csv(path, written[0]), [None], args.repeat)))
    rows.append(("astar_plan", 1, _best_us(
        lambda _: astar_plan(grid, sc.start[:2], sc.goal[:2], clearance=sc.clearance), [None], args.repeat)))
    rows += _track_rows(r2.trajectory, sc, args.repeat)

    print(f"{os.path.basename(args.scenario)}: stage 1 {r1.iterations} steps / {len(stages[0][4])} evaluations, "
          f"stage 2 {r2.iterations} steps / {len(points2)} evaluations; best of {args.repeat}")
    print(f"{'call':<40} {'n':>6} {'us/call':>12}")
    for label, n, us in rows:
        print(f"{label:<40} {n:>6} {us:>12.1f}")
    if len(field_rows):
        print(f"(field.csv has {len(field_rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
