"""Per-layer metrics of a traced run, named <module>.<function>.<stat>[.<stage>].

`.s` is a function's total time, `.self_s` its total minus traced children on
the same thread, `.calls` and the other counts are exact. A metric with a
stage suffix covers that stage call only; one without covers the whole run.
"""

from __future__ import annotations

from workloads import STAGES

STAGE_LABELS = tuple(label for label, _, _ in STAGES)
TRACK_STAGES = tuple(label for label, stage, _ in STAGES if stage == "track")


class TraceView:
    """Sums a tracer summary over stages (all stages when none are given)."""

    def __init__(self, summary: dict):
        self.s = summary

    def _sum(self, table: str, name: str, stages) -> float:
        total = 0
        for key, value in self.s[table].items():
            fn, _, stage = key.rpartition("@")
            if fn == name and (not stages or stage in stages):
                total += value
        return total

    def calls(self, name, *stages):
        return self._sum("calls", name, stages)

    def total(self, name, *stages):
        return self._sum("total_s", name, stages)

    def self_s(self, name, *stages):
        return self._sum("self_s", name, stages)

    def count(self, name, *stages):
        return self._sum("counts", name, stages)

    def under(self, name: str, ancestor: str) -> int:
        return self.s["under"].get(f"{name}<{ancestor}", 0)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _specs(v: TraceView, plan: dict, single: TraceView):
    """(name, unit, value) for every per-layer metric."""
    evals1 = v.under("minco.energy_cost_with_grads", "planner.optimize_stage1")
    evals2 = v.under("minco.energy_cost_with_grads", "planner.optimize_stage2")
    it1, it2 = plan["stage1"]["iterations"], plan["stage2"]["iterations"]
    csf = "sweptfield.compute_swept_field"
    out = [
        ("worldmodel.astar_plan.s", "s", v.total("worldmodel.astar_plan")),
        ("worldmodel.rasterize_obstacles.s", "s", v.total("worldmodel.rasterize_obstacles")),
        ("minco.build_minco.calls", "count", v.calls("minco.build_minco")),
        ("minco.build_minco.self_s", "s", v.self_s("minco.build_minco")),
        ("minco.propagate_gradient.calls", "count", v.calls("minco.propagate_gradient")),
        ("minco.propagate_gradient.self_s", "s", v.self_s("minco.propagate_gradient")),
        ("minco.propagate_gradient.per_eval", "ratio",
         _ratio(v.under("minco.propagate_gradient", "planner.optimize_stage2"), evals2)),
        ("minco.energy_cost_with_grads.self_s", "s", v.self_s("minco.energy_cost_with_grads")),
        ("planner.optimize_stage1.s", "s", v.total("planner.optimize_stage1")),
        ("planner.optimize_stage1.iterations", "count", it1),
        ("planner.optimize_stage1.evals", "count", evals1),
        ("planner.optimize_stage2.s", "s", v.total("planner.optimize_stage2")),
        ("planner.optimize_stage2.iterations", "count", it2),
        ("planner.optimize_stage2.evals", "count", evals2),
        ("planner.optimize_stage2.evals_per_iteration", "ratio", _ratio(evals2, it2)),
        ("planner.optimize_stage2.converged", "bool", int(bool(plan["stage2"]["converged"]))),
        ("planner.obstacle_cost_with_grads.calls", "count", v.calls("planner.obstacle_cost_with_grads")),
        ("planner.obstacle_cost_with_grads.self_s", "s", v.self_s("planner.obstacle_cost_with_grads")),
        ("planner.sweep_cost_with_grads.self_s", "s", v.self_s("planner.sweep_cost_with_grads")),
        ("planner.check_feasibility.s", "s", v.total("planner.check_feasibility")),
    ]
    for stage in ("plan", "sweep", "metrics"):
        pts = v.count("geometry.footprint_sdf_values.points", stage) + v.count(
            "geometry.footprint_sdf_batch.points", stage
        )
        out.append((f"geometry.footprint_sdf.points.{stage}", "count", pts))
    for stage in ("sweep", "metrics"):
        secs = v.total(csf, stage)
        cells = v.count(f"{csf}.cells", stage)
        out += [
            (f"{csf}.s.{stage}", "s", secs),
            (f"{csf}.cells.{stage}", "count", cells),
            (f"{csf}.cells_per_s.{stage}", "1/s", _ratio(cells, secs)),
        ]
    out += [
        ("sweptfield.far_cell_share", "ratio",
         _ratio(v.count(f"{csf}.far_cells", "sweep"), v.count(f"{csf}.cells", "sweep"))),
        (f"{csf}.speedup_2t", "ratio", _ratio(single.total(csf), v.total(csf))),
        ("minco.MincoTrajectory.sample.points", "count",
         v.count("minco.MincoTrajectory.sample.points", "sweep", "metrics")),
        ("sweptfield.LinearPosePath.sample.points", "count",
         v.count("sweptfield.LinearPosePath.sample.points", "sweep", "metrics")),
        ("sweptfield.excess_area.s", "s", v.total("sweptfield.excess_area")),
    ]
    for st in TRACK_STAGES:
        steps = v.calls("mpc.mpc_step", st)
        qp_it = v.count("mpc.mpc_step.qp_iterations", st)
        out += [
            (f"mpc.mpc_step.calls.{st}", "count", steps),
            (f"mpc.mpc_step.self_s.{st}", "s", v.self_s("mpc.mpc_step", st)),
            (f"mpc.build_qp.self_s.{st}", "s", v.self_s("mpc.build_qp", st)),
            (f"mpc.solve_qp.self_s.{st}", "s", v.self_s("mpc.solve_qp", st)),
            (f"mpc.solve_qp.iterations.{st}", "count", qp_it),
            (f"mpc.solve_qp.iterations_per_step.{st}", "ratio", _ratio(qp_it, steps)),
            (f"mpc.solve_qp.non_optimal.{st}", "count", v.count("mpc.mpc_step.non_optimal", st)),
            (f"mpc.active_set.mean_size.{st}", "ratio",
             _ratio(v.count("mpc.mpc_step.active_set", st), steps)),
            (f"sim.run_closed_loop.s.{st}", "s", v.total("sim.run_closed_loop", st)),
            (f"sim.signed_lateral_error.self_s.{st}", "s", v.self_s("sim.signed_lateral_error", st)),
            (f"drivetrain.allocate.calls.{st}", "count", v.calls("drivetrain.allocate", st)),
            (f"drivetrain.allocate.self_s.{st}", "s", v.self_s("drivetrain.allocate", st)),
        ]
    out += [
        ("sim.compute_metrics.s", "s", v.total("sim.compute_metrics")),
        ("render.render_scene.s", "s", v.total("render.render_scene")),
        ("render.svg.bytes", "B", v.count("render.render_scene.bytes")),
        ("cli.parse_scenario.s", "s", v.total("cli.parse_scenario")),
        ("cli.write_field_csv.s", "s", v.total("cli.write_field_csv")),
        ("cli.field_csv.bytes", "B", v.count("cli.write_field_csv.bytes")),
        ("cli.load_field_csv.s", "s", v.total("cli.load_field_csv")),
        ("cli.load_trace_csv.s", "s", v.total("cli.load_trace_csv")),
        ("cli.write_trace_csv.s", "s", v.total("cli.write_trace_csv")),
    ]
    for stage in STAGE_LABELS:
        out.append((f"cli.stage_residual_s.{stage}", "s", v.self_s(f"stage.{stage}", stage)))
    return out


def layer_metrics(summary: dict, plan: dict, single_summary: dict) -> dict:
    """{name: (value, unit)} from a traced run, its plan_report.json, and the
    same run traced at one sweep thread (for the speedup)."""
    specs = _specs(TraceView(summary), plan, TraceView(single_summary))
    return {name: (value, unit) for name, unit, value in specs}

