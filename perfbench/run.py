"""Pipeline benchmark for sweptplan.

Usage (from the repository root):

    python3 perfbench/run.py --workload turn90 --seed 0 --seconds 12 --trace 0

One client, closed loop: every run is a fresh Python process started after
the previous one ended. With --trace 0 the benchmark measures set-up alone a
few times, then makes timed runs back to back until --seconds have passed
(at least MIN_TIMED_RUNS), then one reference run at SWEPTPLAN_THREADS=1 of
the two stages that run the threaded sweep (sweep and metrics, on the first
timed run's plan and trace). A timed run makes each of the five stage calls
once, with speed.SpeedProbe scaling its times to the reference host speed,
and each reported time is the median over the timed runs. With --trace 1 it
makes one traced run and one traced run at SWEPTPLAN_THREADS=1. Every run
passes the correctness gate or is counted as failed. The last line of standard output
is one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). A child process still running after CHILD_TIMEOUT_S
stops the benchmark with exit code 3 and no result. The full record, with
context and per-run detail, goes to
.perfbench_runs/results/<workload>-seed<seed>-trace<t>.json. See README.md.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import STAGE_LABELS, layer_metrics  # noqa: E402
from workloads import STAGES, WORKLOADS, write_scenarios  # noqa: E402

RUNS_DIR = ".perfbench_runs"
CHILD_TIMEOUT_S = 600.0
SETUP_PROBES = 3
# setup_s is scaled by REF_STARTUP_S over the median start-up time of a bare
# interpreter that imports the program's dependencies, measured beside the
# set-up probes: the same kind of work as set-up, so host speed cancels out.
STARTUP_REFERENCE = ("import sys, time; import numpy, scipy.linalg, scipy.ndimage; "
                     "print(time.monotonic() - float(sys.argv[1]))")
REF_STARTUP_S = 0.45
MIN_TIMED_RUNS = 2
# The stages whose output can depend on the sweep's thread count, and the
# artifacts they read from the stages before them.
REFERENCE_STAGES = (("sweep", "sweep", "base"), ("metrics", "metrics", "base"))
REFERENCE_INPUTS = ("trajectory.json", "trace.csv", "timings.json")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SWEPTPLAN_THREADS")

# Every time is scaled to the reference host speed by speed.SpeedProbe.
# wall_s and cpu_s are a run's five stage calls together, in wall time and in
# process CPU time (all threads). The per-stage times and the unscaled times
# are recorded and printed, not gated: see README.md, "Measured steadiness".
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("swept_area_m2", "m2"),
    ("planned_swept_area_m2", "m2"),
    ("max_abs_e_y_m", "m"),
    ("max_abs_e_phi_deg", "deg"),
)


class HarnessTimeout(Exception):
    """A child process outlived CHILD_TIMEOUT_S; the benchmark, not the program, gives up."""


class Benchmark:
    """One invocation: scenario files, child processes, gate and metrics."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, RUNS_DIR, f"{workload}-seed{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.scenarios = write_scenarios(root, workload, seed, self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # The sweep keeps the program's default thread count (os.cpu_count()).
        self.env.pop("SWEPTPLAN_THREADS", None)

    def _launch(self, label: str, spec: dict, threads: int | None = None) -> dict | None:
        run_dir = os.path.join(self.work, label)
        os.makedirs(run_dir, exist_ok=True)
        spec = dict(spec, scenarios=self.scenarios, run_id=f"{self.workload}-seed{self.seed}-{label}",
                    result=os.path.join(run_dir, "result.json"), spans=os.path.join(run_dir, "spans.jsonl"),
                    outs={"base": os.path.join(run_dir, "out"), "ratelimit": os.path.join(run_dir, "out_ratelimit")})
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(self.env, SWEPTPLAN_THREADS=str(threads)) if threads else self.env
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path, repr(launched)],
                cwd=self.root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessTimeout(f"{label} still running after {CHILD_TIMEOUT_S:.0f} s") from exc
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            print(f"perfbench: {label} exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        with open(spec["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        result["outs"] = spec["outs"]
        result["spans"] = spec["spans"]
        return result

    def setup_probe(self, label: str) -> float | None:
        result = self._launch(label, {"setup_only": True})
        return None if result is None else result["setup_s"]

    def startup_reference(self) -> float | None:
        """Seconds from launch until a bare interpreter has imported numpy and scipy."""
        launched = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", STARTUP_REFERENCE, repr(launched)], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise HarnessTimeout(f"start-up reference still running after {CHILD_TIMEOUT_S:.0f} s") from exc
        return float(proc.stdout) if proc.returncode == 0 else None

    def run(self, label: str, trace: bool = False, threads: int | None = None, probe: bool = False,
            stages: tuple = STAGES, inputs_from: dict | None = None) -> dict:
        """One run; with `inputs_from`, the REFERENCE_INPUTS of that run's base output are copied in first."""
        if inputs_from is not None:
            out = os.path.join(self.work, label, "out")
            os.makedirs(out, exist_ok=True)
            for name in REFERENCE_INPUTS:
                shutil.copy(os.path.join(inputs_from["outs"]["base"], name), out)
        result = self._launch(label, {"trace": trace, "probe": probe, "stages": stages}, threads)
        record = {"label": label, "trace": trace, "threads": threads, "stages": stages, "result": result,
                  "reasons": []}
        if result is None:
            record["reasons"].append("run did not finish")
            return record
        record.update(_read_artifacts(result["outs"]))
        return record


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_artifacts(outs: dict) -> dict:
    """Digests of every deterministic artifact, plus the files the metrics need."""
    digests, errors, timings = {}, [], {}
    for variant, out in outs.items():
        if not os.path.isdir(out):
            continue
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            if name == "timings.json":
                timings[variant] = _read_json(path)
            elif name == "error.json":
                errors.append(_read_json(path))
            else:
                digests[f"{variant}/{name}"] = _sha256(path)
    base = outs["base"]
    found = {}
    for key, name in (("plan_report", "plan_report.json"), ("metrics", "metrics.json"), ("area", "area.json")):
        path = os.path.join(base, name)
        found[key] = _read_json(path) if os.path.exists(path) else None
    return dict(found, digests=digests, errors=errors, timings=timings)


def _consensus(digests: list):
    """The digest most runs agree on, or None when the top count is tied."""
    ranked = collections.Counter(digests).most_common(2)
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return None
    return ranked[0][0]


def gate(records: list) -> None:
    """Append a reason to every record that fails; a failed run is never a success."""
    for rec in records:
        res = rec["result"]
        if res is None:
            continue
        for label, call in res["stages"].items():
            if call["rc"] != 0:
                rec["reasons"].append(f"stage {label} returned {call['rc']}")
        missing = [label for label, _, _ in rec["stages"] if label not in res["stages"]]
        if missing:
            rec["reasons"].append(f"stages not run: {missing}")
        if rec["errors"]:
            rec["reasons"].append(f"error.json present: {rec['errors']}")
        plan = rec["plan_report"]
        if rec["stages"][0][0] == "plan" and (plan is None or not plan["stage2"]["feasible"]):
            rec["reasons"].append("stage 2 is infeasible or unreported")
    # Each deterministic artifact must be byte-identical in every run that wrote it.
    finished = [r for r in records if r["result"] is not None]
    seen = collections.defaultdict(list)
    for rec in finished:
        for name, digest in rec["digests"].items():
            seen[name].append(digest)
    agreed = {name: _consensus(digests) for name, digests in seen.items()}
    for rec in finished:
        differ = sorted(name for name, digest in rec["digests"].items() if digest != agreed[name])
        if differ:
            rec["reasons"].append(f"artifacts differ from the set's other runs: {differ}")


def _median(values):
    return statistics.median(values) if values else float("nan")


def _stage_medians(runs: list, key: str, total: str, per_stage: str) -> dict:
    """Median over the runs of each stage's `key` time, and of their sum per run."""
    out = {total: _median([sum(r["result"]["stages"][label][key] for label in STAGE_LABELS) for r in runs])}
    for label in STAGE_LABELS:
        out[per_stage.format(label)] = _median([r["result"]["stages"][label][key] for r in runs])
    return out


def end_to_end(runs: list, setups: list) -> tuple:
    """(gated metrics, recorded medians) over the timed runs that passed the gate.

    The recorded medians are the scaled per-stage times and every time
    unscaled, under "scaled" and "unscaled"."""
    ok = [r for r in runs if not r["reasons"]]
    if not ok:
        return {}, {}
    first = ok[0]
    metrics = dict(_stage_medians(ok, "norm_s", "wall_s", "stage_{}_s"),
                   **_stage_medians(ok, "norm_cpu_s", "cpu_s", "stage_{}_cpu_s"))
    raw = dict(_stage_medians(ok, "s", "wall_s", "stage_{}_s"),
               **_stage_medians(ok, "cpu_s", "cpu_s", "stage_{}_cpu_s"))
    raw["setup_s"] = _median([r["result"]["setup_s"] for r in ok])
    metrics.update(setup_s=_median(setups), peak_rss_mb=_median([r["result"]["peak_rss_mb"] for r in ok]))
    if first["metrics"] is not None:
        metrics.update(
            swept_area_m2=first["metrics"]["swept_area"],
            max_abs_e_y_m=first["metrics"]["max_abs_e_y"],
            max_abs_e_phi_deg=first["metrics"]["max_abs_e_phi_deg"],
        )
    if first["area"] is not None:
        metrics["planned_swept_area_m2"] = first["area"]["swept_area"]
    units = dict(END_TO_END)
    gated = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END
             if math.isfinite(metrics.get(name, math.nan))}
    scaled = {name: value for name, value in metrics.items() if name.startswith("stage_")}
    return gated, {"scaled": scaled, "unscaled": raw}


def timings_gap(rec: dict) -> dict:
    """External stage time minus the program's own timings.json value, per stage."""
    gaps = {}
    for label, stage, variant in STAGES:
        inner = rec["timings"].get(variant, {}).get(f"{stage}_s")
        outer = rec["result"]["stages"].get(label, {}).get("s")
        if inner is not None and outer is not None:
            gaps[label] = {"external_s": outer, "timings_s": inner, "gap_s": outer - inner}
    return gaps


def traced_metrics(detail: dict, traced: dict, single: dict) -> dict:
    """Per-layer metrics, the timings.json gaps and the tracing cost of the traced run."""
    if any(r["result"] is None or r["plan_report"] is None for r in (traced, single)):
        return {}
    res = traced["result"]
    layer = layer_metrics(res["trace"], traced["plan_report"], single["result"]["trace"])
    for label, gap in timings_gap(traced).items():
        layer[f"cli.timings_gap_s.{label}"] = (gap["gap_s"], "s")
    layer["trace.wall_s"] = (sum(c["s"] for c in res["stages"].values()), "s")
    layer["trace.spans"] = (res["trace_spans"], "count")
    layer["trace.overhead_est_s"] = (res["trace_spans"] * res["trace_call_cost_s"], "s")
    # Counts must not depend on the sweep's thread count.
    single_layer = layer_metrics(single["result"]["trace"], single["plan_report"], single["result"]["trace"])
    detail["count_mismatch_1t"] = {
        k: [v, single_layer[k][0]] for k, (v, unit) in layer.items()
        if unit == "count" and k in single_layer and v != single_layer[k][0]
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}


def context(bench: Benchmark, records: list) -> dict:
    commit = None
    if os.path.isdir(os.path.join(bench.root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for top in ("src", "scenarios"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(bench.root, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, bench.root).encode() + b"\0" + _sha256(path).encode())
    cpus = os.cpu_count()
    ctx = next((r["result"]["context"] for r in records if r["result"]), {})
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": cpus,
        "sweep_threads": cpus or 1,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "inputs": ctx,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    missing = [p for p in ["src/sweptplan/cli.py"] + list(WORKLOADS.values())
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(root, "src"))
    bench = Benchmark(root, args.workload, args.seed)
    try:
        bench.setup_probe("warmup")  # compiles bytecode; not a sample
        setups, starts = [], []
        for i in range(SETUP_PROBES):
            setups.append(bench.setup_probe(f"setup{i}"))
            starts.append(bench.startup_reference())
        setups = [s for s in setups if s is not None]
        starts = [s for s in starts if s is not None]
        if args.trace:
            records = [bench.run("traced", trace=True), bench.run("traced_1t", trace=True, threads=1)]
        else:
            timed = []
            t0 = time.monotonic()
            while len(timed) < MIN_TIMED_RUNS or time.monotonic() - t0 < args.seconds:
                timed.append(bench.run(f"timed{len(timed)}", probe=True))
                if timed[-1]["result"] is None:
                    break
            records = list(timed)
            calls = (timed[0]["result"] or {}).get("stages", {})
            if all(label in calls and calls[label]["rc"] == 0 for label in STAGE_LABELS):
                records.append(bench.run("reference_1t", threads=1, stages=REFERENCE_STAGES,
                                         inputs_from=timed[0]["result"]))
    except HarnessTimeout as exc:
        print(f"perfbench: harness timeout, no result: {exc}", file=sys.stderr)
        shutil.rmtree(bench.work, ignore_errors=True)
        return 3
    gate(records)
    failed = sum(1 for r in records if r["reasons"])

    ctx = context(bench, records)
    detail = {"context": ctx, "failed_ratio": failed / len(records), "runs": []}
    for rec in records:
        res = rec["result"] or {}
        detail["runs"].append({
            "label": rec["label"], "threads": rec["threads"], "trace": rec["trace"], "reasons": rec["reasons"],
            "setup_s": res.get("setup_s"), "speed": res.get("speed"),
            "peak_rss_mb": res.get("peak_rss_mb"),
            "stages": res.get("stages"), "timings_gap": timings_gap(rec) if res else None,
        })
    results_dir = os.path.join(root, RUNS_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    if args.trace:
        metrics = traced_metrics(detail, *records)
        for rec in records:
            if rec["result"] is not None:
                spans = f"{args.workload}-seed{args.seed}-{rec['label']}-spans.jsonl"
                shutil.copy(rec["result"]["spans"], os.path.join(results_dir, spans))
    else:
        setups += [r["result"]["setup_s"] for r in records if r["result"]]
        scale = REF_STARTUP_S / _median(starts)
        metrics, detail["recorded"] = end_to_end(timed, [s * scale for s in setups])
        detail.update(setup_samples_s=setups, startup_reference_s=starts, setup_scale=scale)
    detail["metrics"] = metrics
    done = next((r for r in records if not r["reasons"] and r["metrics"] and r["plan_report"]), None)
    if done is not None:
        detail["quality"] = {
            "excess_swept_area_m2": done["metrics"]["excess_swept_area"],
            "planned_excess_area_m2": done["metrics"]["planned_excess_area"],
            "min_clearance_m": done["plan_report"]["stage2"]["min_clearance"],
        }

    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    shutil.rmtree(bench.work, ignore_errors=True)

    print(f"perfbench context: {json.dumps(ctx)}")
    for run in detail["runs"]:
        print(f"perfbench run {run['label']}: {'FAILED ' + '; '.join(run['reasons']) if run['reasons'] else 'ok'}")
    print(f"perfbench failed_ratio: {detail['failed_ratio']:.3f} ({failed}/{len(records)})")
    print(f"perfbench quality: {json.dumps(detail.get('quality'))}")
    for kind, values in detail.get("recorded", {}).items():
        for name, value in values.items():
            print(f"perfbench recorded {kind} {name}: {value} s")
    for name, m in metrics.items():
        print(f"perfbench {name}: {m['value']} {m['unit']}")
    complete = bool(metrics) if args.trace else len(metrics) == len(END_TO_END)
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
