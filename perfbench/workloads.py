"""Workloads: which scenario each one runs, and how a seed perturbs it.

Every workload makes the same five timed stage calls, so every end-to-end
metric is defined on every workload: the four pipeline stages on the
scenario, then the track stage once more on a copy of the scenario with
finite MPC rate limits (``track_ratelimit``), tracking the same plan.

Seed 0 writes the shipped scenario unchanged. Any other seed shifts the
swept-field grid (``sweep.margin`` grows by up to 0.1 m) and scales
each MPC input weight by a factor within 1 +/- 2 %. The planner's inputs are
never perturbed: its L-BFGS descent stops on a relative cost tolerance, and
a start or goal shift of even 10 micrometres moves straight's stage-1
iteration count from 404 to between 289 and 343, so a start/goal seed would
change the planning work by tens of percent from seed to seed.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = {
    "turn90": "scenarios/turn90.json",
    "straight": "scenarios/straight.json",
}

# Timed stage calls, in order: (label, pipeline stage, scenario variant).
STAGES = (
    ("plan", "plan", "base"),
    ("sweep", "sweep", "base"),
    ("track", "track", "base"),
    ("metrics", "metrics", "base"),
    ("track_ratelimit", "track", "ratelimit"),
)

RATE_LIMIT = [0.1, 0.1, 0.05]  # mpc.du_max of the rate-limited copy
MARGIN_SHIFT_M = 0.1
WEIGHT_SCALE = 0.02


def scenario_docs(root: str, workload: str, seed: int) -> dict:
    """The scenario documents a run of `workload` at `seed` feeds the program.

    The perturbed values start from the program's resolved scenario, so a
    key the file leaves unset starts from the program's own default. Needs
    the package (``src/``) on sys.path."""
    from sweptplan.cli import parse_scenario

    path = os.path.join(root, WORKLOADS[workload])
    with open(path, "r", encoding="utf-8") as fh:
        base = json.load(fh)
    if seed != 0:
        resolved = parse_scenario(path).echo
        rng = random.Random(seed)
        base.setdefault("sweep", {})["margin"] = resolved["sweep"]["margin"] + rng.uniform(0.0, MARGIN_SHIFT_M)
        base.setdefault("mpc", {})["input_weight"] = [
            w * (1.0 + rng.uniform(-WEIGHT_SCALE, WEIGHT_SCALE)) for w in resolved["mpc"]["input_weight"]
        ]
    limited = json.loads(json.dumps(base))
    limited.setdefault("mpc", {})["du_max"] = list(RATE_LIMIT)
    return {"base": base, "ratelimit": limited}


def write_scenarios(root: str, workload: str, seed: int, out_dir: str) -> dict:
    """Write the scenario files for a run; returns {variant: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for variant, doc in scenario_docs(root, workload, seed).items():
        path = os.path.join(out_dir, f"{workload}-{variant}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        paths[variant] = path
    return paths
