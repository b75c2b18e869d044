"""LAPACK from scipy's compiled wrapper: start-up skips `scipy.linalg`'s
package init, and the pipeline's stage calls import nothing.

The import checks run in fresh interpreters, since the test suite itself
imports `scipy.linalg`."""

import json
import os
import subprocess
import sys

import scipy.linalg.lapack

from sweptplan import _lapack

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
STRAIGHT = os.path.join(HERE, "..", "scenarios", "straight.json")
ROUTINES = ("dgbsv", "dgbtrf", "dgbtrs", "dpotrf", "dpotrs")

_STAGES = """
import json, sys
sys.path.insert(0, sys.argv[1])
from sweptplan.cli import parse_scenario, run_pipeline
sc = parse_scenario(sys.argv[2])
seen = {"setup": sorted(m for m in ("scipy.linalg", "numpy.f2py", "numpy.ma") if m in sys.modules)}
for stage in ("plan", "sweep", "track", "metrics"):
    before = set(sys.modules)
    rc = run_pipeline(sc, [stage], sys.argv[3])
    seen[stage] = [rc, sorted(set(sys.modules) - before)]
print(json.dumps(seen))
"""


def _run(code, *args, path=SRC):
    return subprocess.run([sys.executable, "-c", code, path, *args], capture_output=True, text=True, timeout=300)


def test_start_up_and_stage_calls_import_no_module(tmp_path):
    proc = _run(_STAGES, STRAIGHT, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("setup") == []
    assert seen == {stage: [0, []] for stage in ("plan", "sweep", "track", "metrics")}


def test_routines_are_scipy_linalg_lapacks():
    for name in ROUTINES:
        assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name)


def test_missing_wrapper_names_the_directory_searched(tmp_path):
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = "import sys; sys.path[:0] = [sys.argv[2], sys.argv[1]]; import sweptplan._lapack"
    proc = _run(code, str(tmp_path))
    assert proc.returncode != 0
    assert f"ImportError: scipy's LAPACK wrapper _flapack not found in {linalg}" in proc.stderr
