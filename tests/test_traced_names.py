"""The benchmark's traced functions must exist in the package, and be reached.

``bench/tracing.py`` wraps the functions named in its ``TRACED`` table; a
rename or deletion there would only show up as a failed benchmark run. The
table is read as a literal from the source, without importing the bench
code. A traced run also fails when one of a workload's expected spans
records no call, so one traced ``grid-tiny`` run is made here as well.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _traced() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(TRACING.read_text("utf-8")).body:
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if isinstance(target, ast.Name) and target.id == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module_name, attr, _span in traced:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced by the benchmark but missing: {missing}"


def test_traced_grid_tiny_run_records_every_expected_span(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    result = tmp_path / "result.json"
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "workload.py"), "--workload", "grid-tiny",
            "--seed", "1", "--seconds", "1", "--trace", "1",
            "--work", str(tmp_path / "work"), "--result", str(result),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    traced = json.loads(result.read_text("utf-8"))
    assert traced["missing"] == []
    # candidates and pools are featurized through the backend's memo
    assert traced["calls"]["reference_backend.featurize"] > 0
    assert traced["calls"]["reference_backend.featurize_pairs"] > 0
    # the tracer counts a scored item per ``len(args[0])`` of ``evaluation.score``;
    # every evaluate stage scores each eval row once, one call per domain
    eval_rows = (tmp_path / "work" / "run" / "data" / "eval.jsonl").read_text("utf-8").splitlines()
    evaluations = sum(
        name.startswith("evaluate:")
        for op in traced["ops"] if op["iteration"] == 1
        for name in op["stages_run_names"]
    )
    assert evaluations > 0
    assert traced["layers"]["evaluation.items_scored"] == len(eval_rows) * evaluations
    assert traced["layers"]["evaluation.score_calls"] == 3 * evaluations
