"""The benchmark's traced functions must exist in the package.

``bench/tracing.py`` wraps the functions named in its ``TRACED`` table; a
rename or deletion there would only show up as a failed benchmark run. The
table is read as a literal from the source, without importing the bench
code.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
