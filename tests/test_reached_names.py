"""Every module-level function and class in the package is reached.

A name counts as reached when a name or attribute reference to it appears
in ``src/drsynth`` or ``bench/`` outside its own definition. Tests do not
count: code that only tests call is surface to delete, not to keep. The
sources are read as syntax trees, without importing the bench code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT_UNREACHED = {
    # the lam=0 reference: tests compare invariance training at lam=0 against it
    "adaptation.adapt_ce",
}


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(directory.glob("*.py"))}


def test_every_module_level_definition_is_reached():
    package = _trees(ROOT / "src" / "drsynth")
    bench = _trees(ROOT / "bench")
    holders: dict[str, list[ast.stmt]] = {}  # name -> top-level statements referencing it
    for tree in [*package.values(), *bench.values()]:
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    holders.setdefault(node.id, []).append(top)
                elif isinstance(node, ast.Attribute):
                    holders.setdefault(node.attr, []).append(top)
    unreached = []
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not any(
                top is not node for top in holders.get(node.name, ())
            ):
                unreached.append(f"{module}.{node.name}")
    assert set(unreached) <= KEPT_UNREACHED, f"reached by no stage, CLI or bench: {unreached}"
