"""Every module-level function and class in the package is reached, and every
method and property of its classes.

A name counts as reached when a name or attribute reference to it appears
in ``src/drsynth`` or ``bench/`` outside its own definition. Tests do not
count: code that only tests call is surface to delete, not to keep. The
sources are read as syntax trees, without importing the bench code. Dunder
methods are left out: Python calls them, not a reference by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT_UNREACHED = {
    # the lam=0 reference: tests compare invariance training at lam=0 against it
    "adaptation.adapt_ce",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(directory.glob("*.py"))}


def _references() -> dict[str, list[ast.AST]]:
    """Every name and attribute reference in the package and the bench code, by name."""
    references: dict[str, list[ast.AST]] = {}
    for tree in [*_trees(ROOT / "src" / "drsynth").values(), *_trees(ROOT / "bench").values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(node)
    return references


def _unreached(definitions: dict[str, ast.stmt]) -> list[str]:
    """The qualified names of ``definitions`` referenced nowhere outside their own body."""
    references = _references()
    unreached = []
    for qualified, node in definitions.items():
        own = {id(inner) for inner in ast.walk(node)}
        if all(id(reference) in own for reference in references.get(node.name, ())):
            unreached.append(qualified)
    return unreached


def test_every_module_level_definition_is_reached():
    definitions = {
        f"{module}.{node.name}": node
        for module, tree in _trees(ROOT / "src" / "drsynth").items()
        for node in tree.body
        if isinstance(node, _DEFINITIONS)
    }
    unreached = _unreached(definitions)
    assert set(unreached) <= KEPT_UNREACHED, f"reached by no stage, CLI or bench: {unreached}"


def test_every_method_and_property_is_reached():
    definitions = {
        f"{module}.{cls.name}.{node.name}": node
        for module, tree in _trees(ROOT / "src" / "drsynth").items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    unreached = _unreached(definitions)
    assert not unreached, f"reached by no stage, CLI or bench: {unreached}"
