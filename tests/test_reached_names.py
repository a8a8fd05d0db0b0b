"""Every module-level function and class in the package is reached, and every
method and property of its classes; and every optional parameter of a package
function, method or constructor is passed by some call.

A name counts as reached when a name or attribute reference to it appears
in ``src/drsynth`` or ``bench/`` outside its own definition. Tests do not
count: code that only tests call is surface to delete, not to keep. The
sources are read as syntax trees, without importing the bench code. Dunder
methods are left out: Python calls them, not a reference by name. A call
passes a parameter by keyword, by position, or through ``*args`` or
``**kwargs``; calls are matched to definitions by name alone.
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


KEPT_UNPASSED = {
    # the acceptance gradient check builds a backend of 64 features and 16 hidden units
    "reference_backend.ReferenceBackend.feature_dim",
    "reference_backend.ReferenceBackend.hidden_dim",
}


def _optional_parameters() -> dict[str, tuple[ast.AST, str, str, int | None]]:
    """Each parameter with a default of a package function, method or constructor.

    Qualified name -> (definition, the name calls use, parameter, its position in a
    call by that name, or None when it is keyword-only). A constructor is called by its
    class's name; a method's and a constructor's first parameter is not in the call.
    """
    found = {}
    for module, tree in _trees(ROOT / "src" / "drsynth").items():
        functions = [(f"{module}.{node.name}", node, node.name, 0) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if node.name == "__init__":
                    functions.append((f"{module}.{cls.name}", node, cls.name, 1))
                elif not (node.name.startswith("__") and node.name.endswith("__")):
                    qualified = f"{module}.{cls.name}.{node.name}"
                    functions.append((qualified, node, node.name, 0 if static else 1))
        for qualified, node, called, skipped in functions:
            positional = node.args.posonlyargs + node.args.args
            for index, arg in enumerate(positional[len(positional) - len(node.args.defaults):]):
                position = len(positional) - len(node.args.defaults) + index - skipped
                found[f"{qualified}.{arg.arg}"] = (node, called, arg.arg, position)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found[f"{qualified}.{arg.arg}"] = (node, called, arg.arg, None)
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the package and the bench code, by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*_trees(ROOT / "src" / "drsynth").values(), *_trees(ROOT / "bench").values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):  # None: **kwargs
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_optional_parameter_is_passed():
    """A default that no stage, CLI or bench call overrides is a constant in disguise."""
    calls = _calls()
    unpassed = []
    for qualified, (node, called, parameter, position) in _optional_parameters().items():
        own = {id(inner) for inner in ast.walk(node)}
        others = [call for call in calls.get(called, ()) if id(call) not in own]
        if not any(_passes(call, parameter, position) for call in others):
            unpassed.append(qualified)
    assert set(unpassed) <= KEPT_UNPASSED, f"passed by no stage, CLI or bench call: {unpassed}"
