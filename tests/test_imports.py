"""The package's import structure: relative imports form no cycle, and none
sits inside a function, so every module's dependencies are read at its top."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import wtdesigns

PACKAGE = Path(wtdesigns.__file__).resolve().parent


def _relative_imports():
    """(module, imported module, inside a function) for every relative import, at any depth."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_function = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    found.append((path.stem, target.split(".")[0], id(node) in in_function))
    return found


def test_relative_imports_are_found():
    # the package does import across modules, so an empty scan means a broken walk
    assert ("optimal", "recursion", False) in _relative_imports()


def test_module_graph_is_acyclic():
    graph = {}
    for module, target, _ in _relative_imports():
        graph.setdefault(module, set()).add(target)
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_no_relative_import_inside_a_function():
    inside = [(m, t) for m, t, in_function in _relative_imports() if in_function]
    assert inside == []
