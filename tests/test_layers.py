"""The package is one stack of layers: each module of ``ebmlp`` imports only
modules that come before it in LAYERS, and every import sits at module
level, so the import graph has no cycle and nothing is imported late to
break one. ``__init__`` re-exports the public names and is exempt."""

import ast
from pathlib import Path

import pytest

import ebmlp

LAYERS = (
    "core",
    "data",
    "models",
    "mlp",
    "ebm",
    "bqm",
    "_kernels",
    "samplers",
    "training",
    "equivalence",
    "experiments",
    "cli",
)
SOURCE = Path(ebmlp.__file__).resolve().parent


def imported_modules(node):
    """The ebmlp modules an import statement names (empty for others)."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("ebmlp.")]
    if node.level == 0:
        parts = (node.module or "").split(".")
        return [parts[1]] if parts[0] == "ebmlp" and len(parts) > 1 else []
    if node.module is not None:
        return [node.module.split(".")[0]]
    return [a.name for a in node.names]


def imports_inside_functions(tree):
    """Line numbers of the import statements nested in a function body."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [n.lineno for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
    return found


def test_every_module_has_a_layer():
    modules = sorted(p.stem for p in SOURCE.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers_at_module_level(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert imports_inside_functions(tree) == [], f"{module} imports inside a function"
    earlier = LAYERS[: LAYERS.index(module)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in imported_modules(node):
                assert name in earlier, f"{module} (line {node.lineno}) imports {name}, which is not an earlier layer"
