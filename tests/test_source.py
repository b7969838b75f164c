"""Static checks on the package source that need no linter."""

import ast
import pathlib

import pytest

import ctrlkit

MODULES = sorted(p for p in pathlib.Path(ctrlkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    assert sorted(imported - used - exported) == []


def test_only_numcore_builds_a_time_grid():
    """No module but numcore multiplies by np.arange(...): every fixed-step grid comes from numcore.Grid."""
    built = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "numcore.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            isinstance(side, ast.Call) and ast.unparse(side.func) == "np.arange"
            for side in (node.left, node.right)
        )
    ]
    assert built == []
