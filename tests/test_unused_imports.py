"""No module of the package imports a name at module level that it never
uses.  ``__init__.py`` is left out, since its imports are the package's
exports, and so is ``from __future__``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homlie"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names that the module-level imports bind."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, those in string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_the_package_has_modules():
    assert {"algebra.py", "bracket.py", "cli.py", "extension.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


def test_an_unused_import_is_found():
    tree = ast.parse("from operator import neg\nimport os.path\nfrom typing import Any\n"
                     "def f(x: 'Any') -> None:\n    return os.sep\n")
    assert [name for name in imported_names(tree) if name not in used_names(tree)] == ["neg"]
