"""Every name a spinorcalc module imports is used in that module.

No linter ships with the project, so this reads each module with ``ast``:
a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere else in the module, also inside a string annotation such as
``-> "Weight"``.  ``__init__.py`` is left out, since its imports are the
package's re-exports, and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinorcalc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """name -> line of every name an import in ``tree`` binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name read in ``tree``, including those of string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{module} imports names it never uses: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse("from dataclasses import dataclass, field\n"
                     "import os.path\n"
                     "@dataclass\n"
                     "class A:\n"
                     "    def f(self) -> 'os.PathLike': ...\n")
    assert set(imported_names(tree)) - used_names(tree) == {"field"}
