"""Every name a spinorcalc module imports is used in that module, every
private name a module defines at module level is read somewhere in the package,
and importing the CLI stays clear of ``dataclasses`` and ``inspect``.

No linter ships with the project, so this reads each module with ``ast``:
a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere else in the module, also inside a string annotation such as
``-> "Weight"``.  ``__init__.py`` is left out of that check, since its
imports are the package's re-exports, and so are ``from __future__`` imports.
"""

import ast
import subprocess
import sys
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



def private_definitions(stmt: ast.stmt) -> set[str]:
    """The private names (``_name``, not dunder) a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def dead_private_names(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """module -> the private names it binds at module level that the package never reads.

    A bare name counts as read in its own module, outside the statements that
    bind it, so recursion alone does not keep a function alive; an attribute
    (``intersect._apply``) or an imported name counts in every module."""
    anywhere: set[str] = set()
    local: dict[str, set[str]] = {}
    for module, tree in trees.items():
        local[module] = set()
        for stmt in tree.body:
            local[module] |= used_names(stmt) - private_definitions(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute):
                    anywhere.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    anywhere |= {alias.name for alias in node.names}
    dead = {}
    for module, tree in trees.items():
        orphans = set().union(*map(private_definitions, tree.body)) - local[module] - anywhere
        if orphans:
            dead[module] = orphans
    return dead


def test_every_private_name_is_used():
    trees = {p.name: ast.parse(p.read_text(), filename=p.name) for p in PACKAGE.glob("*.py")}
    assert dead_private_names(trees) == {}


def test_an_orphaned_private_name_is_found():
    trees = {"a.py": ast.parse("_LIMIT = 3\n"
                               "def _helper(n):\n"
                               "    return _helper(n - 1) if n else _LIMIT\n"
                               "def _orphan():\n"
                               "    return _orphan()\n"
                               "_ALIAS = _CONST = 1\n"
                               "_Hint = int\n"),
             "b.py": ast.parse("from .a import _helper\n"
                               "import a\n"
                               "_LIMIT: '_Hint' = a._ALIAS\n")}
    assert dead_private_names(trees) == {"a.py": {"_orphan", "_CONST", "_Hint"},
                                         "b.py": {"_LIMIT"}}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # they bring ast, dis, tokenize, linecache and copy with them, which made up
    # about half of the time ``import spinorcalc.cli`` took in a fresh interpreter
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import spinorcalc.cli; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=30, check=True)
    loaded = proc.stdout.split()
    assert "spinorcalc.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded), \
        f"import spinorcalc.cli loaded these modules: {loaded}"
