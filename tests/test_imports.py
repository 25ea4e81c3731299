"""Every name a library module imports is used where it is imported.

A name left behind when the code that used it is deleted still imports
cleanly, so nothing else notices it.  A module-level import must be used
somewhere in the module, and an import inside a function within that
function: the CLI imports each layer in the commands that use it, and a
stale one there would pass a module-wide check whenever another function
uses the same name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bertrandnum"
MODULES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(scope):
    """The nodes of a module or function outside its nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        imported = {}
        for node in own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "annotations" and isinstance(node, ast.ImportFrom):
                        continue  # from __future__ import annotations
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in imported.items() if name not in used]
    return sorted(unused)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from os import path, sep\nimport json\n\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "json")]
    # an import inside a function counts only for that function, even when
    # another function uses the same name
    source = (
        "def f():\n"
        "    from os import sep\n"
        "    return 1\n"
        "\n"
        "def g():\n"
        "    from os import linesep as sep\n"
        "    return sep\n"
    )
    assert unused_imports(source) == [(2, "sep")]
