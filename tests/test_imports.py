"""No module of the package imports a name at module level that it never
uses. No linter ships with the project, so this is checked with the
standard library's ast. Exempt: the package's __init__.py, whose imports
are its public re-exports, `from __future__` imports, and an import
marked `# noqa: F401`, which some other code reads from that module."""

import ast
from pathlib import Path

import pytest

import atomlam

MODULES = sorted(p for p in Path(atomlam.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from os import path, sep  # noqa: F401\n"
              "from sys import argv, exit\n"
              "exit(argv)\n"
              "import json\n")
    assert unused_imports(source) == ["json (line 4)"]
