"""No module of the package imports a name at module level that it never
uses, no private name the package defines goes unread, and the private
names one module imports from another are the pinned ones. No linter
ships with the project, so this is checked with the standard library's
ast. Exempt from the import check: the package's __init__.py, whose
imports are its public re-exports, `from __future__` imports, and an
import marked `# noqa: F401`, which some other code reads from that
module."""

import ast
from pathlib import Path

import pytest

import atomlam

PACKAGE = sorted(Path(atomlam.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _defined(node):
    """The names a module-level or class-body statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def orphaned_privates(sources: dict) -> list:
    """The private names (not dunders) that a module of `sources`, a map
    from module name to source, defines at module level or in a class
    body, and that no module reads: as a loaded name or attribute, a name
    imported, or a string constant (a dict key, a getattr name)."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else []
            for stmt in [node] + body:
                defined += [(name, module, stmt.lineno)
                            for name in _defined(stmt) if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(f"{name} ({module}, line {line})"
                  for name, module, line in defined if name not in read)


def test_no_private_name_goes_unread():
    assert orphaned_privates({p.stem: p.read_text() for p in PACKAGE}) == []


def test_the_check_sees_an_unread_private_name():
    sources = {"a": ("def _imported(): pass\n"
                     "def _orphan(): pass\n"
                     "def __dunder__(): pass\n"
                     "_KEYED, _unpacked = {'_by_key': 1}, 2\n"
                     "def _by_key(): pass\n"
                     "class _C:\n"
                     "    _slot = 0\n"
                     "    def _method(self):\n"
                     "        self._slot = 1\n"
                     "        return self._called()\n"
                     "    def _called(self): pass\n"),
               "b": "from a import _imported, _C, _KEYED\n"}
    assert orphaned_privates(sources) == [
        "_method (a, line 8)", "_orphan (a, line 2)", "_slot (a, line 7)",
        "_unpacked (a, line 4)"]


#: (importer, module, name) of each private name that one module of the
#: package imports from another; a new one is added here, in the open
PRIVATE_IMPORTS = {
    ("analysis", "rewriting", "_later_step"),
    ("analysis", "rewriting", "_settle"),
    ("analysis", "rewriting", "_stepped"),
    ("cli", "rewriting", "_STRATEGY_ALIASES"),
    ("cli", "surface", "_lex"),
    ("diagram", "analysis", "_ROOT_SIM"),
    ("diagram", "analysis", "_ipc_redex"),
    ("diagram", "analysis", "_simulation"),
    ("rewriting", "syntax", "_refill"),
    ("rewriting", "typecheck", "_fine_match"),
    ("translate", "syntax", "_SHAPES"),
    ("typecheck", "syntax", "_PLANS"),
    ("typecheck", "syntax", "_with_child"),
}


def private_imports(sources: dict) -> set:
    """(importer, module, name) of each private name (not a dunder) that
    a module of `sources`, a map from module name to source, imports by a
    relative import, anywhere in the module."""
    out = set()
    for importer, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                out |= {(importer, node.module, alias.name)
                        for alias in node.names if _is_private(alias.name)}
    return out


def test_private_imports_are_the_pinned_ones():
    assert private_imports({p.stem: p.read_text() for p in PACKAGE}) == \
        PRIVATE_IMPORTS


def test_the_check_sees_a_private_import():
    sources = {"a": ("from .b import _shared, public, __version__\n"
                     "from os import _exit\n"
                     "def f():\n"
                     "    from .c import _late as late\n"),
               "b": "from . import c as _c\n"}
    assert private_imports(sources) == {("a", "b", "_shared"),
                                        ("a", "c", "_late")}
