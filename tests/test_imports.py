"""Every module under src/, scripts/ and tests/ reads each name it imports.

An AST scan: the names an import binds (``import a.b`` binds ``a``,
``as`` binds the alias, ``from __future__`` binds nothing) against the
names the module reads anywhere, at any scope.  A package ``__init__``
reads the names listed in its ``__all__``, and a string annotation is
read as the expression it holds.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "scripts", "tests")


def _bound(node):
    """(line, name) for each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name != "*":
            yield node.lineno, alias.asname or alias.name.split(".")[0]


def _read(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _read(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the source never reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return [(line, name)
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for line, name in _bound(node) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in files
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, "\n".join(unused)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from json import dumps as d, loads\n"
              "import sys\n"
              "x: 'loads'\n"
              "sys.exit()\n")
    assert unused_imports(source) == [(2, "os"), (3, "d")]
