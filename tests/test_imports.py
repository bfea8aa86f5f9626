"""Every module under src/, scripts/ and tests/ reads each name it imports,
and every module-level function and class of src/ is read in src/.

An AST scan: the names an import binds (``import a.b`` binds ``a``,
``as`` binds the alias, ``from __future__`` binds nothing) against the
names the module reads anywhere, at any scope.  A package ``__init__``
reads the names listed in its ``__all__``, and a string annotation is
read as the expression it holds.  A definition counts as read when a
module-level statement of src/ other than itself reads its name, so a
helper that only calls itself is not read.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "scripts", "tests")
# Definitions of src/ that no src/ code reads, kept on purpose.
UNCALLED_IN_SRC = {
    # checks of the paper's statements, run by tests and scripts
    "kapranov_expansion_check", "mayer_square_reduce", "omega3_intersection_check",
    # the cycle and boundary subspaces, which tests compare the Betti ranks with
    "cycle_space", "boundary_space",
    # fixture accessor for the bundled digraphs
    "load_digraph",
}


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


def unread_definitions(sources) -> list[str]:
    """Module-level functions and classes that no other module-level statement reads."""
    statements = [stmt for source in sources for stmt in ast.parse(source).body]
    reads = [_read(stmt) for stmt in statements]
    count = Counter(name for names in reads for name in names)
    return sorted(stmt.name for stmt, names in zip(statements, reads)
                  if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and count[stmt.name] == (stmt.name in names))


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


def test_every_src_definition_is_read_in_src():
    sources = [p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py")]
    unread = set(unread_definitions(sources))
    assert unread <= UNCALLED_IN_SRC, f"no src/ caller: {sorted(unread - UNCALLED_IN_SRC)}"
    stale = UNCALLED_IN_SRC - unread
    assert not stale, f"allow-listed, but gone or read in src/: {sorted(stale)}"


def test_the_scan_finds_an_unread_definition():
    sources = ("__all__ = ['exported']\n"
               "def exported(): pass\n"
               "def used(): pass\n"
               "def _recursive(n): return _recursive(n - 1)\n"
               "class Dead: pass\n",
               "from m import used\n"
               "used()\n")
    assert unread_definitions(sources) == ["Dead", "_recursive"]
