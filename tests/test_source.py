"""Source hygiene of the library modules."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hptmaster"


def unread_imports(source):
    """[(line, name)] of the names bound by imports that are never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unread_imports_are_found():
    source = ("import os.path\nfrom . import linalg\n"
              "from .graded import ONE, ZERO as Z\nprint(ONE, linalg.rank)\n")
    assert unread_imports(source) == [(1, "os"), (3, "Z")]


def test_every_library_import_is_read():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unread = {p.name: unread_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unread.items() if found} == {}
