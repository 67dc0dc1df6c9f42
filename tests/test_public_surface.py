"""Every public name of the package is read by the package or the benchmark.

A name that only the tests read is a test helper or an oracle and lives in
``tests/dense.py``.  The check parses ``src/smcbsde/*.py`` and
``bench/*.py``: a name counts as used where it is loaded (``name``) or read
as an attribute (``module.name``) outside its own definition; an import,
``__all__`` and the definition itself do not count.
"""

import ast
from pathlib import Path

import smcbsde

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "smcbsde").glob("*.py")) + sorted(
    (ROOT / "bench").glob("*.py"))

# name -> the one-line reason it stays public without a reader
ALLOWED = {}


def _uses(tree):
    """The names loaded or read as attributes in ``tree``, outside the body
    of the top-level definition of each name (which may call itself)."""
    used = {}
    for top in tree.body:
        own = getattr(top, "name", None) if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                used[name] = used.get(name, 0) + 1
    return used


def test_every_public_name_has_a_reader_outside_the_tests():
    used = {}
    for path in SOURCES:
        for name, count in _uses(ast.parse(path.read_text())).items():
            used[name] = used.get(name, 0) + count
    unread = sorted(name for name in smcbsde.__all__
                    if name not in used and name not in ALLOWED)
    assert unread == [], f"public names only the tests read: {unread}"


def test_the_check_sees_a_name_without_a_reader():
    tree = ast.parse(
        "from .x import imported\n"
        "__all__ = ['alone', 'called']\n"
        "def alone(n):\n    return alone(n - 1)\n"
        "def called():\n    return imported()\n"
        "value = called()\n")
    used = _uses(tree)
    assert "alone" not in used and used["called"] == 1
    assert used["imported"] == 1
