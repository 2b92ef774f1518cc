"""One letter encoding: only ``Word.__reduce__`` decodes ``Word.letters``.

A standard-library check in the style of ``test_imports.py``: each module
of the package is parsed with ``ast``, and every read of an attribute
named ``letters`` is located by module and enclosing function.  Words are
rewritten through their signed letter codes (``substitute`` and its image
table), so the decoded ``(Gen, +1/-1)`` view is left to pickling, which
stores symbols because codes differ between processes.  Tests may still
read ``.letters``.
"""

import ast
import pathlib

import braidhomotopy

MODULES = sorted(pathlib.Path(braidhomotopy.__file__).parent.glob("*.py"))
ALLOWED = {("words.py", "Word.__reduce__")}


def _letters_reads(name: str, tree: ast.Module) -> list[tuple[str, str, int]]:
    """(module, enclosing qualified name, line) of each ``.letters`` read."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr == "letters"
                and isinstance(node.ctx, ast.Load)):
            found.append((name, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_pickling_decodes_letters():
    reads = [read for path in MODULES
             for read in _letters_reads(path.name, ast.parse(path.read_text(encoding="utf-8")))]
    assert [read for read in reads if read[:2] not in ALLOWED] == []


def test_detects_a_letters_read():
    source = ("class Word:\n    def __reduce__(self):\n        return self.letters\n"
              "def f(w):\n    return [g for g, _ in w.letters]\n"
              "def g(w):\n    w.letters = ()\n    return 'letters', w.codes\n")
    assert _letters_reads("m.py", ast.parse(source)) == [
        ("m.py", "Word.__reduce__", 3), ("m.py", "f", 5)]
