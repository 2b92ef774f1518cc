"""One way to stream a relator family.

``RelatorFamily.instances`` is the one stream, always truncated at the
family's stored bound, and ``Presentation.iter_relators`` is its one
reader in the package: a standard-library ``ast`` check in the style of
``test_letter_encoding.py`` locates every ``.instances(`` call by module
and enclosing function.  A stream at another bound comes from a family or
presentation built at that bound, so no stream function takes one.
Tests may still call ``instances`` directly.
"""

import ast
import inspect
import pathlib

from hypothesis import given, settings, strategies as st

import braidhomotopy
from braidhomotopy.presentations import Presentation, RelatorFamily
from braidhomotopy.verify import purity_report
from braidhomotopy.words import symbol

MODULES = sorted(pathlib.Path(braidhomotopy.__file__).parent.glob("*.py"))
ALLOWED = {("presentations.py", "Presentation.iter_relators")}


def _instances_calls(name: str, tree: ast.Module) -> list[tuple[str, str, int]]:
    """(module, enclosing qualified name, line) of each ``.instances(...)`` call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "instances"):
            found.append((name, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_iter_relators_streams_a_family():
    calls = [call for path in MODULES
             for call in _instances_calls(path.name, ast.parse(path.read_text(encoding="utf-8")))]
    assert [call for call in calls if call[:2] not in ALLOWED] == []
    assert [call[:2] for call in calls] == sorted(ALLOWED)


def test_detects_an_instances_call():
    source = ("class Presentation:\n    def iter_relators(self):\n"
              "        yield from self.fam.instances()\n"
              "def f(p):\n    return [w for fam in p.families for _, w in fam.instances()]\n"
              "def g(fam):\n    return fam.instances, 'instances'\n")
    assert _instances_calls("m.py", ast.parse(source)) == [
        ("m.py", "Presentation.iter_relators", 3), ("m.py", "f", 5)]


def test_no_stream_function_takes_a_bound():
    params = {fn.__qualname__: list(inspect.signature(fn).parameters)
              for fn in (RelatorFamily.instances, RelatorFamily.conjugators,
                         Presentation.iter_relators, purity_report)}
    assert params == {"RelatorFamily.instances": ["self"],
                      "RelatorFamily.conjugators": ["self", "i"],
                      "Presentation.iter_relators": ["self"],
                      "purity_report": ["p"]}


@st.composite
def families(draw):
    kind = draw(st.sampled_from(["LH", "HN", "LH1"]))
    n, g = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    strand = draw(st.integers(1, n)) if kind == "LH1" else {"LH": 1, "HN": 0}[kind]
    return RelatorFamily(kind, n, g, strand, 1)


@settings(max_examples=200, deadline=None)
@given(families())
def test_emitted_symbols_lie_in_the_alphabet(fam):
    # Presentation.__post_init__ checks ``alphabet()`` in place of every relator
    emitted = {symbol(c) for _, rel in fam.instances() for c in rel.codes}
    alphabet = fam.alphabet()
    assert emitted <= alphabet
    strands = range(1, fam.n) if fam.kind == "HN" else [fam.strand]
    bases = [fam.strand_basis(i) for i in strands]
    if bases and all(len(b) >= 2 and any(gen.kind == "t" for gen in b) for b in bases):
        assert emitted == alphabet
