"""One memo per fact in the word, permutation and presentation layers.

A letter's strand action is stated in ``perms.word_permutation`` alone:
``PermutationTable`` takes each letter's images from it, once per table,
and composes them at any strand count.  The module-level mutable memos
of ``words`` and ``perms`` are the symbol table (``_GENS``, ``_NAMES``,
``_CODES``) and the parser's bounded token cache (``_TOKENS``).  Those of
``presentations`` are the caches of ``expand_t`` (behind the public
function, one key per band) and ``expand_a``; a relator family caches
nothing.  No method carries a ``functools`` cache, whose keys would keep
every instance alive.
"""

import ast
import pathlib

from hypothesis import given, settings, strategies as st

import braidhomotopy
from braidhomotopy import perms
from braidhomotopy.perms import Permutation, PermutationTable, word_permutation
from braidhomotopy.words import Word, atom, band, loop, sigma

PACKAGE = pathlib.Path(braidhomotopy.__file__).parent
CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CACHES = {"cache", "lru_cache"}
ATOMS = [atom("x"), atom("y")]


def _name(node) -> str:
    """The name a call or decorator is spelled with: ``f``, ``m.f`` and ``f(...)`` give f."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _cached(node) -> bool:
    """Whether ``node`` is a function wrapped in a ``functools`` cache."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
        any(_name(d) in CACHES for d in node.decorator_list)


def _mutable_memos(source: str) -> set[str]:
    """Module-level names bound to a mutable container, module-level
    functions wrapped in a ``functools`` cache, and methods wrapped in one
    (as ``Class.method``)."""
    memos = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            memos.update(f"{node.name}.{f.name}" for f in node.body if _cached(f))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                  ast.SetComp)) or (isinstance(value, ast.Call)
                                                    and _name(value) in CONTAINERS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                memos.update(t.id for t in targets if isinstance(t, ast.Name))
        elif _cached(node):
            memos.add(node.name)
    return memos


def test_the_detector_finds_every_kind_of_memo():
    source = ("import functools, re, threading\nfrom collections import defaultdict\n"
              "_A: dict[int, int] = {}\n_B = []\n_C = set()\n_D = defaultdict(list)\n"
              "_E = {k: k for k in range(3)}\n_F, _G = (), 'text'\n_H = re.compile('x')\n"
              "_I = threading.Lock()\n_J: int = 4\n_K: list\n"
              "@functools.lru_cache(maxsize=None)\ndef _l(x):\n    return x\n"
              "@functools.cache\ndef _m(x):\n    return x\n"
              "def _n(x):\n    memo = {}\n    return memo\n"
              "class _O:\n    memo = {}\n")
    assert _mutable_memos(source) == {"_A", "_B", "_C", "_D", "_E", "_l", "_m"}


def test_the_detector_finds_a_cache_on_a_method():
    source = ("import functools\nclass _P:\n    memo = {}\n"
              "    @functools.lru_cache(maxsize=None)\n    def _q(self, x):\n        return x\n"
              "    @functools.cache\n    def _r(self):\n        return 1\n"
              "    @functools.cached_property\n    def _s(self):\n        return 2\n"
              "    def _t(self):\n        return 3\n")
    assert _mutable_memos(source) == {"_P._q", "_P._r"}


def test_presentations_caches_only_the_derived_generator_expansions():
    memos = _mutable_memos((PACKAGE / "presentations.py").read_text(encoding="utf-8"))
    # _JSON_TYPES is the JSON reader's field-type table, read and never written
    assert memos == {"_expand_t", "expand_a", "_JSON_TYPES"}


def test_no_method_in_the_package_carries_a_cache():
    for path in sorted(PACKAGE.glob("*.py")):
        methods = {m for m in _mutable_memos(path.read_text(encoding="utf-8")) if "." in m}
        assert not methods, path.name


def test_the_word_and_permutation_layers_keep_one_memo_per_fact():
    memos = {module: _mutable_memos((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
             for module in ("words", "perms")}
    assert memos == {"words": {"_GENS", "_NAMES", "_CODES", "_TOKENS"}, "perms": set()}


@st.composite
def alphabets(draw):
    """(n, g, letters, atom images) above the table's strand limit."""
    n, g = draw(st.integers(8, 10)), draw(st.integers(0, 1))
    gens = [sigma(i) for i in range(1, n)]
    gens += [loop(i, r) for i in range(1, n + 1) for r in range(1, 2 * g + 1)]
    gens += [band(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    images = {x: Permutation(tuple(draw(st.permutations(range(1, n + 1))))) for x in ATOMS}
    return n, g, gens + ATOMS, images


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_table_above_seven_strands_walks_as_the_reference_does(data):
    n, g, gens, images = data.draw(alphabets())
    table = PermutationTable(n, images)
    letters = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    for _ in range(5):
        w = Word(data.draw(st.lists(letters, max_size=40)), (n, g))
        assert table.images(w) == word_permutation(w, n, images).images


def test_a_table_asks_the_reference_once_per_letter(monkeypatch):
    calls = []
    real = perms.word_permutation

    def counted(w, n, atom_images=None):
        calls.append(w.codes)
        return real(w, n, atom_images)

    monkeypatch.setattr(perms, "word_permutation", counted)
    table = PermutationTable(9, {atom("x"): Permutation((2, 3, 1, 4, 5, 6, 7, 8, 9))})
    words = [Word([(sigma(k), e) for k in (1, 2, 8, 1, 2)] + [(atom("x"), e), (band(1, 9), e)],
                  (9, 0)) for e in (1, -1)] * 3
    for w in words:
        table.images(w)
    assert sorted(calls) == sorted({(c,) for w in words for c in w.codes})
