"""One holder per fact: a strand's conjugators and ``h1``'s exponent rows.

``RelatorFamily.conjugators`` keeps each conjugator only in the list it
returns, and finds a word's parent entry by the shortlex rule stated in
``enumerate_shortlex``: with r letters, word k >= 1 is word
``0 if k <= 2r else (k - 2) // (2r - 1)`` plus one letter.  ``h1`` hands
its exponent rows to ``smith_normal_form`` one at a time, so the
elimination's working copy, which keeps only nonzero rows, is their one
holder.
"""

import ast
import inspect
import textwrap
import tracemalloc

import pytest

from braidhomotopy.presentations import RelatorFamily, pure_homotopy_presentation
from braidhomotopy.verify import h1
from braidhomotopy.words import atom, enumerate_shortlex


@pytest.mark.parametrize("rank", range(5))
@pytest.mark.parametrize("bound", range(5))
def test_each_shortlex_word_extends_its_parent_entry_by_one_letter(rank, bound):
    words = [w.codes for w in enumerate_shortlex([atom(f"x{m}") for m in range(rank)], bound)]
    assert words[0] == ()
    for k in range(1, len(words)):
        parent = 0 if k <= 2 * rank else (k - 2) // (2 * rank - 1)
        assert words[k][:-1] == words[parent]


def test_conjugators_build_no_dict():
    tree = ast.parse(textwrap.dedent(inspect.getsource(RelatorFamily.conjugators)))
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Dict, ast.DictComp))
        assert not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict")


def test_h1_holds_no_zero_row():
    p = pure_homotopy_presentation(10, 1, True, 0)
    assert (len(p.relators), len(p.generators)) == (1780, 65)
    tracemalloc.start()
    try:
        result = h1(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(result) == "Z^20"
    # one dense 65-column row per relator peaked at about 1 MiB
    assert peak < 0.25 * 2**20
