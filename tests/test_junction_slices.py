"""Family relators spelled from junction slices, and letters printed by one lookup.

For a band word t of length m and a conjugator expansion hw of length k,
x = hw t hw^-1 cancels only at its two junctions: hw's last a letters
against t's first a, and t's last b against hw^-1's first b.  When
a + b < m the two do not meet, so ``RelatorFamily.instances`` spells x
and x^-1 from slices; otherwise it joins as before.  ``conjugators``
extends each inverse expansion from its parent's.  The references below
are the join-based stream and the ``_power``-per-run printer as they
were, kept verbatim.
"""

import inspect
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from braidhomotopy.presentations import RelatorFamily
from braidhomotopy.words import (
    _NAMES,
    Word,
    atom,
    band,
    code,
    enumerate_shortlex,
    format_word,
    image_table,
    inverse_codes,
    join_codes,
    loop,
    sigma,
)


def _instances_by_joins(fam):
    """``RelatorFamily.instances`` as it was: x by two joins, x^-1 by an inverse."""
    ctx = (fam.n, fam.g)
    for i, ts in fam.bands().items():
        conjugators = _conjugators_by_inverse(fam, i)
        for j, t in ts:
            t_inv = inverse_codes(t)
            head = f"LH[j={j},h=" if fam.kind == "LH" else f"{fam.kind}[i={i},j={j},h="
            for tag, hw, hw_inv in conjugators:
                # [t, x] = t x t^-1 x^-1 with x = hw t hw^-1
                x = join_codes(join_codes(hw, t), hw_inv)
                rel = join_codes(join_codes(join_codes(t, x), t_inv), inverse_codes(x))
                if rel:
                    yield head + tag + "]", Word.from_codes(rel, ctx)


def _conjugators_by_inverse(fam, i):
    """``RelatorFamily.conjugators`` as it was: every inverse by ``inverse_codes``."""
    fam.check_cap(i)
    image = image_table(map(code, fam.strand_basis(i)), fam._spell)[0]
    expansion = {(): ()}
    out = []
    for h in enumerate_shortlex(fam.strand_basis(i), fam.bound, fam.n, fam.g):
        if h:
            expansion[h.codes] = join_codes(expansion[h.codes[:-1]], image[h.codes[-1]])
        hw = expansion[h.codes]
        out.append((format_word(h).replace(" ", ",") or "1", hw, inverse_codes(hw)))
    return out


def _format_word_by_power(w):
    """``format_word`` as it was, one ``_power`` call per run."""
    parts = []
    run, k = 0, 0
    for c in w.codes:
        if c == run:
            k += 1
        else:
            if k:
                parts.append(_power(run, k))
            run, k = c, 1
    if k:
        parts.append(_power(run, k))
    return " ".join(parts)


def _power(c, k):
    if c > 0:
        return _NAMES[c] if k == 1 else f"{_NAMES[c]}^{k}"
    return f"{_NAMES[-c]}^{-k}"


# n = 1-6 and g = 0-2 at bounds 0-2, and at bound 3 when n + 2g <= 7: 98,948 relators
# over the three kinds.  The full grid at bound 3 (342,432 relators) agrees too, but
# streaming it both ways takes about 10 s.
GRID = [(n, g, bound) for n in range(1, 7) for g in range(3) for bound in range(4)
        if bound < 3 or n + 2 * g <= 7]


@pytest.mark.parametrize("kind", ["LH", "HN", "LH1"])
def test_the_sliced_stream_equals_the_joined_one(kind):
    relators = 0
    for n, g, bound in GRID:
        fam = RelatorFamily(kind, n, g, 0 if kind == "HN" else 1, bound)
        got = list(fam.instances())
        assert got == list(_instances_by_joins(fam)), (n, g, bound)
        for i in fam._strands():
            assert fam.conjugators(i) == _conjugators_by_inverse(fam, i), (n, g, bound, i)
        relators += len(got)


def _line_of(function, text):
    """The line number of the one source line of ``function`` holding ``text``."""
    lines, first = inspect.getsourcelines(function)
    (number,) = [first + k for k, line in enumerate(lines) if text in line]
    return number


def _executed_lines(function, run):
    """How often each line of ``function`` ran during ``run()``."""
    seen = Counter()

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_lineno] += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is function.__code__ else None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


@pytest.mark.parametrize("kind, n, g, bound", [("LH", 2, 0, 1), ("LH", 5, 2, 2),
                                               ("HN", 4, 1, 2), ("LH1", 4, 2, 2)])
def test_both_branches_run_as_often_as_the_junctions_say(kind, n, g, bound):
    fam = RelatorFamily(kind, n, g, 0 if kind == "HN" else 1, bound)
    instances = RelatorFamily.instances
    seen = _executed_lines(instances, lambda: list(fam.instances()))
    sliced = seen[_line_of(instances, "x = hw[:k - a] + t[a:m - b] + hw_inv[b:]")]
    joined = seen[_line_of(instances, "x = join_codes(join_codes(hw, t), hw_inv)")]
    # a and b from the joins themselves: the letters each junction cancels
    expected = Counter()
    for i, ts in fam.bands().items():
        for _, t in ts:
            for _, hw, hw_inv in fam.conjugators(i):
                a = (len(hw) + len(t) - len(join_codes(hw, t))) // 2
                b = (len(t) + len(hw_inv) - len(join_codes(t, hw_inv))) // 2
                expected["sliced" if a + b < len(t) else "joined"] += 1
    assert (sliced, joined) == (expected["sliced"], expected["joined"])
    assert sliced and joined  # at j = 2, h = t_{1,2}^{+-1} takes the joins


def test_every_signed_code_has_its_token():
    for gen in [sigma(3), loop(2, 1), band(1, 4), atom("word_x")]:
        c = code(gen)
        assert (_NAMES[c], _NAMES[-c]) == (str(gen), f"{gen}^-1")


SYMBOLS = [sigma(1), sigma(2), sigma(3), loop(1, 1), loop(3, 2), band(1, 2), band(2, 4),
           atom("x"), atom("y"), atom("long_atom_name")]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from([1, -1]),
                          st.one_of(st.integers(1, 3), st.integers(4, 60))), max_size=12))
def test_format_word_prints_as_the_power_per_run_form(runs):
    w = Word([(gen, e) for gen, e, k in runs for _ in range(k)], (4, 1))
    assert format_word(w) == _format_word_by_power(w)
