"""Each shared sub-word is spelled once per constructor call.

`pure_homotopy_presentation` reads T(i, j), A(j, s), a_{i,r} and the PR7
conjugator C(j, k) from per-call tables, and `_surface_relations` reads one
list of A_s.  The references below are the constructors as they were when
each relation spelled its sub-words itself, kept verbatim: the tables must
change how often a sub-word is spelled, never a label or a relator.
"""

from collections import Counter
from itertools import product

import pytest

from braidhomotopy import presentations
from braidhomotopy.presentations import (
    RelatorFamily,
    _braid_relations,
    _check_size,
    _loops,
    _pairs,
    _presentation,
    _rel,
    expand_A_geo,
    expand_A_pure,
    expand_T_cap,
    homotopy_generalized_presentation,
    homotopy_quotient,
    pure_generators,
    pure_homotopy_presentation,
    surface_braid_presentation,
)
from braidhomotopy.words import (
    Word,
    commutator,
    concat,
    concat_all,
    conjugate,
    gen_word,
    invert,
    loop,
    sigma,
)


def _reference_pure(n: int, g: int, closed: bool, lh_bound: int):
    _check_size("pure", n, g, least_g=1)
    two_g = 2 * g
    up, down = range(1, two_g + 1), range(two_g, 0, -1)
    pairs = _pairs(n)

    def T(i, j):
        return expand_T_cap(i, j, n, g)

    def A(j, s):
        return expand_A_pure(j, s, n, g)

    def aw(i, r):
        return gen_word(loop(i, r), n, g)

    rels: list[tuple[str, Word]] = []
    if closed:
        rels.append(("PR1", _rel(concat(_loops(n, up, -1, n, g), _loops(n, up, 1, n, g)),
                                 concat_all([concat(invert(T(i, n - 1)), T(i, n))
                                             for i in range(1, n)]))))
    rels += [(f"PR2[i={i},j={j},r={r},s={s}]", commutator(aw(i, r), A(j, s)))
             for i, j in pairs for r in up for s in range(1, two_g) if r != s]
    rels += [(f"PR3[i={i},j={j},r={r}]",
              _rel(commutator(_loops(i, range(1, r + 1), 1, n, g), A(j, r)),
                   concat(T(i, j), invert(T(i, j - 1)))))
             for i, j in pairs for r in range(1, two_g)]
    # i < j < k < l, or i < k < l <= j
    rels += [(f"PR4[i={i},j={j},k={k},l={l}]", commutator(T(i, j), T(k, l)))
             for (i, j), (k, l) in product(pairs, pairs) if j < k or (i < k and l <= j)]
    rels += [(f"PR5[i={i},j={j},k={k},l={l}]",
              _rel(conjugate(T(i, j), T(k, l)),
                   concat_all([T(i, k - 1), invert(T(i, k)), T(i, j), invert(T(i, l)),
                               T(i, k), invert(T(i, k - 1)), T(i, l)])))
             for (i, k), (j, l) in product(pairs, pairs) if k <= j]
    rels += [(f"PR6[i={i},j={j},k={k},r={r}]", commutator(aw(i, r), T(j, k)))
             for r in up for i in range(1, n + 1) for j, k in pairs if i < j or k < i]
    for j, i in pairs:
        for k in range(i, n + 1):
            C = concat_all([_loops(j, down, -1, n, g), T(j, k), _loops(j, down, 1, n, g)])
            rels += [(f"PR7[j={j},i={i},k={k},r={r}]", commutator(aw(i, r), C)) for r in up]
    for j in range(1, n):
        factors = [concat_all([_loops(i, down, -1, n, g), T(i, j - 1), invert(T(i, j)),
                               _loops(i, up, 1, n, g)]) for i in range(1, j)]
        tail = concat(_loops(j, up, 1, n, g), _loops(j, up, -1, n, g))
        rels.append((f"PR8[j={j}]", _rel(T(j, n), concat_all(factors + [tail]))))

    fams = [RelatorFamily("LH1", n, g, i, lh_bound) for i in range(1, n)]
    return _presentation("pure", n, g, closed, lh_bound, pure_generators(n, g), rels, fams)


def _reference_surface_relations(n: int, g: int, closed: bool) -> list[tuple[str, Word]]:
    run = range(1, 2 * g + 1)
    x = [gen_word(sigma(i), n, g) for i in range(1, n)]
    a = [gen_word(loop(1, r), n, g) for r in run]
    rels = _braid_relations(x, "R")
    if closed:
        # crossing side is the all-positive palindrome, not a band generator
        rels.append(("R3", _rel(concat(_loops(1, run, 1, n, g), _loops(1, run, -1, n, g)),
                                concat_all(x + x[::-1]))))
    if n >= 2:
        rels += [(f"R4[r={r},s={s}]", commutator(a[r - 1], expand_A_geo(s, n, g)))
                 for r in run for s in range(1, 2 * g) if r != s]
        for r in range(1, 2 * g):
            prefix, A = _loops(1, range(1, r + 1), 1, n, g), expand_A_geo(r, n, g)
            rels.append((f"R5[r={r}]", _rel(concat(prefix, A),
                                            concat_all([x[0], x[0], A, prefix]))))
    rels += [(f"R6[r={r},i={i}]", commutator(a[r - 1], x[i - 1]))
             for r in run for i in range(2, n)]
    return rels


def _surface_built(n, g):
    """Each constructor that reads `_surface_relations`, keyed by family."""
    return {
        "surface": surface_braid_presentation(n, g),
        "homotopy closed": homotopy_generalized_presentation(n, g, True, 1),
        "homotopy punctured": homotopy_generalized_presentation(n, g, False, 1),
        "homotopy-aux": homotopy_generalized_presentation(n, g, True, 1, with_auxiliary=True),
        "quotient": homotopy_quotient(surface_braid_presentation(n, g), 1),
    }


def _same(built, reference):
    assert built.labels == reference.labels
    assert built.relators == reference.relators
    assert built == reference


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pure_matches_the_reference(n, g, closed):
    _same(pure_homotopy_presentation(n, g, closed, 1), _reference_pure(n, g, closed, 1))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_surface_constructors_match_the_reference(monkeypatch, n, g):
    built = _surface_built(n, g)
    monkeypatch.setattr(presentations, "_surface_relations", _reference_surface_relations)
    for family, reference in _surface_built(n, g).items():
        _same(built[family], reference)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_goldsmith_relations_match_the_reference(n):
    for closed in (True, False):
        assert presentations._surface_relations(n, 0, closed) == \
            _reference_surface_relations(n, 0, closed)


def _spy(monkeypatch) -> Counter:
    """Count the calls of each sub-word spelling by (name, arguments)."""
    calls: Counter = Counter()
    for name in ("expand_T_cap", "expand_A_pure", "expand_A_geo"):
        def spelled(*args, _name=name, _f=getattr(presentations, name)):
            calls[_name, args] += 1
            return _f(*args)
        monkeypatch.setattr(presentations, name, spelled)
    return calls


@pytest.mark.parametrize("build", [
    lambda: pure_homotopy_presentation(5, 2, True, 1),
    lambda: pure_homotopy_presentation(4, 3, False, 0),
    lambda: surface_braid_presentation(3, 3),
    lambda: homotopy_generalized_presentation(3, 2, False, 1, with_auxiliary=True),
    lambda: homotopy_quotient(surface_braid_presentation(2, 4), 1),
], ids=["pure-closed", "pure-punctured", "surface", "homotopy-aux", "quotient"])
def test_each_sub_word_is_spelled_once_per_call(monkeypatch, build):
    calls = _spy(monkeypatch)
    build()
    assert calls, "the spy saw no spelling"
    assert max(calls.values()) == 1, calls.most_common(3)


def test_a_second_call_spells_again(monkeypatch):
    calls = _spy(monkeypatch)
    pure_homotopy_presentation(3, 1, True, 0)
    first = dict(calls)
    pure_homotopy_presentation(3, 1, True, 0)
    assert calls == Counter({key: 2 * k for key, k in first.items()})
