"""One memo per fact in ``presentations``, on letter codes.

``expand_t`` spells t_{i,j} from the codes of t_{i,j-1}, one crossing
appended, instead of one ``Gen`` per letter, and its cache holds one key
per band whether g is given or not.  ``RelatorFamily`` holds its five
fields and nothing else: ``conjugators(i)`` builds strand i's image table
and drops it with the call, so a dropped family is freed, and a pickled
family carries only its fields, since codes differ between processes.
``alphabet`` maps each distinct letter code to its symbol once.
"""

import gc
import os
import pathlib
import pickle
import random
import subprocess
import sys
import weakref

import pytest

from braidhomotopy import presentations
from braidhomotopy.presentations import (
    RelatorFamily,
    expand_t,
    homotopy_quotient,
    presentation_to_text,
    surface_braid_presentation,
)
from braidhomotopy.words import Gen, Word, band, check_gen, code, sigma


def _expand_t_by_letters(i, j, n, g=0):
    """``expand_t`` as it was spelled before, one ``(Gen, e)`` pair per letter."""
    check_gen(band(i, j), n, g)
    letters = [(sigma(k), 1) for k in range(i, j - 1)]
    letters += [(sigma(j - 1), 1), (sigma(j - 1), 1)]
    letters += [(sigma(k), -1) for k in range(j - 2, i - 1, -1)]
    return Word(tuple(letters), (n, g))


@pytest.mark.parametrize("g", [0, 2])
def test_expand_t_spells_as_the_letter_by_letter_form_in_any_order(g):
    pairs = [(i, j, n) for n in range(2, 49) for i in range(1, n) for j in range(i + 1, n + 1)]
    random.Random(g).shuffle(pairs)  # t_{i,j} is sometimes built before t_{i,j-1}
    presentations._expand_t.cache_clear()
    for i, j, n in pairs:
        assert expand_t(i, j, n, g) == _expand_t_by_letters(i, j, n, g), (i, j, n)


@pytest.mark.parametrize("g", [(), (0,)], ids=["g-default", "g-spelled"])
def test_a_fresh_expand_t_builds_two_gens_under_one_cache_key(monkeypatch, g):
    made = []
    real = Gen.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Gen, "__init__", counted)
    presentations._expand_t.cache_clear()
    for j in range(2, 201):
        before = len(made)
        expand_t(1, j, 200, *g)
        assert len(made) - before <= 2, j
    # a band and its last crossing per t_{1,j}; the 3-argument form made 794 and 397
    assert len(made) == 398
    assert presentations._expand_t.cache_info().currsize == 199


def test_alphabet_maps_each_distinct_code_to_its_symbol_once(monkeypatch):
    calls = []
    real = presentations.symbol

    def counted(c):
        calls.append(c)
        return real(c)

    fam = RelatorFamily("HN", 40, 1, 0, 2)
    monkeypatch.setattr(presentations, "symbol", counted)
    alphabet = fam.alphabet()
    assert len(calls) == len({abs(c) for c in calls}) == len(alphabet)


def test_a_dropped_family_is_collected():
    p = homotopy_quotient(surface_braid_presentation(3, 1), 1)
    assert p.labeled_relators()  # the stream builds each strand's image table
    family = weakref.ref(p.families[-1])
    del p
    gc.collect()
    assert family() is None


_CHILD = """
import pickle, sys
from braidhomotopy.words import atom, code
for k in range(50):  # codes follow first use: these shift every code after them
    code(atom(f"x{k}"))
from braidhomotopy.presentations import presentation_to_text
sys.stdout.write(presentation_to_text(pickle.loads(sys.stdin.buffer.read())))
"""


def test_a_pickled_family_streams_the_same_relators_in_another_process():
    p = homotopy_quotient(surface_braid_presentation(3, 1), 1)
    text = presentation_to_text(p)  # the family's images are built, in this process's codes
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(presentations.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=pickle.dumps(p),
                          capture_output=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, text, b"")


def test_a_streamed_family_holds_only_its_fields():
    p = homotopy_quotient(surface_braid_presentation(4, 1), 2)
    fam = p.families[-1]
    assert fam.kind == "HN" and p.labeled_relators()
    assert list(vars(fam)) == ["kind", "n", "g", "strand", "bound"]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_conjugators_build_the_image_table_of_their_strand_only(monkeypatch, i):
    fam = RelatorFamily("HN", 4, 1, 0, 2)
    tables, real = [], presentations.image_table

    def spy(codes, image):
        codes = tuple(codes)
        tables.append(codes)
        return real(codes, image)

    monkeypatch.setattr(presentations, "image_table", spy)
    fam.conjugators(i)
    assert tables == [tuple(code(b) for b in fam.strand_basis(i))]
