import json
import math
import random

import pytest

from braidhomotopy.extension import (
    CosetTable,
    ExtensionData,
    IncompleteDataError,
    TietzeError,
    assemble_extension,
    braid_extension_data,
    eliminate_all,
    extension_data_from_json,
    extension_data_to_json,
    find_isolating_relator,
    sigma_conj_band,
    sigma_conj_loop,
    sigma_conj_word,
    tietze_eliminate,
    todd_coxeter,
    word_to_columns,
)
from braidhomotopy.handles import is_trivial_braid
from braidhomotopy.perms import generated_permutations, is_pure, transposition, word_permutation
from braidhomotopy.presentations import (
    Presentation,
    expand_a,
    expand_t,
    homotopy_generalized_presentation,
    homotopy_quotient,
    surface_braid_presentation,
    symmetric_presentation,
)
from braidhomotopy.verify import purity_report
from braidhomotopy.words import (
    Word,
    atom,
    band,
    concat,
    concat_all,
    format_word,
    gen_word,
    invert,
    loop,
    parse_word,
    sigma,
)


def expand_kernel(w, n, g):
    parts = []
    for gen, e in w.letters:
        rep = expand_a(gen.i, gen.j, n, g) if gen.kind == "a" else expand_t(gen.i, gen.j, n, g)
        parts.append(rep if e == 1 else invert(rep))
    return concat_all(parts) if parts else Word((), (n, g))


# --- conjugation tables -----------------------------------------------------

def test_band_conjugation_certified_by_handle_reduction():
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for k in range(1, n):
                    lhs = concat_all([gen_word(sigma(k), n), expand_t(i, j, n),
                                      gen_word(sigma(k), n, e=-1)])
                    rhs = expand_kernel(sigma_conj_band(k, i, j, n, 0), n, 0)
                    assert is_trivial_braid(concat(lhs, invert(rhs))), (n, k, i, j)


def test_loop_conjugation_adjacent_cases_freely_equal():
    for n in range(2, 5):
        for g in (1, 2):
            for k in range(1, n):
                for strand in (k, k + 1):
                    for r in range(1, 2 * g + 1):
                        lhs = concat_all([gen_word(sigma(k), n, g),
                                          expand_a(strand, r, n, g),
                                          gen_word(sigma(k), n, g, e=-1)])
                        rhs = expand_kernel(sigma_conj_loop(k, strand, r, n, g), n, g)
                        assert lhs == rhs, (n, g, k, strand, r)


def test_conjugation_words_are_pure():
    n, g = 4, 2
    for k in range(1, n):
        for i in range(1, n + 1):
            for r in range(1, 2 * g + 1):
                assert is_pure(expand_kernel(sigma_conj_loop(k, i, r, n, g), n, g), n)


def test_sigma_conj_word_letterwise():
    n, g = 3, 1
    w = parse_word("a2.1 t1.2^-1", n, g)
    out = sigma_conj_word(w, 1, n, g)
    first = sigma_conj_loop(1, 2, 1, n, g)
    second = invert(sigma_conj_band(1, 1, 2, n, g))
    assert out == concat(first, second)


# --- assembly ---------------------------------------------------------------

def _direct_product_data():
    A = Presentation("custom", 1, 0, None, None, (atom("x"),), (), ())
    y2 = Word(((atom("y"), 1), (atom("y"), 1)))
    G = Presentation("custom", 1, 0, None, None, (atom("y"),), (y2,), ("y2",))
    return ExtensionData(A, G, {atom("y"): atom("Y")}, {"y2": Word()},
                         {(atom("y"), atom("x")): gen_word(atom("x"))})


def test_assemble_direct_product():
    asm = assemble_extension(_direct_product_data())
    assert [str(g) for g in asm.generators] == ["x", "Y"]
    rendered = {format_word(w) for w in asm.relators}
    assert rendered == {"Y^2", "Y x Y^-1 x^-1"}


def test_assemble_missing_entries():
    data = _direct_product_data()
    with pytest.raises(IncompleteDataError):
        assemble_extension(ExtensionData(data.kernel, data.quotient, {},
                                         data.rel_words, data.conj_words))
    with pytest.raises(IncompleteDataError):
        assemble_extension(ExtensionData(data.kernel, data.quotient, data.lifts,
                                         {}, data.conj_words))
    with pytest.raises(IncompleteDataError):
        assemble_extension(ExtensionData(data.kernel, data.quotient, data.lifts,
                                         data.rel_words, {}))


def test_kernel_expressions_must_be_kernel_words():
    data = _direct_product_data()
    bad = ExtensionData(data.kernel, data.quotient, data.lifts,
                        {"y2": gen_word(atom("Y"))}, data.conj_words)
    with pytest.raises(IncompleteDataError):
        assemble_extension(bad)


def test_braid_assembly_generator_set():
    asm = assemble_extension(braid_extension_data(3, 1, True, 1))
    names = {str(g) for g in asm.generators}
    assert names == {"a1.1", "a1.2", "a2.1", "a2.2", "a3.1", "a3.2",
                     "t1.2", "t1.3", "t2.3", "s1", "s2"}
    assert asm.families == ()


def test_braid_assembly_purity():
    asm = assemble_extension(braid_extension_data(3, 1, True, 1))
    assert purity_report(asm).passed


def test_extension_data_json_roundtrip():
    data = braid_extension_data(2, 1, True, 1)
    doc = extension_data_to_json(data)
    back = extension_data_from_json(doc)
    assert back == data
    assert extension_data_to_json(back) == doc


# --- tietze -----------------------------------------------------------------

def test_eliminate_band_generators_via_defining_expansion():
    p = homotopy_generalized_presentation(3, 1, True, 1, with_auxiliary=True)
    # materialize the band-letter family instances as plain relators
    for label, rel in p.families[0].instances():
        p = p.with_relator(label, rel)
    import dataclasses
    p = dataclasses.replace(p, families=())
    n, g = 3, 1
    order = [band(i, j) for d in (1, 2) for i in (1, 2)
             for j in range(i + 1, 4) if j - i == d]
    p = eliminate_all(p, order)
    assert all(gen.kind != "t" for gen in p.generators)
    order = [loop(i, r) for i in (3, 2) for r in (1, 2)]
    p = eliminate_all(p, order)
    assert {str(gen) for gen in p.generators} == {"a1.1", "a1.2", "s1", "s2"}
    assert purity_report(p).passed


def test_eliminate_requires_isolation():
    p = surface_braid_presentation(2, 1)
    r3 = p.relators[p.labels.index("R3")]
    with pytest.raises(TietzeError):
        tietze_eliminate(p, loop(1, 1), r3)  # a1.1 occurs twice in R3


def test_eliminate_unused_generator():
    x, y = atom("x"), atom("y")
    rel = Word(((y, 1), (x, 1), (x, 1)))
    p = Presentation("custom", 1, 0, None, None, (x, y), (rel,), ("r",))
    out = tietze_eliminate(p, y, rel)
    assert out.generators == (x,)
    assert out.relators == ()  # the defining relator is consumed


def test_eliminate_substitutes_occurrences():
    x, y, z = atom("x"), atom("y"), atom("z")
    defining = Word(((z, 1), (x, -1), (y, -1)))  # z = y x
    other = Word(((z, 1), (z, 1)))
    p = Presentation("custom", 1, 0, None, None, (x, y, z),
                     (defining, other), ("def", "other"))
    out = tietze_eliminate(p, z, defining)
    assert [format_word(w) for w in out.relators] == ["y x y x"]


def test_find_isolating_relator():
    p = homotopy_generalized_presentation(3, 1, True, 0, with_auxiliary=True)
    rel = find_isolating_relator(p, band(1, 2))
    assert rel is not None
    assert sum(1 for gen, _ in rel.letters if gen == band(1, 2)) == 1
    # no relator of the plain surface presentation isolates a crossing
    assert find_isolating_relator(surface_braid_presentation(3, 1), sigma(2)) is None


# --- todd-coxeter ------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tc_symmetric_group_order(n):
    table = todd_coxeter(symmetric_presentation(n), [])
    assert table.status == "closed"
    assert table.coset_count == math.factorial(n)


def test_tc_surface_pure_subgroup_index_two():
    n, g = 2, 1
    sub = [expand_a(i, r, n, g) for i in (1, 2) for r in (1, 2)]
    sub.append(expand_t(1, 2, n, g))
    table = todd_coxeter(surface_braid_presentation(n, g), sub)
    assert table.status == "closed" and table.coset_count == 2


def test_tc_overflow_status():
    table = todd_coxeter(symmetric_presentation(5), [], max_cosets=10)
    assert table.status == "overflow"


def test_tc_relator_order_invariance():
    import dataclasses
    p = symmetric_presentation(4)
    shuffled = dataclasses.replace(
        p, relators=tuple(reversed(p.relators)), labels=tuple(reversed(p.labels)))
    a = todd_coxeter(p, [])
    b = todd_coxeter(shuffled, [])
    assert a.coset_count == b.coset_count == 24


def test_tc_adding_relators_never_increases_count():
    p = symmetric_presentation(4)
    base = todd_coxeter(p, []).coset_count
    extra = p.with_relator("extra", parse_word("d1 d2", 4))
    assert todd_coxeter(extra, []).coset_count <= base


def test_tc_closed_table_is_consistent_action():
    p = symmetric_presentation(3)
    table = todd_coxeter(p, [])
    rels = [word_to_columns(w, p.generators) for _, w in p.iter_relators()]
    assert table.validate(rels, [])


def test_tc_csv_dump():
    p = symmetric_presentation(2)
    table = todd_coxeter(p, [])
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "coset,d1,d1^-1"
    assert len(lines) == 3


def test_tc_on_quotient_with_materialized_family():
    from braidhomotopy.presentations import homotopy_quotient
    n, g = 2, 1
    sub = [expand_a(i, r, n, g) for i in (1, 2) for r in (1, 2)]
    sub.append(expand_t(1, 2, n, g))
    p = homotopy_quotient(surface_braid_presentation(n, g), 2)
    table = todd_coxeter(p, sub)
    assert table.status == "closed" and table.coset_count == 2


def test_tietze_inverse_occurrence():
    x, y, z = atom("x"), atom("y"), atom("z")
    defining = Word(((x, 1), (z, -1), (y, 1)))  # x z^-1 y = 1, so z = y x
    other = Word(((z, 1), (y, -1)))
    p = Presentation("custom", 1, 0, None, None, (x, y, z),
                     (defining, other), ("def", "other"))
    out = tietze_eliminate(p, z, defining)
    assert [format_word(w) for w in out.relators] == ["y x y^-1"]


_GOOD_EXTENSION = json.loads(extension_data_to_json(braid_extension_data(2, 1, True, 1)))


@pytest.mark.parametrize("doc", [
    {}, [1], "text",
    *({k: v for k, v in _GOOD_EXTENSION.items() if k != key} for key in _GOOD_EXTENSION),
    dict(_GOOD_EXTENSION, kernel=[]), dict(_GOOD_EXTENSION, quotient={"n": 2}),
    dict(_GOOD_EXTENSION, lifts=["s1"]), dict(_GOOD_EXTENSION, lifts={"s1": 3}),
    dict(_GOOD_EXTENSION, rel_words={"R1": None}), dict(_GOOD_EXTENSION, conj_words=[]),
    dict(_GOOD_EXTENSION, conj_words={"s1": "a1.1"}),
    dict(_GOOD_EXTENSION, conj_words={"s1": {"a1.1": 1}}),
])
def test_malformed_extension_json_raises_value_error(doc):
    with pytest.raises(ValueError):
        extension_data_from_json(json.dumps(doc))


# --- coset tables against independent oracles ---------------------------------

def test_validate_rejects_a_wrong_inverse_column():
    # Z/3 = <x | x^3>: the x column is the 3-cycle, the x^-1 column is the
    # same 3-cycle instead of its inverse; both are bijections
    x = atom("x")
    rows = [[1, 1], [2, 2], [0, 0]]
    assert not CosetTable((x,), rows, "closed").validate([[0, 0, 0]], [])
    rows = [[1, 2], [2, 0], [0, 1]]
    assert CosetTable((x,), rows, "closed").validate([[0, 0, 0]], [])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tc_index_matches_permutation_group_order(n, seed):
    rnd = random.Random(1000 * n + seed)
    p = symmetric_presentation(n)
    images = {gen: transposition(n, i + 1) for i, gen in enumerate(p.generators)}
    words = []
    for _ in range(rnd.randint(1, 3)):
        letters = [(rnd.choice(p.generators), rnd.choice((1, -1)))
                   for _ in range(rnd.randint(1, 6))]
        words.append(Word(letters))
    order = len(generated_permutations(word_permutation(w, n, images) for w in words))
    table = todd_coxeter(p, words)
    assert table.status == "closed"
    assert table.coset_count == math.factorial(n) // order
    cols = [word_to_columns(w, p.generators) for w in words]
    assert table.validate([word_to_columns(w, p.generators) for w in p.relators], cols)


def _pure_presentations():
    for n in (2, 3, 4):
        for g in (1, 2):
            yield f"surface-{n}-{g}", surface_braid_presentation(n, g)
            for bound in (0, 1, 2):
                for closed in (True, False):
                    yield (f"homotopy-{n}-{g}-{closed}-{bound}",
                           homotopy_generalized_presentation(n, g, closed, bound))
                yield (f"quotient-{n}-{g}-{bound}",
                       homotopy_quotient(surface_braid_presentation(n, g), bound))


@pytest.mark.parametrize("p", [pytest.param(p, id=name) for name, p in _pure_presentations()])
def test_tc_pure_subgroup_tables_validate(p):
    n, g = p.n, p.g
    sub = [expand_a(i, r, n, g) for i in range(1, n + 1) for r in range(1, 2 * g + 1)]
    sub += [expand_t(i, j, n, g) for i in range(1, n) for j in range(i + 1, n + 1)]
    table = todd_coxeter(p, sub)
    assert table.status == "closed" and table.coset_count == math.factorial(n)
    rels = [word_to_columns(w, p.generators) for _, w in p.iter_relators()]
    assert table.validate(rels, [word_to_columns(w, p.generators) for w in sub])


def test_tc_symmetric_8_closes_under_the_default_cap():
    table = todd_coxeter(symmetric_presentation(8), [])
    assert table.status == "closed" and table.coset_count == math.factorial(8)


# --- tietze output, pinned ---------------------------------------------------

# sha256 of "label: word\n" per relator after eliminating acceptance criterion
# 8's band-then-loop order from the assembled extension (n, g, lh_bound), closed
ELIMINATED_SHA256 = {
    (3, 1, 1): "a37212cf72f397628fabe21ae3ea9fd02e75e8f273ab80d1e2c9dcaddc60a8ba",
    (2, 2, 1): "d9ac42306ba5804d4258cf50151e9848a6a7b8c5810811d4db68698db374d746",
    (4, 2, 2): "2945d2cd6059d0b9fb68ef44c9f38a747d7503cfa88e8d92267a4b4de87aa3d7",
}


@pytest.mark.parametrize("n, g, bound", sorted(ELIMINATED_SHA256))
def test_eliminate_all_output_is_pinned(n, g, bound):
    import hashlib
    asm = assemble_extension(braid_extension_data(n, g, True, bound))
    order = [band(i, j) for d in range(1, n) for i in range(1, n)
             for j in range(i + 1, n + 1) if j - i == d]
    order += [loop(i, r) for i in range(n, 1, -1) for r in range(1, 2 * g + 1)]
    reduced = eliminate_all(asm, order)
    text = "".join(f"{label}: {format_word(rel)}\n"
                   for label, rel in zip(reduced.labels, reduced.relators))
    assert hashlib.sha256(text.encode()).hexdigest() == ELIMINATED_SHA256[(n, g, bound)]


@pytest.mark.parametrize("defining", [
    "z x^-1 y^-1",   # first, e = +1
    "z^-1 y x",      # first, e = -1
    "x^-1 y^-1 z",   # last, e = +1
    "y x z^-1",      # last, e = -1
    "y^-1 z x^-1",   # inside, e = +1
    "x z^-1 y",      # inside, e = -1
])
def test_tietze_isolated_letter_anywhere(defining):
    # every defining relator says z = y x
    x, y, z = atom("x"), atom("y"), atom("z")
    rels = [parse_word(defining), parse_word("z z"), parse_word("z y^-1"),
            parse_word("z^-1 x z"), parse_word("x y")]
    p = Presentation("custom", 1, 0, None, None, (x, y, z), tuple(rels),
                     ("def", "zz", "zy", "conj", "xy"))
    out = tietze_eliminate(p, z, rels[0])
    assert out.generators == (x, y)
    assert out.labels == ("zz", "zy", "conj", "xy")
    assert [format_word(w) for w in out.relators] == [
        "y x y x", "y x y^-1", "x^-1 y^-1 x y x", "x y"]


def test_tietze_replacement_cancels_around_the_letter():
    # a z a^-1 = 1 makes z trivial: y x = a^-1 a cancels at the junction
    a, z, y = atom("a"), atom("z"), atom("y")
    defining = parse_word("a z a^-1")
    p = Presentation("custom", 1, 0, None, None, (a, y, z),
                     (parse_word("z y z"), defining, parse_word("z^2")), ("one", "def", "two"))
    out = tietze_eliminate(p, z, defining)
    assert out.labels == ("one",) and [format_word(w) for w in out.relators] == ["y"]
    assert out.generators == (a, y)
