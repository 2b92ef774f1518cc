"""Refusal branches and printers that no other test runs, one case each.

Also the family strand rule: `RelatorFamily` refuses a strand that does not
fit its kind at construction, not when it is streamed or put in a
`Presentation`.
"""

import re

import pytest

from braidhomotopy.extension import (
    CosetTable,
    TietzeError,
    eliminate_all,
    sigma_conj_word,
    tietze_eliminate,
)
from braidhomotopy.handles import main_sign
from braidhomotopy.magnus import (
    BasisError,
    NonRepeatingSeries,
    format_series,
    generator_series,
)
from braidhomotopy.perms import generated_permutations, transposition
from braidhomotopy.presentations import (
    Presentation,
    RelatorFamily,
    expand_T_cap,
    goldsmith_presentation,
    symmetric_presentation,
)
from braidhomotopy.verify import smith_normal_form
from braidhomotopy.words import (
    AlphabetError,
    Word,
    atom,
    enumerate_shortlex,
    gen_word,
    parse_word,
    sigma,
)


@pytest.mark.parametrize("kind,strand", [("HN", 5), ("LH", 7), ("LH1", 0), ("LH", -2)])
def test_a_family_refuses_a_strand_its_kind_cannot_have(kind, strand):
    message = f"relator family {kind} on 3 strands cannot have strand {strand}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RelatorFamily(kind, 3, 1, strand, 1)


def test_the_kind_size_and_bound_rules_come_before_the_strand_rule():
    with pytest.raises(ValueError, match="unknown relator family kind 'XX'"):
        RelatorFamily("XX", 3, 1, 9, 1)
    with pytest.raises(ValueError, match="needs n >= 1, got 0"):
        RelatorFamily("LH", 0, 1, 9, 1)
    with pytest.raises(ValueError, match="lh_bound must be >= 0, got -1"):
        RelatorFamily("LH", 3, 1, 9, -1)


def test_sigma_conj_word_refuses_a_crossing_letter():
    with pytest.raises(ValueError, match="^not a kernel letter: s1$"):
        sigma_conj_word(gen_word(sigma(1), 3, 1), 1, 3, 1)


def test_tietze_needs_materialized_families():
    p = goldsmith_presentation(3, 1)
    with pytest.raises(TietzeError, match="^materialize relator families before Tietze moves$"):
        tietze_eliminate(p, sigma(1), p.relators[0])


def test_tietze_needs_a_relator_of_the_presentation():
    p = symmetric_presentation(3)
    with pytest.raises(TietzeError,
                       match="^defining relator is not a relator of the presentation$"):
        tietze_eliminate(p, p.generators[0], gen_word(p.generators[0]))


def test_tietze_refuses_a_non_generator_as_not_isolated():
    p = symmetric_presentation(3)
    with pytest.raises(TietzeError, match="^relator does not isolate zz: 0 occurrences$"):
        tietze_eliminate(p, atom("zz"), p.relators[0])


def test_eliminate_all_needs_an_isolating_relator():
    with pytest.raises(TietzeError, match="^no isolating relator for d1$"):
        eliminate_all(symmetric_presentation(3), [atom("d1")])


def test_validate_refuses_an_out_of_range_entry_and_an_overflow():
    x = atom("x")
    good = [[1, 2], [2, 0], [0, 1]]
    assert CosetTable((x,), good, "closed").validate([[0, 0, 0]], [])
    assert not CosetTable((x,), [[1, 2], [2, 0], [3, 1]], "closed").validate([[0, 0, 0]], [])
    assert not CosetTable((x,), good, "overflow").validate([[0, 0, 0]], [])


def test_main_sign_refuses_a_word_with_a_handle():
    with pytest.raises(ValueError, match="^word is not handle-free$"):
        main_sign(parse_word("s1 s2 s1^-1", 3))


def test_generator_series_refuses_an_index_past_the_rank():
    with pytest.raises(BasisError, match="^index 3 out of range for rank 2$"):
        generator_series(2, 3, 1)


def test_the_zero_series_prints_as_zero():
    assert format_series(NonRepeatingSeries(2, {})) == "0"


def test_transposition_refuses_an_index_past_n_minus_one():
    with pytest.raises(ValueError, match="^transposition index 3 out of range for n=3$"):
        transposition(3, 3)


def test_no_generators_generate_nothing():
    assert generated_permutations([]) == set()


def test_expand_T_cap_refuses_i_past_j():
    with pytest.raises(AlphabetError,
                       match=re.escape("expand_T_cap needs 1 <= i <= j <= n, got (2, 1)")):
        expand_T_cap(2, 1, 3, 1)


def test_a_presentation_refuses_unaligned_labels():
    x = atom("x")
    with pytest.raises(ValueError, match="^relators and labels must align$"):
        Presentation("custom", 1, 0, None, None, (x,), (gen_word(x),), ())


def test_smith_normal_form_refuses_an_empty_or_ragged_matrix():
    with pytest.raises(ValueError, match="^empty matrix needs an explicit column count$"):
        smith_normal_form([])
    with pytest.raises(ValueError, match="^ragged matrix$"):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError, match="^ragged matrix$"):
        smith_normal_form([[1, 2], [0]])
    with pytest.raises(ValueError, match="^ragged matrix$"):
        smith_normal_form([[1, 2], [0, 0, 0]])


def test_an_atom_needs_a_name():
    with pytest.raises(AlphabetError, match="^atom name must be nonempty$"):
        atom("")


def test_enumerate_shortlex_refuses_a_negative_length():
    with pytest.raises(ValueError, match="^max_len must be >= 0, got -1$"):
        list(enumerate_shortlex([], -1))


def test_printers():
    p = transposition(3, 1)
    assert (str(p), repr(p)) == ("(1 2)", "Permutation(images=(2, 1, 3))")
    s = generator_series(2, 1, 1)
    assert (str(s), repr(s)) == ("1 + X1", "NonRepeatingSeries(rank=2, coeffs={(): 1, (1,): 1})")
    w = parse_word("s1 a1.1^-1", 2, 1)
    assert (str(w), repr(w)) == ("s1 a1.1^-1", "Word('s1 a1.1^-1', context=(2, 1))")
    assert str(Word()) == ""
