"""``reduce`` reads ``-n`` and ``-g`` as the alphabet context of its words.

A context it cannot have is refused: ``-n`` < 1, ``-g`` < 0, and ``-g``
without ``-n``, which no word would read.  Each exits 2 with one
``usage error:`` line and no stdout, before any word, file or stdin is
read.
"""

import pytest

from braidhomotopy.cli import run_command


class _Unread:
    def read(self, *args):
        raise AssertionError("stdin was read")


REFUSED = [
    (["-n", "0"], b"usage error: reduce needs -n >= 1, got 0\n"),
    (["-n", "-2"], b"usage error: reduce needs -n >= 1, got -2\n"),
    (["-n", "3", "-g", "-1"], b"usage error: reduce needs -g >= 0, got -1\n"),
    (["-g", "5"], b"usage error: reduce reads -g only with -n\n"),
    (["-g", "0"], b"usage error: reduce reads -g only with -n\n"),
]


@pytest.mark.parametrize("flags,err", REFUSED)
@pytest.mark.parametrize("oracle", ["free", "dehornoy", "magnus"])
def test_a_context_reduce_cannot_have_is_refused(flags, err, oracle):
    assert run_command(["reduce", "x", "s1", *flags, "--oracle", oracle]) == (2, b"", err)


@pytest.mark.parametrize("flags,err", REFUSED)
def test_the_refusal_comes_before_any_input_is_read(tmp_path, flags, err):
    assert run_command(["reduce", *flags], _Unread()) == (2, b"", err)
    assert run_command(["reduce", "s1 ?!", *flags]) == (2, b"", err)
    missing = str(tmp_path / "missing.txt")
    assert run_command(["reduce", "--input", missing, *flags]) == (2, b"", err)


@pytest.mark.parametrize("argv,out", [
    (["x x^-1 y"], b"y\n"),
    (["s1 s1^-1 s2", "-n", "3"], b"s2\n"),
    (["s1 a1.2", "-n", "2", "-g", "1"], b"s1 a1.2\n"),
    (["s1", "-n", "1"], None),
])
def test_a_context_it_can_have_is_read(argv, out):
    code, got, err = run_command(["reduce", *argv])
    if out is None:  # s1 needs two strands: the word is refused, not the context
        assert (code, got) == (2, b"") and err.startswith(b"error: ")
    else:
        assert (code, got, err) == (0, out, b"")
