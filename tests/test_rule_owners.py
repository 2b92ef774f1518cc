"""Each rule is stated by the layer that owns it.

``verify`` plants every suite's fault, the purity one included
(``plant_purity_fault``), so ``cli`` reads no generator kinds.
``presentations._conjugator_count`` is the one count of conjugators: exact
up to ``MAX_CONJUGATORS`` and stopped once past it, so a hostile bound
costs no big power.  ``presentations._fields`` checks the fields of both
JSON documents, and a bool fails every int field.  Every ``verify`` check
obeys the strand cap, and a repeated generator is found in one pass.
"""

import ast
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest

import braidhomotopy
from braidhomotopy import cli, presentations, verify
from braidhomotopy.cli import run_command
from braidhomotopy.extension import (
    braid_extension_data,
    extension_data_from_json,
    extension_data_to_json,
)
from braidhomotopy.presentations import (
    MAX_CONJUGATORS,
    MAX_STRANDS,
    _conjugator_count,
    goldsmith_presentation,
    presentation_to_json,
)
from braidhomotopy.words import ResourceLimitError


def _child(source, *argv):
    """Run ``source`` in a fresh interpreter with 2 GB of address space; its
    stdout is one ``repr``-ed value."""
    def limited():
        # an exact power or a quadratic scan here must fail, not exhaust memory
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", source, *argv], capture_output=True,
                          env=env, timeout=60, preexec_fn=limited)
    return ast.literal_eval(proc.stdout.decode())


# --- one conjugator count -----------------------------------------------------


def _closed_form(r, b):
    if r <= 1:
        return 1 + 2 * r * b
    return 1 + 2 * r * ((2 * r - 1) ** b - 1) // (2 * r - 2)


@pytest.mark.parametrize("rank", range(7))
@pytest.mark.parametrize("bound", range(6))
def test_the_count_is_the_closed_form(rank, bound):
    assert _conjugator_count(rank, bound) == _closed_form(rank, bound)


@pytest.mark.parametrize("rank,bound", [(1, 124_999), (8, 4), (3, 6), (2, 8)])
def test_the_count_is_exact_at_or_under_the_cap(rank, bound):
    assert _conjugator_count(rank, bound) == _closed_form(rank, bound) <= MAX_CONJUGATORS


_COUNT = """
import sys, time
from braidhomotopy.presentations import _conjugator_count
t = time.perf_counter()
count = _conjugator_count(int(sys.argv[1]), int(sys.argv[2]))
print(repr((count, time.perf_counter() - t)))
"""


@pytest.mark.parametrize("rank,bound", [(3 * 10**9, 10**9), (1, 10**9), (0, 10**9)])
def test_a_hostile_bound_is_counted_at_once(rank, bound):
    count, seconds = _child(_COUNT, str(rank), str(bound))
    assert seconds < 0.05
    assert count == 1 if rank == 0 else count > MAX_CONJUGATORS


_GENUS = """
import sys, time
from braidhomotopy.cli import run_command
t = time.perf_counter()
code, _, err = run_command(sys.argv[1:])
print(repr((code, err.decode(), time.perf_counter() - t)))
"""


@pytest.mark.parametrize("command", [["h1"], ["verify", "purity"]])
@pytest.mark.parametrize("kind,strand", [("LH", 1), ("HN", 0), ("LH1", 1)])
def test_a_hostile_genus_is_refused_at_once(tmp_path, command, kind, strand):
    # the family check reads letters up to the first non-generator, a1.1, so the
    # 2 * 10**9 loops that g names are never spelled
    doc = {"family": "custom", "n": 2, "g": 10**9, "closed": None, "lh_bound": None,
           "generators": ["s1"], "relators": [],
           "families": [{"kind": kind, "strand": strand, "bound": 1}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err, seconds = _child(_GENUS, *command, "--input", str(path))
    assert (code, err) == (
        2, f"error: relator family {kind} (strand {strand}) uses non-generator a1.1\n")
    assert seconds < 0.5


def test_no_caller_clamps_the_bound():
    for module in (presentations, verify):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_conjugator_count"]
        assert calls
        for call in calls:
            assert not any(getattr(node, "id", None) == "min" for node in ast.walk(call))


def test_a_hostile_eq32_is_refused_at_once():
    for n in (10**9, 200):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            verify.identity_check("eq32", n, 10**9, 10**9)
        assert time.perf_counter() - t0 < 0.1


# --- the purity fault is planted in verify ------------------------------------


def test_the_purity_fault_fails_exactly_one_record():
    p = goldsmith_presentation(3, 1)
    report = verify.purity_report(verify.plant_purity_fault(p))
    assert [r.record_id for r in report.records if not r.passed] == ["FAULT"]
    assert verify.purity_report(p).passed


@pytest.mark.parametrize("flags", [["symmetric", "-n", "3"],
                                   ["pure", "-n", "3", "-g", "1", "--closed", "--lh-bound", "1"]],
                         ids=lambda flags: flags[0])
def test_a_purity_fault_without_crossings_exits_two(flags):
    assert run_command(["verify", "purity", "--family", *flags, "--inject-fault"]) == (
        2, b"", b"error: purity fault injection needs a crossing generator\n")


def test_cli_reads_no_generator_kinds():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.Attribute) and node.attr == "kind"
                   for node in ast.walk(tree))
    assert "gen_word" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "gen_word" not in {alias.name for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom) for alias in node.names}


# --- one JSON field check -------------------------------------------------------


def _doc():
    return json.loads(presentation_to_json(goldsmith_presentation(3, 1)))


def _set_top(key):
    doc = _doc()
    doc[key] = True
    return doc


def _set_family(key):
    doc = _doc()
    doc["families"][0][key] = True
    return doc


@pytest.mark.parametrize("key,doc", [
    *((key, _set_top(key)) for key in ("n", "g", "lh_bound")),
    *((key, _set_family(key)) for key in ("strand", "bound")),
], ids=lambda value: value if isinstance(value, str) else "")
@pytest.mark.parametrize("command", [["h1"], ["verify", "purity"]], ids=" ".join)
def test_a_bool_in_an_int_field_exits_two(tmp_path, command, key, doc):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command([*command, "--input", str(path)]) == (
        2, b"", f"error: presentation JSON: field {key!r} has the wrong type\n".encode())


def test_a_bool_still_passes_the_bool_field(tmp_path):
    doc = _doc()
    doc.update(family="surface", g=1, closed=True, lh_bound=None, families=[])
    doc["generators"] += ["a1.1", "a1.2", "a2.1", "a2.2", "a3.1", "a3.2"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(["h1", "--input", str(path)])[0] == 0


_EXTENSION = json.loads(extension_data_to_json(braid_extension_data(2, 1, True, 1)))
_EXTENSION_FIELDS = ("kernel", "quotient", "lifts", "rel_words", "conj_words")


@pytest.mark.parametrize("key", _EXTENSION_FIELDS)
@pytest.mark.parametrize("value", [True, 1, [], "x", None])
def test_an_extension_field_of_the_wrong_type_is_named(key, value):
    with pytest.raises(ValueError) as info:
        extension_data_from_json(json.dumps(dict(_EXTENSION, **{key: value})))
    assert str(info.value) == f"extension JSON: field {key!r} has the wrong type"


@pytest.mark.parametrize("key", _EXTENSION_FIELDS)
def test_a_missing_extension_field_is_named(key):
    doc = {k: v for k, v in _EXTENSION.items() if k != key}
    with pytest.raises(ValueError) as info:
        extension_data_from_json(json.dumps(doc))
    assert str(info.value) == f"extension JSON: missing field {key!r}"


def test_an_extension_document_that_is_no_object_is_named():
    with pytest.raises(ValueError) as info:
        extension_data_from_json("[1]")
    assert str(info.value) == "extension JSON: expected an object, got list"


def test_the_extension_document_still_round_trips():
    text = extension_data_to_json(braid_extension_data(2, 1, True, 1))
    assert extension_data_to_json(extension_data_from_json(text)) == text


# --- every verify check obeys the strand cap ----------------------------------


@pytest.fixture
def no_identity_work(monkeypatch):
    """Make any n-sized step of an identity check fail, so a missing cap fails fast."""
    def refuse(*args, **kwargs):
        raise AssertionError("identity work started")

    for name in ("_check_eq31", "_check_eq32", "_check_lh_transport", "expand_A_pure",
                 "expand_A_geo"):
        monkeypatch.setattr(verify, name, refuse)


@pytest.mark.parametrize("check", ["eq31", "eq32", "transport", "a-expansion"])
@pytest.mark.parametrize("n", [MAX_STRANDS + 1, 10**6])
def test_every_identity_check_exits_three_over_the_cap(check, n, no_identity_work):
    assert run_command(["verify", check, "-n", str(n), "-g", "1"]) == (
        3, b"", f"resource limit: {n} strands exceed the cap of {MAX_STRANDS}\n".encode())


def test_eq32_at_the_strand_cap_keeps_its_record_message():
    assert run_command(["verify", "eq32", "-n", str(MAX_STRANDS)]) == (
        3, b"", f"resource limit: eq32 n={MAX_STRANDS} g=1 bound=3 needs more than "
                f"{MAX_CONJUGATORS} records\n".encode())


def test_a_expansion_at_the_strand_cap_still_passes():
    code, out, err = run_command(["verify", "a-expansion", "-n", str(MAX_STRANDS), "-g", "1"])
    assert (code, err) == (0, b"") and out.startswith(b"# A-expansion comparison")


def test_too_few_strands_stay_a_usage_error_for_identity_checks():
    for check in ("eq31", "eq32", "transport", "a-expansion"):
        assert run_command(["verify", check, "-n", "1", "-g", "1"])[0] == 2


# --- a repeated generator is found in one pass ----------------------------------

_REPEAT = """
import time
from braidhomotopy.presentations import Presentation
from braidhomotopy.words import atom
gens = tuple(atom(f"x{k}") for k in range(100_000)) + (atom("x0"),)
t = time.perf_counter()
try:
    Presentation("custom", 1, 0, None, None, gens, (), ())
except ValueError as exc:
    print(repr((str(exc), time.perf_counter() - t)))
"""


def test_many_generators_with_one_repeat_are_refused_at_once():
    # a child process keeps the 100,000 atoms out of this one's symbol table
    message, seconds = _child(_REPEAT)
    assert message == "repeated generator x0"
    assert seconds < 1


def test_the_first_repeat_is_the_one_named(tmp_path):
    doc = {"family": "custom", "n": 1, "g": 0, "closed": None, "lh_bound": None,
           "generators": ["p", "q", "q", "p"], "relators": [], "families": []}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(["h1", "--input", str(path)]) == (
        2, b"", b"error: repeated generator q\n")
