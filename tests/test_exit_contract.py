"""The exit-code contract under random argv and malformed presentation JSON.

0 = pass, 1 = verification failed, 2 = usage error, 3 = resource limit.
Whatever the input, ``run_command`` returns one of these codes and never
raises; exit 1 comes only with a failing record or an ``--expect``
mismatch; exits 2 and 3 print exactly one stderr line with a known
prefix; and an abelianization never has more cyclic factors than the
presentation has distinct generators.
"""

import copy
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from braidhomotopy.cli import FAMILIES, run_command
from braidhomotopy.verify import parse_invariants

PREFIXES = ("usage error: ", "error: ", "i/o error: ", "resource limit: ", "overflow after ")
TOKENS = ["s1", "s2", "s3", "s1^-1", "s2^3", "s0", "s5", "a1.1", "a2.3^-2", "a0.1", "t1.2",
          "t2.4", "t3.1", "x", "y^-1", "d1", "s1^", "s1^--1", "1s", "t1.x", "s1^0",
          "s1^1000001", "s1 s1^-1"]
EXPECTS = ["Z", "Z^2", "Z^2 + Z/2", "Z + Z/2", "0", "Z/2", "Z/0", "Z^-1", "Z/1", "",
           "Z/2 + Z/3", "Z/4 + Z/2", "garbage", "Z^x"]

small = st.integers(-1, 4)
word = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=5).map(" ".join)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def family_flags(draw):
    flags = draw(st.one_of(st.just([]), st.sampled_from([*FAMILIES, "nonsense"]).map(
        lambda f: ["--family", f])))
    flags += draw(_optional("-n", small))
    flags += draw(_optional("-g", st.integers(-1, 2)))
    flags += draw(st.sampled_from([[], ["--closed"], ["--punctured"]]))
    flags += draw(_optional("--lh-bound", st.integers(-1, 2)))
    return flags


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["pres", "verify", "reduce", "tc", "h1"]))
    if command == "pres":
        argv = ["pres", *draw(family_flags())]
        argv += draw(st.sampled_from([[], ["--with-auxiliary"]]))
        argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
    elif command == "verify":
        check = draw(st.sampled_from(["purity", "eq31", "eq32", "transport", "a-expansion"]))
        argv = ["verify", check, *draw(family_flags())]
        argv += draw(st.sampled_from([[], ["--inject-fault"]]))
        argv += draw(st.sampled_from([[], ["--format", "json"]]))
    elif command == "reduce":
        argv = ["reduce", *draw(st.lists(word, min_size=1, max_size=3))]
        argv += ["--oracle", draw(st.sampled_from(["free", "dehornoy", "magnus"]))]
        argv += draw(st.sampled_from([[], ["--compare"]]))
        argv += draw(_optional("-n", small)) + draw(_optional("-g", st.integers(-1, 2)))
        argv += draw(_optional("--step-cap", st.integers(-1, 3)))
    elif command == "tc":
        argv = ["tc", *draw(family_flags())]
        argv += ["--max-cosets", str(draw(st.sampled_from([0, 1, 5, 300])))]
        argv += draw(st.sampled_from([[], ["--subgroup", "pure"]]))
        for w in draw(st.lists(word, max_size=2)):
            argv += ["--subgroup-word", w]
    else:
        argv = ["h1", *draw(family_flags())]
        argv += draw(_optional("--expect", st.sampled_from(EXPECTS)))
    return argv


def _check_contract(argv, code, out, err, generators):
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == b""
        if argv[0] == "h1":
            invariants = parse_invariants(out.decode())
            assert invariants.free_rank + len(invariants.torsion) <= generators()
    elif code == 1:
        if argv[0] == "verify":
            assert b"FAIL" in out or b'"passed": false' in out
        else:
            assert argv[0] == "h1" and "--expect" in argv
            assert re.fullmatch(rb"expected .*, computed .*\n", err)
    else:
        text = err.decode()
        assert text.startswith(PREFIXES) and text.endswith("\n") and text.count("\n") == 1


def _distinct_generators(argv):
    """Distinct generators of the presentation that ``argv``'s family flags build."""
    flags = argv[1:]
    if "--expect" in flags:
        k = flags.index("--expect")
        del flags[k:k + 2]
    code, out, _ = run_command(["pres", *flags, "--format", "json"])
    assert code == 0
    return len(set(json.loads(out)["generators"]))


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_random_argv_keeps_the_exit_code_contract(argv):
    code, out, err = run_command(argv)
    _check_contract(argv, code, out, err, lambda: _distinct_generators(argv))


# --- malformed presentation JSON -------------------------------------------

def _base_documents():
    docs = []
    for flags in (["--family", "goldsmith", "-n", "3", "--lh-bound", "1"],
                  ["--family", "quotient", "-n", "2", "-g", "1", "--lh-bound", "1"],
                  ["--family", "pure", "-n", "2", "-g", "1", "--punctured", "--lh-bound", "1"],
                  ["--family", "symmetric", "-n", "3"]):
        code, out, _ = run_command(["pres", *flags, "--format", "json"])
        assert code == 0
        docs.append(json.loads(out))
    docs.append({"family": "custom", "n": 1, "g": 0, "closed": None, "lh_bound": None,
                 "generators": ["x", "y"], "relators": [{"label": "r", "word": "x^2"}],
                 "families": []})
    return docs


BASES = _base_documents()
FIELDS = ["family", "n", "g", "closed", "lh_bound", "generators", "relators", "families"]
JUNK = st.sampled_from([None, True, False, 0, -1, 7, 2.5, "x", "", [], {}, ["x"], [1, 2],
                        [None], [{}], {"kind": "LH"}]).map(copy.deepcopy)


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "mistype", "repeat", "strand", "kind", "bound",
                                   "n", "g", "word", "entry"]))
        gens, fams, rels = doc.get("generators"), doc.get("families"), doc.get("relators")
        if op == "drop":
            doc.pop(draw(st.sampled_from(FIELDS)), None)
        elif op == "mistype":
            doc[draw(st.sampled_from(FIELDS))] = draw(JUNK)
        elif op == "repeat" and isinstance(gens, list) and gens:
            gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
        elif op in ("strand", "kind", "bound") and isinstance(fams, list) and fams:
            fam = draw(st.sampled_from(fams))
            if isinstance(fam, dict):
                fam[op] = draw({"strand": st.integers(-1, 9) | JUNK,
                                "kind": st.sampled_from(["LH", "HN", "LH1", "XX"]) | JUNK,
                                "bound": st.integers(-1, 2) | JUNK}[op])
        elif op in ("n", "g"):
            doc[op] = draw(small if op == "n" else st.integers(-1, 2))
        elif op == "word" and isinstance(rels, list) and rels:
            entry = draw(st.sampled_from(rels))
            if isinstance(entry, dict):
                entry["word"] = draw(word)
        elif op == "entry":
            for key in ("relators", "families"):
                if isinstance(doc.get(key), list) and doc[key]:
                    entry = doc[key][0]
                    if isinstance(entry, dict) and entry:
                        entry.pop(draw(st.sampled_from(sorted(entry))))
                    else:
                        doc[key][0] = draw(JUNK)
    return doc


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "presentation.json"


@settings(max_examples=100, deadline=None)
@given(documents(), st.sampled_from([["h1"], ["verify", "purity"]]))
def test_malformed_presentation_json_keeps_the_exit_code_contract(json_path, doc, command):
    json_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = command + ["--input", str(json_path)]
    code, out, err = run_command(argv)
    _check_contract(argv, code, out, err, lambda: len(set(doc["generators"])))
