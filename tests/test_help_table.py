"""The flag table of the ``cli`` docstring, which ``--help`` prints, matches the CLI.

Each family row lists the flags ``FAMILIES`` says the family needs, in
checking order, then in brackets the others it takes.  Each ``verify``
row lists the check's required flags, then in brackets its optional ones
with their defaults; a default the parser leaves as None is the layer's
constant.  ``drift`` names every row that disagrees, and the self-tests
check that an edited row is named.
"""

import argparse
import re

import pytest

from braidhomotopy import cli, verify
from braidhomotopy.cli import FAMILIES, run_command

SPELLING = {"g": "-g", "closed": "--closed|--punctured", "lh_bound": "--lh-bound",
            "with_auxiliary": "--with-auxiliary"}
LAYER_DEFAULTS = {"--lh-bound": verify.DEFAULT_IDENTITY_BOUND}
COMMON = {"-h", "--inject-fault", "--format", "--output"}


def _subcommands(parser):
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _rows(doc):
    """(name, required flags, {optional flag: bracket text}) per table row."""
    rows = []
    for line in doc.splitlines():
        match = re.fullmatch(r" {4}(\S+(?: \S+)?) {2,}(.*)", line)
        if match:
            name, flags = match.groups()
            optional = {b.split()[0].rstrip(","): b for b in re.findall(r"\[([^]]*)\]", flags)}
            required = re.sub(r"\[[^]]*\]", "", flags).split()
            rows.append((name, [f for f in required if f != "(none)"], optional))
    return rows


def _verify_flags(parser):
    required, optional = [], {}
    for action in parser._actions:
        flag = action.option_strings[0] if action.option_strings else None
        if flag is None or flag in COMMON:
            continue
        if action.required:
            required.append(flag)
        else:
            default = LAYER_DEFAULTS.get(flag) if action.default is None else action.default
            optional[flag] = f"{flag}, default {default}"
    return required, optional


def drift(doc):
    """Every table row of ``doc`` that disagrees with the CLI, and every missing row."""
    checks = {name: p for name, p in _subcommands(_subcommands(cli._PARSER)["verify"]).items()
              if name != "purity"}
    wrong, families, verified = [], set(), set()
    for name, required, optional in _rows(doc):
        if name.startswith("verify "):
            for check in name.split()[1].split("|"):
                verified.add(check)
                expected = _verify_flags(checks[check]) if check in checks else None
                if expected != (required, optional):
                    wrong.append(f"{name}: {check} reads {expected}")
            continue
        families.add(name)
        needs, takes, _ = FAMILIES.get(name, ((), (), None))
        if (name not in FAMILIES or required != [SPELLING[f] for f in needs]
                or set(optional) != {SPELLING[f] for f in takes}):
            wrong.append(f"{name}: needs {needs}, takes {takes}")
    wrong += [f"no row for {f}" for f in set(FAMILIES) - families]
    wrong += [f"no row for verify {c}" for c in set(checks) - verified]
    return wrong


def test_the_help_table_matches_the_cli():
    assert drift(cli.__doc__) == []
    assert len(_rows(cli.__doc__)) == len(FAMILIES) + 3


def test_help_prints_the_table():
    code, out, err = run_command(["-h"])
    assert code == 0 and all(line in out.decode() for line in cli.__doc__.splitlines())


ROW_EDITS = [
    ("quotient               -g --lh-bound", "quotient               -g"),
    ("goldsmith              --lh-bound [-g 0]", "goldsmith              --lh-bound"),
    ("pure                   -g --closed|--punctured --lh-bound",
     "pure                   --closed|--punctured -g --lh-bound"),
    ("symmetric              (none)", "symmetric              -g"),
    ("[--with-auxiliary, pres only]", ""),
    ("verify eq31|transport  -n [-g, default 1]", "verify eq31            -n [-g, default 1]"),
    ("[--lh-bound, default 3]", "[--lh-bound, default 4]"),
    ("verify eq32            -n [-g, default 1]", "verify eq32            -n -g"),
    ("verify a-expansion     -n -g", "verify a-expansion     -n [-g, default 1]"),
    ("    surface                -g\n", ""),
]


@pytest.mark.parametrize("old,new", ROW_EDITS)
def test_an_edited_row_is_named(old, new):
    assert old in cli.__doc__
    assert drift(cli.__doc__.replace(old, new))
