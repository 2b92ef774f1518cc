"""What a launch loads, and the re-exports that load lazily.

Each command imports the layers it runs, inside the command, and the
package re-exports its names through a PEP 562 ``__getattr__``.  So a
fresh process that runs one command holds only the ``braidhomotopy``
modules that command needs.  The words layer builds ``Gen`` and ``Word``
without ``dataclasses``; their contract (immutability, hashing, pickling
and ``repr``) is pinned here.
"""

import ast
import copy
import dataclasses
import importlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import braidhomotopy
from braidhomotopy.words import Gen, Word, atom, band, loop, parse_word, sigma

_CHILD = """
import sys
before = set(sys.modules)
from braidhomotopy.cli import run_command
code = run_command(sys.argv[1:])[0]
new = set(sys.modules) - before
print(repr((code, sorted(new))))
"""


def _launch(argv: list[str]) -> tuple[int, set[str], set[str]]:
    """Exit code, ``braidhomotopy`` modules and other modules a fresh process
    loads to run one command."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True,
                          env=env, timeout=60, check=True)
    code, new = ast.literal_eval(proc.stdout.decode())
    ours = {m for m in new if m == "braidhomotopy" or m.startswith("braidhomotopy.")}
    return code, {m.partition(".")[2] or "braidhomotopy" for m in ours}, set(new) - ours


BASE = {"braidhomotopy", "cli", "words"}
GOLDSMITH = ["--family", "goldsmith", "-n", "3", "--lh-bound", "1"]


@pytest.mark.parametrize("argv,layers", [
    (["reduce", "s1", "-n", "2"], {"handles"}),
    (["reduce", "--oracle", "free", "s1 s2", "-n", "3"], {"handles"}),
    (["reduce", "--oracle", "dehornoy", "s1 s2^-1", "-n", "3"], {"handles"}),
    (["reduce", "--oracle", "dehornoy", "--compare", "s1", "s2", "-n", "3"], {"handles"}),
    (["reduce", "--oracle", "magnus", "s1^2", "-n", "2"], {"handles", "magnus"}),
    (["pres", *GOLDSMITH], {"presentations"}),
    (["pres", *GOLDSMITH, "--format", "json"], {"presentations"}),
    (["tc", "--family", "symmetric", "-n", "3"], {"presentations", "extension"}),
    (["h1", *GOLDSMITH], {"presentations", "verify", "perms"}),
    (["verify", "purity", *GOLDSMITH], {"presentations", "verify", "perms"}),
    (["verify", "eq31", "-n", "3"], {"presentations", "verify", "perms", "handles"}),
    (["verify", "transport", "-n", "3"], {"presentations", "verify", "perms", "extension"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_a_command_loads_only_the_layers_it_runs(argv, layers):
    code, ours, _ = _launch(argv)
    assert code == 0
    assert ours == BASE | layers


@pytest.mark.parametrize("oracle", ["free", "dehornoy"])
def test_a_word_launch_loads_neither_dataclasses_nor_json(oracle):
    _, _, other = _launch(["reduce", "--oracle", oracle, "s1 s2^-1", "-n", "3"])
    assert not other & {"dataclasses", "json", "inspect"}


def test_only_the_json_format_loads_json():
    assert "json" not in _launch(["pres", *GOLDSMITH])[2]
    assert "json" in _launch(["pres", *GOLDSMITH, "--format", "json"])[2]


def test_importing_the_package_loads_no_module():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, braidhomotopy\n"
         "print(sorted(m for m in sys.modules if m.startswith('braidhomotopy.')))"],
        capture_output=True, env=env, timeout=60, check=True)
    assert proc.stdout == b"[]\n"


def test_every_reexport_resolves_to_its_module_object():
    assert len(set(braidhomotopy.__all__)) == len(braidhomotopy.__all__) == 43
    listed = dir(braidhomotopy)
    for name in braidhomotopy.__all__:
        module = importlib.import_module(f"braidhomotopy.{braidhomotopy._MODULE_OF[name]}")
        assert getattr(braidhomotopy, name) is getattr(module, name), name
        assert name in listed
    assert braidhomotopy.sigma is sigma and braidhomotopy.Word is Word


def test_star_import_binds_every_reexport():
    namespace: dict = {}
    exec("from braidhomotopy import *", namespace)
    assert set(braidhomotopy.__all__) <= set(namespace)
    assert namespace["goldsmith_presentation"] is braidhomotopy.goldsmith_presentation


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        braidhomotopy.nonesuch  # noqa: B018
    assert not hasattr(braidhomotopy, "nonesuch")


GENS = [sigma(3), loop(2, 1), band(1, 3), atom("q")]


@pytest.mark.parametrize("gen", GENS, ids=str)
def test_gen_is_frozen(gen):
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.i = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del gen.kind
    with pytest.raises((AttributeError, TypeError)):
        gen.extra = 1


@pytest.mark.parametrize("gen", GENS, ids=str)
def test_gen_round_trips_and_hashes_as_its_fields(gen):
    again = Gen(gen.kind, gen.i, gen.j, gen.name)
    assert again == gen and again is not gen and hash(again) == hash(gen)
    assert hash(gen) == hash((gen.kind, gen.i, gen.j, gen.name))
    assert pickle.loads(pickle.dumps(gen)) == gen
    assert copy.deepcopy(gen) == gen and copy.copy(gen) == gen
    assert gen != (gen.kind, gen.i, gen.j, gen.name) and gen != str(gen)


def test_gen_repr_and_order_of_fields_are_unchanged():
    assert repr(sigma(3)) == "Gen(kind='s', i=3, j=0, name='')"
    assert repr(atom("q")) == "Gen(kind='x', i=0, j=0, name='q')"
    assert Gen("t", 1, 3) == band(1, 3) and Gen("s", 1) != Gen("s", 2)
    assert len({sigma(1), Gen("s", 1), sigma(2)}) == 2


def test_word_is_frozen_and_hashes_as_its_fields():
    w = parse_word("s1 a1.1^-1", 2, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.context = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        del w.codes
    assert hash(w) == hash((w.codes, w.context))
    assert w != w.codes and w == parse_word("s1 a1.1^-1", 2, 1)
    assert copy.deepcopy(w) == w and pickle.loads(pickle.dumps(w)) == w
