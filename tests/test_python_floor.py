"""Every source file parses under the declared Python floor.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  A newer
interpreter accepts newer syntax, so each file in ``src/`` and ``tests/``
is parsed with ``feature_version`` set to the floor.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").glob("*.py")])


def _floor() -> tuple[int, int]:
    text = ROOT.joinpath("pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_floor_is_three_ten():
    assert _floor() == (3, 10)


def test_syntax_above_the_floor_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_floor())


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_file_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())
