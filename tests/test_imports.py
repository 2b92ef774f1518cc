"""Every module-level import in the package is used.

A standard-library stand-in for a linter's unused-import rule: each
module is parsed with ``ast``, and a name bound by a module-level import
must be read somewhere in that module (string annotations included).
Names listed in ``__all__`` count as used, so the package's re-exports
pass.  Commands import their layers inside functions, so the same rule
holds per function: a name a function imports must be read in it.
"""

import ast
import pathlib

import pytest

import braidhomotopy

MODULES = sorted(pathlib.Path(braidhomotopy.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a string annotation such as "Presentation"
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detects_an_unused_import():
    source = ("import json, os.path\nfrom re import sub as s, compile\n"
              "from typing import Any\n__all__ = ['compile']\n"
              "def f(x: 'Any') -> str:\n    return 'json'\n")
    tree = ast.parse(source)
    assert set(_imported(tree)) - _used(tree) == {"json", "os", "s"}


def _unreferenced_private(trees: dict[str, ast.Module]) -> set[str]:
    """``module:name`` of each private module-level function or class that
    nothing outside its own definition refers to.  A bare name counts in
    its own module; an attribute or a ``from`` import counts anywhere."""
    anywhere, readers = set(), {}
    for mod, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    anywhere.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    anywhere.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault((mod, node.id), set()).add(id(top))
    return {f"{mod}:{top.name}" for mod, tree in trees.items() for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and top.name.startswith("_") and not top.name.startswith("__")
            and top.name not in anywhere
            and not readers.get((mod, top.name), set()) - {id(top)}}


def test_no_private_helper_left_unreferenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert not _unreferenced_private(trees)


def test_detects_an_unreferenced_private_helper():
    trees = {"a.py": ast.parse("def _kept():\n    return 1\n"
                               "def _recursive(k):\n    return _recursive(k - 1)\n"
                               "class _Gone:\n    pass\n"
                               "def _imported():\n    pass\n"
                               "def _by_attribute():\n    pass\n"
                               "def __getattr__(name):\n    return _kept()\n"),
             "b.py": ast.parse("import a\nfrom a import _imported\n"
                               "x = a._by_attribute\n_Gone = _recursive = 1\n")}
    assert _unreferenced_private(trees) == {"a.py:_recursive", "a.py:_Gone"}


def _function_imports(fn: ast.AST) -> dict[str, int]:
    """Name bound by each import in the function's own body (nested
    statements included, nested functions and classes not), with its line."""
    names, todo = {}, list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_imported(ast.Module(body=[node], type_ignores=[])))
        todo.extend(ast.iter_child_nodes(node))
    return names


def _unused_function_imports(tree: ast.Module) -> set[str]:
    """``function:name`` of each function-level import never read in that
    function; a read in a nested function counts."""
    return {f"{fn.name}:{name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in set(_function_imports(fn)) - _used(fn)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_function_imports(path):
    assert not _unused_function_imports(ast.parse(path.read_text(encoding="utf-8")))


def test_detects_an_unused_function_import():
    source = ("def used(x):\n    import json\n    return json.dumps(x)\n"
              "def unused(flag):\n    import json\n    if flag:\n"
              "        from os import path as p, sep\n        return sep\n"
              "def outer():\n    from re import compile\n    def inner():\n"
              "        import math\n        return compile('x')\n    return inner\n"
              "def annotated(x: 'Any') -> None:\n    from typing import Any\n"
              "def module_level_use():\n    import os\nos.sep\n")
    assert _unused_function_imports(ast.parse(source)) == {
        "unused:json", "unused:p", "inner:math", "module_level_use:os"}
