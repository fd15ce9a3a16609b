"""Every cache in the library is bounded.

The library modules, the benches and the demos are parsed, not imported:
an unbounded cache is
``functools.cache`` or ``lru_cache`` called with a ``maxsize`` of None,
positional or by keyword.  A bare ``@lru_cache`` keeps its default bound.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "neron")


def _name(node):
    """The dotted name an expression refers to, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def unbounded_caches(source, filename="<source>"):
    """(line, text) for each unbounded cache in ``source``."""
    tree = ast.parse(source, filename)
    cache_names = {"functools.cache"} | {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names if alias.name == "cache"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) in (
                "lru_cache", "functools.lru_cache"):
            maxsize = [kw.value for kw in node.keywords
                       if kw.arg == "maxsize"] + node.args[:1]
            if maxsize and _is_none(maxsize[0]):
                found.append((node.lineno, "lru_cache(maxsize=None)"))
        elif _name(node) in cache_names and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, _name(node)))
    return found


def test_the_checker_finds_each_kind():
    assert unbounded_caches("from functools import lru_cache\n"
                            "@lru_cache(maxsize=None)\ndef f(x): pass\n")
    assert unbounded_caches("import functools\n"
                            "@functools.lru_cache(None)\ndef f(x): pass\n")
    assert unbounded_caches("import functools\n"
                            "@functools.cache\ndef f(x): pass\n")
    assert unbounded_caches("from functools import cache\n"
                            "@cache\ndef f(x): pass\n")
    assert not unbounded_caches("from functools import lru_cache\n"
                                "@lru_cache(maxsize=64)\ndef f(x): pass\n"
                                "@lru_cache\ndef g(x): pass\n"
                                "def h(m):\n    cache = {}\n"
                                "    return cache.get(m)\n")


def offenders(paths):
    """"file:line: text" for each unbounded cache in ``paths``."""
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line, text in unbounded_caches(fh.read(), path):
                found.append(f"{os.path.basename(path)}:{line}: {text}")
    return found


def test_library_caches_are_bounded():
    assert offenders(sorted(glob.glob(os.path.join(SRC, "*.py")))) == []


@pytest.mark.parametrize("scope", ["bench", "demos"])
def test_bench_and_demo_caches_are_bounded(scope):
    paths = sorted(glob.glob(os.path.join(ROOT, scope, "*.py")))
    assert offenders(paths) == []
