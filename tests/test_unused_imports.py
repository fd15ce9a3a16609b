"""Every imported name is used, and every private name of the library.

The library modules, the tests, the benches and the demos are parsed, not
imported: a name that
an ``import`` or ``from ... import`` binds must be read somewhere in the
same module.  ``__future__`` imports bind no name, and a package's
``__init__.py`` re-exports what it imports, so neither is checked.  A
private name (``_name``, not a dunder) that a library module binds at
module level, by ``def``, ``class`` or assignment, must be read by some
library module: a helper left behind by a deletion shows up here.
"""

import ast
import glob
import os

import pytest

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "neron")
ROOT = os.path.join(HERE, os.pardir)


def unused_imports(source, filename="<source>"):
    """(line, name) for each imported name ``source`` never reads."""
    tree = ast.parse(source, filename)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_the_checker_finds_each_kind():
    assert unused_imports("import os\n") == [(1, "os")]
    assert unused_imports("import os.path\n") == [(1, "os")]
    assert unused_imports("import numpy as np\n") == [(1, "np")]
    assert unused_imports("from os import path\n") == [(1, "path")]
    assert unused_imports("from os import path as p\n") == [(1, "p")]
    assert unused_imports("def f():\n    import os\n") == [(2, "os")]
    assert unused_imports("from os import sep, path\nx = sep\n") == [
        (1, "path")]
    assert not unused_imports("from __future__ import annotations\n"
                              "import os.path\nimport numpy as np\n"
                              "from os import sep as s\n"
                              "def f(a: np.ndarray):\n"
                              "    return os.path.join(a, s)\n")


def unused_private_names(sources):
    """(module, line, name) for each private name a module of ``sources``
    ({module: source}) binds at module level and no module reads."""
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source, module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            bound += [(module, node.lineno, name) for name in names
                      if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in bound if entry[2] not in read)


def test_the_private_name_checker_finds_each_kind():
    assert unused_private_names({"a": "def _f():\n    pass\n"}) == [
        ("a", 1, "_f")]
    assert unused_private_names({"a": "class _C:\n    pass\n"}) == [
        ("a", 1, "_C")]
    assert unused_private_names({"a": "x = 1\n_X, _Y = 1, 2\nz = _Y\n"}) == [
        ("a", 2, "_X")]
    assert unused_private_names({"a": "_T: int = 3\n"}) == [("a", 1, "_T")]
    # a read from another module, by name or as an attribute, counts
    assert not unused_private_names({"a": "def _f():\n    pass\n",
                                     "b": "from a import _f\nx = _f()\n"})
    assert not unused_private_names({"a": "_X = 1\n",
                                     "b": "import a\ny = a._X\n"})
    # public names, dunders and names inside a function are not checked
    assert not unused_private_names({"a": "__all__ = []\nf = 1\n"
                                          "def g():\n    _x = 1\n"})


def test_modules_read_every_private_name():
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert unused_private_names(sources) == []


def offenders(paths):
    """"file:line: name" for each unused import in ``paths``."""
    assert paths
    found = []
    for path in paths:
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            for line, name in unused_imports(fh.read(), path):
                found.append(f"{os.path.basename(path)}:{line}: {name}")
    return found


def test_modules_and_tests_use_every_import():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py"))
                   + glob.glob(os.path.join(HERE, "*.py")))
    assert offenders(paths) == []


@pytest.mark.parametrize("scope", ["bench", "demos"])
def test_benches_and_demos_use_every_import(scope):
    paths = sorted(glob.glob(os.path.join(ROOT, scope, "*.py")))
    assert offenders(paths) == []
