"""Every imported name is used.

The library modules and the tests are parsed, not imported: a name that
an ``import`` or ``from ... import`` binds must be read somewhere in the
same module.  ``__future__`` imports bind no name, and a package's
``__init__.py`` re-exports what it imports, so neither is checked.
"""

import ast
import glob
import os

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "neron")


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


def test_modules_and_tests_use_every_import():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py"))
                   + glob.glob(os.path.join(HERE, "*.py")))
    assert paths
    offenders = []
    for path in paths:
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            for line, name in unused_imports(fh.read(), path):
                offenders.append(f"{os.path.basename(path)}:{line}: {name}")
    assert offenders == []
