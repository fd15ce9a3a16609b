"""The benchmark's frozen generator matches the test suite's generator.

Run from the repository root:

    python3 -m pytest -q perfbench/test_frozen_inputs.py

For generator seeds 0-31 the copy in ``instances.py`` must yield the same
relations, jets and instance seed as ``tests/conftest.py``, and the same
printed instances as when the copy was frozen (``FROZEN_SHA256``), so the
workloads stay fixed even after the test helpers change.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from neron import format_poly, mixed_order  # noqa: E402

import instances  # noqa: E402

SEEDS = range(32)
# sha256 of describe() over seeds 0-31 when the copy was frozen
FROZEN_SHA256 = \
    "857e889bc644f7853847cf75a6aafd27980114390d3f7879f3bac602a3ca7223"


@pytest.fixture(scope="module")
def suite():
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("_suite_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def describe(problem):
    """Printed form of an instance: table, J, relations, jets, options."""
    if problem is None:
        return "None"
    table = problem.ring.table
    order = mixed_order(table)
    fmt = lambda p: format_poly(p, order)  # noqa: E731
    lines = [" ".join(f"{n}:{r}" for n, r in zip(table.names, table.roles)),
             "J " + "; ".join(fmt(g) for g in problem.ring.j_gens),
             "I " + "; ".join(fmt(r) for r in problem.relations)]
    for name, jet in problem.morphism.jets.items():
        lines.append(f"jet {name} @{jet.precision} {fmt(jet.poly)}")
    lines.append(f"precision {problem.morphism.precision} seed {problem.seed} "
                 f"max_subset {problem.max_subset}")
    return "\n".join(lines)


def frozen_digest():
    h = hashlib.sha256()
    for seed in SEEDS:
        text = describe(instances.random_certificate_instance(seed))
        h.update(f"== {seed}\n{text}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_copy_matches_suite_generator(suite, seed):
    ours = instances.random_certificate_instance(seed)
    theirs = suite.random_certificate_instance(seed)
    assert describe(ours) == describe(theirs)
    if ours is not None:
        assert ours.seed == theirs.seed == seed
        assert ours.relations == theirs.relations
        assert set(ours.morphism.jets) == set(theirs.morphism.jets)
        for name, jet in ours.morphism.jets.items():
            assert jet.poly == theirs.morphism.jets[name].poly
            assert jet.precision == theirs.morphism.jets[name].precision


def test_copy_matches_frozen_digest():
    assert frozen_digest() == FROZEN_SHA256
