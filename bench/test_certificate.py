"""Microbenchmark of the full certificate check, ``verify_certificate``.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_certificate.py --benchmark-only

Each case runs ``desingularize`` once, outside the timing, and then times
``verify_certificate`` on its result: G*H = H*G = P*Id, the pivot rows,
d = P modulo the relations (a standard basis), Q in (T)^2, and
``certify_subsystem_membership`` (the definitions of h and g, the Taylor
identity against its telescoped witness, the subsystem relations modulo
J).  The cases are the generator seeds 17-27 of ``tests/conftest.py``,
the seeds of the ``seeds`` workload, and ``problems/
example1_hypersurface.gnd``, whose d = x^2 is not a unit.  The shifted
point that ``build_hg`` stores on the certificate keeps its power caches
between rounds, as it does when a caller re-checks a returned result, so
the timing is that of a re-check.

Each case asserts its certificate's shape, (n, r, p): the number of h,
of f and the s-power.  A change of inputs shows up as a failure, not as a
different timing.  This directory lies outside ``testpaths``, so the
default ``pytest`` run does not collect it.

Compare a parent and a change by interleaved runs, both copies timed in
turn, as ``bench/test_mul_kernel.py`` says.
"""

import os
import sys

import pytest

from neron.desing import desingularize, verify_certificate
from neron.problemfile import parse_problem

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tests"))
from conftest import random_certificate_instance  # noqa: E402

# case -> (n, r, p)
SHAPES = {17: (3, 3, 1), 18: (1, 1, 1), 19: (1, 1, 1), 20: (4, 4, 1),
          21: (2, 2, 1), 22: (2, 2, 2), 23: (2, 2, 2), 24: (3, 3, 1),
          25: (2, 2, 2), 26: (1, 1, 1), 27: (3, 3, 1),
          "example1_hypersurface": (3, 2, 2)}


def _result(case):
    if isinstance(case, int):
        return desingularize(random_certificate_instance(case))
    path = os.path.join(ROOT, "problems", f"{case}.gnd")
    with open(path, encoding="utf-8") as fh:
        return desingularize(parse_problem(fh.read()).build())


@pytest.mark.parametrize("case", list(SHAPES), ids=str)
def test_verify_certificate(benchmark, case):
    res = _result(case)
    cert = res.certificate
    assert (len(cert.h), cert.r, cert.p) == SHAPES[case]
    assert benchmark(verify_certificate, cert, res.algebra, res.morphism)
