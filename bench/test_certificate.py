"""Microbenchmark of the full certificate check, ``verify_certificate``.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_certificate.py --benchmark-only

Each case runs ``desingularize`` once, outside the timing, and then times
``verify_certificate`` on its result: s, d and g free of Y, G*H = H*G =
P*Id, the pivot rows, d = P modulo the relations (a standard basis), Q in
(T)^2, ``certify_subsystem_membership`` (the definitions of h and g, the
Taylor identity against its telescoped witness, the subsystem relations
modulo J), s, s' and s'' congruent to 1 modulo (d, T) + J, and I in
(h, g) in tangent space.  The cases are the generator seeds 17-27 of
``tests/conftest.py``, the seeds of the ``seeds`` workload, ``problems/
example1_hypersurface.gnd``, whose d = x^2 is not a unit, and ``problems/
example4.gnd``, the one shipped input with relations outside f (two), so
the last membership test is timed too.  The shifted
point that ``build_hg`` stores on the certificate keeps its power caches
between rounds, as it does when a caller re-checks a returned result, so
the timing is that of a re-check.

Each case asserts its certificate's shape, (n, r, p): the number of h,
of f and the s-power.  A change of inputs shows up as a failure, not as a
different timing.  This directory lies outside ``testpaths``, so the
default ``pytest`` run does not collect it.

``test_elkik_ideal`` times stage 3, ``elkik_ideal``: the colons
((f) + J : I + J) and the maximal minors of every subset f of at most
``max_subset`` relations, and the trace of their sum in A.  Its cases are
seeds 17-27, the two shipped problems above and ``problems/example21.gnd``,
whose three relations share a factor; each builds the presentation from
the problem's ring as given, so Example 21 runs although its minimal
primes are not found.  Each case asserts (subsets, H_gens): the number of
subsets with a nonzero minor and the number of generators of H.

``test_taylor_coefficients`` times ``taylor_coefficients`` of each f and
of P at the jets y', in the algebra names of the T-extended table, as
``ShiftedPoint`` expands them once each in ``build_hg``.  Its cases are
seeds 17-27 and ``example4``; each asserts the number of coefficients of
each polynomial, f first.

``test_build_hg`` times stage 13, ``build_hg``, on the arguments that
``desingularize`` passes it, caught once outside the timing: s and b by
division, h, the expansions of Q and s'' at the shifted point, g and the
pivot minor s'.  Each round builds a new shifted point.  Its cases are
seeds 17-27, ``example1_hypersurface`` and ``example4``; each asserts
the number of terms of each Q and of s''.

Compare a parent and a change by interleaved runs, both copies timed in
turn, as ``bench/test_mul_kernel.py`` says.
"""

import os
import sys

import pytest

import neron.desing
from neron.desing import (AlgebraPresentation, desingularize, elkik_ideal,
                          verify_certificate)
from neron.poly import taylor_coefficients
from neron.problemfile import parse_problem

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tests"))
from conftest import random_certificate_instance  # noqa: E402

# case -> (n, r, p)
SHAPES = {17: (3, 3, 1), 18: (1, 1, 1), 19: (1, 1, 1), 20: (4, 4, 1),
          21: (2, 2, 1), 22: (2, 2, 2), 23: (2, 2, 2), 24: (3, 3, 1),
          25: (2, 2, 2), 26: (1, 1, 1), 27: (3, 3, 1),
          "example1_hypersurface": (3, 2, 2), "example4": (2, 1, 1)}


# case -> number of Taylor coefficients of each f, then of P
TAYLOR_COUNTS = {17: (2, 1, 2, 3), 18: (1, 1), 19: (1, 1),
                 20: (3, 2, 3, 2, 3), 21: (2, 2, 1), 22: (3, 4, 9),
                 23: (3, 4, 9), 24: (2, 2, 1, 3), 25: (3, 4, 9), 26: (1, 1),
                 27: (2, 2, 1, 3), "example4": (3, 1)}


# case -> (subsets, H_gens)
ELKIK_SHAPES = {17: (3, 5), 18: (1, 1), 19: (1, 1), 20: (7, 34), 21: (3, 5),
                22: (1, 1), 23: (1, 1), 24: (3, 6), 25: (1, 1), 26: (1, 1),
                27: (3, 6), "example1_hypersurface": (1, 2),
                "example4": (6, 5), "example21": (3, 21)}


# case -> (terms of each Q, terms of s'')
BUILD_HG_TERMS = {17: ((0, 0, 0), 18), 18: ((0,), 1), 19: ((0,), 1),
                  20: ((0, 0, 0, 0), 134), 21: ((0, 0), 1),
                  22: ((49, 98), 1183), 23: ((49, 98), 1183),
                  24: ((0, 0, 0), 3), 25: ((49, 98), 1183), 26: ((0,), 1),
                  27: ((0, 0, 0), 3),
                  "example1_hypersurface": ((157, 157), 1747),
                  "example4": ((0,), 1)}


def _problem(case):
    if isinstance(case, int):
        return random_certificate_instance(case)
    path = os.path.join(ROOT, "problems", f"{case}.gnd")
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read()).build()


def _result(case):
    return desingularize(_problem(case))


@pytest.mark.parametrize("case", list(SHAPES), ids=str)
def test_verify_certificate(benchmark, case):
    res = _result(case)
    cert = res.certificate
    assert (len(cert.h), cert.r, cert.p) == SHAPES[case]
    assert benchmark(verify_certificate, cert, res.algebra, res.morphism)


@pytest.mark.parametrize("case", list(ELKIK_SHAPES), ids=str)
def test_elkik_ideal(benchmark, case):
    prob = _problem(case)
    B = AlgebraPresentation(prob.ring, tuple(prob.relations))
    data = benchmark(elkik_ideal, B, prob.max_subset)
    assert (len(data.contributions), len(data.gens)) == ELKIK_SHAPES[case]


@pytest.mark.parametrize("case", list(TAYLOR_COUNTS), ids=str)
def test_taylor_coefficients(benchmark, case):
    cert = _result(case).certificate
    names, at = cert.point.y_names, cert.point.jets_poly
    polys = cert.f + (cert.P,)

    def expand_all():
        return [taylor_coefficients(q, names, at) for q in polys]

    counts = tuple(len(c) for c in benchmark(expand_all))
    assert counts == TAYLOR_COUNTS[case]


@pytest.mark.parametrize("case", list(BUILD_HG_TERMS), ids=str)
def test_build_hg(benchmark, monkeypatch, case):
    build_hg = neron.desing.build_hg
    calls = []

    def spy(*args):
        calls.append(args)
        return build_hg(*args)
    monkeypatch.setattr(neron.desing, "build_hg", spy)
    desingularize(_problem(case))
    monkeypatch.undo()
    cert = benchmark(build_hg, *calls[0])[0]
    assert (tuple(len(q.monomials()) for q in cert.Q),
            len(cert.s_second_num.monomials())) == BUILD_HG_TERMS[case]
