"""Microbenchmarks of the polynomial product kernel, ``Polynomial.__mul__``.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_mul_kernel.py --benchmark-only

Each case multiplies two fixed-seed random operands over a four-variable
table (two base, two algebra variables) with integer coefficients.  The
1x1 and 1x5 cases time the one-term path; the others have products of
about 10^2, 10^3 and 10^4 terms.  The exact counts are asserted, so a
change of operands shows up as a failure, not as a different timing.
This directory lies outside ``testpaths``, so the default ``pytest`` run
does not collect it.
"""

import random

import pytest

from neron import ALGEBRA, BASE, Polynomial, VarTable

TABLE = VarTable.make(("x1", BASE), ("x2", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA))

# (terms of a, terms of b, largest exponent, terms of the product)
CASES = [(1, 1, 3, 1), (1, 5, 3, 5), (10, 10, 3, 97), (34, 34, 5, 1050),
         (110, 110, 8, 10288)]


def operand(rng, nterms, maxdeg):
    items = [(tuple(rng.randint(0, maxdeg) for _ in range(len(TABLE))),
              rng.randint(-99, 99) or 1) for _ in range(nterms)]
    return Polynomial.from_terms(TABLE, items)


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-terms" for c in CASES])
def test_mul(benchmark, na, nb, maxdeg, product_terms):
    rng = random.Random(na)
    a = operand(rng, na, maxdeg)
    b = operand(rng, nb, maxdeg)
    result = benchmark(a.__mul__, b)
    assert len(result.terms) == product_terms
