"""Microbenchmarks of the polynomial product kernel, ``Polynomial.__mul__``,
of its form under a degree cut, ``Polynomial.mul(other, cut)``, and of
Mora's normal form, ``groebner.mora_nf``.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_mul_kernel.py --benchmark-only

Each product case multiplies two fixed-seed random operands over a
four-variable table (two base, two algebra variables).  The integer cases
take them as drawn, with integer coefficients.  The rational cases make
the same operands monic under the mixed order, so their tails carry
denominators as the output of ``std_basis`` does.  The 1x1 and 1x5 cases
time the one-term path; the others have products of about 10^2, 10^3 and
10^4 terms.  The cut cases multiply the integer operands under a cut at
base degree ``2 * maxdeg``, half the largest base degree a product term
can have.  The normal-form case reduces the 10x10 integer product against
the monic standard basis of three fixed generators under the mixed order.
The exact counts are asserted, so a change of operands shows up as a
failure, not as a different timing.  This directory lies outside
``testpaths``, so the default ``pytest`` run does not collect it.
"""

import random
from fractions import Fraction

import pytest

from neron import (ALGEBRA, BASE, Polynomial, VarTable, mixed_order,
                   parse_poly, std_basis)
from neron.groebner import _Prepared, mora_nf

TABLE = VarTable.make(("x1", BASE), ("x2", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA))
KEYF = mixed_order(TABLE).key(TABLE)

# (terms of a, terms of b, largest exponent, terms of the product)
CASES = [(1, 1, 3, 1), (1, 5, 3, 5), (10, 10, 3, 97), (34, 34, 5, 1050),
         (110, 110, 8, 10288)]
# (terms of a, terms of b, largest exponent, terms below the cut)
CUT_CASES = [(1, 1, 3, 0), (1, 5, 3, 4), (10, 10, 3, 36), (34, 34, 5, 514),
             (110, 110, 8, 4856)]


# the generators of the normal-form case, and the size of its remainder
NF_GENS = ("3*x1^2 - 2*x2^3 + 5*x1*Y1", "7*x2*Y2 - 3*x1 + 4*x2^2",
           "2*Y1^2 - 5*x1*Y2 + 3*x2")
NF_BASIS_SIZE, NF_REMAINDER_TERMS = 7, 104


def operand(rng, nterms, maxdeg):
    items = [(tuple(rng.randint(0, maxdeg) for _ in range(len(TABLE))),
              rng.randint(-99, 99) or 1) for _ in range(nterms)]
    return Polynomial.from_terms(TABLE, items)


def monic(p):
    return p * Fraction(1, p.lead(KEYF)[1])


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-terms" for c in CASES])
def test_mul(benchmark, na, nb, maxdeg, product_terms):
    rng = random.Random(na)
    a = operand(rng, na, maxdeg)
    b = operand(rng, nb, maxdeg)
    result = benchmark(a.__mul__, b)
    assert len(result.terms) == product_terms


@pytest.mark.parametrize("na, nb, maxdeg, cut_terms", CUT_CASES,
                         ids=[f"{c[0]}x{c[1]}-cut-{c[3]}-terms"
                              for c in CUT_CASES])
def test_mul_cut(benchmark, na, nb, maxdeg, cut_terms):
    rng = random.Random(na)
    a = operand(rng, na, maxdeg)
    b = operand(rng, nb, maxdeg)
    bound = 2 * maxdeg
    result = benchmark(a.mul, b, (TABLE.block(BASE), bound))
    assert len(result.terms) == cut_terms
    assert result.terms == {m: c for m, c in (a * b).terms.items()
                            if m[0] + m[1] < bound}


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", CASES,
                         ids=[f"{c[0]}x{c[1]}-rational-{c[3]}-terms"
                              for c in CASES])
def test_mul_rational(benchmark, na, nb, maxdeg, product_terms):
    rng = random.Random(na)
    a = monic(operand(rng, na, maxdeg))
    b = monic(operand(rng, nb, maxdeg))
    result = benchmark(a.__mul__, b)
    assert len(result.terms) == product_terms


def test_mora_nf(benchmark):
    rng = random.Random(10)
    p = operand(rng, 10, 3) * operand(rng, 10, 3)
    basis = std_basis([parse_poly(TABLE, t) for t in NF_GENS], TABLE,
                      mixed_order(TABLE))
    assert len(basis) == NF_BASIS_SIZE
    prepared = [_Prepared(g, KEYF, i) for i, g in enumerate(basis)]
    remainder, _ = benchmark(mora_nf, p, prepared, KEYF, TABLE)
    assert len(remainder.terms) == NF_REMAINDER_TERMS
