"""Microbenchmarks of the polynomial product kernel, ``Polynomial.__mul__``,
of its form under a degree cut, ``Polynomial.mul(other, cut)``, of the sum
``Polynomial.__add__``, of a jet product (``Jet.__mul__``: the cut product
and ``reduce_jet``), of Mora's normal form, ``groebner.mora_nf``, and of
the monomial and construction primitives under them: ``poly.mon_divides``,
the mixed order's key, the constructor from a value map and ``hash``.

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
can have.  The rational sum cases add the rational operands of the
product cases.  The jet cases multiply two jets with rational coefficients
in the base variables at precision 12: operands drawn with 10 and 30
random terms plus a constant, made monic, as the square-root series of
the lift are, and reduced.  Modulo the binomial relation x1^2*x2 - x2^3
(reduced by long division) they keep 9 and 8, and 16 and 17 terms;
modulo the monomial relation x1^2*x2 (reduced by deletion, as the
lift's J = (x1*x2) or (x1^2*x2) is) 4 and 4, and 9 and 7.  The
normal-form case reduces the 10x10 integer product against the monic
standard basis of three fixed generators under the mixed order.
The divisibility cases test every monomial of the integer operand a
against every monomial of a*b.  The order-key cases evaluate the mixed
order's key function, without its memo, on every monomial of the integer
product.  The value-map cases build a polynomial from the value map of a
rational product (int and ``Fraction`` coefficients), and the hash cases
hash a fresh copy of that product.
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
from neron.localring import LocalRingSpec
from neron.poly import _from_ints, mon_divides

TABLE = VarTable.make(("x1", BASE), ("x2", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA))
KEYF = mixed_order(TABLE).key(TABLE)

# (terms of a, terms of b, largest exponent, terms of the product)
CASES = [(1, 1, 3, 1), (1, 5, 3, 5), (10, 10, 3, 97), (34, 34, 5, 1050),
         (110, 110, 8, 10288)]
# (terms of a, terms of b, largest exponent, terms below the cut)
CUT_CASES = [(1, 1, 3, 0), (1, 5, 3, 4), (10, 10, 3, 36), (34, 34, 5, 514),
             (110, 110, 8, 4856)]


# (terms of a, terms of b, largest exponent, terms of the sum)
SUM_CASES = [(1, 5, 3, 6), (10, 10, 3, 20), (34, 34, 5, 67),
             (110, 110, 8, 219)]
# (relation, terms drawn for each operand, terms of each operand jet,
# terms of the product jet)
JET_CASES = [("x1^2*x2 - x2^3", 10, (9, 8), 16),
             ("x1^2*x2 - x2^3", 30, (16, 17), 27),
             ("x1^2*x2", 10, (4, 4), 9), ("x1^2*x2", 30, (9, 7), 14)]
# (terms of a, terms of b, largest exponent, pairs (monomial of a,
# monomial of a*b) in which the first divides the second)
DIVIDES_CASES = [(10, 10, 3, 532), (34, 34, 5, 19838)]
# the product cases with more than five terms
BIG_CASES = CASES[2:]
JET_PRECISION = 12

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


@pytest.mark.parametrize("na, nb, maxdeg, sum_terms", SUM_CASES,
                         ids=[f"{c[0]}x{c[1]}-rational-sum-{c[3]}-terms"
                              for c in SUM_CASES])
def test_add_rational(benchmark, na, nb, maxdeg, sum_terms):
    rng = random.Random(na)
    a = monic(operand(rng, na, maxdeg))
    b = monic(operand(rng, nb, maxdeg))
    result = benchmark(a.__add__, b)
    assert len(result.terms) == sum_terms


def jet_operand(ring, rng, nterms):
    items = []
    for _ in range(nterms):
        d1 = rng.randint(0, JET_PRECISION - 1)
        d2 = rng.randint(0, JET_PRECISION - 1 - d1)
        items.append(((d1, d2, 0, 0), rng.randint(-99, 99) or 1))
    items.append(((0, 0, 0, 0), rng.randint(1, 99)))
    return ring.jet(monic(Polynomial.from_terms(TABLE, items)),
                    JET_PRECISION)


@pytest.mark.parametrize(
    "relation, nterms, operand_terms, product_terms", JET_CASES,
    ids=[f"jet-{c[1]}-terms-" + ("monomial" if "-" not in c[0] else
                                 "binomial") for c in JET_CASES])
def test_jet_mul_rational(benchmark, relation, nterms, operand_terms,
                          product_terms):
    ring = LocalRingSpec(TABLE, [parse_poly(TABLE, relation)])
    rng = random.Random(nterms)
    a = jet_operand(ring, rng, nterms)
    b = jet_operand(ring, rng, nterms)
    assert (len(a.poly.terms), len(b.poly.terms)) == operand_terms
    result = benchmark(a.__mul__, b)
    assert len(result.poly.terms) == product_terms


def test_mora_nf(benchmark):
    rng = random.Random(10)
    p = operand(rng, 10, 3) * operand(rng, 10, 3)
    basis = std_basis([parse_poly(TABLE, t) for t in NF_GENS], TABLE,
                      mixed_order(TABLE))
    assert len(basis) == NF_BASIS_SIZE
    prepared = [_Prepared(g, KEYF, i) for i, g in enumerate(basis)]
    remainder, _ = benchmark(mora_nf, p, prepared, KEYF, TABLE)
    assert len(remainder.terms) == NF_REMAINDER_TERMS


@pytest.mark.parametrize("na, nb, maxdeg, dividing", DIVIDES_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-dividing"
                              for c in DIVIDES_CASES])
def test_mon_divides(benchmark, na, nb, maxdeg, dividing):
    rng = random.Random(na)
    a = operand(rng, na, maxdeg)
    b = operand(rng, nb, maxdeg)
    pairs = [(m1, m2) for m1 in a.monomials() for m2 in (a * b).monomials()]
    hits = benchmark(lambda: sum([mon_divides(m1, m2) for m1, m2 in pairs]))
    assert len(pairs) == na * len((a * b).monomials()) and hits == dividing


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", BIG_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-keys" for c in BIG_CASES])
def test_order_key(benchmark, na, nb, maxdeg, product_terms):
    rng = random.Random(na)
    mons = list((operand(rng, na, maxdeg)
                 * operand(rng, nb, maxdeg)).monomials())
    key = mixed_order(TABLE)._key_impl(TABLE, tuple(range(len(TABLE))))
    keys = benchmark(lambda: list(map(key, mons)))
    assert len(set(keys)) == len(mons) == product_terms


def rational_product(na, nb, maxdeg):
    rng = random.Random(na)
    return monic(operand(rng, na, maxdeg)) * monic(operand(rng, nb, maxdeg))


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", BIG_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-value-map"
                              for c in BIG_CASES])
def test_from_value_map(benchmark, na, nb, maxdeg, product_terms):
    product = rational_product(na, nb, maxdeg)
    terms = product.terms
    result = benchmark(Polynomial, TABLE, terms)
    assert len(result.monomials()) == product_terms and result == product


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", BIG_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-hash" for c in BIG_CASES])
def test_hash(benchmark, na, nb, maxdeg, product_terms):
    product = rational_product(na, nb, maxdeg)
    num, den, ints = product._view()
    got = benchmark(lambda: hash(_from_ints(TABLE, ints, num, den)))
    assert len(ints) == product_terms and got == hash(product)
