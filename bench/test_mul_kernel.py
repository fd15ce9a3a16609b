"""Microbenchmarks of the polynomial product kernel, ``Polynomial.__mul__``,
of its form under a degree cut, ``Polynomial.mul(other, cut)``, of the sum
``Polynomial.__add__``, of a jet product (``Jet.__mul__``: the cut product
and ``reduce_jet``), of jet division by a unit (``jet_divide``), of
Mora's normal form, ``groebner.mora_nf``, of a standard basis,
``groebner.std_basis``, and of the monomial and
construction primitives under them: divisibility (``mon_divides`` below)
and the mixed order's key (``TermOrder.key``) on exponent tuples, their
packed forms (``orders.Packing``, the layout the library runs on), the
constructor from a value map and ``hash``.

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
The basis case is the t-trick intersection that costs the most in
one ``seeds`` pass (``idealops.intersect`` of three generators and one
over x1, x2, Y1, Y2, Y3): the standard basis under the elimination order
of t*I + (1 - t)*(g), seven elements of 353 terms in all, three free of t.
The divisibility cases test every monomial of the integer operand a
against every monomial of a*b, on exponent tuples and on packed
monomials.  The order-key cases evaluate the mixed order's tuple key,
which has no memo, on every monomial of the integer product, and the
packed key (one xor) on the same monomials packed.  The value-map cases build a polynomial from the value map of a
rational product (int and ``Fraction`` coefficients), and the hash cases
hash a fresh copy of that product.
The strand cases are one-variable cut products shaped as those of one
``lift`` pass, where the jets W = G(y')t have precision 81 and x1-order 9:
the square W*W of 72 terms, a 72x72 product, a Newton step's shape (a
step of order 18, 63 terms, times a sum S_2 of 72 terms), and the small
8x8, 3x3 and 2x40 products.  Their coefficients are those of the
binomial series of (1 + x1)^(1/2) and (1 + x1)^(-1/2), dyadic rationals
like the lift's square-root jets.
The jet-division cases divide by a unit at precision 81 modulo
(x1*x2) (``jet_divide``, which solves the quotient degree by degree): the
lift's shape, the 8 terms of (1 + x1)^(1/2) from x1^9 on over the first
12 terms of (1 + x1)^(-1/2), and the same numerator over a dense unit,
the first 81 terms of (1 + x1)^(-1/2).  Each checks its quotient against
Newton's inverse times the numerator (``newton_inverse``).
The jet-inversion cases invert a unit (``jet_invert``, which solves the
inverse degree by degree over a monomial J) and check it against
Newton's inverse: the shape of the instance generator's square roots,
(1 + x1 - 2*x1^2 + x1*x2) times the first 9 terms of (1 + x1)^(1/2)
modulo (x1^2*x2) at precision 9, and the dense first 81 and 161 terms of
(1 + x1)^(-1/2) modulo (x1*x2) at precisions 81 and 161.
The minimal-primes case decomposes (x1^2*x2) (``minimal_primes``), a
relation ideal of the instance generator, whose every basis, colon and
intersection is monomial.
The dense cases are exact products in the shape of the expansion of s''
in ``build_hg``: x1-strands of 62, 72 and 84 terms times the
T-monomials T1^2, T1*T2 and T2^2 (18-bit coefficients) times a
polynomial in x1 alone of 106 terms (22 bits); three x1-strands of 49
terms over x2^0, x2^1 and x2^2 (97 bits) times one of 74 terms in x1
(151 bits); and the square of two x1-strands of 73 and 77 terms over
T1^0 and T1^1 (18 bits).  The square cases multiply the integer operand
a of the 10x10 case by itself, uncut and under the cut at base degree 6;
the dict loop meets each ordered term pair of a square once, as it does
for any other product.  The strand, dense and square cases each run
through the strand kernel (``poly._strand_product``) and through the dict
loop, the kernel chosen by setting ``poly._STRAND_MIN``, and each checks
its product against the other kernel's.  The square's operand has one
term per strand, below the gate, so the library squares it in the dict
loop; forced through the strand kernel, each of its terms is a strand.
Its square is also checked against a times an equal copy of a.
The one-term cases multiply an operand shaped as s'' of seeds 22, 23
and 25 (x1-strands over the ten T-monomials of degree at most 3, 1 183
terms of 306 bits, content 1/2^300) by a one-term factor: the constant
+1, whose product keeps the operand's integer terms; -1, which negates
them; -3/7; and the monomial x1^2*T1, which shifts them.  Each checks its
product against the value-map product.
The exact counts are asserted, so a change of operands shows up as a
failure, not as a different timing.  This directory lies outside
``testpaths``, so the default ``pytest`` run does not collect it.

Compare a parent and a change by interleaved runs, both copies timed in
turn, not by whole-file runs minutes apart: on a shared host the medians
of code that did not change drift by up to 60 % between such runs.
"""

import random
from fractions import Fraction

import pytest

import neron.poly
from neron import (ALGEBRA, AUX, BASE, TANGENT, Polynomial, VarTable,
                   elim_order, mixed_order, parse_poly, std_basis)
from neron.groebner import _reducers, mora_nf
from neron.localring import (LocalRingSpec, jet_divide, jet_invert,
                             minimal_primes, newton_inverse)
from neron.orders import packing
from neron.poly import _from_ints

TABLE = VarTable.make(("x1", BASE), ("x2", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA))
KEYF = mixed_order(TABLE).key(TABLE)


def mon_divides(a, b):
    """True when the exponent tuple a divides b."""
    return all(x <= y for x, y in zip(a, b))


def lead(p):
    """(monomial, coefficient) of p maximal under the mixed order."""
    m = max(p.monomials(), key=KEYF)
    return m, p.coefficient(m)


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

# (case, binomial exponent and x1-exponents of a, of b (None: b is a, a
# square), terms of a and b, terms of the product below the cut at 81)
HALF, MINUS_HALF = Fraction(1, 2), Fraction(-1, 2)
STRAND_CASES = [("square-72", (HALF, 9, 81), None, (72, 72), 63),
                ("72x72", (HALF, 9, 81), (MINUS_HALF, 9, 81), (72, 72), 63),
                ("step-63x72", (MINUS_HALF, 18, 81), (HALF, 9, 81),
                 (63, 72), 54),
                ("8x8", (HALF, 9, 17), (MINUS_HALF, 9, 17), (8, 8), 15),
                ("3x3", (HALF, 9, 12), (MINUS_HALF, 9, 12), (3, 3), 5),
                ("2x40", (HALF, 9, 11), (MINUS_HALF, 9, 49), (2, 40), 41)]
STRAND_CUT = (TABLE.block(BASE), 81)
# _STRAND_MIN for each kernel
KERNELS = {"strand": 1, "dict-loop": 10 ** 9}

# (case, base-degree cut or None, terms of the square of the integer
# operand a of the 10x10 case)
SQUARE_CASES = [("square-10", None, 55), ("square-10-cut", 6, 5)]

# (case, binomial exponent and x1-exponents of the numerator and of the
# unit, terms of each and of the quotient); both are jets at precision 81
DIVIDE_CASES = [("lift-8/12", (HALF, 9, 17), (MINUS_HALF, 0, 12), (8, 12), 72),
                ("dense-8/81", (HALF, 9, 17), (MINUS_HALF, 0, 81), (8, 81),
                 72)]
DIVIDE_RING = LocalRingSpec(TABLE, [parse_poly(TABLE, "x1*x2")])

# (case, relation, unit factor, binomial exponent and x1-exponents of the
# series it multiplies, precision, terms of the unit and of its inverse)
INVERT_CASES = [
    ("sqrt-9", "x1^2*x2", "1 + x1 - 2*x1^2 + x1*x2", (HALF, 0, 9), 9,
     (10, 10)),
    ("dense-81", "x1*x2", "1", (MINUS_HALF, 0, 81), 81, (81, 81)),
    ("dense-161", "x1*x2", "1", (MINUS_HALF, 0, 161), 161, (161, 161))]

# the relation of the minimal-primes case over the base alone, and its
# components
PRIMES_TABLE = VarTable.make(("x1", BASE), ("x2", BASE))
PRIMES_J, PRIMES = "x1^2*x2", [("x2",), ("x1",)]

# x1 with the tangent variables of the expansion of s''
T_TABLE = VarTable.make(("x1", BASE), ("T1", TANGENT), ("T2", TANGENT))
# (case, operand specs, terms of a and b, terms of the product); a spec is
# (table, [(monomial of a strand, x1-exponents drawn from, terms)], bits)
DENSE_CASES = [
    ("s2-218x106",
     (T_TABLE, [((0, 2, 0), (2, 91), 62), ((0, 1, 1), (2, 91), 72),
                ((0, 0, 2), (2, 91), 84)], 18),
     (T_TABLE, [((0, 0, 0), (4, 115), 106)], 22), (218, 106), 596),
    ("147x74-x1-x2",
     (TABLE, [((0, 0, 0, 0), (0, 49), 49), ((0, 1, 0, 0), (0, 49), 49),
              ((0, 2, 0, 0), (0, 49), 49)], 97),
     (TABLE, [((0, 0, 0, 0), (0, 81), 74)], 151), (147, 74), 387),
    ("square-150",
     (T_TABLE, [((0, 0, 0), (0, 89), 73), ((0, 1, 0), (0, 89), 77)], 18),
     None, (150, 150), 526)]

# the operand of the one-term cases, shaped as s'' of seed 22: 1 183
# terms, and the one-term factors
S2_SPEC = (T_TABLE, [((0, a, b), (0, 161), 121 if (a, b) == (0, 0) else 118)
                     for k in range(4) for a, b in
                     ((k - j, j) for j in range(k + 1))], 306)
S2_TERMS = 1183
ONE_TERM_FACTORS = [("plus-one", "1"), ("minus-one", "-1"),
                    ("c/d", "-3/7"), ("monomial", "x1^2*T1")]

# the generators of the normal-form case, and the size of its remainder
NF_GENS = ("3*x1^2 - 2*x2^3 + 5*x1*Y1", "7*x2*Y2 - 3*x1 + 4*x2^2",
           "2*Y1^2 - 5*x1*Y2 + 3*x2")
NF_BASIS_SIZE, NF_REMAINDER_TERMS = 7, 104

# the basis case: I, g, and the basis size, its terms and its elements
# free of t
INTERSECT_TABLE = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA),
                                ("Y2", ALGEBRA), ("Y3", ALGEBRA), ("t", AUX))
INTERSECT_I = ("Y1 - Y2 + 2*x1*Y2 - 4*Y3 + 1 - 4*x1 + 2*x2 + 4*x1^2"
               " + 4*x1*x2",
               "-x1*Y1 + 2*x2*Y1 + Y2 - 2*Y3 - 1 + 2*x1 - 2*x2 + 4*x1*x2",
               "x1^2*x2")
INTERSECT_G = "-Y2 - 4*Y3 + 1 - 2*x1 + 2*x2 + 8*x1*x2"
INTERSECT_SIZES = (7, 353, 3)


def operand(rng, nterms, maxdeg):
    items = [(tuple(rng.randint(0, maxdeg) for _ in range(len(TABLE))),
              rng.randint(-99, 99) or 1) for _ in range(nterms)]
    return Polynomial.from_terms(TABLE, items)


def monic(p):
    return p * Fraction(1, lead(p)[1])


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


def binomial_strand(r, low, high):
    """The terms c_k * x1^k of (1 + x1)^r for low <= k < high."""
    items, c = [], Fraction(1)
    for k in range(high):
        if k >= low:
            items.append(((k, 0, 0, 0), c))
        c = c * (r - k) / (k + 1)
    return Polynomial.from_terms(TABLE, items)


def product_by(kernel, a, b, cut=None):
    """a.mul(b, cut) through ``kernel``, one of KERNELS."""
    saved = neron.poly._STRAND_MIN
    neron.poly._STRAND_MIN = KERNELS[kernel]
    try:
        return a.mul(b, cut)
    finally:
        neron.poly._STRAND_MIN = saved


def other(kernel):
    return next(k for k in KERNELS if k != kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case, a_spec, b_spec, operand_terms, product_terms",
                         STRAND_CASES, ids=[c[0] for c in STRAND_CASES])
def test_strand_mul(benchmark, monkeypatch, kernel, case, a_spec, b_spec,
                    operand_terms, product_terms):
    a = binomial_strand(*a_spec)
    b = a if b_spec is None else binomial_strand(*b_spec)
    assert (len(a.monomials()), len(b.monomials())) == operand_terms
    want = product_by(other(kernel), a, b, STRAND_CUT)
    monkeypatch.setattr(neron.poly, "_STRAND_MIN", KERNELS[kernel])
    result = benchmark(a.mul, b, STRAND_CUT)
    assert len(result.monomials()) == product_terms and result == want


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case, bound, square_terms", SQUARE_CASES,
                         ids=[c[0] for c in SQUARE_CASES])
def test_square_mul(benchmark, monkeypatch, kernel, case, bound,
                    square_terms):
    a = operand(random.Random(10), 10, 3)
    cut = None if bound is None else (TABLE.block(BASE), bound)
    want = product_by(other(kernel), a, a, cut)
    assert want == a.mul(Polynomial(TABLE, a.terms), cut)
    monkeypatch.setattr(neron.poly, "_STRAND_MIN", KERNELS[kernel])
    result = benchmark(a.mul, a, cut)
    assert len(result.monomials()) == square_terms and result == want


@pytest.mark.parametrize("case, num_spec, den_spec, operand_terms, "
                         "quotient_terms", DIVIDE_CASES,
                         ids=[c[0] for c in DIVIDE_CASES])
def test_jet_divide_by_unit(benchmark, case, num_spec, den_spec,
                            operand_terms, quotient_terms):
    num, den = (DIVIDE_RING.jet(binomial_strand(*spec), 81)
                for spec in (num_spec, den_spec))
    assert (len(num.poly.monomials()), len(den.poly.monomials())) == \
        operand_terms
    result = benchmark(jet_divide, num, den)
    assert len(result.poly.monomials()) == quotient_terms
    assert result == num * newton_inverse(den)


@pytest.mark.parametrize("case, relation, factor, series, precision, terms",
                         INVERT_CASES, ids=[c[0] for c in INVERT_CASES])
def test_jet_invert(benchmark, case, relation, factor, series, precision,
                    terms):
    ring = LocalRingSpec(TABLE, [parse_poly(TABLE, relation)])
    unit = ring.jet(parse_poly(TABLE, factor) * binomial_strand(*series),
                    precision)
    result = benchmark(jet_invert, unit)
    assert (len(unit.poly.monomials()), len(result.poly.monomials())) == terms
    assert result == newton_inverse(unit)


def test_minimal_primes(benchmark):
    T = PRIMES_TABLE
    result = benchmark(minimal_primes, [parse_poly(T, PRIMES_J)], T)
    assert result == [tuple(parse_poly(T, g) for g in prime)
                      for prime in PRIMES]


def dense_operand(spec, rng):
    """The sum over strands of a monomial times ``terms`` random
    coefficients of ``bits`` bits at x1-exponents drawn from a range."""
    table, strands, bits = spec
    items = []
    for mon, (low, high), terms in strands:
        for e in sorted(rng.sample(range(low, high), terms)):
            c = rng.randrange(2 ** (bits - 1), 2 ** bits)
            items.append(((e + mon[0],) + mon[1:], rng.choice((c, -c))))
    return Polynomial.from_terms(table, items)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case, a_spec, b_spec, operand_terms, product_terms",
                         DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
def test_dense_mul(benchmark, monkeypatch, kernel, case, a_spec, b_spec,
                   operand_terms, product_terms):
    rng = random.Random(case)
    a = dense_operand(a_spec, rng)
    b = a if b_spec is None else dense_operand(b_spec, rng)
    assert (len(a.monomials()), len(b.monomials())) == operand_terms
    want = product_by(other(kernel), a, b)
    monkeypatch.setattr(neron.poly, "_STRAND_MIN", KERNELS[kernel])
    result = benchmark(a.mul, b)
    assert len(result.monomials()) == product_terms and result == want


@pytest.mark.parametrize("case, factor", ONE_TERM_FACTORS,
                         ids=[c[0] for c in ONE_TERM_FACTORS])
def test_one_term_mul(benchmark, case, factor):
    b = dense_operand(S2_SPEC, random.Random("s2")) * Fraction(1, 2 ** 300)
    u = parse_poly(T_TABLE, factor)
    assert len(b.monomials()) == S2_TERMS
    result = benchmark(u.__mul__, b)
    (mon, c), = u.terms.items()
    assert len(result.monomials()) == S2_TERMS
    assert result == Polynomial(T_TABLE, {
        tuple(x + y for x, y in zip(mon, m)): c * v
        for m, v in b.terms.items()})


def test_mora_nf(benchmark):
    rng = random.Random(10)
    p = operand(rng, 10, 3) * operand(rng, 10, 3)
    basis = std_basis([parse_poly(TABLE, t) for t in NF_GENS], TABLE,
                      mixed_order(TABLE))
    assert len(basis) == NF_BASIS_SIZE
    pk, prepared = _reducers(basis, mixed_order(TABLE), TABLE)
    remainder, _ = benchmark(mora_nf, p, prepared, pk)
    assert len(remainder.terms) == NF_REMAINDER_TERMS


def test_intersect_std_basis(benchmark):
    T = INTERSECT_TABLE
    tv = Polynomial.var(T, "t")
    work = [tv * parse_poly(T, g) for g in INTERSECT_I]
    work.append((1 - tv) * parse_poly(T, INTERSECT_G))
    basis = benchmark(std_basis, work, T, elim_order(T, (AUX,)))
    assert (len(basis), sum(len(b.monomials()) for b in basis),
            sum(not b.involves((T.index("t"),)) for b in basis)) == \
        INTERSECT_SIZES


def divides_pairs(na, nb, maxdeg):
    """The pairs (monomial of a, monomial of a*b) of a divisibility case."""
    rng = random.Random(na)
    a = operand(rng, na, maxdeg)
    b = operand(rng, nb, maxdeg)
    pairs = [(m1, m2) for m1 in a.monomials() for m2 in (a * b).monomials()]
    assert len(pairs) == na * len((a * b).monomials())
    return pairs


@pytest.mark.parametrize("na, nb, maxdeg, dividing", DIVIDES_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-packed-dividing"
                              for c in DIVIDES_CASES])
def test_packed_divides(benchmark, na, nb, maxdeg, dividing):
    pairs = divides_pairs(na, nb, maxdeg)
    pk = packing(mixed_order(TABLE), TABLE, max(sum(m) for _, m in pairs))
    guard = pk.guard
    packed = [(pk.pack(m1), pk.pack(m2) | guard) for m1, m2 in pairs]
    hits = benchmark(lambda: sum([(m2 - m1) & guard == guard
                                  for m1, m2 in packed]))
    assert hits == dividing


@pytest.mark.parametrize("na, nb, maxdeg, dividing", DIVIDES_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-dividing"
                              for c in DIVIDES_CASES])
def test_mon_divides(benchmark, na, nb, maxdeg, dividing):
    pairs = divides_pairs(na, nb, maxdeg)
    hits = benchmark(lambda: sum([mon_divides(m1, m2) for m1, m2 in pairs]))
    assert hits == dividing


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", BIG_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-keys" for c in BIG_CASES])
def test_order_key(benchmark, na, nb, maxdeg, product_terms):
    rng = random.Random(na)
    mons = list((operand(rng, na, maxdeg)
                 * operand(rng, nb, maxdeg)).monomials())
    key = mixed_order(TABLE).key(TABLE)
    keys = benchmark(lambda: list(map(key, mons)))
    assert len(set(keys)) == len(mons) == product_terms


@pytest.mark.parametrize("na, nb, maxdeg, product_terms", BIG_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[3]}-packed-keys"
                              for c in BIG_CASES])
def test_packed_order_key(benchmark, na, nb, maxdeg, product_terms):
    rng = random.Random(na)
    mons = list((operand(rng, na, maxdeg)
                 * operand(rng, nb, maxdeg)).monomials())
    order = mixed_order(TABLE)
    pk = packing(order, TABLE, max(map(sum, mons)))
    packed = [pk.pack(m) for m in mons]
    neg = pk.neg
    keys = benchmark(lambda: [a ^ neg for a in packed])
    assert len(set(keys)) == len(mons) == product_terms
    key = order.key(TABLE)
    assert sorted(range(len(mons)), key=keys.__getitem__) == sorted(
        range(len(mons)), key=lambda k: key(mons[k]))


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
