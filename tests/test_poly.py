"""Polynomial kernel: exact arithmetic, substitution, calculus, printing."""

import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neron.localring
import neron.poly
from conftest import (content, lead, random_certificate_instance,
                      taylor_by_derivatives)
from neron import (ALGEBRA, BASE, Polynomial, VarTable, format_poly,
                   global_order, jacobian, mixed_order, parse_poly,
                   std_basis, taylor_coefficients)
from neron.cli import run_command
from neron.desing import desingularize, verify_certificate
from neron.errors import NeronError, PolyParseError
from neron.groebner import _reducers, classic_nf, lift_division, mora_nf
from neron.lifting import LiftingProblem, newton_lift
from neron.localring import Jet, LocalRingSpec
from neron.orders import TermOrder
from neron.poly import _from_ints


def table2():
    return VarTable.make(("x1", BASE), ("x2", BASE))


def table_xy():
    return VarTable.make(("x1", BASE), ("x2", BASE),
                         ("Y1", ALGEBRA), ("Y2", ALGEBRA))


def random_poly(table, rng, max_terms=20, max_deg=4):
    n = len(table)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mon = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[mon] = terms.get(mon, 0) + Fraction(rng.randint(-9, 9),
                                                  rng.randint(1, 4))
    return Polynomial.from_terms(table, terms.items())


def test_difference_of_squares():
    T = table2()
    assert parse_poly(T, "(x1+x2)*(x1-x2)") == parse_poly(T, "x1^2 - x2^2")


def test_binomial_square():
    T = table2()
    assert parse_poly(T, "(x1+x2)^2") == parse_poly(T, "x1^2 + 2*x1*x2 + x2^2")


def test_add_then_subtract_is_identity():
    T = table2()
    rng = random.Random(7)
    for _ in range(25):
        p = random_poly(T, rng)
        q = random_poly(T, rng)
        assert (p + q) - q == p


def test_ring_axioms_on_random_inputs():
    T = table2()
    rng = random.Random(11)
    for _ in range(10):
        a = random_poly(T, rng, max_terms=8)
        b = random_poly(T, rng, max_terms=8)
        c = random_poly(T, rng, max_terms=8)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_pow_negative_exponent_raises():
    T = table2()
    with pytest.raises(NeronError):
        parse_poly(T, "x1") ** (-1)


def test_substitute_identity():
    T = table_xy()
    p = parse_poly(T, "x2*Y1^2 - 3*x1*Y2 + 1")
    idmap = {n: Polynomial.var(T, n) for n in T.names}
    assert p.substitute(idmap) == p


def test_substitute_reduces_relation_example():
    # f = x2*Y1 + x1*Y2 with Y1 -> x1*j, Y2 -> x2*k lands in (x1*x2)
    T = table_xy()
    f = parse_poly(T, "x2*Y1 + x1*Y2")
    j = parse_poly(T, "1 + x1 + x1^2")
    k = parse_poly(T, "1 - x2")
    val = f.substitute({"Y1": parse_poly(T, "x1") * j,
                        "Y2": parse_poly(T, "x2") * k})
    # every term of the result is divisible by x1*x2
    for mon in val.terms:
        assert mon[0] >= 1 and mon[1] >= 1


def test_taylor_expansion_matches_direct_shift():
    # f(y + W) = sum_alpha (d^alpha f / alpha!)(y) W^alpha on a random cubic
    T = VarTable.make(("x", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA),
                      ("W1", ALGEBRA), ("W2", ALGEBRA))
    rng = random.Random(3)
    f = Polynomial.zero(T)
    for _ in range(12):
        mon = (rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3), 0, 0)
        if mon[1] + mon[2] <= 3:
            f = f + Polynomial.from_terms(T, [(mon, rng.randint(-5, 5))])
    y = {"Y1": parse_poly(T, "1 + x"), "Y2": parse_poly(T, "x - x^2")}
    coeffs = taylor_coefficients(f, ["Y1", "Y2"], y)
    lhs = f.substitute({"Y1": y["Y1"] + parse_poly(T, "W1"),
                        "Y2": y["Y2"] + parse_poly(T, "W2")})
    rhs = Polynomial.zero(T)
    for alpha, c in coeffs.items():
        term = c
        term = term * parse_poly(T, "W1") ** alpha[0]
        term = term * parse_poly(T, "W2") ** alpha[1]
        rhs = rhs + term
    assert lhs == rhs


def test_jacobian_rows():
    T = table_xy()
    row = jacobian([parse_poly(T, "x2*Y1 + x1*Y2")], ["Y1", "Y2"])[0]
    assert row[0] == parse_poly(T, "x2") and row[1] == parse_poly(T, "x1")
    row2 = jacobian([parse_poly(T, "Y1*Y2 - x1^2")], ["Y1", "Y2"])[0]
    assert row2[0] == parse_poly(T, "Y2") and row2[1] == parse_poly(T, "Y1")
    row3 = jacobian([parse_poly(T, "7")], ["Y1", "Y2"])[0]
    assert all(e.is_zero() for e in row3)


def test_serialize_parse_round_trip():
    T = table_xy()
    rng = random.Random(23)
    order = mixed_order(T)
    for _ in range(20):
        p = random_poly(T, rng)
        assert parse_poly(T, format_poly(p, order)) == p


def test_parse_rational_coefficients():
    T = table2()
    p = parse_poly(T, "3/4*x1 - 1/2")
    assert p.terms[(1, 0)] == Fraction(3, 4)
    assert p.constant_coefficient() == Fraction(-1, 2)


# CPython's int() and str() refuse more than 4 300 digits by default
SEVENS = "7" * 5000


def test_long_integer_literals_parse_exactly():
    T = table_xy()
    sevens = sum(7 * 10 ** k for k in range(5000))
    assert parse_poly(T, "Y1 - " + SEVENS) == (Polynomial.var(T, "Y1")
                                               - sevens)
    assert parse_poly(T, "1/" + SEVENS) == Polynomial.const(
        T, Fraction(1, sevens))
    assert parse_poly(T, "x1^" + SEVENS) == Polynomial.var(T, "x1", sevens)


@pytest.mark.parametrize("value", [
    10 ** 4400 + 1, -(10 ** 4400) + 3, Fraction(-3, 10 ** 4400 + 7),
    Fraction(10 ** 4500 + 1, 10 ** 4400 + 7)],
    ids=["int", "negative", "denominator", "both"])
def test_long_coefficients_print_and_parse_back(value):
    T = table_xy()
    p = parse_poly(T, "x1*Y1 - 2") * value
    assert parse_poly(T, str(p)) == p


def test_a_long_integer_prints_its_digits():
    T = table_xy()
    assert str(Polynomial.const(T, 10 ** 4400 + 1)) == "1" + "0" * 4399 + "1"
    assert str(Polynomial.var(T, "x1", 10 ** 4400)) == "x1^1" + "0" * 4400


def test_parse_errors_carry_position():
    T = table2()
    with pytest.raises(PolyParseError):
        parse_poly(T, "x1 + zz")
    with pytest.raises(PolyParseError):
        parse_poly(T, "x1 + ")
    with pytest.raises(PolyParseError):
        parse_poly(T, "x1 ^ x2")


def test_canonical_printing_sorted_by_order():
    T = table2()
    p = parse_poly(T, "x2 + x1^2 + 1")
    assert format_poly(p, global_order()) == "x1^2 + x2 + 1"


# ---------------------------------------------------------------------------
# the packed-exponent product against the tuple-exponent product loop

def reference_mul(a, b):
    """Terms of a * b by the loop on exponent tuples, pair by pair.

    Same operand order, same delete-on-cancel and same scaling as
    ``Polynomial.__mul__``, so the dict must agree in keys, values, value
    types and insertion order.
    """
    sa, ta = content(a), a._view()[2]
    sb, tb = content(b), b._view()[2]
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out = {}
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            acc = out.get(m, 0) + c1 * c2
            if acc:
                out[m] = acc
            else:
                del out[m]
    scale = sa * sb
    if scale != 1:
        out = {m: canon(v * scale) for m, v in out.items()}
    return out


def canon(c):
    """The rational c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def assert_product_matches_reference(a, b):
    got = (a * b).terms
    want = reference_mul(a, b)
    assert got == want
    assert list(got) == list(want)
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    return got


def table_of(n):
    return VarTable.make(*[(f"x{i + 1}", BASE) for i in range(n)])


_EXPONENTS = st.one_of(st.integers(0, 6),
                       st.sampled_from([63, 64, 127, 128, 129, 10 ** 6]))
# total degrees on either side of the widths of the degrevlex packing the
# product loop takes for its operands: 4 value bits up to degree 7, 5 up to
# 15, 6 up to 31, 17 up to 2^16 - 1 and 18 from 2^16
_WIDTH_DEGREES = st.sampled_from([7, 8, 15, 16, 2 ** 16 - 1, 2 ** 16,
                                  2 ** 16 + 1])
_COEFFS = st.one_of(st.integers(-5, 5).filter(bool),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=7).filter(bool))


@st.composite
def width_monomials(draw, n):
    """Exponent tuples of n variables with a total degree from
    ``_WIDTH_DEGREES``."""
    d = draw(_WIDTH_DEGREES)
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1,
                                max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, 4))
    T = table_of(n)
    mons = st.one_of(st.tuples(*[_EXPONENTS] * n), width_monomials(n))

    def poly():
        # at most one term half the time: one-term operands take their own
        # path through the product
        size = draw(st.sampled_from([1, 10]))
        items = draw(st.lists(st.tuples(mons, _COEFFS), max_size=size))
        return Polynomial.from_terms(T, items)
    return poly(), poly()


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
@example((parse_poly(table_of(2), "2*x1 - 3*x2 + x1^2*x2"),
          parse_poly(table_of(2), "x1 - x2")))
def test_packed_product_matches_tuple_loop(pair):
    """Products, and squares below the strand kernel's size, list their
    terms in the tuple loop's order."""
    a, b = pair
    assert_product_matches_reference(a, b)
    assert_product_matches_reference(b, a)
    for p in pair:
        if len(p.monomials()) < neron.poly._STRAND_MIN:
            assert_product_matches_reference(p, p)


@settings(max_examples=200, deadline=None)
@given(operand_pairs(), st.data())
def test_cut_product_is_the_product_below_the_cut(pair, data):
    a, b = pair
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(a.table) - 1), min_size=1))))
    bound = data.draw(st.one_of(st.integers(0, 12),
                                st.sampled_from([128, 257, 2 * 10 ** 6])))
    cut = (positions, bound)

    def below(terms):
        return {m: c for m, c in terms.items()
                if sum(m[i] for i in positions) < bound}

    for x, y in ((a, b), (b, a), (a, Fraction(-3, 2))):
        got = x.mul(y, cut).terms
        want = below((x * y).terms)
        assert got == want
        assert all(type(got[m]) is type(c) for m, c in want.items())


def test_packed_product_zero_operand():
    T = table_xy()
    p = parse_poly(T, "x1*Y1 - 2/3*x2^4")
    zero = Polynomial.zero(T)
    for a, b in ((p, zero), (zero, p), (zero, zero)):
        assert assert_product_matches_reference(a, b) == {}


def test_packed_product_constants():
    T = table_xy()
    three = Polynomial.const(T, 3)
    half = Polynomial.const(T, Fraction(1, 2))
    got = assert_product_matches_reference(three, half)
    assert got == {(0, 0, 0, 0): Fraction(3, 2)}
    assert_product_matches_reference(three, three)
    assert_product_matches_reference(half, parse_poly(T, "x1 - Y2^3"))
    # a rational scale that clears every denominator leaves int coefficients
    got = assert_product_matches_reference(half, parse_poly(T, "2*x1 - 4*Y2"))
    assert got == {(1, 0, 0, 0): 1, (0, 0, 0, 1): -2}
    assert all(type(c) is int for c in got.values())


def test_packed_product_one_variable_table():
    T = table_of(1)
    a = parse_poly(T, "1 + 2*x1 - x1^5")
    b = parse_poly(T, "x1^3 - 7")
    got = assert_product_matches_reference(a, b)
    assert Polynomial(T, got) == parse_poly(
        T, "x1^3 + 2*x1^4 - x1^8 - 7 - 14*x1 + 7*x1^5")


@pytest.mark.parametrize("e1, e2", [(127, 128), (128, 128), (128, 129),
                                    (255, 1), (1, 1), (1, 2)])
def test_packed_product_field_width_boundary(e1, e2):
    # e1 + e2 lands on or just past a power of two, the width of a field;
    # a carry out of the x2 field would land in the x1 field
    T = table2()
    a = Polynomial.from_terms(T, [((e1, e1), 1), ((0, e1), -2), ((1, 0), 3)])
    b = Polynomial.from_terms(T, [((e2, e2), 5), ((0, e2), 1), ((0, 0), -1)])
    got = assert_product_matches_reference(a, b)
    assert got[(e1 + e2, e1 + e2)] == 5
    assert got[(0, e1 + e2)] == -2


def test_packed_product_exponent_one_million():
    T = table2()
    big = 10 ** 6
    a = Polynomial.from_terms(T, [((big, 0), 1), ((0, 1), 1)])
    b = Polynomial.from_terms(T, [((big, 3), 2), ((1, big), -1)])
    got = assert_product_matches_reference(a, b)
    assert got == {(2 * big, 3): 2, (big + 1, big): -1,
                   (big, 4): 2, (1, big + 1): -1}


def test_packed_product_fraction_coefficients():
    T = table_xy()
    a = parse_poly(T, "1/2*x1 + 1/3*Y1 - 5/6")
    b = parse_poly(T, "2/3*x1 - 3/4*Y2")
    assert content(a) != 1 and content(b) != 1
    got = assert_product_matches_reference(a, b)
    assert got[(2, 0, 0, 0)] == Fraction(1, 3)
    assert got[(1, 0, 0, 1)] == Fraction(-3, 8)


def test_packed_product_cancelled_monomial_is_created_again():
    # (1 + x + x^2) * (x^2 - x + 1): x^2 appears, cancels, then appears
    # again after x^4, so it moves to the end of the insertion order
    T = table_of(1)
    a = Polynomial.from_terms(T, [((0,), 1), ((1,), 1), ((2,), 1)])
    b = Polynomial.from_terms(T, [((2,), 1), ((1,), -1), ((0,), 1)])
    got = assert_product_matches_reference(a, b)
    assert list(got.items()) == [((0,), 1), ((4,), 1), ((2,), 1)]


def assert_same_product(got, want):
    """Equal products with equal coefficient value types; the insertion
    order of the terms is free."""
    assert got == want
    got, want = got.terms, want.terms
    assert all(type(got[m]) is type(c) for m, c in want.items())


@settings(max_examples=200, deadline=None)
@given(operand_pairs(), st.data())
def test_square_is_the_product_of_equal_operands(pair, data):
    p = pair[0]
    num, den, ints = p._view()
    q = _from_ints(p.table, dict(ints), num, den)
    assert q == p and q is not p
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(p.table) - 1), min_size=1))))
    bound = data.draw(st.one_of(st.integers(0, 24), st.just(2 * 10 ** 6)))
    cut = data.draw(st.sampled_from([None, (positions, bound)]))
    assert_same_product(p.mul(p, cut), p.mul(q, cut))
    assert_same_product(p.mul(p, cut), Polynomial(p.table,
                                                  reference_cut(p, q, cut)))


def reference_cut(a, b, cut):
    """The tuple loop's product, with the terms at or past the cut
    dropped."""
    terms = reference_mul(a, b)
    if cut is None:
        return terms
    positions, bound = cut
    return {m: c for m, c in terms.items()
            if sum(m[i] for i in positions) < bound}


@st.composite
def strands(draw, n, i, size):
    """A monomial times a polynomial in the variable at position i with
    ``size`` terms, gaps between their exponents and at most as many gaps
    as terms."""
    mon = draw(st.tuples(*[st.integers(0, 4)] * n))
    steps = draw(st.lists(st.integers(1, 2), min_size=size - 1,
                          max_size=size - 1))
    exps = [mon[i]]
    for step in steps:
        exps.append(exps[-1] + step)
    coeffs = draw(st.lists(_COEFFS, min_size=size, max_size=size))
    return Polynomial.from_terms(
        table_of(n), [(mon[:i] + (e,) + mon[i + 1:], c)
                      for e, c in zip(exps, coeffs)])


@contextmanager
def strand_kernel_spy():
    """Patch ``poly._strand_product`` with a spy; yields the list of what
    each call returned (None when an operand failed the strand test)."""
    kernel = neron.poly._strand_product
    returned = []

    def spy(*args):
        returned.append(kernel(*args))
        return returned[-1]
    with patch.object(neron.poly, "_strand_product", spy):
        yield returned


DICT_LOOP = 10 ** 9    # a _STRAND_MIN that no product passes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_strand_product_is_the_dict_loop(data):
    n = data.draw(st.integers(1, 4))
    i = data.draw(st.integers(0, n - 1))
    least = neron.poly._STRAND_MIN
    a = data.draw(strands(n, i, data.draw(st.integers(least, least + 12))))
    b = data.draw(strands(n, i, data.draw(st.integers(least, least + 12))))
    # the variable inside, then outside, the cut positions
    others = [j for j in range(n) if j != i]
    bound = data.draw(st.integers(0, 60))
    cuts = [((i,), bound)]
    if others:
        cuts.append((tuple(others), bound))
    for cut in cuts:
        for x, y in ((a, b), (b, a), (a, a)):
            with strand_kernel_spy() as spy:
                got = x.mul(y, cut)
            assert len(spy) == 1 and spy[0] is not None
            with patch.object(neron.poly, "_STRAND_MIN", DICT_LOOP):
                want = x.mul(y, cut)
            assert_same_product(got, want)
            assert got.terms == reference_cut(x, y, cut)
    # a product below the gate goes to the dict loop
    c = Polynomial.from_terms(
        a.table, list(a.terms.items())[:least - 1])
    with strand_kernel_spy() as spy:
        got = c.mul(b, cuts[0])
    assert len(spy) == 0
    assert got.terms == reference_cut(c, b, cuts[0])


# coefficients that cancel (+-1), that sit at a slot boundary (+-2^k and
# +-(2^k - 1) for k around multiples of 8) and that carry a denominator
_KERNEL_COEFFS = st.one_of(
    st.sampled_from([1, -1]),
    st.builds(lambda k, sign, less: sign * (2 ** k - less),
              st.sampled_from([7, 8, 9, 15, 16, 31, 32, 63, 64, 127, 128]),
              st.sampled_from([1, -1]), st.sampled_from([0, 1])),
    _COEFFS)


@st.composite
def dense_strand_operands(draw):
    """Two operands over 1-4 variables, each one to three strands along
    one position with at least ``_STRAND_MIN`` terms each, gaps of at
    most one exponent, and a rational content."""
    n = draw(st.integers(1, 4))
    i = draw(st.integers(0, n - 1))
    least = neron.poly._STRAND_MIN
    T = table_of(n)

    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mon = draw(st.tuples(*[st.integers(0, 3)] * n))
            size = draw(st.integers(least, least + 12))
            steps = draw(st.lists(st.integers(1, 2), min_size=size - 1,
                                  max_size=size - 1))
            e = mon[i]
            for step in [0] + steps:
                e += step
                terms[mon[:i] + (e,) + mon[i + 1:]] = draw(_KERNEL_COEFFS)
        scale = draw(st.sampled_from([1, -1, 6, Fraction(-5, 3)]))
        return Polynomial(T, terms) * scale
    return poly(), poly()


@settings(max_examples=200, deadline=None)
@given(dense_strand_operands(), st.data())
def test_strand_kernel_is_the_reference_and_the_dict_loop(pair, data):
    a, b = pair
    n = len(a.table)
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1))))
    cut = data.draw(st.sampled_from(
        [None, (positions, data.draw(st.integers(0, 60)))]))
    for x, y in ((a, b), (b, a), (a, a)):
        with strand_kernel_spy() as spy:
            got = x.mul(y, cut)
        assert len(spy) == 1 and spy[0] is not None
        with patch.object(neron.poly, "_STRAND_MIN", DICT_LOOP):
            want = x.mul(y, cut)
        assert_same_product(got, want)
        assert_same_product(got, Polynomial(x.table, reference_cut(x, y, cut)))


@pytest.mark.parametrize("k", range(1, 16))
@pytest.mark.parametrize("size", [12, 14])
def test_strand_kernel_at_the_slot_boundary(k, size):
    # the primitive a = 1 + 2^k*(x + ... + x^(size-1)): the slot holds
    # size * 4^k, and the coefficient (size - 1) * 4^k of a^2 takes more
    # than half of it, so a slot one bit short fails for k = 2 mod 4;
    # negative coefficients need the borrow of a balanced slot
    T = table_of(1)
    a = Polynomial.from_terms(
        T, [((e,), 2 ** k if e else 1) for e in range(size)])
    b = Polynomial.from_terms(
        T, [((e,), (-1) ** e * 2 ** k if e else 1) for e in range(size)])
    for x, y in ((a, a), (a, -a), (a, b), (b, b)):
        with strand_kernel_spy() as spy:
            got = x * y
        assert len(spy) == 1 and spy[0] is not None
        assert_same_product(got, Polynomial(T, reference_mul(x, y)))


# ---------------------------------------------------------------------------
# the integer view (content, primitive integer terms) and int coefficients

TABLE_XY_BASE = (0, 1)   # positions of x1, x2 in table_xy()

_RATIONALS = st.one_of(
    st.integers(-40, 40).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
    st.integers(-6, 6).filter(bool).map(lambda k: Fraction(k, 1)))


@st.composite
def rational_polys(draw, table=None):
    """Mixed denominators, integral Fraction inputs and, through the
    factor, negative or large content."""
    T = table or table_xy()
    mons = st.tuples(*[st.integers(0, 3)] * len(T))
    items = draw(st.lists(st.tuples(mons, _RATIONALS), max_size=8))
    factor = draw(st.sampled_from(
        [1, -1, 6, -12, Fraction(-3, 4), Fraction(5, 6), Fraction(1, 35)]))
    return Polynomial.from_terms(T, [(m, c * factor) for m, c in items])


def assert_int_coefficients(p):
    """Every coefficient with denominator 1 is stored as an int."""
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values()), p.terms


def assert_view(p):
    """The view splits p exactly into content and primitive ints, in the
    order of the terms, and equals the view the constructor computes from
    the value map."""
    num, den, ints = p._view()
    scale = content(p)
    assert scale > 0 and gcd(num, den) == 1 and scale == Fraction(num, den)
    assert all(type(v) is int and v for v in ints.values())
    assert not ints or gcd(*ints.values()) == 1
    assert {m: scale * v for m, v in ints.items()} == p.terms
    assert list(ints) == list(p.terms) == list(p.monomials())
    fresh = Polynomial(p.table, dict(p.terms))
    assert fresh._view() == (num, den, ints)
    assert type(content(fresh)) is type(scale)
    assert content(p) == scale
    assert_int_coefficients(p)


@settings(max_examples=200, deadline=None)
@given(rational_polys())
def test_int_view_splits_the_content(p):
    assert_view(p)
    prim = p.primitive()
    assert_view(prim)
    assert content(prim) == 1
    assert prim * content(p) == p


def test_int_view_of_integral_fraction_terms():
    # terms built directly, bypassing from_terms' canonical coefficients
    T = table2()
    p = Polynomial(T, {(1, 0): Fraction(-4, 1), (0, 2): Fraction(6, 1)})
    assert p._view() == (2, 1, {(1, 0): -2, (0, 2): 3})
    assert type(content(p)) is int


@settings(max_examples=200, deadline=None)
@given(rational_polys(), rational_polys(), st.integers(0, 8),
       _RATIONALS, st.tuples(*[st.integers(0, 2)] * 4))
def test_products_carry_their_view(a, b, bound, scalar, mon):
    cut = (TABLE_XY_BASE, bound)
    for q in (a * b, b * a, a.mul(b, cut), a * a * b, a * scalar,
              a.mul(scalar, cut), a * Polynomial(a.table, {mon: scalar}),
              a ** 2):
        assert_view(q)
    # the carried view of an operand is reused by the next product
    assert_view((a * b) * (b * a))
    assert_view(a.mul(b, cut).mul(a, cut))


@st.composite
def one_term_factors(draw):
    """A one-term polynomial over table_xy(): +-1, another int or a
    Fraction, at the zero monomial or at a drawn one."""
    mon = draw(st.one_of(st.just((0, 0, 0, 0)),
                         st.tuples(*[st.integers(0, 3)] * 4)))
    value = draw(st.one_of(
        st.sampled_from([1, -1, Fraction(1), Fraction(-1)]), _RATIONALS))
    return Polynomial(table_xy(), {mon: value})


def schoolbook(a, b, cut=None):
    """The value map of a * b, pair by pair over the value maps of a and b,
    without its terms at or past ``cut``."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    if cut is not None:
        positions, bound = cut
        out = {m: c for m, c in out.items()
               if sum(m[i] for i in positions) < bound}
    return {m: canon(Fraction(c)) for m, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(one_term_factors(), rational_polys(), rational_polys(),
       st.one_of(st.none(), st.integers(0, 8)))
@example(Polynomial.const(table_xy(), 1),
         parse_poly(table_xy(), "2/3*x1*Y1 - 4/3*x2^3 + 2"),
         parse_poly(table_xy(), "x1 - Y2"), None)
@example(Polynomial.const(table_xy(), -1),
         parse_poly(table_xy(), "2/3*x1*Y1 - 4/3*x2^3 + 2"),
         parse_poly(table_xy(), "x1 - Y2"), 2)
def test_one_term_products_are_the_schoolbook_product(u, b, c, bound):
    """A one-term factor, constant or not, times a polynomial with a
    rational content is the schoolbook product, cut or not.  A product by
    a positive constant reuses the operand's integer terms, and no later
    sum or product writes to them."""
    cut = None if bound is None else (TABLE_XY_BASE, bound)
    num, den, ints = b._view()
    snapshot = list(ints.items())
    want = schoolbook(u, b, cut)
    products = [u.mul(b, cut), b.mul(u, cut)]
    for q in products:
        got = q.terms
        assert got == want
        assert [type(got[m]) for m in want] == [type(v) for v in
                                                want.values()]
        assert_view(q)
    (mon, value), = u.terms.items()
    if not any(mon) and value > 0 and cut is None and len(ints) > 1:
        assert all(q._view()[2] is ints for q in products)
    for q in products:
        later = [q + c, q - c, c - q, q + q, -q, q * c, q.mul(c, cut), q * q,
                 q.mul(Fraction(-2, 3), cut), q.substitute({"Y1": c}, cut)]
        assert all(isinstance(r, Polynomial) for r in later)
    assert b._view()[:2] == (num, den) and b._view()[2] is ints
    assert list(ints.items()) == snapshot
    assert products == [Polynomial(b.table, want)] * 2


@settings(max_examples=150, deadline=None)
@given(rational_polys(), rational_polys())
def test_arithmetic_stores_integral_coefficients_as_int(a, b):
    T = a.table
    results = [a + b, a - b, b - a, -a, a + 1, a - Fraction(1, 2),
               a.derivative("x1"), a.derivative("Y2"), a.primitive(),
               a.substitute({"x1": b}), a.substitute({"Y1": b}, ((0, 1), 4)),
               Polynomial.from_terms(T, list(a.terms.items())
                                     + list(b.terms.items()))]
    results += taylor_coefficients(a, ["x1", "Y1"], {"x1": b}).values()
    for q in results:
        assert_int_coefficients(q)


def test_sums_and_scalings_that_clear_denominators_give_ints():
    T = table2()
    half = parse_poly(T, "1/2*x1 + 3/2*x2")
    for q in (half + half, half * 2, half * parse_poly(T, "2*x1"),
              (half * half) * 4, half.derivative("x1") * 6,
              half - parse_poly(T, "-1/2*x1 + 1/2*x2")):
        assert_int_coefficients(q)
    assert (half + half).terms == {(1, 0): 1, (0, 1): 3}
    assert type(content(half * 2)) is int


@settings(max_examples=100, deadline=None)
@given(rational_polys(), rational_polys(), st.integers(0, 7))
# x1^4*Y1 and x2^5 pass the cut before Y1 is replaced; x1*x2 involves no
# substituted variable
@example(parse_poly(table_xy(), "x1^4*Y1 + x2^5 + x1*x2 + 2*x1*Y1^2"),
         parse_poly(table_xy(), "x2 + x1^2"), 4)
def test_substitute_under_a_cut_drops_only_terms_beyond_it(p, v, bound):
    cut = (TABLE_XY_BASE, bound)
    for assignment in ({"Y1": v}, {"x2": v, "Y2": v * v}):
        assert (p.substitute(assignment, cut)
                == p.substitute(assignment).below(cut))


_TAYLOR_NAMES = ("Y1", "Y2", "x2")


@st.composite
def taylor_points(draw):
    """(f, names, at): distinct names among Y1, Y2 and x2, and a point
    ``at`` on some of them, each value free of them: 0, a constant or a
    polynomial in x1.  Names left out of ``at`` and names of ``at``
    outside ``names`` are both drawn."""
    T = table_xy()
    subsets = st.lists(st.sampled_from(_TAYLOR_NAMES), unique=True)
    in_x1 = st.lists(st.tuples(st.integers(0, 3), _RATIONALS),
                     max_size=3).map(lambda items: Polynomial.from_terms(
                         T, [((e, 0, 0, 0), c) for e, c in items]))
    values = st.one_of(st.just(0), _RATIONALS, in_x1)
    at = {n: draw(values) for n in draw(subsets)}
    return draw(rational_polys()), draw(subsets), at


_TXY = table_xy()


@settings(max_examples=200, deadline=10000)
@given(taylor_points())
@example((Polynomial.zero(_TXY), ["Y1", "x2"], {"Y1": 3}))
@example((parse_poly(_TXY, "x2*Y1^2 - 1/2*Y1*Y2 + x1"), ["Y1", "x2"],
          {"Y1": Fraction(-2, 3), "Y2": parse_poly(_TXY, "1 + x1")}))
@example((parse_poly(_TXY, "Y1^3*Y2 + x2"), ["Y2", "Y1"],
          {"Y1": 0, "Y2": parse_poly(_TXY, "x1^2 - 2")}))
def test_taylor_coefficients_match_the_derivatives(point):
    # f = sum c_alpha * prod (X_i - at_i)^alpha_i, at_i = 0 for a name that
    # at leaves out, once the names of at outside names take their values
    f, names, at = point
    T = f.table
    coeffs = taylor_coefficients(f, names, at)
    assert coeffs == taylor_by_derivatives(f, names, at)
    positions = [T.index(n) for n in names]
    total = Polynomial.zero(T)
    for alpha, c in coeffs.items():
        assert len(alpha) == len(names)
        assert not c.is_zero() and not c.involves(positions)
        for n, a in zip(names, alpha):
            c = c * (Polynomial.var(T, n) - at.get(n, 0)) ** a
        total = total + c
    assert total == f.substitute({n: v for n, v in at.items()
                                  if n not in names})


# ---------------------------------------------------------------------------
# the value map is built afresh on each read: reading it changes no result

def read_first(p):
    """p three ways: created from its integer view, the same after a read
    of its value map, and created from the value map."""
    num, den, ints = p._view()
    lazy = _from_ints(p.table, dict(ints), num, den)
    read = _from_ints(p.table, dict(ints), num, den)
    before = read._view()
    read.terms["not a monomial"] = 0
    assert read._view() is before and "not a monomial" not in read.terms
    return lazy, read, Polynomial(p.table, dict(p.terms))


def assert_same(x, y):
    """Equal results; polynomials also in term order and value types."""
    if isinstance(x, tuple):
        assert len(x) == len(y)
        for u, v in zip(x, y):
            assert_same(u, v)
    elif isinstance(x, Polynomial):
        assert isinstance(y, Polynomial) and x == y
        assert list(x.terms.items()) == list(y.terms.items())
        assert ([type(c) for c in x.terms.values()]
                == [type(c) for c in y.terms.values()])
    else:
        assert x == y and type(x) is type(y)


def prepared_basis(T, order):
    """The packing and prepared reducers of a fixed rational ideal over
    table_xy."""
    gens = [parse_poly(T, t) for t in ("3/2*x1^2 - 2*x2*Y1 + 5/3*x1*Y2",
                                        "7/4*x2^2 - x1*Y1 + 2/5*Y2^2")]
    return _reducers(std_basis(gens, T, order), order, T)


@settings(max_examples=100, deadline=None)
@given(rational_polys(), rational_polys(), st.integers(0, 6))
def test_reading_the_value_map_first_changes_no_result(a, b, bound):
    T = a.table
    cut = (TABLE_XY_BASE, bound)
    order = mixed_order(T)
    gpk, gprep = prepared_basis(T, global_order())
    mpk, mprep = prepared_basis(T, order)

    def results(p, q):
        out = [p + q, p - q, q - p, -p, p + 1, p - Fraction(1, 3),
               p * q, p.mul(q, cut), p * Fraction(-5, 6), p.below(cut),
               p.order(), p.total_degree(), p.is_zero(), p == q,
               p == Polynomial(T, dict(p.terms)), hash(p),
               format_poly(p, order), content(p), p.primitive(),
               p.derivative("x1"), p.substitute({"Y1": q}, cut),
               classic_nf(p, gprep, gpk, full=True)[0],
               classic_nf(p, mprep, mpk, full=True, cut=cut)[0],
               mora_nf(p, mprep, mpk)[0]]
        if not p.is_zero():
            out.append(lead(p, order.key(T)))
        return out

    pairs = [(x, y) for x in read_first(a) for y in read_first(b)]
    want = results(*pairs[0])
    for x, y in pairs[1:]:
        assert_same(results(x, y), want)
    # and the results are right: sums against value-level sums, and a cut
    # remainder against the terms below the cut
    x, y = pairs[0]
    for sign, got in ((1, want[0]), (-1, want[1])):
        terms = dict(a.terms)
        for m, c in b.terms.items():
            terms[m] = terms.get(m, 0) + sign * c
        assert got == Polynomial.from_terms(T, terms.items())
    below = Polynomial.from_terms(
        T, [(m, c) for m, c in a.terms.items() if m[0] + m[1] < bound])
    assert classic_nf(x, [], mpk, full=True, cut=cut)[0] == below
    assert want[22].below(cut) == want[22]


def count_value_map_builds(monkeypatch):
    """Record every polynomial whose value map is built from its view,
    which is every read of ``terms``."""
    built = []
    terms = Polynomial.terms

    def spy(p):
        built.append(p)
        return terms.fget(p)
    monkeypatch.setattr(Polynomial, "terms", property(spy))
    return built


def test_rational_jet_arithmetic_builds_no_value_map(monkeypatch):
    T = table_xy()
    ring = LocalRingSpec(T, [parse_poly(T, "x1^2*x2 - x2^3")])
    n = 9
    u = ring.jet(parse_poly(T, "1 + 1/2*x1 - 1/8*x1^2 + 1/16*x1^3"), n)
    v = ring.jet(parse_poly(T, "2/3 - 5/7*x2 + 1/9*x1*x2 - 3/4*x2^2"), n)
    w = ring.jet(parse_poly(T, "1/5*x1 + 3/8*x2 - 7/6*x1*x2"), n)
    built = count_value_map_builds(monkeypatch)
    z = u
    for k in range(6):
        z = (z * v - w) * Fraction(1, 2) + u * w
        z = ring.jet(z.poly * w.poly + v.poly, n - k % 3).truncate(n - 3)
        z = z + ring.jet(z.poly * z.poly, n - 3) - v.truncate(n - 3)
        z = Jet(ring, z.poly, n)
    assert not built
    # the same chain on polynomials whose value maps are read at every step
    monkeypatch.undo()
    y = u
    for k in range(6):
        y = (y * v - w) * Fraction(1, 2) + u * w
        y.poly.terms
        y = ring.jet(y.poly * w.poly + v.poly, n - k % 3).truncate(n - 3)
        y.poly.terms
        y = y + ring.jet(y.poly * y.poly, n - 3) - v.truncate(n - 3)
        y = Jet(ring, y.poly, n)
    assert_same(z.poly, y.poly)
    assert any(type(c) is Fraction for c in z.poly.terms.values())


# ---------------------------------------------------------------------------
# one state: a value map and the arithmetic give the same polynomial

_VALUES = st.one_of(
    st.just(0), st.just(Fraction(0)),
    st.integers(-40, 40),
    st.integers(-6, 6).map(lambda k: Fraction(k, 1)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12))


@st.composite
def value_maps(draw):
    """Value maps over table2 with zero entries, integral Fractions and,
    through the factor, non-unit contents."""
    mons = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(mons, _VALUES, max_size=7))
    factor = draw(st.sampled_from([1, -1, 6, -35, Fraction(5, 6),
                                   Fraction(-7, 4), Fraction(1, 12)]))
    return {m: c * factor for m, c in terms.items()}


def by_arithmetic(T, terms):
    """The sum of Polynomial.const(c) * x1^i * x2^j over the value map."""
    total = Polynomial.zero(T)
    for (i, j), c in terms.items():
        total = total + (Polynomial.const(T, c) * Polynomial.var(T, "x1", i)
                         * Polynomial.var(T, "x2", j))
    return total


def by_view(T, terms):
    """_from_ints of a content and primitive terms taken by hand."""
    nonzero = {m: Fraction(c) for m, c in terms.items() if c}
    if not nonzero:
        return _from_ints(T, {})
    scale = Fraction(gcd(*(c.numerator for c in nonzero.values())),
                     lcm(*(c.denominator for c in nonzero.values())))
    return _from_ints(T, {m: int(c / scale) for m, c in nonzero.items()},
                      scale.numerator, scale.denominator)


@settings(max_examples=200, deadline=None)
@given(value_maps())
def test_value_map_and_arithmetic_build_the_same_polynomial(terms):
    T = table2()
    order = mixed_order(T)
    want = {m: canon(c) for m, c in terms.items() if c}
    built = [Polynomial(T, dict(terms)), Polynomial.from_terms(T, terms.items()),
             by_arithmetic(T, terms), by_view(T, terms)]
    for p in built:
        assert p == built[0] and hash(p) == hash(built[0])
        assert list(p.terms.items()) == list(want.items())
        assert [type(c) for c in p.terms.values()] == [type(c) for c in
                                                       want.values()]
        assert format_poly(p, order) == format_poly(built[0], order)
        assert p.is_zero() == (not want)
        assert_view(p)


def test_zero_coefficients_are_dropped():
    T = table2()
    zero = Polynomial.zero(T)
    for terms in ({(1, 0): 0}, {(1, 0): Fraction(0)},
                  {(1, 0): 0, (0, 0): 0, (2, 3): Fraction(0, 5)}):
        p = Polynomial(T, terms)
        assert p.is_zero() and p == zero and hash(p) == hash(zero)
        assert p.terms == {} and format_poly(p, mixed_order(T)) == "0"
        assert p.total_degree() == -1 and p.order() is None
    p = Polynomial(T, {(1, 0): 0, (0, 1): 3})
    assert p == parse_poly(T, "3*x2") and format_poly(p, mixed_order(T)) \
        == "3*x2"


def test_non_rational_coefficients_are_refused():
    T = table2()
    for bad in (0.1, 0.5, 0.0, 1.0, complex(1, 0), "1"):
        with pytest.raises(NeronError):
            Polynomial.const(T, bad)
        with pytest.raises(NeronError):
            Polynomial.from_terms(T, [((1, 0), 1), ((0, 1), bad)])
        with pytest.raises(NeronError):
            Polynomial(T, {(1, 0): bad})
    x = parse_poly(T, "x1")
    ops = (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5,
           lambda: 0.5 - x, lambda: x * 0.5, lambda: 0.5 * x)
    for op in ops:
        with pytest.raises(TypeError):
            op()
    # rationals still act as constants on both sides
    assert 1 - x == parse_poly(T, "1 - x1")
    assert Fraction(1, 2) * x + 1 == parse_poly(T, "1/2*x1 + 1")


def test_jet_negative_power_raises():
    T = table_xy()
    ring = LocalRingSpec(T, [parse_poly(T, "x1^2*x2 - x2^3")])
    u = ring.jet(parse_poly(T, "1 + x1"), 4)
    with pytest.raises(NeronError):
        u ** -1
    assert u ** 0 == ring.jet(1, 4)
    assert u ** 2 == ring.jet(parse_poly(T, "1 + 2*x1 + x1^2"), 4)


def test_jets_refuse_float_operands():
    T = table_xy()
    ring = LocalRingSpec(T, [parse_poly(T, "x1^2*x2 - x2^3")])
    u = ring.jet(parse_poly(T, "1 + x1"), 4)
    for op in (lambda: u + 0.5, lambda: 0.5 - u, lambda: u * 0.5,
               lambda: ring.jet(0.5, 3)):
        with pytest.raises(NeronError):
            op()
    assert u + Fraction(1, 2) == ring.jet(parse_poly(T, "3/2 + x1"), 4)
    assert 2 * u == ring.jet(parse_poly(T, "2 + 2*x1"), 4)


def library_caller():
    """The file name of the library module whose code called the spy that
    calls this, or None for a caller outside the library."""
    path = os.path.abspath(sys._getframe(2).f_code.co_filename)
    lib = os.path.dirname(os.path.abspath(neron.poly.__file__))
    return os.path.basename(path) if os.path.dirname(path) == lib else None


def library_terms_readers(monkeypatch):
    """Record the file of every read of ``Polynomial.terms`` made directly
    by library code outside poly.py."""
    readers = []
    terms = Polynomial.terms

    def spy(p):
        caller = library_caller()
        if caller not in (None, "poly.py"):
            readers.append(caller)
        return terms.fget(p)
    monkeypatch.setattr(Polynomial, "terms", property(spy))
    return readers


def library_key_callers(monkeypatch):
    """Record the file of every call of ``TermOrder.key``, the tuple key,
    made directly by library code."""
    callers = []
    key = TermOrder.key

    def spy(order, table):
        caller = library_caller()
        if caller is not None:
            callers.append(caller)
        return key(order, table)
    monkeypatch.setattr(TermOrder, "key", spy)
    return callers


def test_only_poly_reads_the_value_map(monkeypatch):
    # seed 18 certifies, and its presentation loses unit linear terms
    problem = random_certificate_instance(18)
    approx = {nm: j.poly for nm, j in problem.morphism.jets.items()}
    lift = LiftingProblem(problem.ring, problem.relations,
                          tuple(range(len(problem.relations))), approx, 0, 80)
    readers = library_terms_readers(monkeypatch)
    key_callers = library_key_callers(monkeypatch)
    result = desingularize(problem)
    assert verify_certificate(result.certificate, result.algebra,
                              result.morphism)
    newton_lift(lift)
    code, out, _ = run_command("desing", "problems/example1_hypersurface.gnd")
    assert code == 0 and out
    # and a division by one term: Mora's normal form removes one term per
    # step, with unit 1
    T = table2()
    w = lift_division(parse_poly(T, "x1^2*x2 - 1/2*x1*x2^3"),
                      [parse_poly(T, "-3*x1*x2")], T, mixed_order(T))
    assert w.check() and w.unit == Polynomial.const(T, 1)
    assert w.quotients == (parse_poly(T, "-1/3*x1 + 1/6*x2^2"),)
    assert readers == []
    # no library code orders monomials by the tuple key: they are packed
    assert key_callers == []
    # the spies do see a read and a key made from a library module
    probe = {}
    exec(compile("def read(p):\n    return p.terms\n"
                 "def key(order, table):\n    return order.key(table)\n",
                 neron.localring.__file__, "exec"), probe)
    probe["read"](Polynomial.const(problem.ring.table, 1))
    assert readers == ["localring.py"]
    probe["key"](mixed_order(T), T)
    assert key_callers == ["localring.py"]
