"""Polynomial kernel: exact arithmetic, substitution, calculus, printing."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neron import (ALGEBRA, BASE, Polynomial, VarTable, format_poly,
                   global_order, jacobian, mixed_order, parse_poly,
                   taylor_coefficients)
from neron.errors import NeronError, PolyParseError
from neron.poly import _canon_coeff


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
    sa, ta = a._int_view()
    sb, tb = b._int_view()
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
        out = {m: _canon_coeff(v * scale) for m, v in out.items()}
    return out


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
_COEFFS = st.one_of(st.integers(-5, 5).filter(bool),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=7).filter(bool))


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, 4))
    T = table_of(n)
    mons = st.tuples(*[_EXPONENTS] * n)

    def poly():
        # at most one term half the time: one-term operands take their own
        # path through the product
        size = draw(st.sampled_from([1, 10]))
        items = draw(st.lists(st.tuples(mons, _COEFFS), max_size=size))
        return Polynomial.from_terms(T, items)
    return poly(), poly()


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
def test_packed_product_matches_tuple_loop(pair):
    a, b = pair
    assert_product_matches_reference(a, b)
    assert_product_matches_reference(b, a)


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
    assert a._int_view()[0] != 1 and b._int_view()[0] != 1
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
    """The cached view splits p exactly into content and primitive ints,
    and equals a view computed afresh from the terms."""
    scale, ints = p._int_view()
    assert scale > 0
    assert all(type(v) is int for v in ints.values())
    assert not ints or gcd(*ints.values()) == 1
    assert {m: scale * v for m, v in ints.items()} == p.terms
    fresh_scale, fresh = Polynomial(p.table, dict(p.terms))._int_view()
    assert fresh_scale == scale and type(fresh_scale) is type(scale)
    assert fresh == ints
    assert p.content() == scale
    assert_int_coefficients(p)


@settings(max_examples=200, deadline=None)
@given(rational_polys())
def test_int_view_splits_the_content(p):
    assert_view(p)
    prim = p.primitive()
    assert_view(prim)
    assert prim.content() == 1
    assert prim * p.content() == p


def test_int_view_of_integral_fraction_terms():
    # terms built directly, bypassing from_terms' canonical coefficients
    T = table2()
    p = Polynomial(T, {(1, 0): Fraction(-4, 1), (0, 2): Fraction(6, 1)})
    assert p._int_view() == (2, {(1, 0): -2, (0, 2): 3})
    assert type(p.content()) is int


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
    assert type((half * 2).content()) is int


@settings(max_examples=100, deadline=None)
@given(rational_polys(), rational_polys(), st.integers(0, 7))
def test_substitute_under_a_cut_drops_only_terms_beyond_it(p, v, bound):
    cut = (TABLE_XY_BASE, bound)
    for assignment in ({"Y1": v}, {"x2": v, "Y2": v * v}):
        assert (p.substitute(assignment, cut)
                == p.substitute(assignment).below(cut))
