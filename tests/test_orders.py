"""Term order semantics: global, local and block orders, and the packing
of monomials into ints that the basis engine, the product loop and the
printer run on."""

from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lead, mon_divides
from neron import (ALGEBRA, AUX, BASE, TANGENT, DegRevLex, NegDegRevLex,
                   Polynomial, VarTable, elim_order, format_poly,
                   global_order, mixed_order, parse_poly)
from neron.orders import packing


def table2():
    return VarTable.make(("x1", BASE), ("x2", BASE))


def table_mixed():
    return VarTable.make(("x1", BASE), ("x2", BASE),
                         ("Y1", ALGEBRA), ("Y2", ALGEBRA))


def test_degrevlex_tie_break():
    T = table2()
    keyf = global_order().key(T)
    # x1^2*x2 beats x1*x2^2 by the revlex tie break
    assert keyf((2, 1)) > keyf((1, 2))


def test_local_order_constant_maximal():
    T = table2()
    keyf = NegDegRevLex().key(T)
    assert keyf((0, 0)) > keyf((1, 0)) > keyf((2, 0))
    assert keyf((0, 0)) > keyf((0, 5))


def test_block_elimination_property():
    T = table_mixed()
    keyf = mixed_order(T).key(T)
    # any Y beats any pure-x monomial
    assert keyf((0, 0, 1, 0)) > keyf((9, 9, 0, 0))
    assert keyf((0, 0, 0, 1)) > keyf((1, 0, 0, 0))


def test_is_global_classification():
    T = table_mixed()
    assert global_order().is_global(T)
    assert not NegDegRevLex().is_global(T)
    assert not mixed_order(T).is_global(T)
    assert mixed_order(VarTable.make(("Y", ALGEBRA),)).is_global(
        VarTable.make(("Y", ALGEBRA),))


def test_elim_order_dominates():
    T = table_mixed()
    order = elim_order(T, (ALGEBRA,))
    keyf = order.key(T)
    assert keyf((0, 0, 1, 0)) > keyf((7, 7, 0, 0))


def test_total_order_distinct_monomials():
    T = table2()
    keyf = global_order().key(T)
    mons = [(i, j) for i in range(4) for j in range(4)]
    keys = [keyf(m) for m in mons]
    assert len(set(keys)) == len(mons)


def test_lead_term_under_mixed_order():
    T = table_mixed()
    p = parse_poly(T, "x2*Y1 - x1*Y2")
    keyf = mixed_order(T).key(T)
    lm, lc = lead(p, keyf)
    assert lm == (0, 1, 1, 0) and lc == 1


# ---------------------------------------------------------------------------
# packed monomials against the tuple definitions

def _tuple_product(a, b):
    return tuple(map(add, a, b))


def _tuple_lcm(a, b):
    return tuple(map(max, a, b))


@st.composite
def packing_cases(draw):
    """A table of 1-8 variables with drawn roles, one of the four orders
    the library builds on it (the elimination order over the table
    extended by an AUX variable), and monomials of that table whose total
    degrees run up to and past the narrowest packing's limit."""
    n = draw(st.integers(1, 8))
    roles = draw(st.lists(st.sampled_from((BASE, ALGEBRA, TANGENT)),
                          min_size=n, max_size=n))
    T = VarTable(tuple(f"v{i}" for i in range(n)), tuple(roles))
    which = draw(st.sampled_from(["global", "local", "mixed", "elim"]))
    if which == "elim":
        T = T.extend((T.fresh_name("t"), AUX))
        order = elim_order(T, (AUX,))
    else:
        order = {"global": DegRevLex(), "local": NegDegRevLex(),
                 "mixed": mixed_order(T)}[which]
    mons = st.lists(st.integers(0, 17), min_size=len(T),
                    max_size=len(T)).map(tuple)
    return T, order, draw(st.lists(mons, min_size=2, max_size=12))


@settings(max_examples=300, deadline=None)
@given(packing_cases())
def test_packed_monomials_are_the_tuple_monomials(case):
    """Round trips, keys, divisibility, products and lcms of packed
    monomials agree with the exponent tuples, at the packing that holds
    the largest degree drawn; ``format_poly`` prints the terms in
    descending ``order.key``."""
    T, order, mons = case
    pk = packing(order, T, max(map(sum, mons)))
    keyf = order.key(T)
    packed = [pk.pack(m) for m in mons]
    assert [pk.unpack(a) for a in packed] == mons
    assert pk.glob == order.is_global(T)
    assert (sorted(range(len(mons)), key=lambda k: keyf(mons[k]))
            == sorted(range(len(mons)), key=lambda k: pk.key(packed[k]))
            == sorted(range(len(mons)), key=lambda k: packed[k] ^ pk.rev,
                      reverse=True))
    for a, pa in zip(mons, packed):
        assert pa & pk.limit == sum(a)
        for b, pb in zip(mons, packed):
            assert pk.divides(pa, pb) == mon_divides(a, b)
            if sum(a) + sum(b) <= pk.limit:
                assert pa + pb == pk.pack(_tuple_product(a, b))
                assert pk.lcm(pa, pb) == pk.pack(_tuple_lcm(a, b))
    descending = sorted(set(mons), key=keyf, reverse=True)
    assert format_poly(Polynomial(T, dict.fromkeys(mons, 1)), order) == (
        " + ".join(format_poly(Polynomial(T, {m: 1}), order)
                   for m in descending))


@settings(max_examples=200, deadline=None)
@given(packing_cases())
def test_monomials_past_the_width_repack_wider(case):
    """The product of two monomials that fit the narrowest packing sets a
    guard bit exactly when its degree passes the limit; every monomial
    packs exactly at the packing ``wider`` gives for its degree, and one
    that fits the narrow packing repacks to its own packing there."""
    T, order, mons = case
    narrow = packing(order, T, 0)
    assert narrow.bits == 4 and narrow.limit == 15
    for m in mons:
        wide = narrow.wider(sum(m))
        assert wide.limit >= 2 * sum(m)
        assert wide.unpack(wide.pack(m)) == m
        if sum(m) <= narrow.limit:
            assert wide.repack(narrow.pack(m), narrow) == wide.pack(m)
    fitting = [m for m in mons if sum(m) <= narrow.limit]
    for a in fitting:
        for b in fitting:
            product = narrow.pack(a) + narrow.pack(b)
            assert (bool(product & narrow.guard)
                    == (sum(a) + sum(b) > narrow.limit))
