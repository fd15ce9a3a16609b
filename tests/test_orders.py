"""Term order semantics: global, local and block orders."""

from neron import (ALGEBRA, BASE, NegDegRevLex, VarTable, elim_order,
                   global_order, mixed_order, parse_poly)


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
    lm, lc = p.lead(keyf)
    assert lm == (0, 1, 1, 0) and lc == 1
