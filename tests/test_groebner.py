"""Basis engine: Buchberger, Mora, witnesses, determinism."""

import random
import signal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import neron.groebner as groebner
from conftest import buchberger_criterion, lead, mon_divides
from neron import (ALGEBRA, BASE, DegRevLex, Ideal, Polynomial, VarTable,
                   global_order, NegDegRevLex,
                   lift_division, mixed_order, normal_form_against,
                   parse_poly, std_basis)
from neron.errors import NeronError, NotInIdeal
from neron.groebner import _reducers, classic_nf, mora_nf
from neron.orders import AUX, Packing, elim_order


def mon_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def table_xy():
    return VarTable.make(("x1", BASE), ("x2", BASE),
                         ("Y1", ALGEBRA), ("Y2", ALGEBRA))


def test_principal_monomial_ideal():
    T = table_xy()
    basis = std_basis([parse_poly(T, "x1*x2")], T, global_order())
    assert basis == (parse_poly(T, "x1*x2"),)


def test_hand_buchberger_mixed_order():
    # oracle computed by hand: spoly(x2*Y1 - x1*Y2, x1*x2) -> -x1^2*Y2,
    # which is irreducible, and every further S-polynomial reduces to zero.
    T = table_xy()
    g1 = parse_poly(T, "x2*Y1 - x1*Y2")
    g2 = parse_poly(T, "x1*x2")
    basis = std_basis([g1, g2], T, mixed_order(T))
    assert set(basis) == {g1, g2, parse_poly(T, "x1^2*Y2")}
    # lead terms witness that the monomial x2*Y1 heads an element
    keyf = mixed_order(T).key(T)
    leads = {lead(b, keyf)[0] for b in basis}
    assert (0, 1, 1, 0) in leads


def test_hypersurface_mixed_basis_exists():
    T = VarTable.make(("x", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA),
                      ("T1", ALGEBRA), ("T2", ALGEBRA))
    gens = [parse_poly(T, "Y1*Y2 - x^2"),
            parse_poly(T, "Y1 - x - x*T1 + x^2*T2"),
            parse_poly(T, "Y2 - x - x^2*T2")]
    basis = std_basis(gens, T, mixed_order(T))
    assert basis
    assert buchberger_criterion(basis, T, mixed_order(T))


def test_buchberger_criterion_on_cached_bases():
    T = table_xy()
    ideal = Ideal(T, (parse_poly(T, "x2*Y1 - x1*Y2"), parse_poly(T, "x1*x2")))
    assert buchberger_criterion(ideal.basis(), T, mixed_order(T))
    order = global_order()
    assert buchberger_criterion(std_basis(ideal.gens, T, order), T, order)


def test_ideal_basis_is_computed_once():
    """An Ideal computes one basis, under its table's mixed order, and
    every method reads it."""
    T = table_xy()
    ideal = Ideal(T, (parse_poly(T, "x2*Y1 - x1*Y2"), parse_poly(T, "x1*x2")))
    p = parse_poly(T, "x1*Y1")
    with mock.patch.object(groebner, "std_basis",
                           wraps=groebner.std_basis) as spy:
        basis = ideal.basis()
        ideal.leads()
        ideal.monomial_leads()
        ideal.contains(p)   # through nf
        ideal.reduce_full(p, cut=(T.block(BASE), 3))
        assert ideal.basis() is basis
    assert spy.call_count == 1
    assert basis == std_basis(ideal.gens, T, mixed_order(T))
    assert basis != std_basis(ideal.gens, T, global_order())


def _random_poly(T, rng, terms=5, maxdeg=3):
    return Polynomial.from_terms(
        T, [(tuple(rng.randint(0, maxdeg) for _ in T.names),
             rng.randint(-5, 5)) for _ in range(terms)])


def test_ideal_nf_agrees_with_normal_form_against():
    T = table_xy()
    rng = random.Random(11)
    for order in (global_order(), mixed_order(T)):
        for _ in range(6):
            ideal = Ideal(T, [_random_poly(T, rng, 3, 2) for _ in range(2)])
            basis = std_basis(ideal.gens, T, order)
            for _ in range(5):
                p = _random_poly(T, rng)
                r = normal_form_against(p, basis, T, order)
                member = p * ideal.gens[0]
                assert normal_form_against(member, basis, T, order).is_zero()
                if order != mixed_order(T):
                    continue
                assert ideal.nf(p) == r
                assert ideal.contains(p) == r.is_zero()
                assert ideal.contains(member)


def test_ideal_reduce_full_on_jet_ideal():
    # the ideal contains (x)^4, so full tail reduction terminates under
    # the local order, the mixed order of a table of base variables
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    assert mixed_order(T) == NegDegRevLex()
    gens = [parse_poly(T, "x1^2 - x2^3")]
    gens += [parse_poly(T, m) for m in ("x1^4", "x1^3*x2", "x1^2*x2^2",
                                        "x1*x2^3", "x2^4")]
    ideal = Ideal(T, gens)
    r = ideal.reduce_full(parse_poly(T, "x1 + x1^2 + x1^3"))
    assert r == parse_poly(T, "x1 + x2^3")
    assert ideal.contains(parse_poly(T, "x1^2 - x2^3"))
    assert not ideal.contains(parse_poly(T, "x2^3"))
    # the same remainder from (x1^2 - x2^3) alone under a degree cut at 4
    cut = Ideal(T, gens[:1]).reduce_full(
        parse_poly(T, "x1 + x1^2 + x1^3"), cut=((0, 1), 4))
    assert cut == r


def test_normal_form_examples():
    T = table_xy()
    rng = random.Random(2)
    order = global_order()
    basis = std_basis([parse_poly(T, "x1*x2")], T, order)
    for _ in range(10):
        q = _random_poly(T, rng)
        assert normal_form_against(parse_poly(T, "x1*x2") * q, basis, T,
                                   order).is_zero()
    h2 = std_basis([parse_poly(T, "x1")], T, order)
    assert normal_form_against(parse_poly(T, "x1 + x2"), h2, T, order) == \
        parse_poly(T, "x2")


def test_normal_form_gamma_membership():
    # gamma * (x1*Y1^2 + x2*Y2^2 + x3*Y3^2 - gamma) = f1 + f2 + f3 lies in I
    T = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA), ("Y3", ALGEBRA))
    alpha = parse_poly(T, "x1*Y1^2 + x2*Y2^2 + x3*Y3^2 - x1 - x2 - x3")
    I = [parse_poly(T, "x2") * alpha, parse_poly(T, "x1") * alpha,
         parse_poly(T, "x3") * alpha]
    ideal = Ideal(T, tuple(I))
    gamma = parse_poly(T, "x1 + x2 + x3")
    assert ideal.contains(gamma * alpha)


def test_witnessed_membership_re_expansion():
    T = table_xy()
    gens = [parse_poly(T, "x2*Y1 - x1*Y2"), parse_poly(T, "x1*x2")]
    order = mixed_order(T)
    w = lift_division(parse_poly(T, "x1^2*Y2"), gens, T, order)
    assert w.remainder.is_zero()
    assert w.check()
    # re-expand: unit * dividend equals the combination exactly
    acc = w.dividend * w.unit
    for q, g in zip(w.quotients, w.divisors):
        acc = acc - q * g
    assert acc.is_zero()


def test_lift_division_global_witness_unit_one():
    T = table_xy()
    gens = [parse_poly(T, "x1^2"), parse_poly(T, "x2^2")]
    w = lift_division(parse_poly(T, "x1^3 + x1*x2^2"), gens, T,
                      global_order())
    assert w.unit == parse_poly(T, "1")
    assert w.check() and w.remainder.is_zero()


def test_lift_division_not_in_ideal():
    T = table_xy()
    with pytest.raises(NotInIdeal):
        lift_division(parse_poly(T, "x1"), [parse_poly(T, "x2")], T,
                      global_order())


def test_mora_unit_is_one_plus_smaller_terms():
    # dividing x by x - x^2 in the localization needs a unit multiplier
    T = VarTable.make(("x", BASE),)
    order = NegDegRevLex()
    w = lift_division(parse_poly(T, "x"), [parse_poly(T, "x - x^2")], T,
                      order)
    assert w.remainder.is_zero()
    assert w.check()
    assert w.unit.constant_coefficient() == 1
    # (1 - x)*x = 1*(x - x^2)
    assert w.quotients == (Polynomial.const(T, 1),)
    assert w.unit == parse_poly(T, "1 - x")


def test_determinism_and_generator_order_independence():
    T = table_xy()
    gens = [parse_poly(T, "x2*Y1 - x1*Y2"), parse_poly(T, "x1*x2"),
            parse_poly(T, "x1^2*Y2 + x1*x2")]
    b1 = std_basis(gens, T, global_order())
    b2 = std_basis(gens, T, global_order())
    assert b1 == b2
    # reduced Groebner bases for global orders are canonical
    b3 = std_basis(list(reversed(gens)), T, global_order())
    assert set(b1) == set(b3)


def test_zero_and_unit_ideals():
    T = table_xy()
    assert std_basis([], T, global_order()) == ()
    assert std_basis([Polynomial.zero(T)], T, global_order()) == ()
    basis = std_basis([parse_poly(T, "2")], T, global_order())
    assert basis == (parse_poly(T, "1"),)


def test_normal_form_against_a_zero_basis_element_is_a_typed_error():
    T = table_xy()
    with pytest.raises(NeronError):
        normal_form_against(parse_poly(T, "x1"),
                            (parse_poly(T, "x2"), Polynomial.zero(T)), T,
                            global_order())


def test_mixed_order_rows_basis_stops_at_the_unit_it_reaches():
    """The S-polynomial of the two generators is -1 - x1, a unit under the
    mixed order (its lead is 1).  The basis is that unit, made monic, with
    the row that writes it through the generators."""
    T = table_xy()
    gens = [parse_poly(T, "Y1*Y2 - 1 - x1"), parse_poly(T, "Y1")]
    basis, rows = std_basis(gens, T, mixed_order(T), track="rows")
    assert basis == (parse_poly(T, "1 + x1"),)
    assert rows == ((parse_poly(T, "-1"), parse_poly(T, "Y2")),)
    assert rows[0][0] * gens[0] + rows[0][1] * gens[1] == basis[0]


# (generators, one expected syzygy up to sign, whether an S-polynomial is
# zero before any division): each case reaches one source of syzygies
SYZYGY_SOURCES = {
    "zero-generator": (["x1", "0"], ["0", "1"], None),
    "generator-reduces-to-zero": (["x1", "x2", "x1 + x2"], ["1", "1", "-1"],
                                  None),
    "zero-spoly": (["x1", "x2"], ["x2", "-x1"], True),
    "spoly-reduces-to-zero": (["x1 + x2^2", "x2 + x1^2"],
                              ["x2 + x1^2", "-x1 - x2^2"], False),
}


@pytest.mark.parametrize("which", ["mixed", "global"])
@pytest.mark.parametrize("case", SYZYGY_SOURCES)
def test_each_syzygy_source_multiplies_back(case, which):
    """A zero generator, a generator that reduces to zero, and a zero or
    zero-reducing S-polynomial (Koszul) each give their row as a syzygy."""
    T = table_xy()
    texts, want, zero_spoly = SYZYGY_SOURCES[case]
    gens = [parse_poly(T, g) for g in texts]
    order = mixed_order(T) if which == "mixed" else global_order()
    spolys, real = [], groebner.spoly

    def spy(*args):
        spolys.append(real(*args))
        return spolys[-1]

    with mock.patch.object(groebner, "spoly", spy):
        _, _, syz = std_basis(gens, T, order, track="syz")
    for v in syz:
        assert sum((q * g for q, g in zip(v, gens)),
                   Polynomial.zero(T)).is_zero()
    want = tuple(parse_poly(T, q) for q in want)
    assert want in syz or tuple(-q for q in want) in syz
    if zero_spoly is not None:
        assert [not s[0] for s in spolys] == [zero_spoly]


class _DeadlinePassed(Exception):
    pass


def _raise_deadline(signum, frame):
    raise _DeadlinePassed()


def test_unit_ideal_under_the_local_order_ends_at_once():
    """Under NegDegRevLex() the first generator is a unit (its lead is 1),
    so its monic multiple is the whole basis.  An interval timer turns a
    run that goes on pairing and reducing into a failure, not a hang."""
    T = table_nf()
    gens = [parse_poly(T, "5*x1*Y1 + 7*x1^2*x2^2*Y1 + 17/8 - x1*x2^2"),
            parse_poly(T, "-2*x1*x2*Y1 + 7*x1^2*x2^2*Y1 + 9*x1 + 4*x2")]
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        basis = std_basis(gens, T, NegDegRevLex())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert basis == (parse_poly(
        T, "40/17*x1*Y1 + 56/17*x1^2*x2^2*Y1 + 1 - 8/17*x1*x2^2"),)


# ---------------------------------------------------------------------------
# the fraction-free normal forms against the division on rational values

class ValueReducer:
    """A reducer on rational values: its lead, lead coefficient and ecart
    read off the polynomial with the order's tuple key."""

    def __init__(self, poly, keyf, idx):
        self.poly = poly
        self.lm, self.lc = lead(poly, keyf)
        self.ecart = poly.total_degree() - sum(self.lm)
        self.idx = idx


def value_reducers(gens, order):
    keyf = order.key(gens[0].table)
    return keyf, [ValueReducer(g, keyf, i) for i, g in enumerate(gens)]


def _value_subtract(h, g, t, coef):
    for gm, gc in g.poly.terms.items():
        key = tuple(a + b for a, b in zip(gm, t))
        acc = h.get(key, 0) - coef * gc
        if acc:
            h[key] = acc
        else:
            h.pop(key, None)


def value_classic_nf(p, gens, order, cut=None):
    """Long division on rational coefficients, one quotient term per step,
    with the reducer choice and the cut of ``classic_nf``."""
    def dropped(m):
        return cut is not None and sum(m[i] for i in cut[0]) >= cut[1]

    keyf, reducers = value_reducers(gens, order)
    h = {m: c for m, c in p.terms.items() if not dropped(m)}
    rem = {}
    while h:
        m = max(h, key=keyf)
        if dropped(m):
            del h[m]
            continue
        g = next((g for g in reducers if mon_divides(g.lm, m)), None)
        if g is None:
            rem[m] = h.pop(m)
            continue
        _value_subtract(h, g, mon_div(m, g.lm), Fraction(h[m]) / g.lc)
    return Polynomial.from_terms(p.table, rem.items())


def value_mora_nf(p, gens, order):
    """Mora's normal form on rational coefficients, with the ecart choice
    and the snapshots of ``mora_nf``."""
    keyf, local = value_reducers(gens, order)
    h = dict(p.terms)
    while h:
        m = max(h, key=keyf)
        cands = [g for g in local if mon_divides(g.lm, m)]
        if not cands:
            break
        g = min(cands, key=lambda e: (e.ecart, e.idx))
        if g.ecart > max(sum(k) for k in h) - sum(m):
            local.append(ValueReducer(
                Polynomial.from_terms(p.table, h.items()), keyf,
                10 ** 9 + len(local)))
        _value_subtract(h, g, mon_div(m, g.lm), Fraction(h[m]) / g.lc)
    return Polynomial.from_terms(p.table, h.items())


def table_nf():
    return VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA))


_NF_COEFFS = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(bool))


@st.composite
def nf_problems(draw):
    """A rational dividend and one to three nonzero rational reducers."""
    T = table_nf()
    mons = st.tuples(*[st.integers(0, 2)] * len(T))

    def poly(min_size):
        items = draw(st.lists(st.tuples(mons, _NF_COEFFS),
                              min_size=min_size, max_size=5))
        return Polynomial.from_terms(T, items)

    gens = [g for g in (poly(1) for _ in range(draw(st.integers(1, 3))))
            if not g.is_zero()]
    return T, poly(0), gens or [Polynomial.var(T, "x1")]


def _with_rows(nf, p, gens, prepared, pk, **kw):
    """The normal form with rows over the space gens + [p], starting from
    row {p: 1}; checks rem == sum(row[j] * space[j]) exactly."""
    T = p.table
    space = list(gens) + [p]
    rem, row = nf(p, prepared, pk,
                  row={len(gens): Polynomial.const(T, 1)}, **kw)
    total = Polynomial.zero(T)
    for j, q in row.items():
        total = total + q * space[j]
    assert total == rem
    return rem, row


@settings(max_examples=150, deadline=None)
@given(nf_problems())
def test_global_normal_forms_match_the_value_division(problem):
    T, p, gens = problem
    order = global_order()
    pk, prepared = _reducers(gens, order, T)
    want = value_classic_nf(p, gens, order)
    got = classic_nf(p, prepared, pk, full=True)[0]
    assert got == want
    rem, row = _with_rows(classic_nf, p, gens, prepared, pk, full=True)
    assert rem == want
    assert row[len(gens)] == Polynomial.const(T, 1)
    want = value_mora_nf(p, gens, order)
    assert mora_nf(p, prepared, pk)[0] == want
    assert _with_rows(mora_nf, p, gens, prepared, pk)[0] == want


@settings(max_examples=150, deadline=None)
@given(nf_problems(), st.integers(1, 5))
def test_mixed_order_normal_forms_match_the_value_division(problem, bound):
    T, p, gens = problem
    order = mixed_order(T)
    pk, prepared = _reducers(gens, order, T)
    want = value_mora_nf(p, gens, order)
    assert mora_nf(p, prepared, pk)[0] == want
    assert _with_rows(mora_nf, p, gens, prepared, pk)[0] == want
    cut = (T.block(BASE), bound)
    want = value_classic_nf(p, gens, order, cut)
    assert classic_nf(p, prepared, pk, cut=cut)[0] == want
    rows = classic_nf(p, prepared, pk, row={}, cut=cut)
    assert rows[0] == want


@st.composite
def deletion_problems(draw):
    """An order, a rational dividend, one to three single-term generators
    (a constant among them gives the unit ideal), whether the binomial
    x1^2*x2 - x2^3 joins them, and a base-degree cut or None.  Under the
    mixed order the binomial case always has a cut: long division by a
    basis that is not all single terms need not end there without one."""
    T = table_nf()
    which = draw(st.sampled_from(["mixed", "global"]))
    order = mixed_order(T) if which == "mixed" else global_order()
    mons = st.tuples(*[st.integers(0, 3)] * len(T))
    p = Polynomial.from_terms(T, draw(st.lists(st.tuples(mons, _NF_COEFFS),
                                               max_size=8)))
    gens = [Polynomial(T, {m: c}) for m, c in draw(st.lists(
        st.tuples(mons, _NF_COEFFS), min_size=1, max_size=3))]
    binomial = draw(st.booleans())
    bound = draw(st.one_of(st.none(), st.integers(0, 6)))
    if binomial and bound is None and which == "mixed":
        bound = 4
    return T, order, p, gens, binomial, bound


@settings(max_examples=200, deadline=None)
@given(deletion_problems())
def test_reduce_full_by_deletion_is_the_long_division(problem):
    """``Ideal.reduce_full`` deletes against a basis of single terms and
    gives ``classic_nf``'s remainder, with and without a cut; a basis
    that is not all single terms still goes through ``classic_nf``."""
    T, order, p, gens, binomial, bound = problem
    if binomial:
        gens = gens + [parse_poly(T, "x1^2*x2 - x2^3")]
    keyf = order.key(T)
    basis = std_basis(gens, T, order)
    leads = tuple(lead(b, keyf)[0] for b in basis)
    one_term = all(len(b.monomials()) == 1 for b in basis)
    assert binomial or one_term
    pk, prepared = _reducers(basis, order, T)
    cut = None if bound is None else (T.block(BASE), bound)
    want = classic_nf(p, prepared, pk, full=True, cut=cut)[0]
    if one_term:
        assert groebner.delete_multiples(p, leads, cut) == want
    if order != mixed_order(T):
        return
    ideal = Ideal(T, gens)
    assert ideal.monomial_leads() == (leads if one_term else None)
    with mock.patch.object(groebner, "classic_nf",
                           wraps=groebner.classic_nf) as spy:
        got = ideal.reduce_full(p, cut)
    assert got == want
    assert spy.called == (not one_term)


@settings(max_examples=100, deadline=None)
@given(nf_problems(), st.sampled_from(["mixed", "global"]))
def test_one_generator_division_computes_no_basis(problem, which):
    """Dividing by one generator divides by g itself, packed once, without
    ``std_basis``; the witness is the one the basis of [g, g], which
    ``std_basis`` computes, gives (the second copy reduces to zero)."""
    T, q, gens = problem
    order = mixed_order(T) if which == "mixed" else global_order()
    g = gens[0]
    p = q * g
    with mock.patch.object(groebner, "std_basis",
                           wraps=groebner.std_basis) as spy, \
            mock.patch.object(groebner, "_reducers",
                              wraps=groebner._reducers) as packs:
        w = lift_division(p, [g], T, order)
    assert not spy.called
    assert packs.call_count == (0 if p.is_zero() else 1)
    assert w.check() and w.remainder.is_zero()
    both = lift_division(p, [g, g], T, order)
    assert (w.unit, w.quotients) == (both.unit, both.quotients[:1])
    assert both.quotients[1].is_zero()


def test_normal_form_rescales_when_the_reducer_lead_does_not_divide():
    # the integer lead 3 of 3*x1 + x2 does not divide the lead 1 of the
    # dividend, so each step scales the dividend's integer terms by 3
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    g = parse_poly(T, "3*x1 + x2")
    p = parse_poly(T, "x1^2 + 1/2*x2")
    pk, prepared = _reducers([g], global_order(), T)
    want = parse_poly(T, "1/9*x2^2 + 1/2*x2")
    assert classic_nf(p, prepared, pk)[0] == want
    assert mora_nf(p, prepared, pk)[0] == want
    rem, row = _with_rows(classic_nf, p, [g], prepared, pk)
    assert rem == want
    assert row[0] == parse_poly(T, "-1/3*x1 + 1/9*x2")
    # the same under a local order, where 2*x1 leads 2*x1 + 3*x1^2
    g = parse_poly(T, "2*x1 + 3*x1^2")
    p = parse_poly(T, "x1*x2 + 5/7*x2^2")
    pk, prepared = _reducers([g], NegDegRevLex(), T)
    want = value_mora_nf(p, [g], NegDegRevLex())
    assert mora_nf(p, prepared, pk)[0] == want
    assert _with_rows(mora_nf, p, [g], prepared, pk)[0] == want


def test_local_bases_are_minimal():
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    order = mixed_order(T)

    def basis(*texts):
        return std_basis([parse_poly(T, t) for t in texts], T, order)

    assert basis("x1^2", "x1") == (parse_poly(T, "x1"),)
    assert basis("x1^2", "x1 + x2^3") == (parse_poly(T, "x1 + x2^3"),
                                          parse_poly(T, "x2^6"))


@st.composite
def maximal_ideal_gens(draw):
    """An order and one or two nonzero generators inside (x1, x2, Y1), of
    degree at most two in each x and one in Y1, free of Y1 under the local
    order.  With three generators, or Y1 under the local order, Mora's
    normal form can run for minutes (see CHANGES.md)."""
    T = table_nf()
    which = draw(st.sampled_from(["mixed", "local", "global"]))
    order = {"mixed": mixed_order(T), "local": NegDegRevLex(),
             "global": global_order()}[which]
    mons = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.just(0) if which == "local" else st.integers(0, 1))
    gens = [Polynomial.from_terms(T, draw(st.lists(
        st.tuples(mons.filter(any), _NF_COEFFS), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 2)))]
    return T, order, ([g for g in gens if not g.is_zero()]
                      or [Polynomial.var(T, "x1")])


@settings(max_examples=150, deadline=None)
@given(maximal_ideal_gens())
def test_standard_bases_are_minimal_for_every_order(problem):
    """No basis lead divides another, the basis generates the ideal of its
    generators, and ``Ideal.leads`` is the set of basis leads."""
    T, order, gens = problem
    keyf = order.key(T)
    basis = std_basis(gens, T, order)
    leads = [lead(b, keyf)[0] for b in basis]
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            assert i == j or not mon_divides(a, b)
    spanned = std_basis(basis, T, order)
    # equal at this order: equal lead ideals and one containment
    assert {lead(b, keyf)[0] for b in spanned} == set(leads)
    assert all(normal_form_against(g, spanned, T, order).is_zero()
               for g in basis)
    if order == mixed_order(T):
        assert Ideal(T, gens).leads() == frozenset(leads)


# ---------------------------------------------------------------------------
# the engine on packed monomials: widening, and sympy as a global oracle

def _spy_wider():
    return mock.patch.object(Packing, "wider", autospec=True,
                             side_effect=Packing.wider)


def test_normal_forms_repack_wider_mid_division():
    """Each reducer set fits 4-bit fields (limit 15).  Mora's step on the
    lead x1^13*x2 by x1 + x1^2*x2 makes terms of degree 16, and long division
    of t^4 by t - Y1^5 under the elimination order reaches Y1^20, so both
    divisions repack wider on the way; a dividend of degree 18 repacks
    before the first step.  Each still gives the value division's
    remainder."""
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    order = NegDegRevLex()
    g = parse_poly(T, "x1 + x1^2*x2")
    pk, prepared = _reducers([g], order, T)
    assert pk.limit == 15
    p = parse_poly(T, "x1^13*x2 + 3*x2^15")
    with _spy_wider() as spy:
        got = mora_nf(p, prepared, pk)[0]
    assert spy.called
    assert got == value_mora_nf(p, [g], order)

    E = VarTable.make(("Y1", ALGEBRA), ("t", AUX))
    order = elim_order(E, (AUX,))
    g = parse_poly(E, "t - Y1^5")
    pk, prepared = _reducers([g], order, E)
    assert pk.glob and pk.limit == 15
    for text, want in (("t^4 + Y1", "Y1^20 + Y1"),
                       ("Y1^17*t - 2", "Y1^22 - 2")):
        p = parse_poly(E, text)
        with _spy_wider() as spy:
            got = classic_nf(p, prepared, pk)[0]
        assert spy.called
        assert got == parse_poly(E, want) == value_classic_nf(p, [g], order)


def test_std_basis_repacks_wider_when_an_element_grows():
    """The generators have degree 5, so the basis starts at 4-bit fields,
    which hold elements up to degree 7; the element Y1^10 - Y1 repacks
    the basis and its pair queue wider.  The elimination order on (t, Y1)
    is lex, whose reduced basis sympy gives."""
    sympy = pytest.importorskip("sympy")
    E = VarTable.make(("Y1", ALGEBRA), ("t", AUX))
    gens = [parse_poly(E, "t - Y1^5"), parse_poly(E, "t^2 - Y1")]
    order = elim_order(E, (AUX,))
    with _spy_wider() as spy:
        basis = std_basis(gens, E, order)
    assert spy.called
    t, y1 = sympy.symbols("t Y1")
    want = sympy.groebner([t - y1 ** 5, t ** 2 - y1], t, y1, order="lex")
    assert set(basis) == {_from_sympy(E, g, (y1, t), order)
                          for g in want.exprs}


def _from_sympy(T, expr, syms, order):
    """The sympy expression over ``syms`` (in table order), made monic
    under ``order``."""
    import sympy
    p = Polynomial(T, {m: Fraction(int(c.p), int(c.q))
                       for m, c in sympy.Poly(expr, *syms).terms()})
    return p * (1 / Fraction(lead(p, order.key(T))[1]))


@st.composite
def global_gens(draw):
    """One to three nonzero generators over two or three variables, of at
    most three terms of degree at most three with small coefficients."""
    n = draw(st.integers(2, 3))
    T = VarTable(tuple(f"x{i}" for i in range(1, n + 1)), (BASE,) * n)
    mons = st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 3)
    gens = [Polynomial.from_terms(T, draw(st.lists(
        st.tuples(mons, st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=3))) for _ in range(draw(st.integers(1, 3)))]
    return T, [g for g in gens if not g.is_zero()] or [
        Polynomial.var(T, "x1")]


@settings(max_examples=60, deadline=5000)
@given(global_gens())
def test_global_bases_are_sympys_reduced_basis(problem):
    """Under DegRevLex(), std_basis is the reduced Groebner basis, which
    is unique: sympy's grevlex basis, made monic, with the variables in
    table order."""
    import sympy
    T, gens = problem
    syms = sympy.symbols(T.names)
    exprs = [sum(int(c) * sympy.prod([s ** e for s, e in zip(syms, m)])
                 for m, c in g.terms.items()) for g in gens]
    want = sympy.groebner(exprs, *syms, order="grevlex")
    got = std_basis(gens, T, DegRevLex())
    assert set(got) == {_from_sympy(T, e, syms, DegRevLex())
                        for e in want.exprs}
    assert len(got) == len(want.exprs)


@st.composite
def homogeneous_memberships(draw):
    """One to three generators over x1, x2, x3, each homogeneous of degree
    one to three, and a dividend: a combination of them, plus a tail
    unless the draw makes it a member."""
    T = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE))
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))

    def terms(mons):
        return Polynomial.from_terms(T, draw(st.lists(
            st.tuples(mons, coeffs), min_size=1, max_size=3)))

    def homogeneous(deg):
        return terms(st.integers(0, deg).flatmap(
            lambda a: st.integers(0, deg - a).map(
                lambda b: (a, b, deg - a - b))))

    gens = [g for g in (homogeneous(draw(st.integers(1, 3)))
                        for _ in range(draw(st.integers(1, 3))))
            if not g.is_zero()] or [Polynomial.var(T, "x1")]
    mons = st.tuples(*[st.integers(0, 2)] * 3)
    p = Polynomial.zero(T)
    for g in gens:
        p = p + terms(mons) * g
    if not draw(st.booleans()):
        p = p + terms(mons)
    return T, gens, p


@settings(max_examples=100, deadline=5000)
@given(homogeneous_memberships())
def test_local_membership_in_a_homogeneous_ideal_is_sympys(problem):
    """Local membership for ecart-0 bases: under NegDegRevLex() the
    standard basis of a homogeneous ideal is homogeneous, so every reducer
    has ecart 0, Mora's rule takes the first divisor and no snapshot
    fires.  A homogeneous ideal's associated primes lie in (x), so
    localizing at (x) adds no members, and membership in the polynomial
    ring, which sympy's grevlex basis decides, is the oracle.  Snapshots
    are covered by the ``value_mora_nf`` tests above."""
    import sympy
    T, gens, p = problem
    assert mixed_order(T) == NegDegRevLex()
    syms = sympy.symbols(T.names)

    def expr(q):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod([s ** e for s, e in zip(syms, m)])
                    for m, c in q.terms.items()), sympy.Integer(0))

    want = sympy.groebner([expr(g) for g in gens], *syms,
                          order="grevlex").contains(expr(p))
    event("member" if want else "not a member")
    assert Ideal(T, gens).contains(p) == want
