"""Basis engine: Buchberger, Mora, witnesses, determinism."""

import random
from fractions import Fraction

import pytest

from neron import (ALGEBRA, BASE, Ideal, Polynomial, VarTable,
                   buchberger_criterion, divide_with_witness, global_order,
                   lift_division, local_order, mixed_order,
                   normal_form_against, parse_poly, std_basis)
from neron.errors import NotInIdeal


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
    leads = {b.lead(keyf)[0] for b in basis}
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
    for order in (global_order(), mixed_order(T)):
        basis = ideal.basis(order)
        assert buchberger_criterion(basis, T, order)


def test_ideal_basis_is_computed_once_per_order():
    T = table_xy()
    ideal = Ideal(T, (parse_poly(T, "x2*Y1 - x1*Y2"), parse_poly(T, "x1*x2")))
    for order in (global_order(), mixed_order(T)):
        basis = ideal.basis(order)
        assert ideal.basis(order) is basis
        assert basis == std_basis(ideal.gens, T, order)
    assert ideal.basis(global_order()) != ideal.basis(mixed_order(T))


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
            basis = ideal.basis(order)
            for _ in range(5):
                p = _random_poly(T, rng)
                r = ideal.nf(p, order)
                assert r == normal_form_against(p, basis, T, order)
                assert ideal.contains(p, order) == r.is_zero()
                member = p * ideal.gens[0]
                assert ideal.contains(member, order)


def test_ideal_reduce_full_on_jet_ideal():
    # the ideal contains (x)^4, so full tail reduction terminates under
    # the local order
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    order = local_order()
    gens = [parse_poly(T, "x1^2 - x2^3")]
    gens += [parse_poly(T, m) for m in ("x1^4", "x1^3*x2", "x1^2*x2^2",
                                        "x1*x2^3", "x2^4")]
    ideal = Ideal(T, gens)
    r = ideal.reduce_full(parse_poly(T, "x1 + x1^2 + x1^3"), order)
    assert r == parse_poly(T, "x1 + x2^3")
    assert ideal.contains(parse_poly(T, "x1^2 - x2^3"), order)
    assert not ideal.contains(parse_poly(T, "x2^3"), order)
    # the same remainder from (x1^2 - x2^3) alone under a degree cut at 4
    cut = Ideal(T, gens[:1]).reduce_full(
        parse_poly(T, "x1 + x1^2 + x1^3"), order, cut=((0, 1), 4))
    assert cut == r


def test_normal_form_examples():
    T = table_xy()
    rng = random.Random(2)
    ideal = Ideal(T, (parse_poly(T, "x1*x2"),))
    for _ in range(10):
        q = _random_poly(T, rng)
        assert ideal.nf(parse_poly(T, "x1*x2") * q, global_order()).is_zero()
    h2 = Ideal(T, (parse_poly(T, "x1"),))
    assert h2.nf(parse_poly(T, "x1 + x2"), global_order()) == \
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
    assert ideal.contains(gamma * alpha, mixed_order(T))


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
    order = local_order()
    w = divide_with_witness(parse_poly(T, "x"), [parse_poly(T, "x - x^2")],
                            T, order)
    assert w.remainder.is_zero()
    assert w.check()
    assert w.unit.constant_coefficient() == 1


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
