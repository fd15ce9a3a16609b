"""Base ring layer: primes, active elements, jets, precision bound."""

import random
from fractions import Fraction

import pytest

from neron import (ALGEBRA, BASE, Ideal, Polynomial, VarTable, ideal_equal,
                   ideal_quotient, mixed_order, parse_poly, std_basis)
from neron.errors import (ActiveElementNotFound, DecompositionIncomplete,
                          NeronError, NotAUnit, NotDivisible,
                          TargetInsidePrime)
from neron.localring import (Jet, LocalRingSpec, active_element,
                             check_precision_bound, compute_e, jet_divide,
                             jet_invert, minimal_primes)


def table2():
    return VarTable.make(("x1", BASE), ("x2", BASE))


def two_branch_ring():
    T = table2()
    J = [parse_poly(T, "x1*x2")]
    return LocalRingSpec(T, J, primes=minimal_primes(J, T))


def test_minimal_primes_two_lines():
    T = table2()
    out = minimal_primes([parse_poly(T, "x1*x2")], T)
    got = {tuple(sorted(str(g) for g in p)) for p in out}
    assert got == {("x1",), ("x2",)}


def test_minimal_primes_zero_ideal():
    T = table2()
    assert minimal_primes([], T) == [()]


def test_minimal_primes_with_multiplicities():
    T = table2()
    out = minimal_primes([parse_poly(T, "x1^2*x2^3")], T)
    got = {tuple(sorted(str(g) for g in p)) for p in out}
    assert got == {("x1",), ("x2",)}


def test_minimal_primes_incomplete_raises():
    T = table2()
    with pytest.raises(DecompositionIncomplete):
        minimal_primes([parse_poly(T, "x1^2 + x2^2")], T)


def test_validate_supplied_primes():
    T = table2()
    ring = LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                         primes=((parse_poly(T, "x1"),),
                                 (parse_poly(T, "x2"),)))
    assert ring.validate_primes()
    bad = LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                        primes=((parse_poly(T, "x1"),),),
                        check_dimension=False)
    with pytest.raises(NeronError):
        bad.validate_primes()


def test_active_element_examples():
    ring = two_branch_ring()
    T = ring.table
    target = [parse_poly(T, "(x1+x2)^2")]
    d = active_element(target, ring.prime_ideals, T, seed=1)
    assert d == parse_poly(T, "(x1+x2)^2")
    x1 = parse_poly(T, "x1")
    with pytest.raises(TargetInsidePrime):
        active_element([x1], (Ideal(T, [x1]),), T)
    combo = active_element([parse_poly(T, "x1^2"), parse_poly(T, "x2^2")],
                           ring.prime_ideals, T, seed=3)
    for p_gens in ring.primes:
        basis = std_basis(list(p_gens), T, ring.order)
        from neron import normal_form_against
        assert not normal_form_against(combo, basis, T, ring.order).is_zero()


def test_compute_e_examples():
    ring = two_branch_ring()
    T = ring.table
    assert compute_e(parse_poly(T, "(x1+x2)^2"), ring) == 1
    domain = LocalRingSpec(table2(), [], check_dimension=False)
    assert compute_e(parse_poly(domain.table, "x1"), domain) == 1
    # derived oracle: iterate colon ideals until stable for J = (x1^2*x2)
    T2 = table2()
    ring3 = LocalRingSpec(T2, [parse_poly(T2, "x1^2*x2")])
    d = parse_poly(T2, "x1 + x2")
    chain = [tuple(std_basis([parse_poly(T2, "x1^2*x2")], T2, ring3.order))]
    for _ in range(4):
        nxt = ideal_quotient(list(chain[-1]), [d], T2, ring3.order)
        chain.append(tuple(std_basis(list(nxt), T2, ring3.order)))
    stable = next(k for k in range(len(chain) - 1)
                  if ideal_equal(list(chain[k]), list(chain[k + 1]), T2,
                                 ring3.order))
    assert compute_e(d, ring3) == max(1, stable) == 1


def test_precision_bound_examples():
    ring = two_branch_ring()
    T = ring.table
    assert check_precision_bound(12, parse_poly(T, "(x1+x2)^2"), 1, ring)
    domain = LocalRingSpec(table2(), [], check_dimension=False)
    assert not check_precision_bound(1, parse_poly(domain.table, "x1"), 1,
                                     domain)
    # derived: reduce all degree-6 monomials for d = x1+x2, e = 1
    ok = check_precision_bound(6, parse_poly(T, "x1 + x2"), 1, ring)
    # oracle: (x1+x2)^3 = x1^3 + x2^3 mod x1*x2 so degree-6 monomials
    # x1^6, x2^6 and the mixed ones (killed by J) are all covered
    assert ok


def test_jet_arithmetic_truncates_to_min_precision():
    ring = two_branch_ring()
    T = ring.table
    a = ring.jet(parse_poly(T, "1 + x1 + x1^3"), 4)
    b = ring.jet(parse_poly(T, "x1"), 6)
    assert (a * b).precision == 4
    assert (a + b).precision == 4
    # canonical form drops J multiples
    c = ring.jet(parse_poly(T, "x1*x2 + x1"), 8)
    assert c.poly == parse_poly(T, "x1")


def test_jet_invert_examples():
    ring = two_branch_ring()
    T = ring.table
    one = ring.jet(parse_poly(T, "1"), 9)
    assert jet_invert(one).poly == parse_poly(T, "1")
    u = ring.jet(parse_poly(T, "1 + x1"), 4)
    assert jet_invert(u).poly == parse_poly(T, "1 - x1 + x1^2 - x1^3")
    rng = random.Random(5)
    for _ in range(6):
        terms = {(0, 0): rng.randint(1, 5)}
        for _ in range(4):
            terms[(rng.randint(0, 5), 0)] = rng.randint(-4, 4)
        u = ring.jet(Polynomial.from_terms(T, terms.items()), 7)
        if u.poly.constant_coefficient() == 0:
            continue
        z = jet_invert(u)
        assert (u * z - 1).is_zero()
    with pytest.raises(NotAUnit):
        jet_invert(ring.jet(parse_poly(T, "x1"), 5))


def test_jet_divide_examples():
    domain = LocalRingSpec(VarTable.make(("x", BASE),), [])
    T = domain.table
    z = jet_divide(domain.jet(parse_poly(T, "x^2"), 5),
                   domain.jet(parse_poly(T, "x"), 5))
    assert z.poly == parse_poly(T, "x") and z.precision == 4
    same = domain.jet(parse_poly(T, "x + x^3"), 6)
    assert jet_divide(same, same).poly == parse_poly(T, "1")
    ring = two_branch_ring()
    T2 = ring.table
    num = ring.jet(parse_poly(T2, "x1^6 + x2^6"), 12)
    den = ring.jet(parse_poly(T2, "(x1+x2)^4"), 12)
    q = jet_divide(num, den)
    assert (den * q - num).is_zero()
    with pytest.raises(NotDivisible):
        jet_divide(domain.jet(parse_poly(T, "x"), 5),
                   domain.jet(parse_poly(T, "x^2"), 5))


def test_jet_divide_non_uniqueness_is_harmless_mod_powers():
    # any solution agrees with any other modulo the annihilator of the
    # denominator; downstream uses only need the product identity
    ring = two_branch_ring()
    T = ring.table
    num = ring.jet(parse_poly(T, "x1^4"), 9)
    den = ring.jet(parse_poly(T, "x1^2"), 9)
    z = jet_divide(num, den)
    assert (den * z - num).is_zero()


def test_prime_list_invariants_after_decomposition():
    ring = two_branch_ring()
    T = ring.table
    from neron import normal_form_against, radical_membership
    for prime in ring.prime_ideals:
        for g in ring.j_gens:
            assert normal_form_against(g, prime.basis(ring.order), T,
                                       ring.order).is_zero()
    from neron import intersect
    meet = None
    for p_gens in ring.primes:
        meet = list(p_gens) if meet is None else intersect(
            meet, list(p_gens), T, ring.order)
    for g in meet:
        assert radical_membership(g, list(ring.j_gens), T)
