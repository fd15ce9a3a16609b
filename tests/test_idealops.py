"""Quotients, saturation, elimination, radical membership, syzygies, dimension."""

import random

import pytest

from neron import (ALGEBRA, BASE, Ideal, Polynomial, VarTable,
                   eliminate, global_order, ideal_quotient, intersect,
                   krull_dim, mixed_order, normal_form_against, parse_poly,
                   radical_membership, same_ideal, saturate, std_basis,
                   syzygies)


def table_xy():
    return VarTable.make(("x1", BASE), ("x2", BASE),
                         ("Y1", ALGEBRA), ("Y2", ALGEBRA))


def test_monomial_colon():
    T = table_xy()
    q = ideal_quotient([parse_poly(T, "x1*x2")], [parse_poly(T, "x1")], T)
    assert same_ideal(Ideal(T, q), Ideal(T, [parse_poly(T, "x2")]))


def test_colon_contains_x2_for_scaled_quadric():
    T = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA), ("Y3", ALGEBRA))
    J = [parse_poly(T, "x1^2 - x2*x3"), parse_poly(T, "x3^2 - x1*x2")]
    alpha = parse_poly(T, "x1*Y1^2 + x2*Y2^2 + x3*Y3^2 - x1 - x2 - x3")
    f1 = parse_poly(T, "x2") * alpha
    I = [f1, parse_poly(T, "x1") * alpha, parse_poly(T, "x3") * alpha]
    order = mixed_order(T)
    colon = ideal_quotient([f1] + J, I + J, T)
    basis = std_basis(list(colon), T, order)
    assert normal_form_against(parse_poly(T, "x2"), basis, T, order).is_zero()


def test_displayed_colon_identity_for_hypersurface():
    # ((Y1*Y2 - x^2, h1, h2) : x^2) equals the displayed ideal, both ways
    T = VarTable.make(("x", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA),
                      ("T1", ALGEBRA), ("T2", ALGEBRA))
    h1 = parse_poly(T, "Y1 - x - x*T1 + x^2*T2")
    h2 = parse_poly(T, "Y2 - x - x^2*T2")
    lhs = ideal_quotient([parse_poly(T, "Y1*Y2 - x^2"), h1, h2],
                         [parse_poly(T, "x^2")], T)
    rhs = [parse_poly(T, "x*T1*T2 - x^2*T2^2 + T1"), h1, h2]
    assert same_ideal(Ideal(T, lhs), Ideal(T, rhs))


def test_saturation_examples():
    T = table_xy()
    sat, k = saturate(Ideal(T, [parse_poly(T, "x1^2*x2")]),
                      parse_poly(T, "x1"))
    assert same_ideal(Ideal(T, sat), Ideal(T, [parse_poly(T, "x2")]))
    assert k == 2
    sat2, k2 = saturate(Ideal(T, [parse_poly(T, "x1*x2")]),
                        parse_poly(T, "x1 + x2"))
    # x1 + x2 avoids both minimal primes, so the chain is constant
    assert same_ideal(Ideal(T, sat2), Ideal(T, [parse_poly(T, "x1*x2")]))
    assert k2 == 0


def test_quotient_times_ideal_contained():
    T = table_xy()
    order = mixed_order(T)
    rng = random.Random(13)
    for _ in range(8):
        gens_i = [Polynomial.from_terms(
            T, [(tuple(rng.randint(0, 2) for _ in T.names), rng.randint(1, 3))
                for _ in range(2)]) for _ in range(2)]
        gens_j = [Polynomial.from_terms(
            T, [(tuple(rng.randint(0, 2) for _ in T.names), rng.randint(1, 3))
                for _ in range(2)])]
        gens_j = [g for g in gens_j if not g.is_zero()]
        if not gens_j:
            continue
        q = ideal_quotient(gens_i, gens_j, T)
        basis = std_basis([g for g in gens_i if not g.is_zero()], T, order)
        for a in q:
            for b in gens_j:
                assert normal_form_against(a * b, basis, T, order).is_zero()


def test_eliminate_examples():
    T = table_xy()
    # worked example: eliminating Y from (P, f, J) leaves ((x1+x2)^2, x1*x2)
    gens = [parse_poly(T, "(x1+x2)^2"), parse_poly(T, "x2*Y1 - x1*Y2"),
            parse_poly(T, "x1*x2")]
    out = eliminate(gens, (ALGEBRA,), T)
    assert same_ideal(Ideal(T, out), Ideal(T, [parse_poly(T, "(x1+x2)^2"),
                                               parse_poly(T, "x1*x2")]))
    out2 = eliminate([parse_poly(T, "Y1 - x1")], (ALGEBRA,), T)
    assert out2 == ()


def test_intersection_matches_membership_oracle():
    T = table_xy()
    order = mixed_order(T)
    rng = random.Random(17)
    for _ in range(6):
        a = [Polynomial.from_terms(
            T, [(tuple(rng.randint(0, 2) for _ in T.names), 1)])
            for _ in range(2)]
        b = [Polynomial.from_terms(
            T, [(tuple(rng.randint(0, 2) for _ in T.names), 1)])
            for _ in range(2)]
        meet = intersect(a, b, T)
        basis_a = std_basis(a, T, order)
        basis_b = std_basis(b, T, order)
        for p in meet:
            assert normal_form_against(p, basis_a, T, order).is_zero()
            assert normal_form_against(p, basis_b, T, order).is_zero()
        # oracle: monomial ideal intersection contains lcm of generators
        for pa in a:
            for pb in b:
                ma = next(iter(pa.terms))
                mb = next(iter(pb.terms))
                lcm = Polynomial.from_terms(
                    T, [(tuple(max(i, j) for i, j in zip(ma, mb)), 1)])
                meet_basis = std_basis(list(meet), T, order)
                assert normal_form_against(lcm, meet_basis, T,
                                           order).is_zero()


def test_radical_membership_examples():
    T = table_xy()
    assert radical_membership(parse_poly(T, "x1"), [parse_poly(T, "x1^2")], T)
    # powers agree with explicit membership on random monomial ideals
    rng = random.Random(31)
    order = global_order()
    for _ in range(6):
        gens = [Polynomial.from_terms(
            T, [(tuple(rng.randint(0, 2) for _ in T.names), 1)])
            for _ in range(2)]
        gens = [g for g in gens if not g.is_zero() and not g.is_constant()]
        if not gens:
            continue
        p = parse_poly(T, "x1*x2*Y1*Y2")
        inrad = radical_membership(p, gens, T)
        basis = std_basis(gens, T, order)
        explicit = any(
            normal_form_against(p ** m, basis, T, order).is_zero()
            for m in range(1, 7))
        assert inrad == explicit


def test_radical_non_membership_by_point():
    # x1 + x2 + x3 misses the radical of (x1^2 - x2*x3): the point
    # (1, 1, 1) lies on the variety but not on the hyperplane... the point
    # (1, -2, ...) shows it; the computation must answer False.
    T = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE))
    assert not radical_membership(parse_poly(T, "x1 + x2 + x3"),
                                  [parse_poly(T, "x1^2 - x2*x3")], T)
    # oracle: at the variety point (1, 1, 1), x1^2 - x2*x3 = 0 but the
    # candidate evaluates to 3 != 0
    val = parse_poly(T, "x1 + x2 + x3").substitute(
        {"x1": Polynomial.const(T, 1), "x2": Polynomial.const(T, 1),
         "x3": Polynomial.const(T, 1)})
    assert val == Polynomial.const(T, 3)


def test_syzygies_koszul_and_multiply_back():
    T = table_xy()
    out = syzygies([parse_poly(T, "x1"), parse_poly(T, "x2")], T)
    found = any((v[0] == parse_poly(T, "x2") and v[1] == parse_poly(T, "-x1"))
                or (v[0] == parse_poly(T, "-x2") and v[1] == parse_poly(T, "x1"))
                for v in out)
    assert found
    for v in out:
        acc = v[0] * parse_poly(T, "x1") + v[1] * parse_poly(T, "x2")
        assert acc.is_zero()


def test_syzygies_scaled_generators():
    T = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA), ("Y3", ALGEBRA))
    alpha = parse_poly(T, "x1*Y1^2 + x2*Y2^2 + x3*Y3^2 - x1 - x2 - x3")
    gens = [parse_poly(T, "x2") * alpha, parse_poly(T, "x1") * alpha,
            parse_poly(T, "x3") * alpha]
    out = syzygies(gens, T)
    for v in out:
        acc = Polynomial.zero(T)
        for q, g in zip(v, gens):
            acc = acc + q * g
        assert acc.is_zero()
    # the Koszul-style vector (x1, -x2, 0) appears up to scale
    target = (parse_poly(T, "x1"), parse_poly(T, "-x2"), Polynomial.zero(T))
    found = False
    for v in out:
        for c in (1, -1):
            if all((v[i] - target[i] * c).is_zero() for i in range(3)):
                found = True
    assert found


@pytest.mark.parametrize("texts, units", [
    (["x1", "0", "x2"], [1]),
    (["x1", "x1", "0"], [2]),
    (["0", "x1", "0"], [0, 2]),
])
def test_syzygies_list_zero_generators_first_and_once(texts, units):
    T = table_xy()
    gens = [parse_poly(T, g) for g in texts]
    out = syzygies(gens, T)
    assert len(set(out)) == len(out)
    one, zero = Polynomial.const(T, 1), Polynomial.zero(T)
    assert out[:len(units)] == tuple(
        tuple(one if i == j else zero for i in range(len(gens)))
        for j in units)
    for v in out:
        assert sum((q * g for q, g in zip(v, gens)), zero).is_zero()


def test_syzygies_single_nonzerodivisor():
    T = table_xy()
    out = syzygies([parse_poly(T, "x1 + x2")], T)
    assert out == ()


def test_krull_dim_examples():
    T = table_xy()
    assert krull_dim(Ideal(T, [parse_poly(T, "x1*x2")])) == 1
    assert krull_dim(Ideal(T, [parse_poly(T, "(x1+x2)^2"),
                               parse_poly(T, "x1*x2")])) == 0
    assert krull_dim(Ideal(T, [parse_poly(T, "1")])) == -1
    assert krull_dim(Ideal(T, [])) == 2
