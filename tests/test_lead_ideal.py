"""Local containment decided from the lead ideal of one standard basis.

Each test compares a lead-ideal answer with the membership answer that
does not use lead ideals: the normal form of every degree-N monomial for
``contains_power``, two-way containment for ``same_ideal``, and a colon
chain built here for ``compute_e``.
"""

import pytest

from conftest import random_certificate_instance, two_branch_problem
from neron import BASE, Ideal, Polynomial, VarTable, parse_poly
from neron.errors import CompletionFailed
from neron.idealops import quotient_by_poly, same_ideal
from neron.lifting import LiftingProblem, _completion_data, _jacobian_products
from neron.localring import (LocalRingSpec, compute_e, minimal_primes,
                             monomials_of_degree)

# d for J + (d^(2e+1)), besides each seed's own d; "1 + x1" is a unit
D_TEXTS_1 = ("x1", "x1^2", "x1 + x1^2", "3*x1^3 - x1^2", "1 + x1")
D_TEXTS_2 = ("x1", "x1 + x2", "x1 - x2^2", "(x1 + x2)^2", "x1^2 + x2^3")


def _power_by_membership(ring, ideal, N):
    """The oracle: (x)^N lies in the ideal iff every degree-N monomial
    has normal form zero."""
    T = ring.table
    return all(ideal.contains(Polynomial(T, {m: 1}))
               for m in monomials_of_degree(T, T.block(BASE), N))


def _equal_both_ways(a, b):
    return (all(b.contains(g) for g in a.basis())
            and all(a.contains(g) for g in b.basis()))


def _lift_problem(seed, rho):
    prob = random_certificate_instance(seed)
    approx = {nm: j.poly for nm, j in prob.morphism.jets.items()}
    return LiftingProblem(prob.ring, prob.relations,
                          tuple(range(len(prob.relations))), approx, rho, 80)


def _seed_d(seed):
    """d = (det H)(y') of the seed's lift, or None without a completion."""
    try:
        return _completion_data(_lift_problem(seed, 0))[1]
    except CompletionFailed:
        return None


@pytest.fixture(scope="module")
def seed_ds():
    return {seed: _seed_d(seed) for seed in range(32)}


def test_contains_power_matches_membership_on_hypothesis_ideals():
    """check_hypothesis's ideal (J, evaluated Jacobian data) at rho 0-3."""
    cases = agree_true = 0
    for seed in range(32):
        for rho in range(4):
            prob = _lift_problem(seed, rho)
            ring = prob.ring
            ideal = Ideal(ring.table,
                          _jacobian_products(prob) + list(ring.j_gens))
            got = ring.contains_power(ideal, rho)
            assert got == _power_by_membership(ring, ideal, rho), (seed, rho)
            cases += 1
            agree_true += got
    assert cases == 128 and 0 < agree_true < cases


def test_contains_power_matches_membership_on_precision_ideals(seed_ds):
    """J + (d^(2e+1)) for e = 1, 2 and N = 1-11: the precision bound."""
    seen = set()
    verdicts = set()
    for seed in range(32):
        ring = random_certificate_instance(seed).ring
        T = ring.table
        texts = D_TEXTS_2 if len(T.block(BASE)) == 2 else D_TEXTS_1
        ds = [parse_poly(T, t) for t in texts]
        if seed_ds[seed] is not None:
            ds.append(seed_ds[seed])
        for d in ds:
            for e in (1, 2):
                ideal = Ideal(T, list(ring.j_gens) + [d ** (2 * e + 1)])
                key = (T.block_names(BASE), ring.j_gens, ideal.gens[-1])
                if key in seen:
                    continue
                seen.add(key)
                for N in range(1, 12):
                    got = ring.contains_power(ideal, N)
                    assert got == _power_by_membership(ring, ideal, N), \
                        (seed, d, e, N)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_contains_power_on_a_cusp_and_the_unit_ideal():
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    cusp = LocalRingSpec(T, [parse_poly(T, "x1^2 - x2^3")])
    for text in ("x1", "x2", "x1 + x2", "x1^2 + x2^2"):
        d = parse_poly(T, text)
        for e in (1, 2):
            ideal = Ideal(T, list(cusp.j_gens) + [d ** (2 * e + 1)])
            for N in range(12):
                assert cusp.contains_power(ideal, N) == \
                    _power_by_membership(cusp, ideal, N), (text, e, N)
    # x2^3 is x1^2 modulo J, so (x)^N <= (J, x1) exactly from N = 3 on
    line = Ideal(T, list(cusp.j_gens) + [parse_poly(T, "x1")])
    assert [cusp.contains_power(line, N) for N in range(5)] == \
        [False, False, False, True, True]
    unit = Ideal(T, [parse_poly(T, "1 + x1")])
    assert cusp.contains_power(unit, 0)
    assert not cusp.contains_power(Ideal(T, list(cusp.j_gens)), 0)


def _colon_chain(ring, d, length):
    """J, (J : d), ((J : d) : d), ... built step by step."""
    T = ring.table
    chain = [Ideal(T, ring.j_gens)]
    for _ in range(length):
        chain.append(Ideal(T, quotient_by_poly(chain[-1].basis(), d, T)))
    return chain


def test_compute_e_matches_a_colon_chain_on_the_seeds(seed_ds):
    """Also same_ideal on consecutive ideals of each chain."""
    for seed, d in seed_ds.items():
        if d is None:
            continue
        ring = random_certificate_instance(seed).ring
        chain = _colon_chain(ring, d, 4)
        equal = [_equal_both_ways(a, b) for a, b in zip(chain, chain[1:])]
        assert equal == [same_ideal(a, b)
                         for a, b in zip(chain, chain[1:])], seed
        assert compute_e(d, ring) == max(1, equal.index(True)), seed


def _same_ideal_pairs():
    """(a, b) pairs: consecutive colon-chain ideals and the minimal
    prime components of the rings in the tests, each against the other
    components and against itself with J added to its generators."""
    pairs = []
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    T3 = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE))
    J = [parse_poly(T, "x1^2*x2^3")]
    rings = [two_branch_problem().ring,
             LocalRingSpec(T, J, primes=minimal_primes(J, T)),
             random_certificate_instance(0).ring,
             random_certificate_instance(3).ring]
    # primes minimal_primes cannot certify, given as in the problem files
    J = [parse_poly(T, "x1^2 - x2^3")]
    rings.append(LocalRingSpec(T, J, primes=(tuple(J),)))
    J = [parse_poly(T3, "x1^2 - x2*x3"), parse_poly(T3, "x3^2 - x1*x2")]
    rings.append(LocalRingSpec(T3, J, primes=tuple(
        tuple(parse_poly(T3, t) for t in group) for group in (
            ("x1", "x3"), ("x1 - x2", "x3 - x2"),
            ("x1 + x2 + x3", "x1^2 + x1*x2 + x2^2")))))
    for ring in rings:
        T = ring.table
        for text in ("x1", "x1 + x2", "x1^2 - x2^2", "x2^3"):
            if "x2" in text and len(T.block(BASE)) < 2:
                continue
            chain = _colon_chain(ring, parse_poly(T, text), 3)
            pairs += list(zip(chain, chain[1:]))
        comps = list(ring.prime_ideals)
        comps += [Ideal(T, p.gens + ring.j_gens) for p in comps]
        pairs += [(a, b) for a in comps for b in comps]
    return pairs


def test_same_ideal_matches_two_way_containment():
    pairs = _same_ideal_pairs()
    verdicts = []
    for a, b in pairs:
        got = same_ideal(a, b)
        assert got == _equal_both_ways(a, b), (a, b)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_same_ideal_ignores_redundant_leads():
    """Under the local order the basis of (x1^2, x1) keeps both elements;
    the lead ideal is still (x1)."""
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    x1 = parse_poly(T, "x1")
    redundant = Ideal(T, [x1 * x1, x1])
    assert redundant.leads() == frozenset({(1, 0)})
    assert same_ideal(redundant, Ideal(T, [x1]))
    assert same_ideal(Ideal(T, [x1]), redundant)
