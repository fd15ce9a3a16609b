"""Base ring layer: primes, active elements, jets, precision bound."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neron.groebner as groebner
import neron.idealops
import neron.localring
from neron import (ALGEBRA, BASE, Ideal, Polynomial, VarTable,
                   ideal_quotient, mixed_order, parse_poly, same_ideal,
                   std_basis)
from neron.errors import (ActiveElementNotFound, DecompositionIncomplete,
                          NeronError, NotAUnit, NotDivisible,
                          PreconditionFailed, TargetInsidePrime)
from neron.desing import _survives
from neron.localring import (SMALL_VALUES, Jet, LocalRingSpec, _solve_exact,
                             active_element, check_precision_bound, compute_e,
                             jet_divide, jet_invert, minimal_primes,
                             monomials_of_degree, newton_inverse,
                             small_vectors_by_norm)


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


def test_primes_outside_the_base_block_rejected():
    # jets reduce by each P_i under a degree cut in the base variables,
    # which is exact only for ideals of the base variables
    T = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA))
    with pytest.raises(NeronError, match="base block"):
        LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                      primes=((parse_poly(T, "x1 - x2*Y1"),),
                              (parse_poly(T, "x2"),)))


def test_active_element_examples():
    ring = two_branch_ring()
    T = ring.table
    target = [parse_poly(T, "(x1+x2)^2")]
    d = active_element(target, ring.prime_ideals, T)
    assert d == parse_poly(T, "(x1+x2)^2")
    x1 = parse_poly(T, "x1")
    with pytest.raises(TargetInsidePrime):
        active_element([x1], (Ideal(T, [x1]),), T)
    combo = active_element([parse_poly(T, "x1^2"), parse_poly(T, "x2^2")],
                           ring.prime_ideals, T)
    order = mixed_order(T)
    for p_gens in ring.primes:
        basis = std_basis(list(p_gens), T, order)
        from neron import normal_form_against
        assert not normal_form_against(combo, basis, T, order).is_zero()


def test_active_element_tries_each_multiple_once():
    # one generator g leaves six combinations besides g itself (+-1, +-2,
    # +-3 times g); each is offered to accept once, then the search stops
    ring = two_branch_ring()
    T = ring.table
    g = parse_poly(T, "(x1+x2)^2")
    offered = []

    def refuse(d):
        offered.append(d)
        return False

    with pytest.raises(ActiveElementNotFound):
        active_element([g], ring.prime_ideals, T, accept=refuse)
    assert len(offered) <= 7
    assert offered == [g * c for c in (1, -1, 2, -2, 3, -3)]


def test_active_element_combines_the_first_generator():
    # only g1 = x2 avoids (x1), and g1 lies in (x2): no generator is active,
    # and every active combination has c1 != 0.  In product order the first
    # 7^4 - 1 vectors have c1 = 0, more than the attempt budget.
    ring = two_branch_ring()
    T = ring.table
    gens = [parse_poly(T, t) for t in ("x2", "x1", "x1^2", "x1^3", "x1^4")]
    d = active_element(gens, ring.prime_ideals, T)
    assert d == parse_poly(T, "x2 + x1^4")
    assert not any(p.contains(d) for p in ring.prime_ideals)


def small_vectors(n):
    """Nonzero vectors of length n with entries in SMALL_VALUES, each once,
    in ``itertools.product`` order: the reference the search sorts."""
    for vec in itertools.product(SMALL_VALUES, repeat=n):
        if any(vec):
            yield vec


def test_small_vectors_by_norm_is_product_order_sorted_by_norm():
    norm = lambda vec: sum(abs(c) for c in vec)
    for n in (1, 2, 3, 4):
        by_norm = sorted(small_vectors(n), key=norm)   # a stable sort
        assert list(small_vectors_by_norm(n)) == by_norm
        assert list(small_vectors_by_norm(n, 2, 5)) == [
            vec for vec in by_norm if 2 <= norm(vec) <= 5]
    assert list(small_vectors_by_norm(3, 1, 1)) == [
        (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)]


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
    order = mixed_order(T2)
    chain = [tuple(std_basis([parse_poly(T2, "x1^2*x2")], T2, order))]
    for _ in range(4):
        nxt = ideal_quotient(list(chain[-1]), [d], T2)
        chain.append(tuple(std_basis(list(nxt), T2, order)))
    stable = next(k for k in range(len(chain) - 1)
                  if same_ideal(Ideal(T2, chain[k]), Ideal(T2, chain[k + 1])))
    assert compute_e(d, ring3) == max(1, stable) == 1


def test_compute_e_of_a_unit_takes_no_colon(monkeypatch):
    """A d with a nonzero constant term is a unit of A: (0 : d^k) = 0, so
    e = 1 without a standard basis."""
    ring = two_branch_ring()
    calls = []

    def spying(fn):
        def spy(*args, **kw):
            calls.append(fn.__name__)
            return fn(*args, **kw)
        return spy

    for module in (groebner, neron.idealops):
        monkeypatch.setattr(module, "std_basis", spying(module.std_basis))
    for text in ("1 + x1", "-2 + x1*x2 + x2^3", "3"):
        assert compute_e(parse_poly(ring.table, text), ring) == 1
    assert calls == []


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


def test_jet_power_makes_k_minus_one_products(monkeypatch):
    ring = two_branch_ring()
    T = ring.table
    a = ring.jet(parse_poly(T, "1 + x1 + x2^2"), 6)
    products = []
    real = Jet.__mul__

    def counted(self, other):
        products.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    for k in range(6):
        products.clear()
        power = a ** k
        assert len(products) == max(k - 1, 0), k
        assert power.precision == 6
        want = ring.jet(parse_poly(T, f"(1 + x1 + x2^2)^{k}"), 6)
        assert power == want, k


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


def test_jet_invert_edges_on_each_ring():
    ring = two_branch_ring()
    T = ring.table
    # precision 1: the constant 1/c, whatever the higher terms
    z = jet_invert(ring.jet(parse_poly(T, "3 + x1 - 5*x2^2"), 1))
    assert z.precision == 1 and z.poly == Polynomial.const(T, Fraction(1, 3))
    # a fractional constant term
    u = ring.jet(parse_poly(T, "2/3 + x1 - x2"), 6)
    z = jet_invert(u)
    assert z.poly.constant_coefficient() == Fraction(3, 2)
    assert (u * z - 1).is_zero()
    # precisions that are not powers of two: the geometric series
    line = LocalRingSpec(VarTable.make(("x", BASE),), [])
    L = line.table
    for n in (5, 81):
        z = jet_invert(line.jet(parse_poly(L, "1 + x"), n))
        assert z.precision == n
        assert z.poly == Polynomial.from_terms(
            L, [((k,), (-1) ** k) for k in range(n)])
    with pytest.raises(NotAUnit):
        jet_invert(ring.jet(parse_poly(T, "x1 - x2^3"), 81))
    # a nonzero constant plus a term of x-degree 0 in Y is not a unit
    TY = VarTable.make(("x1", BASE), ("Y1", ALGEBRA))
    with pytest.raises(NotAUnit):
        jet_invert(LocalRingSpec(TY, [], check_dimension=False).jet(
            parse_poly(TY, "1 + Y1"), 4))


def test_j_basis_is_computed_once_per_ring(monkeypatch):
    T = table2()
    J = [parse_poly(T, "x1*x2")]
    primes = ((parse_poly(T, "x1"),), (parse_poly(T, "x2"),))
    calls = []
    real = groebner.std_basis

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "std_basis", counted)
    ring = LocalRingSpec(T, J, primes=primes)
    ring.reduce_jet(parse_poly(T, "x1^2*x2 + x1 + x2^5"), 4)
    assert len(calls) == 1


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


def test_jet_divide_solves_exactly():
    # the linear system path (constant term 0) divides by an integer pivot
    domain = LocalRingSpec(VarTable.make(("x", BASE),), [])
    T = domain.table
    num = domain.jet(parse_poly(T, "x + x^2"), 5)
    den = domain.jet(parse_poly(T, "3*x"), 5)
    z = jet_divide(num, den)
    assert z.poly == parse_poly(T, "1/3 + 1/3*x")
    assert (den * z - num).is_zero()


# jet division and inversion of a unit: the rings, each with the table
# its J lives in.  J = 0 has one base variable, so the ring has dimension
# 1; the binomial J is the one whose inverse is Newton's (newton_inverse).
_UNIT_TABLE = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA))
_LINE_TABLE = VarTable.make(("x1", BASE), ("Y1", ALGEBRA))
_UNIT_RINGS = ((LocalRingSpec(_LINE_TABLE, []), False),) + tuple(
    (LocalRingSpec(_UNIT_TABLE, [parse_poly(_UNIT_TABLE, t)]), newton)
    for t, newton in (("x1*x2", False), ("x1^2*x2", False),
                      ("x1^2*x2 - x2^3", True)))
_UNIT_COEFFS = st.one_of(
    st.builds(lambda k, e: Fraction(k, 2 ** e),
              st.integers(-99, 99).filter(bool), st.integers(0, 12)),
    st.builds(Fraction, st.integers(-99, 99).filter(bool),
              st.integers(1, 9)))


@st.composite
def unit_divisions(draw):
    """A ring, its flag for Newton's path, and jets num and den at one
    precision from 1 to 90: den a nonzero constant plus up to 19 terms of
    positive x-degree in the base, num up to 8 terms, some with Y1."""
    ring, newton = draw(st.sampled_from(_UNIT_RINGS))
    table = ring.table
    nbase = len(ring.base)
    n = draw(st.integers(1, 90))

    def base_mon(low):
        exps = draw(st.lists(st.integers(0, 8), min_size=nbase,
                             max_size=nbase))
        exps[0] = max(exps[0], low - sum(exps[1:]))
        return tuple(exps)

    den = [((0,) * len(table), draw(_UNIT_COEFFS))]
    for _ in range(draw(st.integers(0, 19))):
        den.append((base_mon(1) + (0,), draw(_UNIT_COEFFS)))
    num = [(base_mon(0) + (draw(st.integers(0, 2)),), draw(_UNIT_COEFFS))
           for _ in range(draw(st.integers(1, 8)))]
    return (ring, newton, ring.jet(Polynomial.from_terms(table, num), n),
            ring.jet(Polynomial.from_terms(table, den), n))


@settings(max_examples=100, deadline=20000)
@given(unit_divisions())
def test_jet_divide_by_a_unit_matches_newtons_inverse(data):
    """Division by a unit is Newton's inverse times num, the unique
    quotient; it takes Newton's path only for a J that is not monomial."""
    ring, newton, num, den = data
    n = num.precision
    want = (num.truncate(n) * newton_inverse(den.truncate(n))).truncate(n)
    with mock.patch.object(neron.localring, "jet_invert",
                           wraps=jet_invert) as spy:
        assert jet_divide(num, den) == want
    assert spy.called == (newton and not den.poly.is_constant()
                          and not num.is_zero() and num.poly != den.poly)


def test_jet_divide_by_a_unit_edges():
    for ring, _ in _UNIT_RINGS:
        T = ring.table
        # a constant den scales at any precision, at once
        huge = 10 ** 29
        num = ring.jet(parse_poly(T, "x1 + 1/2*x1^3*Y1"), huge)
        z = jet_divide(num, ring.jet(Polynomial.const(T, Fraction(-3, 4)),
                                     huge))
        assert z.precision == huge
        assert z.poly == parse_poly(T, "-4/3*x1 - 2/3*x1^3*Y1")
        # a nonzero constant plus Y1, of x-degree 0, is not a unit
        with pytest.raises(NotAUnit):
            jet_divide(num.truncate(4), ring.jet(parse_poly(T, "1 + Y1"), 4))
        # Y1 may ride on den's terms of positive x-degree
        den = ring.jet(parse_poly(T, "2 + x1*Y1 - 3*x1^2"), 8)
        z = jet_divide(num.truncate(8), den)
        assert z == (num.truncate(8) * newton_inverse(den)).truncate(8)
        assert (den * z - num.truncate(8)).is_zero()


@settings(max_examples=100, deadline=20000)
@given(unit_divisions())
def test_jet_invert_by_the_recurrence_matches_newtons_inverse(data):
    """The inverse of a unit is unique in canonical form: over a J of
    single terms the degree-by-degree recurrence gives Newton's inverse,
    and only the binomial J takes Newton's path."""
    ring, newton, _, den = data
    with mock.patch.object(neron.localring, "newton_inverse",
                           wraps=newton_inverse) as spy:
        z = jet_invert(den)
    assert z == newton_inverse(den)
    assert spy.called == (newton and not den.poly.is_constant())


def test_jet_invert_edges():
    for ring, newton in _UNIT_RINGS:
        T = ring.table
        # a constant unit inverts at any precision, at once
        huge = 10 ** 29
        z = jet_invert(ring.jet(Polynomial.const(T, Fraction(-3, 4)), huge))
        assert z.precision == huge
        assert z.poly == Polynomial.const(T, Fraction(-4, 3))
        # a nonzero constant plus Y1, of x-degree 0, is not a unit
        with pytest.raises(NotAUnit):
            jet_invert(ring.jet(parse_poly(T, "1 + Y1"), 4))
        # the recurrence would take one step per degree below 10^29
        if not newton:
            with pytest.raises(PreconditionFailed, match=str(huge)):
                jet_invert(ring.jet(parse_poly(T, "1 + x1"), huge))


def test_jet_times_a_constant_polynomial_scales():
    """A constant polynomial factor scales the jet as its value does, and
    no reduction runs."""
    cases = []
    for ring, _ in _UNIT_RINGS:
        T = ring.table
        jet = ring.jet(parse_poly(T, "1/3 - x1 + 5/7*x1^2*Y1 + x1^4"), 6)
        for c in (0, 1, -2, Fraction(7, 12)):
            const = Polynomial.const(T, c)
            want = jet * c
            assert want == jet * ring.jet(const, 6)
            cases.append((jet, const, want))
    with mock.patch.object(LocalRingSpec, "reduce_jet", autospec=True,
                           side_effect=LocalRingSpec.reduce_jet) as spy:
        for jet, const, want in cases:
            assert jet * const == want and const * jet == want
    assert not spy.called


_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, Fraction(1, 2),
                            Fraction(-5, 3)])


@st.composite
def linear_systems(draw):
    """A small rational system A z = b.  Half the time the last equation
    repeats the first with another right-hand side, which makes most of
    these systems inconsistent."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    A = [[draw(_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    b = [draw(_ENTRIES) for _ in range(nrows)]
    if draw(st.booleans()):
        A.append(list(A[0]))
        b.append(b[0] + draw(st.sampled_from([1, Fraction(2, 3)])))
    return A, b


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_exact_matches_sympy(system):
    """The fraction-free elimination returns sympy's Gauss-Jordan solution
    with every free parameter set to zero, and None exactly when sympy
    finds no solution."""
    import sympy
    A, b = system
    try:
        sol, params = sympy.Matrix(A).gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:
        want = None
    else:
        sol = sol.subs({t: 0 for t in params})
        want = [Fraction(int(x.p), int(x.q)) for x in sol]
    assert _solve_exact(A, b) == want


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
            assert normal_form_against(g, prime.basis(), T,
                                       mixed_order(T)).is_zero()
    from neron import intersect
    meet = None
    for p_gens in ring.primes:
        meet = list(p_gens) if meet is None else intersect(
            meet, list(p_gens), T)
    for g in meet:
        assert radical_membership(g, list(ring.j_gens), T)


def _degree_cut_rings():
    """(ring, label) pairs for the degree-cut differential test."""
    T2 = table2()
    T3 = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE))
    out = [(LocalRingSpec(T2, [], primes=minimal_primes([], T2),
                          check_dimension=False), "J = 0")]
    for text in ("x1*x2", "x1^2*x2"):
        J = [parse_poly(T2, text)]
        out.append((LocalRingSpec(T2, J, primes=minimal_primes(J, T2)), text))
    # the space curve: a line, the diagonal and a conjugate pair of lines
    J = [parse_poly(T3, "x1^2 - x2*x3"), parse_poly(T3, "x3^2 - x1*x2")]
    primes = tuple(tuple(parse_poly(T3, t) for t in group) for group in (
        ("x1", "x3"), ("x1 - x2", "x3 - x2"),
        ("x1 + x2 + x3", "x1^2 + x1*x2 + x2^2")))
    curve = LocalRingSpec(T3, J, primes=primes)
    assert curve.validate_primes()
    out.append((curve, "space curve"))
    # a non-homogeneous J: reduction pushes terms above the cut
    J = [parse_poly(T2, "x1^2 - x2^3")]
    out.append((LocalRingSpec(T2, J, primes=(tuple(J),)), "cusp"))
    return out


def _reference_cut_ideal(ring, N, prime=None):
    """J + (x)^N, or P_i + J + (x)^N, with (x)^N listed monomial by
    monomial: the explicit-generator ideal the degree cut replaces."""
    T = ring.table
    gens = list(ring.j_gens) + [
        Polynomial(T, {m: 1})
        for m in monomials_of_degree(T, T.block(BASE), N)]
    if prime is not None:
        gens = list(ring.primes[prime]) + gens
    return Ideal(T, gens)


def _random_base_poly(T, rng, max_degree):
    n = len(T)
    terms = []
    for _ in range(rng.randint(1, 6)):
        deg = rng.randint(0, max_degree)
        m = [0] * n
        for _ in range(deg):
            m[rng.randrange(n)] += 1
        terms.append((tuple(m), Fraction(rng.randint(-4, 4),
                                         rng.randint(1, 3))))
    return Polynomial.from_terms(T, terms)


@pytest.mark.parametrize("index", range(5))
def test_degree_cut_matches_explicit_generators(index):
    """reduce_jet and the survival test under the degree cut agree with
    division by a basis of J + (x)^N and P_i + J + (x)^N, the ideals built
    from the degree-N monomials."""
    ring, label = _degree_cut_rings()[index]
    T = ring.table
    rng = random.Random(800 + index)
    gens = list(ring.j_gens) + [g for p in ring.primes for g in p]
    nonzero = 0
    for N in range(1, 9):
        ref = _reference_cut_ideal(ring, N)
        ref_primes = [_reference_cut_ideal(ring, N, i)
                      for i in range(len(ring.primes))]
        for _ in range(6):
            p = _random_base_poly(T, rng, N + 2)
            if gens and rng.random() < 0.5:
                # a multiple of a generator plus a tail above the cut
                p = p * rng.choice(gens) + _random_base_poly(T, rng, N + 3)
            got = ring.reduce_jet(p, N)
            assert got == ref.reduce_full(p), (label, N, p)
            nonzero += not got.is_zero()
            jet = ring.jet(p, N)
            for i, ref_prime in enumerate(ref_primes):
                assert _survives(ring, N, jet, i) == (
                    not ref_prime.contains(jet.poly)), (label, N, i, p)
    assert nonzero


# ---------------------------------------------------------------------------
# the canonical-jet invariant: jet arithmetic equals the canonical form of
# the uncut polynomial operation

_JET_TABLE = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA))
_JET_RINGS = tuple(
    LocalRingSpec(_JET_TABLE, [parse_poly(_JET_TABLE, t)] if t else [],
                  check_dimension=False)
    for t in ("", "x1*x2", "x1^2 - x2^3"))
_JET_PRECISIONS = (1, 2, 5, 80, 81)
_JET_COEFFS = st.one_of(st.integers(-5, 5).filter(bool),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=7).filter(bool))


@st.composite
def jet_pairs(draw):
    """A ring and two jets of it, each at a precision of _JET_PRECISIONS,
    with x-exponents both small and about half the precision, so that
    products straddle the cut."""
    ring = draw(st.sampled_from(_JET_RINGS))

    def jet():
        n = draw(st.sampled_from(_JET_PRECISIONS))
        exps = st.one_of(st.integers(0, 3),
                         st.integers(max(0, n // 2 - 2), n // 2 + 1))
        mons = st.tuples(exps, exps, st.integers(0, 2))
        items = draw(st.lists(st.tuples(mons, _JET_COEFFS), max_size=6))
        return ring.jet(Polynomial.from_terms(ring.table, items), n)
    return ring, jet(), jet()


@settings(max_examples=150, deadline=None)
@given(jet_pairs())
def test_jet_arithmetic_is_the_canonical_form_of_the_uncut_operation(data):
    ring, a, b = data
    n = min(a.precision, b.precision)
    for got, want in ((a * b, a.poly * b.poly), (a + b, a.poly + b.poly),
                      (a - b, a.poly - b.poly)):
        assert got.precision == n
        assert got.poly == ring.reduce_jet(want, n)
    for k in _JET_PRECISIONS:
        if k <= a.precision:
            assert a.truncate(k).poly == ring.reduce_jet(a.poly, k)


def _newton_inverse_full(ring, u, n):
    """Inverse of u modulo J + (x)^n by Newton steps at full precision n,
    on polynomials and reduce_jet alone."""
    z = Polynomial.const(ring.table, 1 / Fraction(u.constant_coefficient()))
    for _ in range(n + 1):
        err = ring.reduce_jet(u * z - 1, n)
        if err.is_zero():
            return z
        z = ring.reduce_jet(z - z * err, n)
    raise AssertionError("Newton's iteration did not reach precision n")


@settings(max_examples=100, deadline=None)
@given(jet_pairs(), st.sampled_from([1, -2, Fraction(3, 5)]))
def test_jet_invert_matches_a_full_precision_newton_inverse(data, c):
    ring, a, _ = data
    # a unit of the base ring: a nonzero constant plus terms of positive
    # x-degree and no Y, whose powers would not stay sparse
    u = ring.jet(Polynomial(ring.table, {
        m: v for m, v in a.poly.terms.items() if m[0] + m[1] and not m[2]})
        + c, a.precision)
    z = jet_invert(u)
    assert z.precision == u.precision
    assert (z * u - 1).is_zero()
    assert z.poly == _newton_inverse_full(ring, u.poly, u.precision)
