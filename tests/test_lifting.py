"""Strong approximation: the linear bound and the Newton contraction."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from conftest import random_certificate_instance, two_branch_problem
from neron import (ALGEBRA, BASE, Polynomial, VarTable, format_poly,
                   mixed_order, parse_poly)
from neron.desing import (AlgebraPresentation, Reduction, build_hg,
                          complete_H, jacobian_colon)
from neron.errors import (CompletionFailed, HypothesisViolated, NeronError,
                          PreconditionFailed)
from neron.groebner import Ideal
from neron.idealops import same_ideal
from neron.lifting import (LiftingProblem, _completion_data,
                           _jacobian_products, check_hypothesis, newton_lift,
                           nu_bound, strong_approx_decide)
from neron.linalg import det
from neron.localring import LocalRingSpec, compute_e, monomials_of_degree

# sha256 of e, nu, agreement, update orders and every lifted jet of
# newton_lift on generator seed s (rho 0, every relation in f, target 80);
# seeds 5 and 30 raise CompletionFailed instead.
LIFT_DIGESTS = {
    0: "193f16199b4cd1a5d900470215245d6320aa569e9294f5a6ef0d4f06cf91f939",
    1: "2ad4702225216034afce40beee029721e40e693c19bd8023fbae81ad7665122d",
    2: "6577fa05005c3dc44b69f1a1a962ea5ae8ff99367771de7e2a20b751efe944e1",
    3: "9e5f857e2c80df74d3a835e3e6554109d65ac9f1c519c5981a40b8e0324c7263",
    4: "f334a01760f519f825d131466a03ca33c7d921c7356286cce90cab91db83e65a",
    6: "41afcf737df6001b3d7f38ee005891999cf1797dd4f52cc3456da4bb6a32a4ea",
    7: "b3390204b67af5c1955cfff4417c9842196fd828cdfad85b0a3fa7e9106aca17",
    8: "024eec52456f61e67333e43fd590e0220e5b988406256094f86dbd388361f84e",
    9: "ec193b3cc994302b7d7bda43d9fc1f43e2210b2f7c2ef1d70588e4bd08abb4ac",
    10: "b3390204b67af5c1955cfff4417c9842196fd828cdfad85b0a3fa7e9106aca17",
    11: "9c49c29f920caab69958210cbfe40a4ac332f3f43c7cc0a9d701bceb3216c9e9",
    12: "0012e2f9d2160016daef739ba1dfd398cb611d26511a0592b97f0655679e906e",
    13: "13a7651947df94486961892105f013a86a1e44b9be4226f67f96a092d71ea6c0",
    14: "adccbf051f38fc6e58d5d53ddc73fc9c2aa8a9bb234b7a0f35e4ad8d5e3f8dbe",
    15: "d85779661180bac2ee2afa40ee3afda6f0b7351f08327d61a2ffe8541783409a",
    16: "09a1d5955fc4c616a4eb7b5d027222e29a93f3283f5c6e66122b0d9a526b170d",
    17: "21c1286696fdb9d89c816c11e8eae08d2ab1d17988f3360b0c52e890563eb3b5",
    18: "0aaf5a4dbb3047af0a04549622dff62c9deb0a95bd298249cbc43d9595cd4d47",
    19: "f588918bbbc15f1a92f9f9ebfccab9e79066e06466226d2c9ec0ddf6ec2c6c83",
    20: "ebd1255e675206d3116cbe9f9a9fd7fab7f0deb5369ea5be66f5628db84df100",
    21: "647a6a4342acc539e8b5f407a7a0022288045a969d293d99d83a6f210c0e9a32",
    22: "b3390204b67af5c1955cfff4417c9842196fd828cdfad85b0a3fa7e9106aca17",
    23: "b3390204b67af5c1955cfff4417c9842196fd828cdfad85b0a3fa7e9106aca17",
    24: "aafb6081423f02050480c90a423fa6c48c29f1368cdc2fc0c0a846fe7422a145",
    25: "d5905962ba508da345d93fa60bfd4463ba9503ca57ba56a9c1de5956fa061a55",
    26: "f156868511bf20201a28bf32c6411f1e262e218f7b6e45549f59f5c2556ab826",
    27: "d24f1f8fc56d0c41160f9893694cfd5ceac293d6c34a8ef876c3c413c86fd590",
    28: "720a2e4cc03824a183f8268cdf200031add022f57283d81acdbf816649f10409",
    29: "b3390204b67af5c1955cfff4417c9842196fd828cdfad85b0a3fa7e9106aca17",
    31: "e2bcd4c236e8b4d56229b4709da78b4a5249c2400b6746851c99a80fe157bc55",
}
LIFT_COMPLETION_FAILED = (5, 30)


def one_var_ring():
    T = VarTable.make(("x", BASE), ("Y", ALGEBRA))
    return LocalRingSpec(T, [], primes=[()], check_dimension=False)


def test_nu_bound_grid_and_linearity():
    assert nu_bound(1, 2, 5) == 11
    assert nu_bound(0, 0, 1) == 2
    assert nu_bound(3, 1, 7) == 15
    for e in range(3):
        for rho in range(3):
            for c in range(1, 4):
                assert nu_bound(e, rho, c) == (e + 1) * (rho + 1) + c
                assert nu_bound(e, rho, c + 1) - nu_bound(e, rho, c) == 1
    with pytest.raises(NeronError):
        nu_bound(-1, 0, 1)


def test_check_hypothesis_cases():
    ring = one_var_ring()
    T = ring.table
    # smooth linear system: the evaluated data generates the unit ideal
    prob = LiftingProblem(ring, (parse_poly(T, "Y - x"),), (0,),
                          {"Y": Polynomial.zero(T)}, 0, 2)
    assert check_hypothesis(prob)
    # two-branch data: d = (x1+x2)^2 generates (x)^4 modulo J
    tb = two_branch_problem()
    ring2 = tb.ring
    approx = {nm: j.poly for nm, j in tb.morphism.jets.items()}
    prob2 = LiftingProblem(ring2, tb.relations, (0,), approx, 4, 8)
    assert check_hypothesis(prob2)
    # rho below the order of every evaluated generator fails
    prob3 = LiftingProblem(ring, (parse_poly(T, "Y^2 - x^3*Y"),), (0,),
                           {"Y": parse_poly(T, "x^2")}, 1, 3)
    assert not check_hypothesis(prob3)


def test_newton_lift_fixed_point_when_exact():
    ring = one_var_ring()
    T = ring.table
    prob = LiftingProblem(ring, (parse_poly(T, "Y^2 - (1+x)^2"),), (0,),
                          {"Y": parse_poly(T, "1 + x")}, 2, 15)
    rep = newton_lift(prob)
    assert rep.lifted["Y"].poly == parse_poly(T, "1 + x")
    assert rep.agreement == 15
    assert rep.update_orders == []


def test_hypothesis_violated_is_reachable():
    # f = Y^2 - x^2 at y' = x: the evaluated Jacobian ideal is (2x), which
    # does not contain (x)^0 = A but does contain (x)^1
    ring = one_var_ring()
    T = ring.table
    f = parse_poly(T, "Y^2 - x^2")

    def problem(rho):
        return LiftingProblem(ring, (f,), (0,), {"Y": parse_poly(T, "x")},
                              rho, 12)

    with pytest.raises(HypothesisViolated):
        newton_lift(problem(0))
    rep = newton_lift(problem(1))
    assert rep.lifted["Y"].poly == parse_poly(T, "x")
    assert rep.agreement == 12


def test_newton_lift_square_root_series():
    ring = one_var_ring()
    T = ring.table
    prob = LiftingProblem(ring, (parse_poly(T, "Y^2 - 1 - x"),), (0,),
                          {"Y": parse_poly(T, "1")}, 1, 30)
    rep = newton_lift(prob)
    y = rep.lifted["Y"]
    assert y.precision == 30
    # oracle: square and compare, exact
    assert (y * y - ring.jet(parse_poly(T, "1 + x"), 30)).is_zero()
    assert y.poly.terms[(1, 0)] == Fraction(1, 2)
    assert y.poly.terms[(2, 0)] == Fraction(-1, 8)
    # monotone convergence, bounded iteration count
    assert rep.update_orders == sorted(rep.update_orders)
    assert len(set(rep.update_orders)) == len(rep.update_orders)
    assert len(rep.update_orders) <= 30


def test_newton_lift_two_branch_data():
    tb = two_branch_problem()
    ring = tb.ring
    approx = {nm: j.poly for nm, j in tb.morphism.jets.items()}
    prob = LiftingProblem(ring, tb.relations, (0,), approx, 4, 30)
    rep = newton_lift(prob)
    for rel in tb.relations:
        val = rel.substitute({nm: j.poly for nm, j in rep.lifted.items()})
        assert ring.reduce_jet(val, 30).is_zero()
    assert rep.agreement >= 12


def test_strong_approx_recovers_exact_solution():
    ring = one_var_ring()
    T = ring.table
    prob = LiftingProblem(ring, (parse_poly(T, "Y^2 - (1+x)^2"),), (0,),
                          {"Y": parse_poly(T, "1 + x")}, 2, 20)
    # perturb above (e+2)*(rho+1) = 9
    rep = strong_approx_decide(prob, {"Y": parse_poly(T, "1 + x + x^10")}, 9)
    y = rep.lifted["Y"]
    assert (y * y - ring.jet(parse_poly(T, "(1+x)^2"), 20)).is_zero()
    assert ring.reduce_jet(y.poly - parse_poly(T, "1 + x"), 2).is_zero()


def test_strong_approx_exact_input_is_returned():
    ring = one_var_ring()
    T = ring.table
    prob = LiftingProblem(ring, (parse_poly(T, "Y^2 - (1+x)^2"),), (0,),
                          {"Y": parse_poly(T, "1 + x")}, 2, 20)
    rep = strong_approx_decide(prob, {"Y": parse_poly(T, "1 + x")}, 9)
    assert rep.lifted["Y"].poly == parse_poly(T, "1 + x")


def test_strong_approx_congruence_negative_control():
    ring = one_var_ring()
    T = ring.table
    prob = LiftingProblem(ring, (parse_poly(T, "Y^2 - (1+x)^2"),), (0,),
                          {"Y": parse_poly(T, "1 + x")}, 2, 20)
    with pytest.raises(PreconditionFailed):
        strong_approx_decide(prob, {"Y": parse_poly(T, "1 + 2*x")}, 9)


def test_consistency_with_desingularization_formulas():
    """With the base smooth algebra equal to A and s = 1, the lifting
    equations h and g agree term by term with the certificate construction
    on the same inputs."""
    ring = one_var_ring()
    T = ring.table
    f = parse_poly(T, "Y^2 - 1 - x")
    y0 = parse_poly(T, "1")
    from neron.desing import MorphismApprox
    prec = 16
    v = MorphismApprox(prec, {"Y": ring.jet(y0, prec)})
    B = AlgebraPresentation(ring, (f,))
    H = complete_H(B, [f], v)
    d = det(H).substitute({"Y": v.jets["Y"].poly})        # = 2
    assert d == parse_poly(T, "2")
    # d is the evaluated determinant (the lifting convention), so the
    # pipeline invariant d = P mod I does not apply; compare formulas only.
    red = Reduction(B, v, (f,), H, Polynomial.const(T, 1),
                    det(H), d, (0,), (), False)
    cert, BT, vT = build_hg(B, red, 1)
    assert cert.s == Polynomial.const(BT.table, 1)
    # greenberg-side h: Y - y0 - d^e * adj(H)(y0) * T with the same data
    t_name = BT.table.block_names("tangent")[0]
    tvar = Polynomial.var(BT.table, t_name)
    want_h = parse_poly(BT.table, "Y") - y0.lift(BT.table) \
        - d.lift(BT.table) * tvar
    assert cert.h[0] == want_h
    # g = b + T + d^(e-1) Q with b = f(y0)/d^2 = -x/4 and Q = T^2
    want_g = Polynomial.const(BT.table, Fraction(-1, 4)) \
        * parse_poly(BT.table, "x") + tvar + tvar * tvar
    assert cert.g[0] == want_g


def _generator_lift_problem(seed, rho):
    """The lift workload's input: every relation in f, target 80."""
    prob = random_certificate_instance(seed)
    approx = {nm: j.poly for nm, j in prob.morphism.jets.items()}
    return LiftingProblem(prob.ring, prob.relations,
                          tuple(range(len(prob.relations))), approx, rho, 80)


def _lift_digest(rep, ring):
    h = hashlib.sha256(f"{rep.e} {rep.nu} {rep.agreement} "
                       f"{rep.update_orders}\n".encode())
    order = mixed_order(ring.table)
    for nm, jet in rep.lifted.items():
        h.update(f"{nm} = {format_poly(jet.poly, order)}\n".encode())
    return h.hexdigest()


def test_newton_lift_generator_digests():
    """Byte-stable lifts on generator seeds 0-31."""
    assert set(LIFT_DIGESTS) | set(LIFT_COMPLETION_FAILED) == set(range(32))
    for seed in LIFT_COMPLETION_FAILED:
        with pytest.raises(CompletionFailed):
            newton_lift(_generator_lift_problem(seed, 0))
    changed = []
    for seed, want in LIFT_DIGESTS.items():
        prob = _generator_lift_problem(seed, 0)
        if _lift_digest(newton_lift(prob), prob.ring) != want:
            changed.append(seed)
    assert not changed, f"lift digests changed for seeds {changed}"


def _hypothesis_with_cut(prob, nu):
    """(x)^rho in (J, (x)^nu, evaluated Jacobian data), as the theorem
    states the hypothesis."""
    ring = prob.ring
    table = ring.table
    base = table.block(BASE)
    gens = _jacobian_products(prob) + list(ring.j_gens)
    gens += [Polynomial(table, {m: 1})
             for m in monomials_of_degree(table, base, nu)]
    ideal = Ideal(table, gens)
    return all(ideal.contains(Polynomial(table, {m: 1}))
               for m in monomials_of_degree(table, base, prob.rho))


def test_check_hypothesis_matches_nu_formulation():
    """Dropping (x)^nu changes no verdict: with K = (J, evaluated Jacobian
    data) and nu > rho, Nakayama's lemma gives (x)^rho in K + (x)^nu
    exactly when (x)^rho lies in K.  Where no e exists (seeds 5 and 30
    have no completion), nu = rho + 1 is used, the smallest nu the lemma
    covers."""
    for seed in range(32):
        for rho in range(3):
            prob = _generator_lift_problem(seed, rho)
            try:
                d = _completion_data(prob)[1]
                nu = nu_bound(compute_e(d, prob.ring), rho, prob.target)
            except CompletionFailed:
                nu = rho + 1
            assert check_hypothesis(prob) == _hypothesis_with_cut(prob, nu), \
                (seed, rho)


def _colon_route_ideal(prob):
    """(J, evaluated generators of ((f) + J : I + J) * Delta_f), the colon
    computed by ``jacobian_colon``."""
    ring = prob.ring
    colon, minor_list = jacobian_colon(ring, prob.f_polys(), prob.relations,
                                       ring.table.block_names(ALGEBRA))
    subs = dict(prob.approx)
    return Ideal(ring.table, [ring.monomial_reduce((c * m).substitute(subs))
                              for c in colon for m in minor_list]
                 + list(ring.j_gens))


def test_unit_colon_shortcut_gives_the_colon_routes_ideal():
    """With every relation in f, I lies in (f) and the colon is (1): the
    minors alone give the ideal the colon route gives, and the verdicts
    for rho 0-3 agree, on generator seeds 0-31."""
    for seed in range(32):
        prob = _generator_lift_problem(seed, 0)
        ring = prob.ring
        slow = _colon_route_ideal(prob)
        fast = Ideal(ring.table, _jacobian_products(prob) + list(ring.j_gens))
        assert same_ideal(fast, slow), seed
        for rho in range(4):
            prob_rho = dataclasses.replace(prob, rho=rho)
            assert check_hypothesis(prob_rho) == ring.contains_power(
                slow, rho), (seed, rho)


def test_only_a_proper_subsystem_computes_the_colon(monkeypatch):
    """The colon is computed when f is a proper part of I, and skipped
    when every nonzero relation is one of f."""
    import neron.lifting as lifting
    calls = []
    real = lifting.jacobian_colon

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lifting, "jacobian_colon", spy)
    tb = two_branch_problem()
    ring = tb.ring
    approx = {nm: j.poly for nm, j in tb.morphism.jets.items()}
    prob = LiftingProblem(ring, tb.relations, (0,), approx, 4, 8)
    assert check_hypothesis(prob)
    assert len(calls) == 1
    ideal = Ideal(ring.table, _jacobian_products(prob) + list(ring.j_gens))
    assert len(calls) == 2
    assert same_ideal(ideal, _colon_route_ideal(prob))
    zero = Polynomial.zero(ring.table)
    whole = LiftingProblem(ring, (tb.relations[0], zero), (0,), approx, 4, 8)
    assert check_hypothesis(whole)
    assert len(calls) == 2


def test_newton_lift_cubic_taylor_term_non_unit_d():
    """Y^3 + x*Y - x^3 from y' = 0: d = x is no unit and Q has a cubic
    term, so the contraction reaches the factor d^(e(k-2)) with k = 3."""
    ring = one_var_ring()
    T = ring.table
    f = parse_poly(T, "Y^3 + x*Y - x^3")
    prob = LiftingProblem(ring, (f,), (0,), {"Y": Polynomial.zero(T)}, 1, 20)
    rep = newton_lift(prob)
    y = rep.lifted["Y"]
    assert y.poly == parse_poly(
        T, "x^2 - x^5 + 3*x^8 - 12*x^11 + 55*x^14 - 273*x^17")
    assert rep.update_orders == [1, 4, 7, 10, 13, 16, 19]
    assert ring.reduce_jet(f.substitute({"Y": y.poly}), 20).is_zero()
