"""Pipeline stages: smoothness ideal, subsystem search, reduction, output."""

import copy
import dataclasses
import os

import pytest

import neron.desing
from conftest import (hypersurface_problem, random_certificate_instance,
                      space_curve_data, taylor_sum_per_alpha,
                      two_branch_problem, two_branch_table)
from neron import (ALGEBRA, BASE, TANGENT, Ideal, Polynomial, VarTable, det,
                   jacobian, krull_dim, mixed_order, normal_form_against,
                   parse_poly, radical_membership, std_basis)
from neron.desing import (AlgebraPresentation, MorphismApprox, ShiftedPoint,
                          _PowerCache, _in_j, complete_H, desingularize,
                          elkik_ideal, eval_at_jets, factor_morphism,
                          find_f_R, mm_primary_reduction,
                          outside_saturation, sym_algebra_reduction,
                          verify_certificate)
from neron.errors import (BoundTooSmall, CertificateFailed,
                          ConditionStarStarFailed, NotDivisible,
                          PreconditionFailed, VerificationFailed)
from neron.linalg import PolyMatrix
from neron.localring import Jet, LocalRingSpec
from neron.problemfile import parse_problem

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def nf_equal_mod(ring, a, b, extra=()):
    """Equality of residues modulo J plus optional extra relations."""
    gens = list(ring.j_gens) + list(extra)
    order = mixed_order(ring.table)
    basis = std_basis(gens, ring.table, order)
    return normal_form_against(a - b, basis, ring.table, order).is_zero()


# -- smoothness ideal ---------------------------------------------------------

def test_elkik_two_branch_instance():
    prob = two_branch_problem()
    B = AlgebraPresentation(prob.ring, prob.relations)
    data = elkik_ideal(B, 3)
    T = prob.ring.table
    gens_all = list(data.gens) + list(prob.relations) + list(prob.ring.j_gens)
    assert radical_membership(parse_poly(T, "x1"), gens_all, T)
    assert radical_membership(parse_poly(T, "x2"), gens_all, T)
    dim = krull_dim(Ideal(T, list(data.h_cap_a) + list(prob.ring.j_gens)))
    assert dim == 0


def test_elkik_zero_ideal_is_unit():
    T = two_branch_table()
    ring = LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                         primes=((parse_poly(T, "x1"),),
                                 (parse_poly(T, "x2"),)))
    B = AlgebraPresentation(ring, ())
    data = elkik_ideal(B, 3)
    assert any(g.is_constant() and not g.is_zero() for g in data.gens)


@pytest.mark.parametrize("cap", [0, -1])
def test_elkik_ideal_rejects_max_subset_below_one(cap):
    """A library caller bypasses the file's and the CLI's checks; no
    subset size below 1 exists, with relations or without."""
    prob = two_branch_problem()
    for rels in (prob.relations, ()):
        B = AlgebraPresentation(prob.ring, rels)
        with pytest.raises(PreconditionFailed,
                           match="^max_subset must be at least 1$"):
            elkik_ideal(B, cap)


def test_desingularize_rejects_max_subset_below_one():
    """The hypothesis error, not a verdict on the instance
    (``ConditionStarStarFailed``)."""
    prob = dataclasses.replace(two_branch_problem(), max_subset=0)
    with pytest.raises(PreconditionFailed,
                       match="^max_subset must be at least 1$"):
        desingularize(prob)


def test_elkik_space_curve_minors():
    T, J, alpha, fs = space_curve_data()
    ring = LocalRingSpec(T, J)
    B = AlgebraPresentation(ring, fs)
    data = elkik_ideal(B, 3)
    order = mixed_order(T)
    # the scaled minors land in the ideal generated by the products
    basis = std_basis(list(data.gens) + list(fs) + J, T, order)
    for witness in ("x2^2*Y2 * x2", "x1^2*Y1 * x1", "x3^2*Y3 * x3"):
        p = parse_poly(T, witness)
        assert normal_form_against(p, basis, T, order).is_zero()


# -- symmetric algebra reduction ---------------------------------------------

def test_sym_algebra_principal_nonzerodivisor():
    T = two_branch_table()
    ring = LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                         primes=((parse_poly(T, "x1"),),
                                 (parse_poly(T, "x2"),)))
    B = AlgebraPresentation(ring, (parse_poly(T, "Y1 + Y2 + x1 + 1"),))
    v = MorphismApprox(6, {"Y1": ring.jet(parse_poly(T, "-1 - x1"), 6),
                           "Y2": ring.jet(Polynomial.zero(T), 6)})
    B1, v1 = sym_algebra_reduction(B, v)
    # one new conormal variable plus slack variables, each its own relation
    new_names = set(B1.algebra_names()) - set(B.algebra_names())
    slack = B1.table.block_names("slack")
    assert len(slack) == 3
    for nm in slack:
        assert Polynomial.var(B1.table, nm) in B1.relations
    # a nonzerodivisor generator contributes no syzygy form
    forms = [r for r in B1.relations
             if r not in (p.lift(B1.table) for p in B.relations)
             and not any(r == Polynomial.var(B1.table, nm) for nm in slack)]
    assert forms == []
    # the extension is by zero on the new variables
    for nm in new_names | set(slack):
        assert v1.jets[nm].is_zero()
    # restricted to the old variables the morphism is unchanged
    for nm in B.algebra_names():
        assert v1.jets[nm].poly == v.jets[nm].poly.lift(B1.table)


def test_sym_algebra_koszul_form_survives():
    # generators x1*(Y1 - 1), x2*(Y1 - 1): the Koszul syzygy (x2, -x1) has
    # entries outside I, so the conormal presentation keeps the form
    T = two_branch_table()
    ring = LocalRingSpec(T, [], primes=[()], check_dimension=False)
    f1 = parse_poly(T, "x1*Y1 - x1")
    f2 = parse_poly(T, "x2*Y1 - x2")
    B = AlgebraPresentation(ring, (f1, f2))
    v = MorphismApprox(4, {"Y1": ring.jet(parse_poly(T, "1"), 4),
                           "Y2": ring.zero_jet(4)})
    B1, _ = sym_algebra_reduction(B, v)
    new_names = [nm for nm in B1.algebra_names()
                 if nm not in B.algebra_names()]
    t1, t2 = new_names[0], new_names[1]
    koszul = parse_poly(B1.table, f"x2*{t1} - x1*{t2}")
    assert any(r == koszul or r == -koszul for r in B1.relations)


def test_sym_algebra_base_ideal_gives_free_conormal():
    # for I = (x1, x2) the syzygy entries lie in I, so they vanish in B and
    # the conormal module is free: no syzygy forms appear
    T = two_branch_table()
    ring = LocalRingSpec(T, [], primes=[()], check_dimension=False)
    B = AlgebraPresentation(ring, (parse_poly(T, "x1"), parse_poly(T, "x2")))
    v = MorphismApprox(4, {"Y1": ring.zero_jet(4), "Y2": ring.zero_jet(4)})
    B1, _ = sym_algebra_reduction(B, v)
    slack = set(B1.table.block_names("slack"))
    lifted = {p.lift(B1.table) for p in B.relations}
    for r in B1.relations:
        assert r in lifted or str(r) in {nm for nm in slack}


# -- subsystem search and completion ------------------------------------------

def test_find_f_R_two_branch():
    prob = two_branch_problem()
    B = AlgebraPresentation(prob.ring, prob.relations)
    data = elkik_ideal(B, 3)
    contrib, R = find_f_R(B, data, prob.morphism)
    assert contrib.subset == (0,)
    assert R == parse_poly(prob.ring.table, "x1 + x2")


def test_find_f_R_smooth_hypersurface():
    T = two_branch_table()
    ring = LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                         primes=((parse_poly(T, "x1"),),
                                 (parse_poly(T, "x2"),)))
    B = AlgebraPresentation(ring, (parse_poly(T, "Y1 - x1"),))
    v = MorphismApprox(8, {"Y1": ring.jet(parse_poly(T, "x1"), 8),
                           "Y2": ring.zero_jet(8)})
    data = elkik_ideal(B, 3)
    contrib, R = find_f_R(B, data, v)
    assert contrib.subset == (0,)
    assert R == parse_poly(T, "1")


def test_find_f_R_condition_failure():
    # the two monomial relations alone admit no passing subsystem: each
    # candidate's products land inside one of the minimal primes
    prob = two_branch_problem()
    T = prob.ring.table
    B = AlgebraPresentation(prob.ring, (parse_poly(T, "x2*Y1"),
                                        parse_poly(T, "x1*Y2")))
    data = elkik_ideal(B, 3)
    with pytest.raises(ConditionStarStarFailed) as info:
        find_f_R(B, data, prob.morphism)
    assert info.value.diagnostics


def test_complete_H_two_branch_and_hypersurface():
    prob = two_branch_problem()
    T = prob.ring.table
    B = AlgebraPresentation(prob.ring, prob.relations)
    H = complete_H(B, [prob.relations[0]], prob.morphism)
    assert det(H) == parse_poly(T, "x1 + x2")
    assert H.rows[1] == [Polynomial.const(T, 1), Polynomial.const(T, 1)]

    hp = hypersurface_problem()
    B2 = AlgebraPresentation(hp.ring, hp.relations)
    H2 = complete_H(B2, [hp.relations[0]], hp.morphism)
    T2 = hp.ring.table
    assert H2.rows[0] == [parse_poly(T2, "Y2"), parse_poly(T2, "Y1")]
    assert H2.rows[1] == [Polynomial.zero(T2), Polynomial.const(T2, 1)]


def test_complete_H_full_jacobian_unchanged():
    T = VarTable.make(("x", BASE), ("Y1", ALGEBRA))
    ring = LocalRingSpec(T, [], primes=[()])
    B = AlgebraPresentation(ring, (parse_poly(T, "Y1^2 - 1 - x"),))
    v = MorphismApprox(6, {"Y1": ring.jet(parse_poly(T, "1"), 6)})
    H = complete_H(B, [B.relations[0]], v)
    assert H.rows == [[parse_poly(T, "2*Y1")]]


@pytest.mark.parametrize("n, f_texts", [
    (3, ("Y2 - x",)),
    (5, ("Y2 - x", "Y3 - x", "Y4", "Y5")),
])
def test_complete_H_needs_the_first_column(n, f_texts):
    # no f involves Y1, so the Jacobian's first column is zero and every
    # completion needs a row with c1 != 0.  The product-order pools have
    # none: with two missing rows the first 40 vectors of length 3 start
    # with 0, and with one missing row so do the first 350 of length 5.
    T = VarTable.make(("x", BASE), *((f"Y{i}", ALGEBRA)
                                     for i in range(1, n + 1)))
    ring = LocalRingSpec(T, [], primes=[()])
    f = [parse_poly(T, t) for t in f_texts]
    B = AlgebraPresentation(ring, tuple(f))
    jets = {f"Y{i}": ring.jet(parse_poly(T, "x" if i in (2, 3) else "0"), 6)
            for i in range(1, n + 1)}
    H = complete_H(B, f, MorphismApprox(6, jets))
    assert H.rows[:len(f)] == jacobian(f, [f"Y{i}" for i in range(1, n + 1)])
    dm = det(H)
    assert dm.is_constant() and not dm.is_zero()


# -- primary contraction -------------------------------------------------------

def test_mm_primary_direct_branch():
    prob = two_branch_problem()
    T = prob.ring.table
    B = AlgebraPresentation(prob.ring, prob.relations)
    f = [prob.relations[0]]
    H = complete_H(B, f, prob.morphism)
    R = parse_poly(T, "x1 + x2")
    red = mm_primary_reduction(B, f, H, R, prob.morphism)
    assert not red.adjoined
    assert nf_equal_mod(prob.ring, red.d, parse_poly(T, "(x1+x2)^2"))
    assert red.P == parse_poly(T, "(x1+x2)^2")


def test_mm_primary_smooth_toy():
    T = two_branch_table()
    ring = LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                         primes=((parse_poly(T, "x1"),),
                                 (parse_poly(T, "x2"),)))
    B = AlgebraPresentation(ring, (parse_poly(T, "Y1 - x1"),))
    v = MorphismApprox(8, {"Y1": ring.jet(parse_poly(T, "x1"), 8),
                           "Y2": ring.zero_jet(8)})
    f = [B.relations[0]]
    H = complete_H(B, f, v)
    red = mm_primary_reduction(B, f, H, parse_poly(T, "1"), v)
    assert not red.adjoined
    assert red.d == parse_poly(T, "1")


def test_mm_primary_adjunction_block_determinant():
    # choosing the colon witness R = Y2 (legitimate: the colon is the unit
    # ideal) forces the adjunction branch; the block update must satisfy
    # det(H') = det(H) * P, R' = R * Ynew^2 and d = d'^2.
    hp = hypersurface_problem()
    T = hp.ring.table
    B = AlgebraPresentation(hp.ring, hp.relations)
    f = [hp.relations[0]]
    H = complete_H(B, f, hp.morphism)
    R = parse_poly(T, "Y2")
    P_before = R * det(H)
    red = mm_primary_reduction(B, f, H, R, hp.morphism)
    assert red.adjoined
    T1 = red.B.table
    new_name = red.B.algebra_names()[-1]
    assert det(red.H) == det(H).lift(T1) * P_before.lift(T1)
    assert red.R == R.lift(T1) * Polynomial.var(T1, new_name) ** 2
    # multiply-back oracle: (v(P) * y_new)^2 = d at jet level, d = d'^2
    vP = eval_at_jets(P_before.lift(T1), red.v, red.B.ring)
    ynew = red.v.jets[new_name]
    prod = vP * ynew
    assert (prod * prod - red.B.ring.jet(red.d, prod.precision)).is_zero()
    assert red.pivots == (0, len(red.B.algebra_names()) - 1)


# -- certificates and the full pipeline ---------------------------------------

def test_golden_certificate_values(golden_result):
    res = golden_result
    cert = res.certificate
    ring = res.presentation.ring
    T = ring.table
    assert cert.R.lift(T) == parse_poly(T, "x1 + x2")
    assert cert.P.lift(T) == parse_poly(T, "(x1+x2)^2")
    assert nf_equal_mod(ring, cert.d.lift(T), parse_poly(T, "(x1+x2)^2"))
    assert cert.e == 1
    assert all(b.is_zero() for b in cert.b)
    assert cert.s.lift(T) == parse_poly(T, "1")
    assert cert.s_prime.lift(T) == parse_poly(T, "1")
    assert cert.s_second_num.lift(T) == parse_poly(T, "1")
    assert cert.p == 1
    assert len(cert.g) == 1
    t_names = T.block_names("tangent")
    assert cert.g[0].lift(T) == Polynomial.var(T, t_names[0])


def test_golden_full_verify_certificate(golden_result):
    res = golden_result
    ringT = res.morphism.jets["Y1"].ring
    BT = AlgebraPresentation(
        ringT,
        tuple(p.lift(ringT.table) for p in two_branch_problem().relations))
    assert verify_certificate(res.certificate, BT, res.morphism)


def test_in_j_decides_membership_in_the_polynomial_ring():
    """The certificate identities hold as polynomials, so ``_in_j`` tests
    membership in J in k[x]: x1 lies in J = (x1 + x1*x2) in the
    localization, where 1 + x2 is a unit, but not in k[x]."""
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    j = parse_poly(T, "x1 + x1*x2")
    ring = LocalRingSpec(T, [j])
    x1 = parse_poly(T, "x1")
    assert ring.j_ideal.contains(x1)
    assert not _in_j(x1, ring)
    assert _in_j(j * parse_poly(T, "x2 + 3"), ring)


def test_golden_simplified_relations(golden_result):
    res = golden_result
    ring = res.presentation.ring
    T = ring.table
    y1 = res.morphism.jets["Y1"].poly.lift(T)
    y2 = res.morphism.jets["Y2"].poly.lift(T)
    t2 = Polynomial.var(T, T.block_names("tangent")[1])
    want1 = parse_poly(T, "Y1") - y1 - parse_poly(T, "x1^4") * t2
    want2 = parse_poly(T, "Y2") - y2 - parse_poly(T, "x2^4") * t2
    assert set(res.simplified) == {want1, want2}


def test_golden_jet_factorization(golden_result):
    rep = golden_result.jet_map
    assert rep is not None and rep.passed
    assert rep.precision >= 12
    assert all(ok for _, ok in rep.checks)


def test_factor_morphism_trivial_extension(hypersurface_result):
    res = hypersurface_result
    v = res.morphism
    rep = factor_morphism(res, dict(v.jets))
    assert rep.passed
    for eps in rep.epsilon.values():
        assert eps.is_zero()
    for t in rep.tangent.values():
        assert t.is_zero()


def hypersurface_with_verify():
    """The hypersurface at precision 13 with verify jets to precision 20;
    it adjoins Y3 at stage 9."""
    prob = hypersurface_problem()
    return dataclasses.replace(prob, morphism=MorphismApprox(
        prob.morphism.precision, prob.morphism.jets,
        hypersurface_problem(n=20).morphism.jets))


def test_factor_morphism_evaluates_each_inverter_relation():
    """W_k is the inverse of the jet value of the listed factor u_k, and
    W_k*u_k - 1 is evaluated like every other output relation.  With jets
    to precision 20 the checks run at precision 15, where s, s' and s'' of
    the hypersurface differ from 1, so a listed factor that is off in its
    last tracked coefficient leaves its inverter relation nonzero."""
    res = desingularize(hypersurface_with_verify())
    rep = res.jet_map
    pres = res.presentation
    n_out = len(pres.relations)
    assert rep.precision == 15
    assert rep.checks[-n_out:] == [(f"output[{k}]", True)
                                   for k in range(n_out)]
    x = parse_poly(pres.table, "x")
    for k in range(3):
        inverted = list(pres.inverted)
        inverted[k] = inverted[k] * (1 + x ** (rep.precision - 1))
        bad = dataclasses.replace(res, presentation=dataclasses.replace(
            pres, inverted=tuple(inverted)))
        with pytest.raises(VerificationFailed,
                           match=rf"output\[{n_out - 3 + k}\]"):
            factor_morphism(bad, res.morphism.verify)


def test_an_adjoined_variable_without_a_verify_jet_fails(monkeypatch):
    """Requested verify jets are never dropped: when the jet division for
    the adjoined variable fails at the verify precision, desingularize
    raises VerificationFailed naming that variable."""
    divide = neron.desing.jet_divide

    def refuse_at_verify_precision(num, den):
        if num.precision == 20:
            raise NotDivisible("refused")
        return divide(num, den)

    monkeypatch.setattr(neron.desing, "jet_divide",
                        refuse_at_verify_precision)
    with pytest.raises(VerificationFailed,
                       match="adjoined variable Y3: refused"):
        desingularize(hypersurface_with_verify())


def test_the_adjunction_builds_candidates_only_as_it_tries_them(
        monkeypatch):
    """Seed 22 adjoins a variable with d' = 1, the first candidate, so no
    monomial of any degree below N is listed."""
    calls = {"adjoin": 0, "monomials": 0}

    def counting(name, fn):
        def spy(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return spy

    monkeypatch.setattr(neron.desing, "_adjoin_variable",
                        counting("adjoin", neron.desing._adjoin_variable))
    monkeypatch.setattr(neron.desing, "monomials_of_degree",
                        counting("monomials",
                                 neron.desing.monomials_of_degree))
    desingularize(random_certificate_instance(22))
    assert calls == {"adjoin": 1, "monomials": 0}


def test_factor_morphism_corruption_detected(golden_result):
    res = golden_result
    ring = res.presentation.ring
    T = ring.table
    good = {nm: j for nm, j in
            two_branch_problem(with_verify=True).morphism.verify.items()}
    bad = dict(good)
    poison = good["Y1"].poly + parse_poly(good["Y1"].ring.table, "x1^5")
    bad["Y1"] = Jet(good["Y1"].ring, poison, good["Y1"].precision)
    with pytest.raises(VerificationFailed):
        factor_morphism(res, bad)
    del T


def test_desingularize_bound_too_small():
    with pytest.raises(BoundTooSmall) as info:
        desingularize(two_branch_problem(n=4))
    assert str(info.value) == \
        "the algorithm fails since the bound N is too small"


def test_desingularize_smooth_input_unit_multiplier():
    T = two_branch_table()
    ring = LocalRingSpec(T, [parse_poly(T, "x1*x2")],
                         primes=((parse_poly(T, "x1"),),
                                 (parse_poly(T, "x2"),)))
    prob_relations = (parse_poly(T, "Y1 - x1"),)
    v = MorphismApprox(8, {"Y1": ring.jet(parse_poly(T, "x1"), 8),
                           "Y2": ring.zero_jet(8)})
    from neron.desing import DesingProblem
    res = desingularize(DesingProblem(ring, prob_relations, v))
    one = Polynomial.const(res.presentation.table, 1)
    assert res.presentation.inverted == (one, one, one)
    cert = res.certificate
    assert cert.s == Polynomial.const(cert.s.table, 1)
    # the simplified presentation pins Y1 back to x1
    assert any(r == parse_poly(r.table, "Y1 - x1") for r in res.simplified)


def test_trace_deterministic(golden_result):
    from neron.cli import emit_trace
    res2 = desingularize(two_branch_problem(with_verify=True))
    assert emit_trace(golden_result.trace, "machine") == \
        emit_trace(res2.trace, "machine")


def test_hypersurface_certified(hypersurface_result):
    res = hypersurface_result
    cert = res.certificate
    assert cert.r == 2 and cert.pivots == (0, 2)
    assert cert.e == 1
    # the adjoined relation realizes d' = x, so d = x^2
    T = res.presentation.table
    assert nf_equal_mod(res.presentation.ring, cert.d.lift(T),
                        parse_poly(T, "x^2"))


def test_s_second_defining_property_hypersurface():
    """d * s'' - s^q * P lies in (h) + J, with q the recorded s-power.

    The hypersurface has a non-unit d (x^2) and q > 0, so a wrong power of
    d or s in s'' breaks the identity."""
    with open(os.path.join(PROBLEMS, "example1_hypersurface.gnd")) as fh:
        res = desingularize(parse_problem(fh.read()).build())
    cert = res.certificate
    ring = res.algebra.ring
    q = cert.s_second_pow
    assert q > 0 and not cert.d.is_constant()
    lhs = cert.d * cert.s_second_num - cert.s ** q * cert.P
    h_ideal = Ideal(ring.table, list(cert.h) + list(ring.j_gens))
    assert h_ideal.contains(lhs)


NO_RELATIONS = """
ring { field Q; vars x1 x2; relations x1*x2; }
algebra { vars Y1 Y2; }
morphism { precision 12; Y1 = x1 + x1^2; Y2 = x2; }
"""


def test_algebra_without_relations_certifies():
    """B = A[Y1, Y2] is smooth: f is empty, the Jacobian check over r = 0
    rows is vacuous, and nothing needs inverting."""
    res = desingularize(parse_problem(NO_RELATIONS).build())
    cert = res.certificate
    assert (cert.r, cert.f, cert.g) == (0, (), ())
    one = Polynomial.const(cert.s.table, 1)
    assert (cert.s, cert.s_prime, cert.s_second_num) == (one, one, one)
    assert verify_certificate(cert, res.algebra, res.morphism)
    assert res.simplified == ()


# -- a corrupted certificate --------------------------------------------------

@pytest.fixture(scope="module")
def checked_results():
    """A generator seed whose certificate has s, b and Q nonzero and not
    constant (p = 2), and the shipped problem whose d is (x1 + x2)^2."""
    with open(os.path.join(PROBLEMS, "example4.gnd"), encoding="utf-8") as fh:
        example4 = desingularize(parse_problem(fh.read()).build())
    return {"seed-22": desingularize(random_certificate_instance(22)),
            "example4": example4}


def _changed(res, field):
    """The certificate's fields with one coefficient of ``field`` raised
    by one: of T1^2 in Q_1 (so Q stays in (T)^2), of Y1 in h_1, of T1 in
    g_1, of the constant term in b_1, s, d, s', s'' and G[1, 1]."""
    cert = res.certificate
    table = res.algebra.table
    one = Polynomial.const(table, 1)
    t1 = Polynomial.var(table, table.block_names(TANGENT)[0])
    y1 = Polynomial.var(table, res.algebra.algebra_names()[0])
    if field == "G":
        rows = [list(row) for row in cert.G.rows]
        rows[0][0] = rows[0][0] + one
        return {"G": PolyMatrix(table, rows)}
    if field in ("s", "d", "s_prime", "s_second_num"):
        return {field: getattr(cert, field) + one}
    bump = {"Q": t1 ** 2, "h": y1, "g": t1, "b": one}[field]
    old = getattr(cert, field)
    return {field: (old[0] + bump,) + old[1:]}


# s' and s'' are read by their congruence to 1 modulo (d, T) + J, which
# says nothing on seed 22: its d is a unit.  On example4, d = (x1 + x2)^2
# and s' = s'' = 1, so 2 is not congruent to 1.
CHANGED_FIELDS = [
    pytest.param(source, field, id=f"{source}-{field}")
    for source in ("seed-22", "example4")
    for field in ("Q", "h", "g", "b", "s", "d", "G")
    + (("s_prime", "s_second_num") if source == "example4" else ())]


@pytest.mark.parametrize("source, field", CHANGED_FIELDS)
def test_a_changed_coefficient_fails_the_certificate_check(
        checked_results, source, field):
    """Each identity the check reads is exact: one coefficient more in any
    field is a CertificateFailed, exit 5.  The shifted point that
    build_hg cached stays as it was, so it cannot stand in for the
    changed field."""
    res = checked_results[source]
    bad = dataclasses.replace(res.certificate, **_changed(res, field))
    with pytest.raises(CertificateFailed) as info:
        verify_certificate(bad, res.algebra, res.morphism)
    assert info.value.exit_code == 5


@pytest.mark.parametrize("source", ["seed-22", "example4"])
def test_the_untouched_certificate_passes_the_check(checked_results, source):
    res = checked_results[source]
    assert verify_certificate(res.certificate, res.algebra, res.morphism)


BLOCK_MESSAGES = {"s": r"dh/dY is not s \* identity",
                  "d": r"dh/dY is not s \* identity",
                  "s_prime": "s' or s'' is not free of Y",
                  "s_second_num": "s' or s'' is not free of Y",
                  "g": "dg/dY is not zero"}


@pytest.mark.parametrize("field", list(BLOCK_MESSAGES))
@pytest.mark.parametrize("source", ["seed-22", "example4"])
def test_a_y_dependent_field_fails_the_block_check(checked_results, source,
                                                   field):
    """The Jacobian of (h, g) in Y is s*Id over 0 because s, d and the g
    are free of Y, and the tangent-space test needs s' and s'' free of Y;
    with Y1 added to one of them the check fails there."""
    res = checked_results[source]
    cert = res.certificate
    y1 = Polynomial.var(res.algebra.table, res.algebra.algebra_names()[0])
    old = getattr(cert, field)
    new = (old[0] + y1,) + old[1:] if field == "g" else old + y1
    bad = dataclasses.replace(cert, **{field: new})
    with pytest.raises(CertificateFailed, match=BLOCK_MESSAGES[field]):
        verify_certificate(bad, res.algebra, res.morphism)


def test_a_relation_outside_h_g_fails_the_check(checked_results):
    """example4's algebra with Y1 - 7 appended: its tangent-space image
    lies in (g) + J neither before nor after saturation by s'*s''."""
    res = checked_results["example4"]
    BT = res.algebra
    extra = parse_poly(BT.table, "Y1 - 7")
    bigger = AlgebraPresentation(BT.ring, BT.relations + (extra,))
    with pytest.raises(CertificateFailed, match="after saturation: Y1 - 7"):
        verify_certificate(res.certificate, bigger, res.morphism)


def test_a_b_outside_d_e_fails_the_check(checked_results):
    """example4 with b_1 + 1 and g_1 rebuilt to match: the check decides
    b in (d^e) + J itself, before the subsystem identities."""
    res = checked_results["example4"]
    cert = res.certificate
    one = Polynomial.const(res.algebra.table, 1)
    bad = dataclasses.replace(
        cert, b=(cert.b[0] + one,) + cert.b[1:],
        g=(cert.g[0] + cert.s ** cert.p,) + cert.g[1:])
    with pytest.raises(CertificateFailed,
                       match=r"b does not lie in \(d\^e\) \+ J"):
        verify_certificate(bad, res.algebra, res.morphism)


def test_an_expansion_with_y_fails_the_check(checked_results):
    """example4 with the expansion E_q of its first relation outside f
    shifted by h_1, and that witness shifted to match: the telescoped
    identity still holds, but E_q involves Y, so the tangent-space
    argument does not apply and the check refuses it."""
    res = checked_results["example4"]
    cert = res.certificate
    q = next(r for r in res.algebra.relations if r not in cert.f)
    point = copy.copy(cert.point)
    expand, combination = point.expand, point.h_combination

    def shifted_expand(p, *args):
        E = expand(p, *args)
        return E + cert.h[0] if p == q else E

    def shifted_combination(p, deg):
        comb = combination(p, deg)
        return [comb[0] - 1] + comb[1:] if p == q else comb

    point.expand, point.h_combination = shifted_expand, shifted_combination
    bad = dataclasses.replace(cert, point=point)
    with pytest.raises(CertificateFailed,
                       match="an expansion E_q is not free of Y"):
        verify_certificate(bad, res.algebra, res.morphism)


def test_the_saturation_fallback_decides_membership():
    """T1 lies outside (T1 + T1^2) but inside its saturation by 1 + T1,
    which is not a unit: T1 is a variable of the global block."""
    T = VarTable.make(("x", BASE), ("T1", TANGENT))
    t1, gen = parse_poly(T, "T1"), parse_poly(T, "T1 + T1^2")
    assert not Ideal(T, [gen]).contains(t1)
    assert outside_saturation([t1], [gen], (), T) == [0]
    assert outside_saturation([t1], [gen], (parse_poly(T, "1 + T1"),),
                              T) == []
    assert outside_saturation([t1 + 1], [gen], (parse_poly(T, "1 + T1"),),
                              T) == [0]


@pytest.mark.parametrize("source", ["seed-17", "example4"])
def test_construction_decides_nothing(monkeypatch, source):
    """``localize_smooth`` assembles E only: it tests no membership,
    saturates nothing, decides no congruence and takes no derivative, and
    no field of the certificate changes after ``build_hg`` returns it.
    The check, called before it, does decide."""
    desing = neron.desing
    calls = {"inside": 0, "outside": 0}
    state = {"inside": False}

    def spying(fn):
        def spy(*args, **kwargs):
            calls["inside" if state["inside"] else "outside"] += 1
            return fn(*args, **kwargs)
        return spy

    for owner, name in ((Ideal, "contains"), (Polynomial, "derivative"),
                        (desing, "saturate"), (desing, "congruent_to_one")):
        monkeypatch.setattr(owner, name, spying(getattr(owner, name)))
    built = {}
    build_hg, localize_smooth = desing.build_hg, desing.localize_smooth

    def build(*args):
        cert, BT, vT = build_hg(*args)
        built.update(vars(cert))
        return cert, BT, vT

    def localize(*args):
        state["inside"] = True
        try:
            return localize_smooth(*args)
        finally:
            state["inside"] = False
    monkeypatch.setattr(desing, "build_hg", build)
    monkeypatch.setattr(desing, "localize_smooth", localize)
    if source == "seed-17":
        res = desingularize(random_certificate_instance(17))
    else:
        with open(os.path.join(PROBLEMS, "example4.gnd"),
                  encoding="utf-8") as fh:
            res = desingularize(parse_problem(fh.read()).build())
    assert calls["inside"] == 0 and calls["outside"] > 0
    assert built and all(getattr(res.certificate, k) is v
                         for k, v in built.items())


# -- the shifted point's power caches ----------------------------------------

POWER_TABLE = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA))
# the ring of a lift: J = (x1^2*x2) is one-dimensional
POWER_RING = LocalRingSpec(POWER_TABLE, [parse_poly(POWER_TABLE, "x1^2*x2")])


def _jets(texts, precision=12, ring=POWER_RING):
    return [ring.jet(parse_poly(ring.table, t), precision) for t in texts]


def test_advanced_power_cache_is_the_fresh_cache():
    # J = 0 over one base variable, whose jets take the convolution path,
    # then J = (x1^2*x2), then polynomials
    table = VarTable.make(("x1", BASE), ("Y1", ALGEBRA))
    line = LocalRingSpec(table, [])
    cases = [_jets(["3 - x1 + 2/3*x1^2 - 5*x1^6 + x1^9",
                    "-7/2*x1^4 + x1^5 + 2*x1^8"], 10, line),
             _jets(["3 - x1 + 2/3*x1^2*x2 - x2^4 + 5*x1^6",
                    "-7/2*x1^4 + x1^3*x2^2 + 2*x2^5"], 10),
             [parse_poly(POWER_TABLE, t) for t in
              ("1/2*Y1 - x1 + 2*x1*x2", "3*x2^2*Y1 - x1^3 + 1")]]
    for base, d in cases:
        fresh = _PowerCache(base + d)
        # read in order, with the powers of W already built
        old = _PowerCache(base)
        old[4]
        new = old.advance(d)
        assert [new[a] for a in range(5)] == [fresh[a] for a in range(5)]
        # read the highest power first, with the powers of W still to build
        new = _PowerCache(base).advance(d)
        assert new[4] == fresh[4]
        assert [new[a] for a in range(4)] == [fresh[a] for a in range(4)]


def _point(t_texts):
    """The shifted point of a lift with G = (1 + x1), s = 1, d = x1 and
    e = 1, at the tangent jets of ``t_texts``."""
    G = PolyMatrix(POWER_TABLE, [[parse_poly(POWER_TABLE, "1 + x1")]])
    one = Polynomial.const(POWER_TABLE, 1)
    return ShiftedPoint(POWER_RING, {"Y1": parse_poly(POWER_TABLE, "1 + x2")},
                        G, one, parse_poly(POWER_TABLE, "x1"), 1,
                        _jets(t_texts))


def test_a_move_builds_the_square_from_the_step(monkeypatch):
    point = _point(["x1 - 2*x2 + 3*x1*x2^2"])
    point.W_pow[0][2]
    point.move(_jets(["x1^5 - 4*x2^7"]))
    step, = _jets(["(1 + x1)*(x1^5 - 4*x2^7)"])
    factors = []
    jet_mul = Jet.__mul__

    def spy(a, b):
        factors.append((a, b))
        return jet_mul(a, b)
    monkeypatch.setattr(Jet, "__mul__", spy)
    square = point.W_pow[0][2]
    monkeypatch.undo()
    assert square == point.W_pow[0][1] * point.W_pow[0][1]
    assert len(factors) == 1 and step in factors[0]


def test_power_cache_chain_is_one_deep():
    point = _point(["0"])
    caches = [point.W_pow[0]]
    for text in ("x1 + x2^2", "-x1^4*x2"):
        point.W_pow[0][2]
        point.move(_jets([text]))
        caches.append(point.W_pow[0])
    first, second, third = caches
    assert first._prev is second._prev is None
    assert third._prev[0] is second
    assert third[2] == third[1] * third[1]


# the seeds of the ``seeds`` workload, and the shipped problems whose d
# lies in the maximal ideal; example4 also has a relation outside f, so
# the check expands it with k_min = 0
EXPANSION_SOURCES = [*range(17, 28), "example1_hypersurface", "example4"]


@pytest.mark.parametrize("source", EXPANSION_SOURCES, ids=str)
def test_expand_is_the_sum_taken_term_by_term(monkeypatch, source):
    """Each expansion that build_hg and verify_certificate make (Q, s''
    and the rewriting of the relations outside f), one product by the
    powers of s and d per Taylor degree, is the sum taken term by term."""
    if isinstance(source, int):
        problem = random_certificate_instance(source)
    else:
        path = os.path.join(PROBLEMS, f"{source}.gnd")
        with open(path, encoding="utf-8") as fh:
            problem = parse_problem(fh.read()).build()
    calls = []
    expand = ShiftedPoint.expand

    def spy(point, q, p, d_shift, k_min):
        got = expand(point, q, p, d_shift, k_min)
        calls.append((point, q, p, d_shift, k_min, got))
        return got
    monkeypatch.setattr(ShiftedPoint, "expand", spy)
    desingularize(problem)
    monkeypatch.undo()
    assert calls
    for point, q, p, d_shift, k_min, got in calls:
        assert got == taylor_sum_per_alpha(point, q, p, d_shift, k_min)
