"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.

Criterion 3 is split into membership and radical assertions about the
space-curve example.  The radical assertion states three facts about the
pre-radical smoothness sum H + I + J, each checked exactly and against
``sympy.groebner``: no x_i lies in its radical, because over the algebraic
closure the relation ideal has two extra branches (w*t, t, w^2*t), with
w^2 + w + 1 = 0, on which every generator vanishes at Y = 0 (see
test_space_curve_twisted_witness); x1 + x2 + x3 does lie in it, so B is
smooth over A outside V(x1 + x2 + x3); and each x_i lies in it once
Y = (1, 1, 1), the morphism of problems/example21.gnd, is imposed.
"""

import time

import pytest

from conftest import (CERTIFICATE_SEEDS, KNOWN_SLOW, REJECTED_SEEDS,
                      hypersurface_problem, random_certificate_instance,
                      space_curve_data, two_branch_problem)
from neron import (ALGEBRA, BASE, Polynomial, PolyMatrix, VarTable,
                   buchberger_criterion, det, det_adjugate, global_order,
                   ideal_equal, ideal_quotient, jacobian, lift_division,
                   minors, mixed_order, normal_form_against, parse_poly,
                   radical_membership, saturate, std_basis)
from neron.desing import (AlgebraPresentation, _Telescope,
                          certify_subsystem_membership, desingularize,
                          elkik_ideal, factor_morphism, verify_certificate)
from neron.errors import (ConditionStarStarFailed, NeronError,
                          VerificationFailed)
from neron.lifting import (LiftingProblem, newton_lift, nu_bound,
                           strong_approx_decide)
from neron.localring import Jet, LocalRingSpec


def _verdict(name, ok, detail=""):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, name


def nf_zero(p, gens, table, order):
    basis = std_basis([g for g in gens if not g.is_zero()], table, order)
    return normal_form_against(p, basis, table, order).is_zero()


def test_criterion_1_golden_trace():
    """Trace equality for the worked two-branch example, N = 12, fixed seed.

    The relation list fixes the sign convention recorded for the subsystem
    (the binomial form x2*Y1 - x1*Y2); all displayed values reproduce the
    published items as residues modulo the base relations, and the final
    presentation matches literally.
    """
    t0 = time.monotonic()
    prob = two_branch_problem(with_verify=True)
    res = desingularize(prob)
    ring = prob.ring
    T0 = ring.table
    order = ring.order

    # minimal primes
    prime_strs = {tuple(sorted(str(g) for g in p)) for p in ring.primes}
    assert prime_strs == {("x1",), ("x2",)}

    # smoothness ideal radical-equal to (x1, x2) in B
    B = AlgebraPresentation(ring, prob.relations)
    data = elkik_ideal(B, 3)
    gens_all = list(data.gens) + list(prob.relations) + list(ring.j_gens)
    assert radical_membership(parse_poly(T0, "x1"), gens_all, T0)
    assert radical_membership(parse_poly(T0, "x2"), gens_all, T0)
    target = [parse_poly(T0, "x1"), parse_poly(T0, "x2")] \
        + list(prob.relations) + list(ring.j_gens)
    for g in data.gens:
        assert radical_membership(g, target, T0)

    cert = res.certificate
    T = cert.P.table

    # subsystem and completion, modulo the recorded sign conventions
    assert cert.f[0] == parse_poly(T, "x2*Y1 - x1*Y2")
    dH = det(cert.H)
    assert dH in (parse_poly(T, "x1 + x2"), parse_poly(T, "-x1 - x2"))
    assert cert.R == parse_poly(T, "x1 + x2")
    assert cert.P == parse_poly(T, "(x1 + x2)^2")
    order_T = mixed_order(T)
    d_basis = std_basis([g.lift(T) for g in ring.j_gens], T, order_T)
    assert normal_form_against(cert.d - parse_poly(T, "(x1+x2)^2"),
                               d_basis, T, order_T).is_zero()
    assert cert.e == 1
    assert all(b.is_zero() for b in cert.b)
    one = Polynomial.const(T, 1)
    assert cert.s == one
    assert cert.s_prime == one
    assert cert.s_second_num == one
    t_names = T.block_names("tangent")
    assert list(cert.g) == [Polynomial.var(T, t_names[0])]

    # final relations, literally
    TP = res.presentation.table
    y1 = res.morphism.jets["Y1"].poly.lift(TP)
    y2 = res.morphism.jets["Y2"].poly.lift(TP)
    t2 = Polynomial.var(TP, TP.block_names("tangent")[1])
    want = {parse_poly(TP, "Y1") - y1 - parse_poly(TP, "x1^4") * t2,
            parse_poly(TP, "Y2") - y2 - parse_poly(TP, "x2^4") * t2}
    assert set(res.simplified) == want

    elapsed = time.monotonic() - t0
    _verdict("criterion 1 (golden trace)", elapsed < 10.0,
             f"{elapsed:.2f} s")


def test_criterion_2_hypersurface_and_colon_identity():
    """Certified output for Y1*Y2 = x^2 plus the displayed colon identity."""
    t0 = time.monotonic()
    res = desingularize(hypersurface_problem())
    assert res.certificate.s_prime is not None
    # independent ideal-engine check of the displayed quotient
    T = VarTable.make(("x", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA),
                      ("T1", ALGEBRA), ("T2", ALGEBRA))
    order = mixed_order(T)
    h1 = parse_poly(T, "Y1 - x - x*T1 + x^2*T2")
    h2 = parse_poly(T, "Y2 - x - x^2*T2")
    lhs = ideal_quotient([parse_poly(T, "Y1*Y2 - x^2"), h1, h2],
                         [parse_poly(T, "x^2")], T, order)
    rhs = [parse_poly(T, "x*T1*T2 - x^2*T2^2 + T1"), h1, h2]
    assert ideal_equal(lhs, rhs, T, order)
    elapsed = time.monotonic() - t0
    _verdict("criterion 2 (hypersurface + colon identity)", elapsed < 10.0,
             f"{elapsed:.2f} s")


def test_criterion_3_membership_assertions():
    """Exact membership checks for the space-curve example."""
    t0 = time.monotonic()
    T, J, alpha, fs = space_curve_data()
    f1, f2, f3 = fs
    order = mixed_order(T)
    I = list(fs)
    # x2*I in (f1) and the x1, x3 analogues
    for scale, f in (("x2", f1), ("x1", f2), ("x3", f3)):
        basis = std_basis([f] + J, T, order)
        for g in I:
            assert normal_form_against(parse_poly(T, scale) * g, basis, T,
                                       order).is_zero()
    # scaled Fitting witnesses in the minor ideals, all three analogues
    for minor_txt, f in (("x2^2*Y2", f1), ("x1^2*Y1", f2), ("x3^2*Y3", f3)):
        jac = PolyMatrix(T, jacobian([f], ["Y1", "Y2", "Y3"]))
        mlist = minors(jac, 1)
        basis = std_basis(mlist, T, order)
        assert normal_form_against(parse_poly(T, minor_txt), basis, T,
                                   order).is_zero()
    # gamma lies in (x1*Y1, x2*Y2, x3*Y3) + I saturated at gamma
    gamma = parse_poly(T, "x1 + x2 + x3")
    S = [parse_poly(T, "x1*Y1"), parse_poly(T, "x2*Y2"),
         parse_poly(T, "x3*Y3")]
    sat, _ = saturate(S + I + J, gamma, T, order)
    basis_sat = std_basis(list(sat), T, order)
    assert normal_form_against(gamma, basis_sat, T, order).is_zero()
    elapsed = time.monotonic() - t0
    _verdict("criterion 3 (membership assertions)", elapsed < 30.0,
             f"{elapsed:.2f} s")


def _space_curve_smoothness_sum():
    """The space-curve example and the generators of H + I + J.

    H is the pre-radical smoothness ideal built by ``elkik_ideal``, I the
    relation ideal of B = A[Y]/I and J the relation ideal of A.
    """
    T, J, alpha, fs = space_curve_data()
    ring = LocalRingSpec(T, J)
    data = elkik_ideal(AlgebraPresentation(ring, fs), 3)
    return T, list(data.gens) + list(fs) + J


def _twisted_value(p, table):
    """Value of ``p`` at x = (w*t, t, w^2*t), Y = 0, in Q[w]/(w^2+w+1)[t].

    The point lies on one of the two conjugate branches of the relation
    ideal of the space-curve example that are not defined over Q.  By the
    Nullstellensatz a point over Q(w) decides radical membership over Q.
    """
    from neron.orders import AUX
    TW = VarTable.make(("t", BASE), ("w", AUX))
    w = parse_poly(TW, "w")
    t = parse_poly(TW, "t")
    w_squared = parse_poly(TW, "-w - 1")

    def reduce_w(q):
        # reduce w-degree by w^2 = -w - 1
        while True:
            high = [(m, c) for m, c in q.terms.items() if m[1] >= 2]
            if not high:
                return q
            m, c = high[0]
            q = q - Polynomial(TW, {m: c}) \
                + Polynomial(TW, {(m[0], m[1] - 2): c}) * w_squared

    zero = Polynomial.zero(TW)
    point = {"x1": w * t, "x2": t, "x3": w_squared * t,
             "Y1": zero, "Y2": zero, "Y3": zero}
    acc = zero
    for m, c in p.terms.items():
        factor = Polynomial.const(TW, c)
        for i, e in enumerate(m):
            if e:
                factor = reduce_w(factor * point[table.names[i]] ** e)
        acc = reduce_w(acc + factor)
    return acc


def _sympy_radical_membership(p, gens, table):
    """Independent oracle: Rabinowitsch trick through ``sympy.groebner``."""
    import sympy
    syms = sympy.symbols(table.names)
    z = sympy.Symbol("z_rabinowitsch")

    def expr(q):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(s ** e for s, e in zip(syms, m)))
                    for m, c in q.terms.items()), sympy.Integer(0))

    work = [expr(g) for g in gens if not g.is_zero()] + [1 - z * expr(p)]
    return sympy.groebner(work, *syms, z, order="grevlex").exprs == [1]


def test_criterion_3_radical_assertion():
    """Radical statements about the pre-radical smoothness sum H + I + J of
    the space-curve example, A = (Q[x]/(x1^2 - x2*x3, x3^2 - x1*x2))_(x).

    1. No x_i lies in sqrt(H + I + J).  The twisted point
       x = (w*t, t, w^2*t), Y = 0 with w^2 + w + 1 = 0 lies in
       V(H + I + J) and no x_i vanishes there; see
       test_space_curve_twisted_witness.
    2. x1 + x2 + x3 lies in sqrt(H + I + J): B is smooth over A outside
       V(x1 + x2 + x3), which contains the twisted branches.
    3. At the morphism Y = (1, 1, 1) of problems/example21.gnd each x_i lies
       in sqrt(H + I + J + (Y1 - 1, Y2 - 1, Y3 - 1)), so v(H_{B/A})A' is
       m-primary up to radical.

    Every verdict of ``radical_membership`` is compared with the expected
    one and with an independent ``sympy.groebner`` computation.
    """
    t0 = time.monotonic()
    T, gens_all = _space_curve_smoothness_sum()
    on_point = [parse_poly(T, f"Y{i} - 1") for i in (1, 2, 3)]
    # statement 1: the twisted point lies in V(H + I + J) and no x_i
    # vanishes there, so each expected verdict is False
    assert all(_twisted_value(g, T).is_zero() for g in gens_all)
    xs = {nm: parse_poly(T, nm) for nm in ("x1", "x2", "x3")}
    assert not any(_twisted_value(x, T).is_zero() for x in xs.values())
    cases = [(nm, x, gens_all, False) for nm, x in xs.items()]
    cases.append(("x1 + x2 + x3", sum(xs.values(), Polynomial.zero(T)),
                  gens_all, True))
    cases += [(f"{nm} at Y = 1", x, gens_all + on_point, True)
              for nm, x in xs.items()]
    wrong = []
    for label, p, gens, expected in cases:
        got = radical_membership(p, gens, T)
        oracle = _sympy_radical_membership(p, gens, T)
        if (got, oracle) != (expected, expected):
            wrong.append(f"{label}: engine {got}, sympy {oracle}, "
                         f"expected {expected}")
    elapsed = time.monotonic() - t0
    _verdict("criterion 3 (radical assertion)", not wrong,
             "; ".join(wrong) or f"{len(cases)} verdicts agree with sympy, "
             f"{elapsed:.2f} s")


def test_space_curve_twisted_witness():
    """Exact witness that no x_i lies in the radical of H + I + J.

    Evaluate every generator at x = (w*t, t, w^2*t), Y = 0, computing in
    Q[w]/(w^2 + w + 1).  All generators vanish identically while x1 = w*t,
    x2 = t and x3 = w^2*t do not, exhibiting a point of the vanishing locus
    outside V(x1), V(x2) and V(x3).  The check never calls
    ``radical_membership``.
    """
    T, gens_all = _space_curve_smoothness_sum()
    for g in gens_all:
        assert _twisted_value(g, T).is_zero()
    for nm in ("x1", "x2", "x3"):
        assert not _twisted_value(parse_poly(T, nm), T).is_zero(), nm


def test_criterion_4_certificate_property_suite():
    """At least 20 seeded random valid instances, 100% certificate pass."""
    t0 = time.monotonic()
    passed = 0
    for seed in CERTIFICATE_SEEDS:
        prob = random_certificate_instance(seed)
        assert prob is not None
        res = desingularize(prob)  # raises CertificateFailed on any defect
        cert = res.certificate
        BT = res.algebra
        ringT = BT.ring
        # G*H = P*Id, pivot identity, d = P mod I, Q in (T)^2
        verify_certificate(cert, BT, res.morphism, taylor_nf=False)
        # Taylor identity in (h), with the combination exhibited exactly
        certify_subsystem_membership(cert, BT, res.morphism)
        # multipliers congruent to 1 modulo (d, T)
        table = ringT.table
        order = ringT.order
        t_vars = [Polynomial.var(table, nm)
                  for nm in table.block_names("tangent")]
        dt_basis = std_basis([cert.d] + t_vars + list(ringT.j_gens),
                             table, order)
        for unit in (cert.s, cert.s_prime, cert.s_second_num):
            assert normal_form_against(unit - 1, dt_basis, table,
                                       order).is_zero()
        passed += 1
    elapsed = time.monotonic() - t0
    _verdict("criterion 4 (certificate suite)",
             passed >= 20 and passed == len(CERTIFICATE_SEEDS),
             f"{passed} instances, {elapsed:.1f} s")


def test_generator_seed_statuses_partition_the_range():
    """Each seed of range(32) certifies, is rejected or is known slow."""
    groups = (CERTIFICATE_SEEDS, REJECTED_SEEDS, KNOWN_SLOW)
    assert sum(len(g) for g in groups) == 32
    assert set().union(*groups) == set(range(32))


@pytest.mark.parametrize("seed", REJECTED_SEEDS)
def test_rejected_seeds_fail_condition_star_star(seed):
    """The rejected seeds fail the typed precondition, with diagnostics."""
    with pytest.raises(ConditionStarStarFailed) as info:
        desingularize(random_certificate_instance(seed))
    assert info.value.diagnostics


def test_criterion_4_taylor_nf_cross_check():
    """Cross-validate the telescoped witness against the normal-form route
    on a sample of the suite instances."""
    for seed in CERTIFICATE_SEEDS[:6]:
        prob = random_certificate_instance(seed)
        res = desingularize(prob)
        verify_certificate(res.certificate, res.algebra, res.morphism,
                           taylor_nf=True)


def test_criterion_5_jet_factorization():
    """Verification jets to precision 24 pass; a corrupted one fails."""
    t0 = time.monotonic()
    res = desingularize(two_branch_problem(with_verify=True))
    rep = res.jet_map
    assert rep is not None and rep.passed
    assert all(ok for _, ok in rep.checks)
    good = two_branch_problem(with_verify=True).morphism.verify
    bad = dict(good)
    poison = good["Y1"].poly + parse_poly(good["Y1"].ring.table, "x1^5")
    bad["Y1"] = Jet(good["Y1"].ring, poison, good["Y1"].precision)
    with pytest.raises(VerificationFailed):
        factor_morphism(res, bad)
    elapsed = time.monotonic() - t0
    _verdict("criterion 5 (jet factorization)", True, f"{elapsed:.2f} s")


def test_criterion_6_lifting():
    """Linear bound grid, square-root lift to precision 30, recovery."""
    t0 = time.monotonic()
    for e in (0, 1, 2):
        for rho in (0, 1, 2):
            for c in (1, 2, 3):
                assert nu_bound(e, rho, c) == (e + 1) * (rho + 1) + c
    T = VarTable.make(("x", BASE), ("Y", ALGEBRA))
    ring = LocalRingSpec(T, [], primes=[()], check_dimension=False)
    prob = LiftingProblem(ring, (parse_poly(T, "Y^2 - 1 - x"),), (0,),
                          {"Y": parse_poly(T, "1")}, 1, 30)
    rep = newton_lift(prob)
    y = rep.lifted["Y"]
    assert (y * y - ring.jet(parse_poly(T, "1 + x"), 30)).is_zero()
    prob2 = LiftingProblem(ring, (parse_poly(T, "Y^2 - (1+x)^2"),), (0,),
                           {"Y": parse_poly(T, "1 + x")}, 2, 20)
    rep2 = strong_approx_decide(prob2, {"Y": parse_poly(T, "1 + x + x^10")},
                                9)
    yy = rep2.lifted["Y"]
    assert (yy * yy - ring.jet(parse_poly(T, "(1+x)^2"), 20)).is_zero()
    assert ring.reduce_jet(yy.poly - parse_poly(T, "1 + x"), 2).is_zero()
    elapsed = time.monotonic() - t0
    _verdict("criterion 6 (lifting)", elapsed < 30.0, f"{elapsed:.2f} s")


def test_criterion_7_kernel_property_suites():
    """Buchberger criterion on cached bases, adjugate identity, witnesses."""
    import random
    t0 = time.monotonic()
    T = VarTable.make(("x1", BASE), ("x2", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA))
    order = mixed_order(T)
    rng = random.Random(41)

    def rnd(maxdeg=2, terms=3):
        p = Polynomial.zero(T)
        for _ in range(terms):
            mon = tuple(rng.randint(0, maxdeg) for _ in T.names)
            p = p + Polynomial.from_terms(T, [(mon, rng.randint(-3, 3))])
        return p

    # audit the bases of random Ideals and of a ring's J and prime Ideals
    from neron import Ideal
    from neron.localring import minimal_primes
    ideals = []
    for _ in range(6):
        gens = [g for g in (rnd(), rnd()) if not g.is_zero()]
        if gens:
            ideals.append(Ideal(T, gens))
    J = [parse_poly(T, "x1*x2")]
    ring = LocalRingSpec(T, J, primes=minimal_primes(J, T))
    ideals += [ring.j_ideal, *ring.prime_ideals]
    audited = 0
    for ideal in ideals:
        for o in (order, global_order()):
            assert buchberger_criterion(ideal.basis(o), ideal.table, o)
            audited += 1
    assert audited >= 10

    # adjugate identity on random matrices
    from neron import identity
    for n in (2, 3):
        for _ in range(4):
            M = PolyMatrix(T, [[rnd(1, 2) for _ in range(n)]
                               for _ in range(n)])
            d, adj = det_adjugate(M)
            prod = adj.matmul(M)
            for i in range(n):
                for j in range(n):
                    want = d if i == j else Polynomial.zero(T)
                    assert prod[i, j] == want

    # witnessed membership re-expansion
    gens = [parse_poly(T, "x2*Y1 - x1*Y2"), parse_poly(T, "x1*x2")]
    w = lift_division(parse_poly(T, "x1^2*Y2"), gens, T, order)
    assert w.check() and w.remainder.is_zero()

    # (I : J) * J inside I
    for _ in range(5):
        gi = [g for g in (rnd(), rnd()) if not g.is_zero()]
        gj = [g for g in (rnd(1, 2),) if not g.is_zero()]
        if not gi or not gj:
            continue
        q = ideal_quotient(gi, gj, T, order)
        basis = std_basis(gi, T, order)
        for a in q:
            for b in gj:
                assert normal_form_against(a * b, basis, T, order).is_zero()
    elapsed = time.monotonic() - t0
    _verdict("criterion 7 (kernel property suites)", True, f"{elapsed:.1f} s")
