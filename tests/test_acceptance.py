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

import glob
import hashlib
import os
import time

import pytest

from conftest import (CERTIFICATE_SEEDS, KNOWN_SLOW, REJECTED_SEEDS,
                      buchberger_criterion, hypersurface_problem,
                      random_certificate_instance, space_curve_data,
                      two_branch_problem)
from neron import (ALGEBRA, BASE, TANGENT, Ideal, Polynomial, PolyMatrix,
                   VarTable, det, det_adjugate, format_poly,
                   global_order, ideal_quotient, jacobian,
                   lift_division, minors, mixed_order, normal_form_against,
                   parse_poly, radical_membership, same_ideal, saturate,
                   std_basis)
from neron.cli import emit_trace
from neron.desing import (AlgebraPresentation, congruent_to_one,
                          desingularize, elkik_ideal, factor_morphism,
                          verify_certificate)
from neron.errors import (ConditionStarStarFailed, NeronError,
                          VerificationFailed)
from neron.lifting import (LiftingProblem, newton_lift, nu_bound,
                           strong_approx_decide)
from neron.localring import Jet, LocalRingSpec
from neron.problemfile import parse_problem


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
    h1 = parse_poly(T, "Y1 - x - x*T1 + x^2*T2")
    h2 = parse_poly(T, "Y2 - x - x^2*T2")
    lhs = ideal_quotient([parse_poly(T, "Y1*Y2 - x^2"), h1, h2],
                         [parse_poly(T, "x^2")], T)
    rhs = [parse_poly(T, "x*T1*T2 - x^2*T2^2 + T1"), h1, h2]
    assert same_ideal(Ideal(T, lhs), Ideal(T, rhs))
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
    sat, _ = saturate(Ideal(T, S + I + J), gamma)
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


# sha256 of the machine trace, then format_poly of every presentation
# relation, one per line; a change to any digest means a computed value or
# the trace format changed
SEED_DIGESTS = {
    0: "feca30bb9194a53a1dbc4e07fbdbd6d3a0e2681373771f0b6e9be974ef1e5ba8",
    1: "b835df0a554c94368b775a7b0f1930a06c23e352b7053b8afec5c51123c4acad",
    2: "3085a4e5aceb8d6428f026044ee646aa11c34d291d3579e63e70bc5ba8a008bf",
    3: "6132ebf7c4b399d87bb580c809c1530b98824180cbb2280c03d8d932dbe74a54",
    4: "23fd49ede8d27aea689ff76c25730e4a1e29739866a951b37c838e56519bbf0d",
    6: "4b49878564d4d75d7be0c201da3ae80b3ce57807abc579598ae8d7d738942715",
    7: "e0cd7f8de270d79f0f11fc23210a3ad35f0a9414cba06c8cf0ca9e1a04e4a42f",
    8: "843aae03150df7f4d8e2d4af3e14918bb0847f5bfa1127f262503028af6e15a7",
    10: "f2de3b346f708f8a8e20ee3e701d433f031c6778447e0a653c8302e892ff4c4b",
    11: "38e5816e1c9894736199a21db2c2cd0d7da84a5dc856a4a0fa036e5ba9da6868",
    12: "76ea5ce473cebd47d43e2d6eb2a5b0fb2a352d97d8231e381fcb10bab6ab2fdb",
    13: "a964e0cf9f6bdb26362cea9fe57e34bed17bfe0306ed5e644aa244031e68a24a",
    14: "8db9abd774a89d3a8f6a52677cfd888ad0131e1be9693376542e7da33c29103a",
    15: "7441a81b6863d04ada9bad3411ea8a0486cc8776bea603592faf7741317b9015",
    16: "65f18cf0c3d73dd1b061f5e66b927aeca435b04a24dcc5d987fcc6e1f1c506b0",
    17: "5d50752d5e3bec44328e97486dac532e45b6e425e08e60316ba688787fe1fbc9",
    18: "1b1bb192a7f6aa456a4ed05b6ff3096797f7606f70808227f9146f4cf2cd9280",
    19: "01a68136bc78dddad269f47f8edc0f337c0ae0b1001ca8478270ec22e3596bf2",
    20: "502c345314582b5a0c98c94e87f9ab605bcaec7b2b5783049e6bde8fcbe1368a",
    21: "e24a1052d5fe1067524b1b0faea2bc70cb39ff2d4018fd2ed5adf6d7852d146b",
    22: "7b10c3061e5c11080998cf0f48d30e5219fa631f1a6fb783b50350d39dde8e00",
    23: "f2de3b346f708f8a8e20ee3e701d433f031c6778447e0a653c8302e892ff4c4b",
    24: "59324d8c9a116c8cc6a80bd616a94dc281cc6c11001f3f0a79a82611ea6e399e",
    25: "2244729627f5790e079c5179ea79e938b000fb7fe577d56d51ad660d18f1749b",
    26: "fc15ae8d96029a1d3edd56dc0c5f78de0bb3b1445d0969da29bd245909c60a27",
    27: "f3f32094f8e36d5b75f94ea54fc744261ef43d264fcc8dbf2436f063be767a12",
    28: "35c994197e81fa904702b79bed16dd0d961f67da907a18b1b7f783f2150df0d6",
    29: "f2de3b346f708f8a8e20ee3e701d433f031c6778447e0a653c8302e892ff4c4b",
    31: "418fadd4e9156a4611584bc9c8334568111182bb54ecedd3463567b95a435ce5",
}


def _output_digest(res):
    order = mixed_order(res.presentation.table)
    h = hashlib.sha256(emit_trace(res.trace, "machine"))
    for p in res.presentation.relations:
        h.update(format_poly(p, order).encode() + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def certified_seeds():
    """desingularize on every certificate seed, run once for the module."""
    results = {}
    for seed in CERTIFICATE_SEEDS:
        prob = random_certificate_instance(seed)
        assert prob is not None
        results[seed] = desingularize(prob)
    return results


def test_criterion_4_certificate_property_suite(certified_seeds):
    """At least 20 seeded random valid instances, 100% certificate pass,
    each with its pinned output digest."""
    t0 = time.monotonic()
    passed = 0
    changed = []
    for seed, res in certified_seeds.items():
        # desingularize raised CertificateFailed on any defect
        if _output_digest(res) != SEED_DIGESTS[seed]:
            changed.append(seed)
        cert = res.certificate
        BT = res.algebra
        ringT = BT.ring
        # G*H = P*Id, pivot identity, d = P mod I, Q in (T)^2, the
        # definitions of h and g, the Taylor identity by its telescoped
        # combination of the h, and the subsystem relations modulo J
        verify_certificate(cert, BT, res.morphism)
        # inverted factors congruent to 1 modulo (d, T)
        table = ringT.table
        order = mixed_order(table)
        t_vars = [Polynomial.var(table, nm)
                  for nm in table.block_names("tangent")]
        dt_basis = std_basis([cert.d] + t_vars + list(ringT.j_gens),
                             table, order)
        for unit in (cert.s, cert.s_prime, cert.s_second_num):
            assert normal_form_against(unit - 1, dt_basis, table,
                                       order).is_zero()
        passed += 1
    elapsed = time.monotonic() - t0
    assert not changed, f"output digests changed for seeds {changed}"
    _verdict("criterion 4 (certificate suite)",
             passed >= 20 and passed == len(CERTIFICATE_SEEDS),
             f"{passed} instances, {elapsed:.1f} s")


# Recorded when localize_smooth still expanded the multiplier s*s'*s'' and
# inverted it with a single variable W.  Per input: the sha256 of the
# machine trace records 1-18 followed by format_poly of the g and h
# relations, one per line; and the sha256 of format_poly of the expanded
# multiplier.  The multiplier was not recorded for seeds 14 and 31, whose
# expansion alone took most of their 19 s and 41 s.  The first digest of
# seeds 0, 11, 12, 13, 16, 17, 20, 24 and 27 was re-pinned with SEED_DIGESTS
# (record 3 only).
PARENT_OUTPUT = {
    "hypersurface": (
        "e37354e2fed0ee1030eecfbdcb4587df37dd3f237109b98ca18980f89e334caf",
        "6858256b1a05e7969e647120450a89878037aff4c51945205a29997d3252495e"),
    0: (
        "c201a4df63f5365231c87f09446c953fd1cb47e9ddf66e7b63485d189ba01042",
        "d0ca224b5c725e034c70eb698c137f3b292740009f31b5f5e42485b5b11b44fb"),
    1: (
        "26c67bf518ca26f3bb55f91e855d5c27c77694a1006fa7be8ed8fcad246b0e68",
        "5afa54ee9159f56c565839feb9a790ca66318b491e067ba134e0f166c346b6d9"),
    2: (
        "c865a6bd9dbf7103cb4139ea1cdd67a8bfa75d9f8bc11aa69a248b298b8ebc0e",
        "7d14c70bf1dfc19badc475ea3d91cb76032273f1bd831c3009e6e7e65dc2cb80"),
    3: (
        "9c86706e229a32e78d146569c70e016c5bf1d0b2005d2ce633121fe23feaaecf",
        "1c27665d5afd59d1e50fcefa13f997860b950ad667f543b592f7c372931fc7e8"),
    4: (
        "16f2eb2b6c23365d57a6d8d73e219b6c8444a78da7ebf74ea58a76c79ebb73b9",
        "c45c3fceb39a7493e4926e0bba80f1e40e91409f4d9b2629d9e8e2622683bfb5"),
    6: (
        "5b035c773644a975f45ba7df93b2f988483e906ccf6780d6d82972b371e1859b",
        "1fda401e9d0fb4554e65b97d2379533d898297c399298321092b2568a5db208e"),
    7: (
        "d1aa6ae72c26dbc0c8a1449e6f74272276a8ae10a19d072071690148d70a1a81",
        "71c81b891830505fc52f6dce4cfdadf26306750ec65cf10ff3f3d24d4ff217cf"),
    8: (
        "c6ef8684f717f3829958231c06cb4033db3c702bedf481074165d6e7b201ce17",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    10: (
        "6b551becc9c1d1e85a0b5ad83c3fcd6c32be988193e55e9bc7905098f9cec956",
        "71c81b891830505fc52f6dce4cfdadf26306750ec65cf10ff3f3d24d4ff217cf"),
    11: (
        "636abe2dd9b7ae5e7de8723caf3e0711d7ed348f43542700ff99bda49ba55004",
        "3e009c1acaec5726993643cc36cfa953ae116a5fe53ba4ceaad6963190f1d63a"),
    12: (
        "cda34ddb684c3a37f99320c9522fa362a772b2567f56ff75983719705de369e5",
        "b892973208e493ccfa5c14f16ddce6788200184742e00e2d1c7d462fcd69f651"),
    13: (
        "596b51b066cff928c4ec93c4466c67c1c448c78ce9c3b5139e7f21a6cc0b9de5",
        "d3d25b09bc2325ed0d7007d6990236d7e1c3c67a211152850134d55c8a1376e9"),
    14: (
        "6a5c0e233c324ac9b696201796e65bdc1e660f2c4064d7636a94a7c2769f0dfe",
        None),
    15: (
        "cdd76ff75604d4575190d9fec147759cd701c06359fe680f1c3b472d212e7d61",
        "739a2afd34b15ba455f9f47fdfe95ad6441259dd1edb1fb255a02a01e38e1cfe"),
    16: (
        "b94c27f9cfae24a2d8dec08b5bac83b48721e21df55d558c147e4312f40c0b7c",
        "2c3aaf8237d5cf79d7573bb361b386d9b82b2488fb6d29fcce2e1d07bfcb57a8"),
    17: (
        "2cad61f805717cd17ca17a0d9e61b0c7744d5989aced1ed21dc487cfe71f25ab",
        "9bffe7b687e8a41b783ef0058aa4b663156b8686c3a9717ec7cdde6bdfad38f6"),
    18: (
        "6ec3c27b2dc688fd6f182b6ba59b6f92c77a97c9ea18a5aa7f724ce476bda1a0",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    19: (
        "51733cbf462514ff880548bbb5af38d0e0d5b3092fe5258ebdb4712ae420158f",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    20: (
        "917c69cbc81606db60e53d5e0e798af60641de608b8c0a0d4a5b6f3328e7cbed",
        "c57ccf981b719f0f1cf2ff94788e53d0a929d75537daac6c10e4dea9cbbe7823"),
    21: (
        "8ba4c5d73ee7d78d2b4cf713d11b112543af5ec08441a6f6bbcf9e79bb094657",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    22: (
        "930ac3711a81b196ea35faccf6608ff2ae4479f1c6302dd50dd5519b855311c5",
        "71c81b891830505fc52f6dce4cfdadf26306750ec65cf10ff3f3d24d4ff217cf"),
    23: (
        "6b551becc9c1d1e85a0b5ad83c3fcd6c32be988193e55e9bc7905098f9cec956",
        "71c81b891830505fc52f6dce4cfdadf26306750ec65cf10ff3f3d24d4ff217cf"),
    24: (
        "61467efaee006ca06d0604332e2ce3c683c00ea695375be60174def1060351d7",
        "b892973208e493ccfa5c14f16ddce6788200184742e00e2d1c7d462fcd69f651"),
    25: (
        "08f5bb13d529e9173c53f688a4ef132b8d60a169f680773daffa59e7bbf3abae",
        "0939879e73944a6f6f854f54be47af73d624793ce1b71648e42c532a37fc97e7"),
    26: (
        "bfed9e336157a3915f4d1887e2da5391bf4cc3a728f8f3a3dcf1598cb34fb95f",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    27: (
        "e78da75854cd85af21fae1a605854740e9898fca681153e370d55ffb45f9b589",
        "b892973208e493ccfa5c14f16ddce6788200184742e00e2d1c7d462fcd69f651"),
    28: (
        "e5c255efe5c0ad76f8059965403d7ca40e87b36161201169639cc5d3bcdb795a",
        "b0b1c63082c7322a69843a8223380710cc9c50e9a044e81171e796977c94087b"),
    29: (
        "6b551becc9c1d1e85a0b5ad83c3fcd6c32be988193e55e9bc7905098f9cec956",
        "71c81b891830505fc52f6dce4cfdadf26306750ec65cf10ff3f3d24d4ff217cf"),
    31: (
        "dd090b851ad3b6a38aa971f91e109cd433c5545cb2ac617b5fdbdea9e3bd1413",
        None),
}


def _kept_output(res, with_multiplier):
    pres = res.presentation
    cert = res.certificate
    order = mixed_order(pres.table)
    kept = hashlib.sha256(
        emit_trace([rec for rec in res.trace if rec.line <= 18], "machine"))
    for p in pres.relations[:len(cert.g) + len(cert.h)]:
        kept.update(format_poly(p, order).encode() + b"\n")
    if not with_multiplier:
        return kept.hexdigest(), None
    s, s_prime, s_second = pres.inverted
    multiplier = format_poly(s * s_prime * s_second, order)
    return kept.hexdigest(), hashlib.sha256(multiplier.encode()).hexdigest()


def test_factored_localization_keeps_the_single_inverter_output(
        certified_seeds):
    """One inverter per factor changes only the localization data.

    Records 1-18 and the g and h relations are byte-identical to the output
    of the single-W presentation, the product of the inverted factors is the
    multiplier it expanded, and each inverter relation is W_k*u_k - 1 for
    the factors u_k = s, s', s''."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "problems",
                        "example1_hypersurface.gnd")
    with open(path, encoding="utf-8") as fh:
        results = {"hypersurface":
                   desingularize(parse_problem(fh.read()).build())}
    results.update(certified_seeds)
    assert set(results) == set(PARENT_OUTPUT)
    changed = []
    for key, res in results.items():
        want = PARENT_OUTPUT[key]
        if _kept_output(res, want[1] is not None) != want:
            changed.append(key)
        pres = res.presentation
        cert = res.certificate
        table = pres.table
        factors = (cert.s, cert.s_prime, cert.s_second_num)
        assert pres.inverted == tuple(u.lift(table) for u in factors)
        w_vars = [Polynomial.var(table, nm)
                  for nm in table.block_names("inverter")]
        assert len(w_vars) == 3
        n_gh = len(cert.g) + len(cert.h)
        assert pres.relations[n_gh:] == tuple(
            w * u - Polynomial.const(table, 1)
            for w, u in zip(w_vars, pres.inverted))
    assert not changed, f"output changed for {changed}"


def test_unit_congruence_is_decided_on_the_t_zero_slice(certified_seeds):
    """``congruent_to_one`` decides u - 1 in (d, T) + J by the membership
    of its slice T = 0 in (d) + J.  On every certificate seed and every
    shipped problem that certifies, it agrees with the membership of u - 1
    in the whole ideal (d, T) + J for the factors s, s', s'' and for 2 and
    1 + T1; 1 + T1 passes both, and 2 fails both wherever (d) + J is
    proper.  That is on the two shipped problems that certify; on the
    generator seeds d is a unit, and every factor passes both."""
    results = dict(certified_seeds)
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(__file__), os.pardir, "problems", "*.gnd"))):
        with open(path, encoding="utf-8") as fh:
            try:
                results[path] = desingularize(parse_problem(fh.read()).build())
            except NeronError:
                continue
    assert len(results) == len(CERTIFICATE_SEEDS) + 2
    proper = 0
    for res in results.values():
        cert = res.certificate
        ring = res.algebra.ring
        table = ring.table
        tangent = table.block(TANGENT)
        t_vars = [Polynomial.var(table, nm)
                  for nm in table.block_names(TANGENT)]
        d_ideal = Ideal(table, [cert.d] + list(ring.j_gens))
        dt_ideal = Ideal(table, [cert.d] + t_vars + list(ring.j_gens))
        two, one_plus_t = Polynomial.const(table, 2), 1 + t_vars[0]
        for u in (cert.s, cert.s_prime, cert.s_second_num, two, one_plus_t):
            assert congruent_to_one(u, d_ideal, tangent) \
                == dt_ideal.contains(u - 1)
        assert congruent_to_one(one_plus_t, d_ideal, tangent)
        if not d_ideal.contains(Polynomial.const(table, 1)):
            proper += 1
            assert not congruent_to_one(two, d_ideal, tangent)
    assert proper >= 2


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


def _taylor_lhs(cert, BT, vT, i):
    """s^p*f_i - s^p*f_i(y') - s^(p-1)*d^e*sum_j df_i/dY_j(y')*W_j
    - d^(2e)*Q_i, with W = G(y')T, built here with + and * alone."""
    ring = BT.ring
    table = ring.table
    jets = {nm: j.poly for nm, j in vT.jets.items()}
    t_vars = [Polynomial.var(table, nm) for nm in table.block_names(TANGENT)]
    f = cert.f[i]
    lin = Polynomial.zero(table)
    for nm, row in zip(BT.algebra_names(), cert.G.rows):
        W_j = Polynomial.zero(table)
        for entry, t_k in zip(row, t_vars):
            W_j = W_j + ring.monomial_reduce(entry.substitute(jets)) * t_k
        lin = lin + f.derivative(nm).substitute(jets) * W_j
    sp = cert.s ** cert.p
    return (sp * f - sp * f.substitute(jets)
            - cert.s ** (cert.p - 1) * cert.d ** cert.e * lin
            - cert.d ** (2 * cert.e) * cert.Q[i])


def test_criterion_4_taylor_nf_cross_check():
    """Cross-validate the telescoped witness against the normal-form route:
    beside ``verify_certificate``, each Taylor identity's left side lies in
    (h) + J by a standard basis of the h, on a sample of the suite
    instances and on the two shipped problems whose d is not a unit."""
    results = [desingularize(random_certificate_instance(seed))
               for seed in CERTIFICATE_SEEDS[:6]]
    for name in ("example1_hypersurface", "example4"):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "problems", f"{name}.gnd")
        with open(path, encoding="utf-8") as fh:
            results.append(desingularize(parse_problem(fh.read()).build()))
    for res in results:
        cert, BT = res.certificate, res.algebra
        assert verify_certificate(cert, BT, res.morphism)
        h_ideal = Ideal(BT.table, list(cert.h) + list(BT.ring.j_gens))
        for i in range(cert.r):
            assert h_ideal.contains(_taylor_lhs(cert, BT, res.morphism, i))


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
        gorder = global_order()
        for o, basis in ((order, ideal.basis()),
                         (gorder, std_basis(ideal.gens, ideal.table, gorder))):
            assert buchberger_criterion(basis, ideal.table, o)
            audited += 1
    assert audited >= 10

    # adjugate identity on random matrices
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
        q = ideal_quotient(gi, gj, T)
        basis = std_basis(gi, T, order)
        for a in q:
            for b in gj:
                assert normal_form_against(a * b, basis, T, order).is_zero()
    elapsed = time.monotonic() - t0
    _verdict("criterion 7 (kernel property suites)", True, f"{elapsed:.1f} s")
