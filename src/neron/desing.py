"""End-to-end desingularization for morphisms of one-dimensional local rings.

Given B = A[Y]/I and jets approximating a morphism v : B -> A', the driver
selects a subsystem f of the relations whose evaluated Jacobian data avoids
every minimal prime, completes the Jacobian to a square matrix, normalizes
the situation until an active element d congruent to P = R*det(H) exists,
and assembles the standard smooth presentation E = D[Y, T]_{s s' s''}/(g, h),
with one inverter variable per factor:

    E = D[Y, T, W1, W2, W3]/(g, h, W1*s - 1, W2*s' - 1, W3*s'' - 1)

together with an exactness certificate and, when higher-precision jets are
supplied, a jet-level factorization check.  A full trace of the nineteen
pipeline stages is recorded for the command line driver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (ActiveElementNotFound, BoundTooSmall, CertificateFailed,
                     CompletionFailed, ConditionStarStarFailed,
                     DivisibilityViolated, NeronError, NotDivisible,
                     NotInIdeal, PreconditionFailed, TargetInsidePrime,
                     VerificationFailed)
from .groebner import Ideal, lift_division, normal_form_against, std_basis
from .idealops import eliminate, ideal_quotient, krull_dim, saturate, syzygies
from .linalg import PolyMatrix, det, det_adjugate, minors
from .localring import (Jet, LocalRingSpec, active_element, avoids_primes,
                        check_precision_bound, compute_e, jet_divide,
                        jet_invert, monomials_of_degree,
                        small_vectors_by_norm)
from .orders import ALGEBRA, BASE, INVERTER, SLACK, TANGENT, global_order
from .poly import (Polynomial, PolySum, exact_div, jacobian,
                   taylor_coefficients)


# ---------------------------------------------------------------------------
# data

@dataclass
class AlgebraPresentation:
    """A finite presentation over the base ring (or over D)."""

    ring: LocalRingSpec
    relations: tuple
    inverted: tuple = ()

    @property
    def table(self):
        return self.ring.table

    def algebra_names(self):
        return self.table.block_names(ALGEBRA, SLACK)

    def lift(self, newtable):
        ring = self.ring.with_table(newtable)
        return AlgebraPresentation(
            ring, tuple(p.lift(newtable) for p in self.relations),
            tuple(p.lift(newtable) for p in self.inverted))


@dataclass
class MorphismApprox:
    """Jets y' approximating v(Y) to precision N, plus optional verify jets."""

    precision: int
    jets: dict
    verify: dict = field(default_factory=dict)

    def lift(self, ring):
        table = ring.table
        def lift_map(d):
            return {k: Jet(ring, j.poly.lift(table), j.precision)
                    for k, j in d.items()}
        return MorphismApprox(self.precision, lift_map(self.jets),
                              lift_map(self.verify))


@dataclass
class ElkikContribution:
    subset: tuple          # indices into the relation list
    colon_gens: tuple
    products: tuple


@dataclass
class ElkikData:
    """Pre-radical smoothness ideal: sum of ((f):I) * Delta_f over subsets."""

    contributions: list
    gens: tuple
    h_cap_a: tuple


@dataclass
class SmoothingCertificate:
    f: tuple
    r: int
    H: PolyMatrix
    R: Polynomial
    P: Polynomial
    d: Polynomial
    e: int
    s: Polynomial
    b: tuple
    Gprime: PolyMatrix
    G: PolyMatrix
    h: tuple
    p: int
    Q: tuple
    g: tuple
    pivots: tuple
    s_prime: Polynomial
    s_second_num: Polynomial
    s_second_pow: int
    point: "ShiftedPoint" = None   # the expansion build_hg made, reused


# trace line -> (label, text template over the record's rendered values).
# A template of None lists every value as `key = value`.  A record whose
# `triggered` value is False prints its note instead.
_TRACE_LINES = {
    1: ("minimal_primes", None),
    2: ("coefficient_base", "D = {D}"),
    3: ("elkik_ideal", "H_cap_A = {H_cap_A}"),
    4: ("symmetric_algebra", None),
    5: ("subsystem_f", "f = {f}"),
    6: ("jacobian_completion", "H = {H}, det(H) = {det}"),
    7: ("colon_witness_R", "R = {R}"),
    8: ("p_contraction", "P = {P}, (P) cap A = {P_cap_A}"),
    9: ("variable_adjunction", None),
    10: ("active_element", "d = {d}"),
    11: ("annihilator_exponent", "e = {e}"),
    12: ("precision_bound", "bound check passed"),
    13: ("taylor_constant_b", "b = {b}"),
    14: ("adjugate_G", "G' = {Gprime}"),
    15: ("unit_s_and_h", "s = {s}; h = {h}"),
    16: ("taylor_remainder_g", "p = {p}; g = {g}"),
    17: ("tangent_minor_s1", "s' = {s_prime}"),
    18: ("unit_s2", "s'' = {s_second} (s-power {s_power})"),
    19: ("output", "return presentation with relations {relations} "
                   "localized at {multiplier}"),
}


def _render(value):
    """A trace value's text: a list prints as an ideal ``(a, b)``, a pair
    ``(sep, items)`` as its items joined by ``sep``, the rest with str."""
    if isinstance(value, list):
        return "(" + ", ".join(map(str, value)) + ")"
    if isinstance(value, tuple):
        sep, items = value
        return sep.join(map(_render, items))
    return str(value)


@dataclass
class TraceRecord:
    """One pipeline step's values as computed, rendered only to print."""

    line: int
    label: str
    values: dict
    note: str = ""

    def rendered(self):
        """The values as text, keyed as in ``values``."""
        return {k: _render(v) for k, v in self.values.items()}

    def text(self):
        """The record's line of the text trace."""
        template = _TRACE_LINES[self.line][1]
        v = self.rendered()
        if self.values.get("triggered") is False:
            body = self.note
        elif template is None:
            body = ", ".join(f"{k} = {val}" for k, val in v.items()
                             if k != "triggered")
        else:
            body = template.format_map(v)
        return f"{self.line}. {body}"


@dataclass
class FactorReport:
    passed: bool
    precision: int
    epsilon: dict
    tangent: dict
    checks: list


@dataclass
class DesingResult:
    presentation: AlgebraPresentation
    certificate: SmoothingCertificate
    simplified: tuple
    morphism: MorphismApprox
    trace: list = field(default_factory=list)   # desingularize records it
    algebra: AlgebraPresentation = None
    jet_map: FactorReport = None


@dataclass
class DesingProblem:
    """Fully parsed inputs for the pipeline.  Nothing reads ``seed``; the
    benchmark's frozen instance generator passes it, and its test compares
    it."""

    ring: LocalRingSpec
    relations: tuple
    morphism: MorphismApprox
    seed: int = 42
    max_subset: int = 3


# ---------------------------------------------------------------------------
# evaluation helpers

def eval_at_jets(p, v, ring):
    """Evaluate a polynomial at the morphism jets; precision is the smallest
    precision among the jets that actually occur."""
    names = [n for n in v.jets if n in p.variables()]
    prec = min((v.jets[n].precision for n in names), default=v.precision)
    return Jet(ring, ring.at(p, {n: j.poly for n, j in v.jets.items()},
                             prec), prec)


def _survives(ring, precision, jet, i):
    """True when the jet is nonzero modulo P_i + (x)^N (P_i contains J)."""
    return not ring.reduce_jet(jet.poly, precision, prime=i).is_zero()


def _survives_all(ring, precision, jet):
    return all(_survives(ring, precision, jet, i)
               for i in range(len(ring.primes)))


# ---------------------------------------------------------------------------
# stages

def jacobian_minors(table, fs, y_names):
    """The nonzero maximal minors of d(fs)/dY, in ``minors`` order."""
    jac = PolyMatrix(table, jacobian(list(fs), list(y_names)))
    return tuple(m for m in minors(jac, len(fs)) if not m.is_zero())


def jacobian_colon(ring, fs, relations, y_names):
    """(((fs) + J : I + J), the nonzero maximal minors of d(fs)/dY), with I
    generated by ``relations``.  The minors come first; when none is
    nonzero, the colon is not computed and both are empty."""
    table = ring.table
    minor_list = jacobian_minors(table, fs, y_names)
    if not minor_list:
        return (), ()
    j_gens = list(ring.j_gens)
    return ideal_quotient(list(fs) + j_gens, list(relations) + j_gens,
                          table), minor_list


def elkik_ideal(B, cap):
    """Sum over generator subsets of ((f):I) * Delta_f, plus its trace in A,
    over the subsets of at most ``cap`` relations."""
    if cap < 1:
        raise PreconditionFailed("max_subset must be at least 1")
    ring = B.ring
    table = ring.table
    rels = [p for p in B.relations if not p.is_zero()]
    y_names = B.algebra_names()
    j_gens = list(ring.j_gens)
    contributions = []
    sizes = range(1, min(cap, len(y_names), len(rels)) + 1) if rels else (0,)
    for r in sizes:
        for subset in itertools.combinations(range(len(rels)), r):
            colon, minor_list = jacobian_colon(
                ring, [rels[i] for i in subset], rels, y_names)
            if not minor_list:
                continue
            products = []
            seen = set()
            for c in colon:
                for m in minor_list:
                    prod = (c * m).primitive()
                    if prod.is_zero():
                        continue
                    if prod not in seen:
                        seen.add(prod)
                        products.append(prod)
            contributions.append(ElkikContribution(subset, colon,
                                                   tuple(products)))
    gens = []
    seen = set()
    for c in contributions:
        for p in c.products:
            if p not in seen:
                seen.add(p)
                gens.append(p)
    elim_roles = tuple(r for r in table.roles_present() if r != BASE)
    h_cap_a = eliminate(gens + rels + j_gens, elim_roles, table)
    return ElkikData(contributions, tuple(gens), h_cap_a)


def sym_algebra_reduction(B, v):
    """Replace B by its conormal symmetric algebra plus slack variables.

    New algebra variables, one per relation, carry the syzygy forms of the
    relations (entries reduced modulo I); slack variables are then adjoined
    with themselves as relations.  The morphism extends by zero on every new
    variable.
    """
    ring = B.ring
    table = ring.table
    rels = list(B.relations)
    j_gens = list(ring.j_gens)
    l = len(rels)
    if l == 0:
        return B, v
    syz = syzygies(rels + j_gens, table)
    ideal = Ideal(table, rels + j_gens)
    new_pairs = [(table.fresh_name(f"Y{len(B.algebra_names()) + k + 1}"),
                  ALGEBRA) for k in range(l)]
    table1 = table.extend(*new_pairs)
    forms = []
    for vec in syz:
        head = vec[:l]
        if all(q.is_zero() for q in head):
            continue
        form = Polynomial.zero(table1)
        for (name, _), q in zip(new_pairs, head):
            qred = ideal.nf(q)
            if not qred.is_zero():
                form = form + qred.lift(table1) * Polynomial.var(table1, name)
        if not form.is_zero():
            forms.append(form)
    n1 = len(table1.block(ALGEBRA))
    slack_pairs = [(table1.fresh_name(f"Z{k + 1}"), SLACK) for k in range(n1)]
    table2 = table1.extend(*slack_pairs)
    B2 = B.lift(table2)
    B2 = AlgebraPresentation(
        B2.ring, B2.relations + tuple(f.lift(table2) for f in forms)
        + tuple(Polynomial.var(table2, name) for name, _ in slack_pairs),
        B2.inverted)
    v2 = v.lift(B2.ring)
    verify_prec = max((j.precision for j in v2.verify.values()), default=0)
    for name, _ in new_pairs + slack_pairs:
        v2.jets[name] = B2.ring.zero_jet(v.precision)
        if v2.verify:
            v2.verify[name] = B2.ring.zero_jet(verify_prec)
    return B2, v2


MAX_R_GENS = 6   # colon generators that the combinations for R mix
MAX_R_NORM = 6   # largest L1 norm of a combination's coefficient vector


def find_f_R(B, elkik, v):
    """Subsystem f and colon witness R passing the per-prime jet tests.

    Enumeration is deterministic: subsets smallest first in index order; for
    R the colon generators first, then small-integer combinations of the
    first MAX_R_GENS of them, up to L1 norm MAX_R_NORM.
    """
    ring = B.ring
    nprimes = len(ring.primes)
    diagnostics = []
    for contrib in elkik.contributions:
        if not contrib.products:
            continue
        per_prime_ok = True
        for i in range(nprimes):
            if not any(_survives(ring, v.precision,
                                 eval_at_jets(p, v, ring), i)
                       for p in contrib.products):
                per_prime_ok = False
                diagnostics.append(
                    (contrib.subset, i,
                     "no product survives modulo this prime"))
                break
        if not per_prime_ok:
            continue
        cands = list(contrib.colon_gens)
        for cand in cands:
            if _survives_all(ring, v.precision, eval_at_jets(cand, v, ring)):
                return contrib, cand
        k = min(len(cands), MAX_R_GENS)
        for vec in small_vectors_by_norm(k, 2, MAX_R_NORM):
            R = Polynomial.zero(ring.table)
            for c, g in zip(vec, cands[:k]):
                if c:
                    R = R + g * c
            if R.is_zero():
                continue
            if _survives_all(ring, v.precision, eval_at_jets(R, v, ring)):
                return contrib, R
        diagnostics.append((contrib.subset, None,
                            "subset passed but no witness R was found"))
    raise ConditionStarStarFailed(
        "no generator subset passes the evaluated Jacobian test at this "
        "precision", diagnostics)


def complete_H(B, f_polys, v):
    """Square matrix: Jacobian rows of f on top, constant rows below, so the
    evaluated determinant avoids every minimal prime.  The rows are tuples
    of the first 350 vectors of ``small_vectors_by_norm`` for one missing
    row, of the first 40 for more; the walk starts with the unit rows."""
    ring = B.ring
    table = ring.table
    y_names = list(B.algebra_names())
    n = len(y_names)
    r = len(f_polys)
    top = jacobian(f_polys, y_names) if r else []

    def accept(rows):
        M = PolyMatrix(table, top + [[Polynomial.const(table, c)
                                      for c in row] for row in rows])
        dm = det(M)
        if dm.is_zero():
            return None
        if _survives_all(ring, v.precision, eval_at_jets(dm, v, ring)):
            return M
        return None

    if r == n:
        M = accept([])
        if M is None:
            raise CompletionFailed(
                "the full Jacobian determinant vanishes modulo a prime")
        return M
    missing = n - r
    size = 350 if missing == 1 else 40
    pool = list(itertools.islice(small_vectors_by_norm(n), size))
    for rows in itertools.product(pool, repeat=missing):
        M = accept(list(rows))
        if M is not None:
            return M
    raise CompletionFailed("no completion among the small constant rows")


@dataclass
class Reduction:
    """Outcome of the primary-contraction stage."""

    B: AlgebraPresentation
    v: MorphismApprox
    f: tuple
    H: PolyMatrix
    R: Polynomial
    P: Polynomial
    d: Polynomial
    pivots: tuple
    p_cap_a: tuple
    adjoined: bool
    note: str = ""


def mm_primary_reduction(B, f_polys, H, R, v):
    """Arrange for an active element d with d = P modulo the relations.

    When the contraction (P) meet A is zero dimensional an active element
    congruent to P is searched directly; otherwise (or when none of the
    candidates is congruent to P) a new algebra variable Y with relation
    P*Y - d' is adjoined, after solving d' = v(P) * y' at jet level.  The
    adjunction branch is experimental and flagged in the trace.
    """
    ring = B.ring
    table = ring.table
    rels = list(B.relations)
    j_gens = list(ring.j_gens)
    P = R * det(H)
    elim_roles = tuple(r for r in table.roles_present() if r != BASE)
    p_cap_a = eliminate([P] + rels + j_gens, elim_roles, table)
    dim = krull_dim(Ideal(table, list(p_cap_a) + j_gens))
    pivots = tuple(range(len(f_polys)))
    if dim != 1:
        rel_ideal = Ideal(table, rels + j_gens)

        def congruent_to_p(c):
            return rel_ideal.contains(c - P)

        try:
            d = active_element(list(p_cap_a), ring.prime_ideals, table,
                               accept=congruent_to_p)
            return Reduction(B, v, tuple(f_polys), H, R, P, d, pivots,
                             tuple(p_cap_a), False)
        except (ActiveElementNotFound, TargetInsidePrime):
            note = ("no active element congruent to P; "
                    "falling back to variable adjunction")
    else:
        note = "contraction has dimension 1"
    return _adjoin_variable(B, f_polys, H, R, P, v, pivots, tuple(p_cap_a),
                            note)


def _adjoin_variable(B, f_polys, H, R, P, v, pivots, p_cap_a, note):
    ring = B.ring
    table = ring.table
    vP = eval_at_jets(P, v, ring)
    if vP.is_zero():
        raise ActiveElementNotFound("v(P) vanishes at jet precision")
    d_prime = None
    z = None
    base = table.block(BASE)
    # constants first: when v(P) is a unit jet the inert choice d' = 1
    # collapses the localization data to units
    candidates = [Polynomial.const(table, 1)]
    for deg in range(1, v.precision):
        mons = [Polynomial(table, {m: 1})
                for m in monomials_of_degree(table, base, deg)]
        candidates.extend(mons)
        for a, b2 in itertools.combinations(mons, 2):
            candidates.append(a + b2)
    for c in candidates:
        if not avoids_primes(c, ring.prime_ideals):
            continue
        try:
            z = jet_divide(ring.jet(c, v.precision), vP)
        except NotDivisible:
            continue
        d_prime = c
        break
    if d_prime is None:
        raise ActiveElementNotFound(
            "no active element in the evaluated contraction ideal")
    new_name = table.fresh_name(f"Y{len(B.algebra_names()) + 1}")
    table1 = table.extend((new_name, ALGEBRA))
    B1 = B.lift(table1)
    ring1 = B1.ring
    P1 = P.lift(table1)
    f_new = P1 * Polynomial.var(table1, new_name) - d_prime.lift(table1)
    B1 = AlgebraPresentation(ring1, B1.relations + (f_new,), B1.inverted)
    y_names1 = list(B1.algebra_names())
    jrow = [f_new.derivative(nm) for nm in y_names1[:-1]] + [P1]
    zero = Polynomial.zero(table1)
    rows1 = [row + [zero] for row in H.lift(table1).rows]
    rows1.append(jrow)
    H1 = PolyMatrix(table1, rows1)
    R1 = R.lift(table1) * Polynomial.var(table1, new_name) ** 2
    d1 = (d_prime * d_prime).lift(table1)
    P_final = R1 * det(H1)
    v1 = v.lift(ring1)
    jets1, verify1 = v1.jets, v1.verify
    jets1[new_name] = Jet(ring1, z.poly.lift(table1), z.precision)
    if verify1:
        vv = MorphismApprox(max(j.precision for j in verify1.values()),
                            verify1)
        vP_hi = eval_at_jets(P.lift(table1), vv, ring1)
        try:
            verify1[new_name] = jet_divide(
                ring1.jet(d_prime.lift(table1), vv.precision), vP_hi)
        except NotDivisible as exc:
            raise VerificationFailed(
                f"no verification jet for the adjoined variable {new_name}: "
                f"{exc}") from exc
    v1 = MorphismApprox(v.precision, jets1, verify1)
    f1 = tuple(p.lift(table1) for p in f_polys) + (f_new,)
    pivots1 = pivots + (len(y_names1) - 1,)
    return Reduction(B1, v1, f1, H1, R1, P_final, d1, pivots1,
                     p_cap_a, True, note)


def _tangent_names(table, n):
    return [table.fresh_name(f"T{i + 1}") for i in range(n)]


def build_hg(B, red, e):
    """Construct the complete certificate on a T-extended table: s, b, h,
    Q and g, the pivot minor s' of dg/dT, and s'' with its s-power q.

    Divisions are exact with witnesses over the polynomial ring: failure
    signals an invalid instance or a too-small precision bound.  Values at
    y' are exact: the identities are exact polynomial statements about the
    chosen jet representatives.  Nothing writes to the certificate
    afterwards; ``verify_certificate`` checks it.
    """
    ring = B.ring
    v = red.v
    n = len(B.algebra_names())
    t_pairs = [(nm, TANGENT) for nm in _tangent_names(ring.table, n)]
    table = ring.table.extend(*t_pairs)
    BT = B.lift(table)
    ringT = BT.ring
    vT = v.lift(ringT)
    jets = {nm: j.poly for nm, j in vT.jets.items()}
    t_names = [nm for nm, _ in t_pairs]
    f_polys = [p.lift(table) for p in red.f]
    H = red.H.lift(table)
    R = red.R.lift(table)
    P = red.P.lift(table)
    d = red.d.lift(table)
    j_gens = list(ringT.j_gens)
    gorder = global_order()

    dH, Gp = det_adjugate(H)
    G = Gp.scale(R)

    vP = ringT.monomial_reduce(P.substitute(jets))
    try:
        w = lift_division(vP, [d] + j_gens, table, gorder)
    except NotInIdeal as exc:
        raise DivisibilityViolated(
            f"P(y') is not divisible by d over the base: {exc}") from exc
    s = w.quotients[0]
    if not Ideal(table, [d] + j_gens).contains(s - 1):
        raise DivisibilityViolated("the unit s is not congruent to 1 modulo d")

    d_pow = d ** (e + 1)
    b_list = []
    de_ideal = Ideal(table, [d ** e] + j_gens)
    for fpoly in f_polys:
        val = ringT.monomial_reduce(fpoly.substitute(jets))
        try:
            wb = lift_division(val, [d_pow] + j_gens, table, gorder)
        except NotInIdeal as exc:
            raise DivisibilityViolated(
                f"f(y') is not divisible by d^(e+1): {exc}") from exc
        b_i = wb.quotients[0]
        if not de_ideal.contains(b_i):
            raise DivisibilityViolated("b does not lie in d^e times the base")
        b_list.append(b_i)

    t_vars = [Polynomial.var(table, nm) for nm in t_names]
    point = ShiftedPoint(ringT, jets, G, s, d, e, t_vars)
    # h_j = s*(Y_j - y'_j) - d^e*(G(y')T)_j
    h_list = [a[1] - b[1] for a, b in zip(point.a_pow, point.b_pow)]

    y_positions = table.block(ALGEBRA, SLACK)
    p_deg = max((fp.degree_in(y_positions) for fp in f_polys), default=1)
    p_deg = max(p_deg, 1)

    s_p = point.spow[p_deg]
    Q_list = [point.expand(fpoly, p_deg, 2 * e, 2) for fpoly in f_polys]
    g_list = [s_p * b_i + s_p * t_vars[piv] + point.dpow[e - 1] * Q_i
              for b_i, piv, Q_i in zip(b_list, red.pivots, Q_list)]

    jac_g = PolyMatrix(table, jacobian(g_list, t_names))
    s_prime = det(jac_g.submatrix(range(len(g_list)), list(red.pivots)))
    # s'' from the s-cleared expansion of P at the shifted point
    q_pow = max(P.degree_in(y_positions), 0)
    s_second = point.spow[q_pow + 1] + point.expand(P, q_pow, 1, 1)

    cert = SmoothingCertificate(
        f=tuple(f_polys), r=len(f_polys), H=H, R=R, P=P, d=d, e=e, s=s,
        b=tuple(b_list), Gprime=Gp, G=G, h=tuple(h_list), p=p_deg,
        Q=tuple(Q_list), g=tuple(g_list), pivots=red.pivots,
        s_prime=s_prime, s_second_num=s_second, s_second_pow=q_pow,
        point=point)
    return cert, BT, vT


class _PowerCache:
    """Cached nonnegative powers of one polynomial or jet W.

    ``advance(D)`` builds the cache of W' = W + D on this one:
    W'^a = W^a + D*S_a, with S_2 = W + W' and S_a = S_(a-1)*W + W'^(a-1).
    For a Newton step D of high x-order, D*S_a under the jets' cut meets
    only a short prefix of S_a.  The link to the older cache is dropped at
    the next advance, so the chain is one deep.
    """

    def __init__(self, base):
        self.powers = [base ** 0, base]
        # (cache of W, D, [S_2, S_3, ...]) while this cache is the newest
        self._prev = None

    def advance(self, step):
        """The cache of W + step, built on this one."""
        new = _PowerCache(self.powers[1] + step)
        new._prev = (self, step, [])
        self._prev = None
        return new

    def __getitem__(self, k):
        if k < 0:
            raise NeronError("negative exponent in a cached power")
        powers = self.powers
        while len(powers) <= k:
            a = len(powers)
            if self._prev is None:
                powers.append(powers[-1] * powers[1])
                continue
            old, step, sums = self._prev
            w = old[1]
            s = w + powers[1] if a == 2 else sums[-1] * w + powers[a - 1]
            sums.append(s)
            powers.append(old[a] + step * s)
        return powers[k]


class ShiftedPoint:
    """Taylor expansion of polynomials in Y at the shifted point
    y' + d^e * W / s, where W = G(y')t.

    Putting Y = y' + d^e*W/s into q and clearing denominators with s^p turns
    the Taylor coefficient c_alpha of q at y' into
    c_alpha * s^(p-|alpha|) * d^(e|alpha|) * W^alpha.  With t the tangent
    variables T, this one expansion gives Q in g and the unit s''
    (build_hg), and the rewriting of a relation modulo
    h = s*(Y - y') - d^e*W (verify_certificate).  With t jets truncated at
    (x)^N and s = 1 it gives Q(t) in the Newton contraction of
    lifting.newton_lift.
    The values t fix the domain: a product with a jet factor is a jet.
    Products put the W factor first, so a jet product is called directly
    rather than after ``Polynomial.__mul__`` declines a jet operand.
    """

    def __init__(self, ring, jets, G, s, d, e, t):
        table = ring.table
        self.table = table
        self.y_names = list(table.block_names(ALGEBRA, SLACK))
        self.jets_poly = jets
        self.Gy = [[ring.monomial_reduce(entry.substitute(jets))
                    for entry in row] for row in G.rows]
        self.e = e
        self.spow = _PowerCache(s)
        self.dpow = _PowerCache(d)
        self._taylor = {}
        # h_j = a_j - b_j with a_j = s*(Y_j - y'_j) and b_j = d^e*W_j
        self.a_pow = [_PowerCache(s * (Polynomial.var(table, nm) - jets[nm]))
                      for nm in self.y_names]
        self.W_pow = [_PowerCache(w) for w in self._image(t)]
        self._b_pow = None

    def _image(self, t):
        """G(y')t."""
        return [self._total(t_k * g for t_k, g in zip(t, row))
                for row in self.Gy]

    def move(self, steps):
        """Advance the tangent point t by ``steps``, the differences
        t - t_prev.  W advances by the step: with D = G(y') steps,
        W' = W + D, and each power cache of W' is built on the one of W
        (see ``_PowerCache``), so a Newton step that changes t only at
        high x-order costs short products."""
        self.W_pow = [w.advance(step) for w, step
                      in zip(self.W_pow, self._image(steps))]
        self._b_pow = None

    @property
    def b_pow(self):
        """Power caches of b_j = d^e*W_j, built on first use after a move:
        the Newton contraction moves many times but reads b only once."""
        if self._b_pow is None:
            d_e = self.dpow[self.e]
            self._b_pow = [_PowerCache(w[1] * d_e) for w in self.W_pow]
        return self._b_pow

    def _coefficients(self, q):
        """Taylor coefficients of q at y', computed once per q."""
        coeffs = self._taylor.get(q)
        if coeffs is None:
            coeffs = taylor_coefficients(q, self.y_names, self.jets_poly)
            self._taylor[q] = coeffs
        return coeffs

    def _total(self, terms):
        """The sum of ``terms``, all polynomials or all jets, added in place
        (the zero polynomial when there are none).  Jets are summed at the
        smallest precision among them: their canonical polynomials are
        added and the sum is cut there once, which is canonical, as the
        canonical form is linear."""
        out = PolySum(self.table)
        ring = n = None
        for term in terms:
            if isinstance(term, Jet):
                ring = term.ring
                n = term.precision if n is None else min(n, term.precision)
                term = term.poly
            out.add(term)
        if ring is None:
            return out.value()
        return Jet(ring, out.value().below((ring.base, n)), n)

    def _sum(self, coeffs, p, d_shift, k_min):
        def taylor_terms():
            for alpha, c_alpha in coeffs.items():
                k = sum(alpha)
                if k < k_min:
                    continue
                term = (c_alpha * self.spow[p - k]
                        * self.dpow[self.e * k - d_shift])
                for j, aj in enumerate(alpha):
                    if aj:
                        term = self.W_pow[j][aj] * term
                yield term
        return self._total(taylor_terms())

    def expand(self, q, p, d_shift, k_min):
        """Sum over |alpha| >= k_min of
        c_alpha * s^(p-|alpha|) * d^(e|alpha| - d_shift) * W^alpha."""
        return self._sum(self._coefficients(q), p, d_shift, k_min)

    def h_combination(self, q, p):
        """The witness c with s^p*q - expand(q, p, 0, 0) = sum_j c_j*h_j.

        With h_j = a_j - b_j, s^p*q is the sum over alpha of
        c_alpha * s^(p-|alpha|) * a^alpha, and the expansion is the same
        sum over b^alpha.  Each a^alpha - b^alpha telescopes coordinate by
        coordinate, by a_j^k - b_j^k = h_j * sum_t a_j^t * b_j^(k-1-t).
        """
        table = self.table
        a_pow, b_pow = self.a_pow, self.b_pow
        comb = [PolySum(table) for _ in self.y_names]
        for alpha, c_alpha in self._coefficients(q).items():
            support = [j for j, aj in enumerate(alpha) if aj]
            if not support:
                continue          # a^0 - b^0 = 0
            prefix = c_alpha * self.spow[p - sum(alpha)]
            for k, j in enumerate(support):
                aj = alpha[j]
                geom = PolySum(table)
                for t in range(aj):
                    geom.add(a_pow[j][t] * b_pow[j][aj - 1 - t])
                term = prefix * geom.value()
                for j2 in support[k + 1:]:
                    term = term * b_pow[j2][alpha[j2]]
                comb[j].add(term)
                if j != support[-1]:
                    prefix = prefix * a_pow[j][aj]
        return [c.value() for c in comb]


def certify_subsystem_membership(cert, BT, vT):
    """Exact, by + and * on the certificate's fields, with W = G(y')T and
    L_i = s^p*f_i(y') + s^(p-1)*d^e*sum_j df_i/dY_j(y')*W_j + d^(2e)*Q_i:
    h_j = s*(Y_j - y'_j) - d^e*W_j; the Taylor identity s^p*f_i - L_i =
    sum_j c_ij*h_j, c_i the telescoped witness (``h_combination``);
    g_i = s^p*(b_i + T_piv(i)) + d^(e-1)*Q_i; L_i - d^(e+1)*g_i in J.
    """
    ring = BT.ring
    table = ring.table
    s, d, e, p = cert.s, cert.d, cert.e, cert.p
    jets = {nm: j.poly for nm, j in vT.jets.items()}
    y_names = BT.algebra_names()
    t_vars = [Polynomial.var(table, nm) for nm in table.block_names(TANGENT)]
    # one substitution per row; reducing modulo J keeps the T_k apart
    W = [ring.monomial_reduce(sum(g * t for g, t in zip(row, t_vars))
                              .substitute(jets)) for row in cert.G.rows]
    d_e, s_p, s_p1 = d ** e, s ** p, s ** (p - 1)
    for nm, h_j, W_j in zip(y_names, cert.h, W):
        if h_j != s * (Polynomial.var(table, nm) - jets[nm]) - d_e * W_j:
            raise CertificateFailed("h is not s*(Y - y') - d^e*G(y')T")
    for i, fpoly in enumerate(cert.f):
        lin = sum(fpoly.derivative(nm).substitute(jets) * W_j
                  for nm, W_j in zip(y_names, W))
        L_i = (s_p * fpoly.substitute(jets) + s_p1 * d_e * lin
               + d_e * d_e * cert.Q[i])
        # The witness c_i comes from the point that build_hg cached, not
        # from the certificate; the identity is checked exactly against
        # the certificate's own fields, so a wrong c_i can only fail it.
        comb = cert.point.h_combination(fpoly, p)
        if s_p * fpoly - L_i != sum(c * h_j for c, h_j in zip(comb, cert.h)):
            raise CertificateFailed("Taylor identity fails modulo (h)")
        if cert.g[i] != (s_p * (cert.b[i] + t_vars[cert.pivots[i]])
                         + d ** (e - 1) * cert.Q[i]):
            raise CertificateFailed("g is not s^p*(b + T_piv) + d^(e-1)*Q")
        if not _in_j(L_i - d_e * d * cert.g[i], ring):
            raise CertificateFailed(
                "subsystem relation is not expressible through (h, g) and J")
    return True


def _in_j(p, ring):
    """True iff p lies in J in the polynomial ring, not only in the
    localization: the certificate identities hold as polynomials."""
    if p.is_zero():
        return True
    if not ring.j_gens:
        return False
    reduced = ring.monomial_reduce(p)
    if reduced.is_zero():
        return True
    order = global_order()
    basis = std_basis(ring.j_gens, ring.table, order)
    return normal_form_against(reduced, basis, ring.table, order).is_zero()


def verify_certificate(cert, BT, vT):
    """Check every identity of the certificate exactly, or raise
    CertificateFailed: s, d, s', s'' and the g free of Y; G*H = H*G =
    P*Id, the pivot rows of (df/dY)*G, b in (d^e) + J and d = P modulo the
    relations (``Ideal.contains``), Q in (T)^2 and
    ``certify_subsystem_membership``; s, s' and s'' congruent to 1 modulo
    (d, T) + J (``congruent_to_one``); and I in (h, g), decided in tangent
    space (``outside_saturation``) on expansions E_q free of Y."""
    ring = BT.ring
    table = ring.table
    j_gens = list(ring.j_gens)
    y_positions = table.block(ALGEBRA, SLACK)
    # With s, d and W = G(y')T free of Y, the definition of h checked below
    # gives dh/dY = s*Id, and g free of Y gives dg/dY = 0: the Jacobian of
    # (h, g) in (Y, pivot T) is block triangular with minor s^n * s'.
    if cert.s.involves(y_positions) or cert.d.involves(y_positions):
        raise CertificateFailed("dh/dY is not s * identity")
    # the tangent-space argument below needs s' and s'' free of Y too
    if any(u.involves(y_positions) for u in (cert.s_prime,
                                            cert.s_second_num)):
        raise CertificateFailed("s' or s'' is not free of Y")
    if any(g_i.involves(y_positions) for g_i in cert.g):
        raise CertificateFailed("dg/dY is not zero")
    n = len(BT.algebra_names())
    zero = Polynomial.zero(table)
    P_id = PolyMatrix(table, [[cert.P if i == j else zero for j in range(n)]
                              for i in range(n)])
    if cert.G.matmul(cert.H) != P_id or cert.H.matmul(cert.G) != P_id:
        raise CertificateFailed("G*H = P*Id fails")
    # selected rows of (df/dY)*G = P * pivot pattern; no rows when r = 0
    if cert.r:
        jac = PolyMatrix(table, jacobian(list(cert.f), BT.algebra_names()))
        if jac.matmul(cert.G) != PolyMatrix(
                table, [P_id.rows[k] for k in cert.pivots]):
            raise CertificateFailed("(df/dY)*G != P * pivot selection")
    de_ideal = Ideal(table, [cert.d ** cert.e] + j_gens)
    if not all(de_ideal.contains(b_i) for b_i in cert.b):
        raise CertificateFailed("b does not lie in (d^e) + J")
    # d congruent to P modulo the relations
    if not Ideal(table, list(BT.relations) + j_gens).contains(
            cert.d - cert.P):
        raise CertificateFailed("d is not congruent to P modulo the relations")
    t_pos = table.block(TANGENT)
    if any(sum(m[k] for k in t_pos) < 2
           for Q_i in cert.Q for m in Q_i.monomials()):
        raise CertificateFailed("Q has a term of tangent degree < 2")
    certify_subsystem_membership(cert, BT, vT)

    # E is localized at s, s' and s'' one factor at a time
    d_ideal = Ideal(table, [cert.d] + j_gens)
    for u in (cert.s, cert.s_prime, cert.s_second_num):
        if not congruent_to_one(u, d_ideal, t_pos):
            raise CertificateFailed(
                "a localized factor is not congruent to 1 mod (d, T)")

    # I in (h, g) once s, s' and s'' are inverted.  A relation of f is
    # settled by the subsystem check.  Any other relation q, of degree p_q
    # in Y, has E_q = expand(q, p_q, 0, 0) with s^p_q*q - E_q = sum_j c_j*h_j
    # by the telescoped witness, so q lies in (h, g) when E_q lies in
    # (g) + J, or in its saturation by s'*s''.  This is the test in Y-space
    # too, on a Y-free ideal: s is a unit of the local ring (s = 1 mod
    # (d) + J, and when d is a unit, s = P(y')/d mod J is one), so
    # phi: Y -> y' + d^e*W/s is a ring map.  It kills h, fixes what is free
    # of Y (g, s', s'' and E_q), and s^p_q*phi(q) = E_q.  Hence q lies in
    # (h, g) + J exactly when E_q lies in (g) + J, and likewise with both
    # sides saturated by s*s'*s''; saturating by the unit s changes nothing.
    subsystem = set(cert.f)
    outside = [q for q in BT.relations if q not in subsystem]
    expansions = []
    for q in outside:
        p_q = max(q.degree_in(y_positions), 0)
        E_q = cert.point.expand(q, p_q, 0, 0)
        comb = cert.point.h_combination(q, p_q)
        if cert.s ** p_q * q - E_q != sum(
                c * h_j for c, h_j in zip(comb, cert.h)):
            raise CertificateFailed("telescoped Taylor expansion mismatch")
        if E_q.involves(y_positions):
            raise CertificateFailed("an expansion E_q is not free of Y")
        expansions.append(E_q)
    missing = outside_saturation(expansions, list(cert.g) + j_gens,
                                 (cert.s_prime, cert.s_second_num), table)
    if missing:
        raise CertificateFailed("relation not contained in (h, g) after "
                                f"saturation: {outside[missing[0]]}")
    return True


def outside_saturation(elements, gens, factors, table):
    """The indices of the ``elements`` outside (gens) : (prod factors)^inf.
    Each is tested in (gens) first; the saturation, one factor in turn,
    is computed once and only when some element fails that test."""
    ideal = Ideal(table, gens)
    outside = [k for k, p in enumerate(elements) if not ideal.contains(p)]
    if outside:
        for u in factors:
            ideal = Ideal(table, saturate(ideal, u)[0])
        outside = [k for k in outside if not ideal.contains(elements[k])]
    return outside


def congruent_to_one(u, d_ideal, tangent):
    """True iff u - 1 lies in (d, T) + J, for ``d_ideal`` = (d) + J and T
    the variables at the positions ``tangent``.  T -> 0 is a ring map with
    kernel (T), d and J lie in the base, and the units of the mixed order
    are free of T, so that holds exactly when the slice T = 0 of u - 1,
    its terms free of T, lies in (d) + J."""
    return d_ideal.contains(
        (u - 1).select(lambda m: not any([m[i] for i in tangent])))


def localize_smooth(cert, BT, vT):
    """Assemble E = D[Y, T]_{s s' s''}/(g, h) from the certificate and
    build the result; it assembles E only, as ``verify_certificate`` has
    decided every identity of the certificate."""
    ring = BT.ring
    table = ring.table
    factors = (cert.s, cert.s_prime, cert.s_second_num)

    # one inverter relation W_k*u_k - 1 per factor u_k
    w_names = [table.fresh_name(f"W{k + 1}") for k in range(len(factors))]
    tableW = table.extend(*[(nm, INVERTER) for nm in w_names])
    ringW = ring.with_table(tableW)
    inverted = tuple(u.lift(tableW) for u in factors)
    w_rels = tuple(Polynomial.var(tableW, nm) * u - Polynomial.const(tableW, 1)
                   for nm, u in zip(w_names, inverted))
    relations = tuple(p.lift(tableW) for p in cert.g) \
        + tuple(p.lift(tableW) for p in cert.h) + w_rels
    presentation = AlgebraPresentation(ringW, relations, inverted)
    simplified = simplify_presentation(presentation)
    return DesingResult(presentation, cert, simplified, vT, algebra=BT)


def simplify_presentation(pres):
    """Eliminate tangent/slack/inverter variables with unit linear terms.

    Display-level only: the full presentation stays authoritative.  After
    elimination the coefficients are reduced to canonical form modulo J when
    the relation basis is monomial.
    """
    ring = pres.ring
    table = ring.table
    rels = [p for p in pres.relations]
    removable = set(table.block(TANGENT, SLACK, INVERTER))
    changed = True
    while changed:
        changed = False
        for idx, rel in enumerate(rels):
            mons = rel.monomials()
            for pos in sorted(removable):
                unit_mon = tuple(1 if i == pos else 0
                                 for i in range(len(table)))
                if unit_mon not in mons or any(
                        m[pos] for m in mons if m != unit_mon):
                    continue
                # rel = c*v + rest, v nowhere else in rel: v := -rest/c
                rest = rel.select(lambda m: m != unit_mon)
                value = rest * exact_div(-1, rel.coefficient(unit_mon))
                name = table.names[pos]
                new_rels = []
                for k, other in enumerate(rels):
                    if k == idx:
                        continue
                    new_rels.append(other.substitute({name: value}))
                rels = new_rels
                changed = True
                break
            if changed:
                break
    reduced = (ring.monomial_reduce(rel) for rel in rels)
    return tuple(rel for rel in reduced if not rel.is_zero())


def factor_morphism(result, y_high):
    """Jet-level factorization: epsilon, tangent jets and the three checks.

    ``y_high`` maps the algebra variable names to jets that must extend the
    morphism jets below their precision; it may be given over any prefix of
    the output table.  Checks: every h vanishes at (y, t), every g vanishes
    at t, and every output relation vanishes at (y, t, 1/s, 1/s', 1/s''), all
    modulo the tracked precision.  Any violation raises VerificationFailed.
    """
    cert = result.certificate
    pres = result.presentation
    ring = pres.ring
    table = ring.table
    v = result.morphism
    y_names = [nm for nm in v.jets]
    if not y_high:
        raise VerificationFailed("no verification jets supplied")

    lifted = MorphismApprox(v.precision, v.jets, y_high).lift(ring)
    low = lifted.jets
    hi = {}
    for nm in y_names:
        if nm not in lifted.verify:
            raise VerificationFailed(f"missing verification jet for {nm}")
        hi[nm] = lifted.verify[nm]
        if hi[nm].precision < low[nm].precision:
            raise VerificationFailed(
                f"verification jet for {nm} has precision below the bound")
        delta = ring.reduce_jet(hi[nm].poly - low[nm].poly, low[nm].precision)
        if not delta.is_zero():
            raise VerificationFailed(
                f"verification jet for {nm} does not extend the morphism jet")

    hi_prec = min(j.precision for j in hi.values())
    d = cert.d.lift(table)
    d_e1 = ring.jet(d, hi_prec) ** (cert.e + 1)
    eps = {}
    for nm in y_names:
        diff = Jet(ring, ring.reduce_jet(hi[nm].poly - low[nm].poly, hi_prec),
                   hi_prec)
        try:
            eps[nm] = jet_divide(diff, d_e1)
        except NotDivisible as exc:
            raise VerificationFailed(
                f"epsilon division failed for {nm}: {exc}") from exc

    low_point = {nm: j.poly for nm, j in low.items()}
    Hy = [[Jet(ring, ring.at(entry.lift(table), low_point, hi_prec), hi_prec)
           for entry in row] for row in cert.H.rows]
    eps_prec = min(e.precision for e in eps.values())
    t_jets = []
    for i in range(len(y_names)):
        acc = ring.zero_jet(eps_prec)
        for j, nm in enumerate(y_names):
            acc = acc + Hy[i][j] * eps[nm]
        t_jets.append(acc)
    t_names = list(table.block_names(TANGENT))

    prec = min(eps_prec, hi_prec)
    subs = {nm: hi[nm].poly for nm in y_names}
    for tn, tj in zip(t_names, t_jets):
        subs[tn] = tj.poly
    checks = []

    def expect_zero(label, poly):
        ok = ring.at(poly, subs, prec).is_zero()
        checks.append((label, ok))
        if not ok:
            raise VerificationFailed(f"{label} does not vanish at jet level")

    for i, h_i in enumerate(cert.h):
        expect_zero(f"h[{i}]", h_i.lift(table))
    for i, g_i in enumerate(cert.g):
        expect_zero(f"g[{i}]", g_i.lift(table))
    # each inverter W_k takes the inverse of the jet value of its factor
    for wn, u in zip(table.block_names(INVERTER), pres.inverted):
        subs[wn] = jet_invert(Jet(ring, ring.at(u, subs, prec), prec)).poly
    for k, rel in enumerate(pres.relations):
        expect_zero(f"output[{k}]", rel)
    return FactorReport(True, prec, eps, dict(zip(t_names, t_jets)), checks)


def desingularize(problem):
    """Run the nineteen-stage pipeline and return the certified result."""
    trace = []

    def record(line, note="", **values):
        trace.append(TraceRecord(line, _TRACE_LINES[line][0], values, note))

    ring = problem.ring.with_minimal_primes()
    record(1, **{f"P_{i + 1}": list(p) for i, p in enumerate(ring.primes)})

    record(2, "trivial coefficient extension", D="A")

    B = AlgebraPresentation(ring, tuple(problem.relations))
    v = problem.morphism.lift(ring)
    validate_morphism(B.relations, v, ring)

    elkik = elkik_ideal(B, problem.max_subset)
    record(3, H_gens=len(elkik.gens), H_cap_A=list(elkik.h_cap_a))

    dim_h = krull_dim(Ideal(ring.table,
                            list(elkik.h_cap_a) + list(ring.j_gens)))
    if dim_h == 1:
        B, v = sym_algebra_reduction(B, v)
        ring = B.ring
        elkik = elkik_ideal(B, problem.max_subset)
        record(4, "conormal symmetric algebra with slack variables",
               triggered=True, new_vars=len(B.algebra_names()))
    else:
        record(4, "is not true", triggered=False)

    contrib, R0 = find_f_R(B, elkik, v)
    f_polys = tuple(B.relations[i] for i in contrib.subset)
    record(5, f=(", ", f_polys))

    H0 = complete_H(B, list(f_polys), v)
    record(6, H=H0, det=det(H0))
    record(7, R=R0)

    red = mm_primary_reduction(B, list(f_polys), H0, R0, v)
    record(8, P=red.P, P_cap_A=list(red.p_cap_a))
    if red.adjoined:
        record(9, "experimental: " + red.note, triggered=True,
               f_new=red.f[-1])
    else:
        record(9, "is not true", triggered=False)
    record(10, "P := d" if not red.adjoined else "d := d'^2", d=red.d)
    B, v = red.B, red.v
    ring = B.ring

    e = compute_e(red.d, ring)
    record(11, e=e)

    if not check_precision_bound(v.precision, red.d, e, ring):
        raise BoundTooSmall()
    record(12, "is not true", ok=True)

    cert, BT, vT = build_hg(B, red, e)
    verify_certificate(cert, BT, vT)
    record(13, b=(", ", cert.b))
    record(14, Gprime=cert.Gprime)
    record(15, s=cert.s, h=("; ", cert.h))
    record(16, p=cert.p, g=("; ", cert.g))

    result = localize_smooth(cert, BT, vT)
    record(17, s_prime=cert.s_prime)
    record(18, s_second=cert.s_second_num, s_power=cert.s_second_pow)
    record(19, relations=("; ", result.simplified), multiplier=(
        " * ", [[cert.s], [cert.s_prime], [cert.s_second_num]]))
    result.trace = trace

    if vT.verify:
        result.jet_map = factor_morphism(result, vT.verify)
    return result


def validate_morphism(relations, v, ring):
    """I(y') must vanish modulo (x)^N (+ J): the data must be a morphism;
    and each verify jet must extend its morphism jet below N.  Raises
    PreconditionFailed otherwise."""
    for rel in relations:
        val = eval_at_jets(rel, v, ring)
        if not val.is_zero():
            raise PreconditionFailed(
                "the jets do not define a morphism: a relation does not "
                "vanish at jet precision")
    for nm, hi in v.verify.items():
        low = v.jets.get(nm)
        if low is not None and not ring.reduce_jet(
                hi.poly - low.poly, low.precision).is_zero():
            raise PreconditionFailed(
                f"verification jet for {nm} does not extend the morphism "
                "jet below N")

