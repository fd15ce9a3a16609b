"""Shared instance builders for the pipeline tests, reference helpers on
exponent tuples and values, and the Buchberger criterion, the colon chain,
the Taylor expansion by derivatives and the shifted-point expansion term
by term as test oracles."""

from fractions import Fraction

import pytest

from neron import (ALGEBRA, BASE, Polynomial, VarTable, normal_form_against,
                   parse_poly)
from neron.desing import DesingProblem, MorphismApprox
from neron.idealops import intersect, quotient_by_poly
from neron.localring import LocalRingSpec, jet_invert, minimal_primes
from neron.poly import exact_div

PROBLEM_DIR = "problems"


def mon_divides(a, b):
    """True when the exponent tuple a divides b: the reference that packed
    divisibility (``orders.Packing.divides``) is compared against."""
    return all(x <= y for x, y in zip(a, b))


def lead(p, keyf):
    """(monomial, coefficient) of the nonzero p, maximal under the tuple
    key ``keyf`` (``TermOrder.key``): the reference for the packed leads
    the basis engine reads."""
    m = max(p.monomials(), key=keyf)
    return m, p.coefficient(m)


def content(p):
    """The positive rational c with p/c primitive integer terms, 1 for
    zero, as an int when it is one: num/den of the integer view."""
    num, den, _ = p._view()
    return num if den == 1 else Fraction(num, den)


def s_polynomial(f, g, keyf):
    """x^u * f/lc(f) - x^v * g/lc(g), with x^u * lm(f) = x^v * lm(g) the
    lcm of the leads, on rational values."""
    (mf, cf), (mg, cg) = lead(f, keyf), lead(g, keyf)
    lcm = tuple(map(max, mf, mg))

    def shift(m, c):
        return Polynomial(f.table, {tuple(a - b for a, b in zip(lcm, m)):
                                    Fraction(1) / c})

    return shift(mf, cf) * f - shift(mg, cg) * g


def buchberger_criterion(basis, table, order):
    """True when every S-polynomial of the basis reduces to zero: the test
    oracle that a basis is a standard basis of what it generates."""
    keyf = order.key(table)
    return all(normal_form_against(s_polynomial(f, g, keyf), basis, table,
                                   order).is_zero()
               for i, f in enumerate(basis) for g in basis[i + 1:])


def chain_quotient(gens_i, gens_j, table):
    """(I : J) with every nonzero generator g of J sent through the t-trick
    ``quotient_by_poly`` and the (I : g) intersected in turn, a g shared
    with I included: the oracle that ``ideal_quotient``, which skips the
    shared ones, is compared against.  Returns generators, not a basis."""
    result = (Polynomial.const(table, 1),)
    for k, g in enumerate(h for h in gens_j if not h.is_zero()):
        q = quotient_by_poly(gens_i, g, table)
        result = q if k == 0 else intersect(result, q, table)
    return result


def taylor_by_derivatives(f, names, at):
    """{alpha: (d^alpha f / alpha!) evaluated at ``at``}, its nonzero
    values, by a walk over the derivatives of f, each multi-index once,
    and one substitution per multi-index; a name of ``names`` that ``at``
    leaves out is evaluated at 0.  The oracle that ``taylor_coefficients``,
    one substitution of the shifted point, is compared against."""
    table = f.table
    out = {}
    stack = [(tuple(0 for _ in names), f, 1)]
    while stack:
        alpha, g, factor = stack.pop()
        if g.is_zero() or alpha in out:
            continue
        out[alpha] = (g, factor)
        # extend along the last nonzero coordinate and beyond, so that no
        # permutation of a multi-index is visited again
        start = max((i for i, a in enumerate(alpha) if a), default=0)
        for i in range(start, len(names)):
            nalpha = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            stack.append((nalpha, g.derivative(names[i]),
                          exact_div(factor, nalpha[i])))
    point = dict.fromkeys(names, 0)
    point.update(at)
    subs = {n: v if isinstance(v, Polynomial) else Polynomial.const(table, v)
            for n, v in point.items()}
    values = {alpha: g.substitute(subs) * factor
              for alpha, (g, factor) in out.items()}
    return {alpha: v for alpha, v in values.items() if not v.is_zero()}


def taylor_sum_per_alpha(point, q, p, d_shift, k_min):
    """The sum over |alpha| >= k_min of
    c_alpha * s^(p-|alpha|) * d^(e|alpha| - d_shift) * W^alpha at the
    ``ShiftedPoint`` ``point``, term by term: each c_alpha is multiplied by
    its powers of s and d, then by the W powers.  The oracle that
    ``ShiftedPoint.expand``, one product by the powers of s and d per
    Taylor degree, is compared against."""
    def taylor_terms():
        for alpha, c_alpha in point._coefficients(q).items():
            k = sum(alpha)
            if k < k_min:
                continue
            term = (c_alpha * point.spow[p - k]
                    * point.dpow[point.e * k - d_shift])
            for j, aj in enumerate(alpha):
                if aj:
                    term = point.W_pow[j][aj] * term
            yield term
    return point._total(taylor_terms())


def two_branch_table():
    return VarTable.make(("x1", BASE), ("x2", BASE),
                         ("Y1", ALGEBRA), ("Y2", ALGEBRA))


def two_branch_problem(n=12, with_verify=False, seed=42):
    """The worked two-branch instance: A = Q[x1,x2]_(x)/(x1*x2).

    Relations list the binomial together with both monomial forms so the
    colon ideal of the chosen subsystem is proper; the jets realize
    v(Y1) = x1*u, v(Y2) = x2*w for explicit rational unit series.
    """
    T = two_branch_table()
    J = [parse_poly(T, "x1*x2")]
    ring = LocalRingSpec(T, J, primes=minimal_primes(J, T))
    relations = (parse_poly(T, "x2*Y1 - x1*Y2"), parse_poly(T, "x2*Y1"),
                 parse_poly(T, "x1*Y2"))

    def u_jet(bound):
        return Polynomial(T, {(k, 0, 0, 0): 1 for k in range(bound)})

    def w_jet(bound):
        return Polynomial(T, {(0, k, 0, 0): 2 ** k for k in range(bound)})

    x1 = parse_poly(T, "x1")
    x2 = parse_poly(T, "x2")
    jets = {"Y1": ring.jet(x1 * u_jet(n), n), "Y2": ring.jet(x2 * w_jet(n), n)}
    verify = {}
    if with_verify:
        verify = {"Y1": ring.jet(x1 * u_jet(24), 24),
                  "Y2": ring.jet(x2 * w_jet(24), 24)}
    morphism = MorphismApprox(n, jets, verify)
    return DesingProblem(ring, relations, morphism, seed=seed, max_subset=3)


def hypersurface_problem(n=13, seed=42):
    """Y1*Y2 = x^2 over the one-variable base with u = 1 + x^6/(1-x)."""
    T = VarTable.make(("x", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA))
    ring = LocalRingSpec(T, [], primes=[()])
    relations = (parse_poly(T, "Y1*Y2 - x^2"),)
    x = parse_poly(T, "x")
    ubar = Polynomial(T, {(k, 0, 0): 1 for k in range(n)})
    u = 1 + parse_poly(T, "x^6") * ubar
    y1 = ring.jet(x * u, n)
    y2 = (ring.jet(x, n) * jet_invert(ring.jet(u, n))).truncate(n)
    morphism = MorphismApprox(n, {"Y1": y1, "Y2": y2})
    return DesingProblem(ring, relations, morphism, seed=seed, max_subset=3)


def space_curve_data():
    """The projective-but-not-free conormal example on a space curve."""
    T = VarTable.make(("x1", BASE), ("x2", BASE), ("x3", BASE),
                      ("Y1", ALGEBRA), ("Y2", ALGEBRA), ("Y3", ALGEBRA))
    J = [parse_poly(T, "x1^2 - x2*x3"), parse_poly(T, "x3^2 - x1*x2")]
    alpha = parse_poly(T, "x1*Y1^2 + x2*Y2^2 + x3*Y3^2 - x1 - x2 - x3")
    f1 = parse_poly(T, "x3^2*Y1^2 + x2^2*Y2^2 + x1^2*Y3^2 - x3^2 - x2^2 - x1^2")
    f2 = parse_poly(T, "x1") * alpha
    f3 = parse_poly(T, "x3") * alpha
    return T, J, alpha, (f1, f2, f3)


@pytest.fixture(scope="session")
def golden_result():
    from neron.desing import desingularize
    return desingularize(two_branch_problem(with_verify=True))


@pytest.fixture(scope="session")
def hypersurface_result():
    from neron.desing import desingularize
    return desingularize(hypersurface_problem())


def jet_sqrt(ring, p, n):
    """Jet square root with unit constant term, by Newton iteration."""
    from fractions import Fraction
    z = ring.jet(1, n)
    pj = ring.jet(p, n)
    for _ in range(10):
        if (z * z - pj).is_zero():
            break
        z = (z + pj * jet_invert(z)) * Fraction(1, 2)
    return z


def random_certificate_instance(seed, n_prec=9):
    """Seeded random valid instance for the certificate property suite.

    Base relation ideal drawn from {0, (x1*x2), (x1^2*x2)}, at most three
    algebra variables, relation degree at most two in them.  Instances mix
    exactly solvable systems with square-root series whose truncation error
    produces a nonzero Taylor constant b.
    """
    import random as _random
    rng = _random.Random(seed)
    jtxt = rng.choice([None, "x1*x2", "x1^2*x2"])
    n = rng.randint(1, 3)
    base = [("x1", BASE)] if jtxt is None else [("x1", BASE), ("x2", BASE)]
    pairs = base + [(f"Y{i + 1}", ALGEBRA) for i in range(n)]
    T = VarTable.make(*pairs)
    nb = len(base)
    J = [] if jtxt is None else [parse_poly(T, jtxt)]
    ring = LocalRingSpec(T, J, primes=minimal_primes(J, T))
    ynames = [f"Y{i + 1}" for i in range(n)]

    def rnd_base(maxdeg=2):
        p = Polynomial.zero(T)
        for _ in range(rng.randint(1, 3)):
            ds = [rng.randint(0, maxdeg) for _ in range(nb)]
            if sum(ds) > maxdeg:
                continue
            mon = tuple(ds + [0] * n)
            p = p + Polynomial.from_terms(T, [(mon, rng.randint(-2, 2))])
        return p

    rels = []
    jets = {}
    sqrt_slot = rng.randrange(n) if rng.random() < 0.5 else None
    y0 = {}
    for i, nm in enumerate(ynames):
        if i == sqrt_slot:
            u = 1 + rnd_base(1) * parse_poly(T, "x1")
            target = u * u * (1 + parse_poly(T, "x1"))
            yj = jet_sqrt(ring, target, n_prec)
            y0[nm] = yj.poly
            jets[nm] = yj
            rels.append(Polynomial.var(T, nm) ** 2 - target)
        else:
            y0[nm] = rnd_base()
            jets[nm] = ring.jet(y0[nm], n_prec)
    diffs = {nm: Polynomial.var(T, nm) - y0[nm] for nm in ynames}
    for i, nm in enumerate(ynames):
        if i == sqrt_slot:
            continue
        f = Polynomial.zero(T)
        for j, nm2 in enumerate(ynames):
            if j == sqrt_slot:
                continue
            c = rng.randint(-2, 2)
            if i == j and c == 0:
                c = 1
            q = Polynomial.const(T, c)
            if rng.random() < 0.4:
                q = q + rnd_base(1)
            f = f + q * diffs[nm2]
        others = [x for k, x in enumerate(ynames) if k != sqrt_slot]
        if rng.random() < 0.5 and others:
            a = rng.choice(others)
            b = rng.choice(others)
            f = f + rng.randint(-1, 1) * diffs[a] * diffs[b]
        if not f.is_zero():
            rels.append(f)
    if not rels:
        return None
    v = MorphismApprox(n_prec, jets)
    return DesingProblem(ring, tuple(rels), v, seed=seed, max_subset=3)


# Every generator seed in range(32) has one recorded status, and the three
# tuples below partition the range:
# seeds whose instances certify (the certificate property suite runs them);
CERTIFICATE_SEEDS = (0, 1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17,
                     18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 31)
# seeds outside the hypothesis: find_f_R raises ConditionStarStarFailed;
REJECTED_SEEDS = (5, 30)
# seeds that do not certify in tier-1 time.  Seed 9 spends over 80 s in det
# for s' (cofactor expansion of a 4x4 pivot Jacobian whose entries reach
# 21 740 terms).  A block-triangular s' gets it past det, but it then stalls
# in the expansion of s'' (ShiftedPoint._sum, the Fraction scale pass of the
# product).
KNOWN_SLOW = (9,)
