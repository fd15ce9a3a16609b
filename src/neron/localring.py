"""The base ring A = (k[x]/J)_(x) and its jet-level completion.

Jets are polynomial representatives truncated below a precision N and kept
in canonical form modulo J + (x)^N: the remainder of division by the
standard basis of J with every term of x-degree at least N dropped, so
(x)^N is a degree cut and never a list of generators.  Arithmetic
truncates to the minimum precision of its operands.  The canonical form is
unique and linear (Greuel-Pfister 1.6-1.7), so sums, differences and
truncations of canonical jets only drop the terms at or above the cut.
Division by J is left to products, which multiply no pair of terms whose
x-degrees sum to N or more, and to polynomials entering a jet.  When the
basis of J is all single terms, as for J = (x1*x2) or J = 0, that division
is deletion: the terms a lead divides and the terms past the cut are
dropped in one pass, which is the division loop's remainder exactly.

The module also houses the restricted minimal prime decomposer, the
small-vector and active element searches, the annihilator exponent and the
precision bound test.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import (ActiveElementNotFound, DecompositionIncomplete,
                     NeronError, NotAUnit, NotDivisible, PreconditionFailed,
                     TargetInsidePrime)
from .groebner import Ideal, delete_multiples, std_basis
from .idealops import (intersect, krull_dim, radical_membership, same_ideal,
                       saturate)
from .orders import BASE, DegRevLex, mixed_order, packing
from .poly import Polynomial, exact_div, from_int_terms

_DEGREVLEX = DegRevLex()


def monomials_of_degree(table, positions, degree):
    """All exponent tuples supported on ``positions`` with total degree given."""
    n = len(table)
    out = []
    for combo in itertools.combinations_with_replacement(positions, degree):
        m = [0] * n
        for i in combo:
            m[i] += 1
        out.append(tuple(m))
    return out


def standard_monomials(ideal):
    """The monomials of the base variables outside the lead ideal of
    ``ideal``, one list per degree from 0 in ``monomials_of_degree`` order,
    until a degree has none.  They are closed under division, so degree
    k+1 holds x_i*m for m of degree k and x_i from the last variable of m
    on: each monomial is reached once, in order."""
    base, leads = ideal.table.block(BASE), ideal.leads()
    # (monomial, index in the base of its last variable)
    level = [((0,) * len(ideal.table), 0)]
    while True:
        level = [(m, k) for m, k in level if not any(
            all(a >= b for a, b in zip(m, lm)) for lm in leads)]
        if not level:
            return
        yield [m for m, _ in level]
        level = [(m[:i] + (m[i] + 1,) + m[i + 1:], j) for m, k in level
                 for j, i in enumerate(base[k:], k)]


class LocalRingSpec:
    """Base ring data: variables, relation ideal J, minimal primes.

    ``table`` may contain more blocks than the base; J and the primes live in
    the base variables.  The local dimension at the origin must be 1.
    ``j_ideal`` and ``prime_ideals`` hold J and the primes as Ideals, each
    with its basis under ``mixed_order(table)``, which realizes the
    localization at (x).  The truncated ideals J + (x)^N and P_i + (x)^N
    are never built, since ``reduce_jet`` divides by J or P_i under a
    degree cut at N.
    """

    def __init__(self, table, j_gens, primes=None, check_dimension=True):
        self.table = table
        self.base = table.block(BASE)
        self.j_gens = tuple(g for g in j_gens if not g.is_zero())
        self.primes = None if primes is None else tuple(tuple(p) for p in primes)
        self.j_ideal = Ideal(table, self.j_gens)
        self.prime_ideals = None if primes is None else tuple(
            Ideal(table, p) for p in self.primes)
        others = tuple(i for i in range(len(table)) if i not in self.base)
        for g in self.j_gens:
            if g.constant_coefficient() != 0:
                raise PreconditionFailed(
                    "relation ideal is not contained in (x)")
            if g.involves(others):
                raise PreconditionFailed(
                    "relation ideal must live in the base block")
        # the degree cut of reduce_jet needs ideals of the base variables
        if any(g.involves(others) for p in self.primes or () for g in p):
            raise PreconditionFailed(
                "minimal primes must live in the base block")
        if check_dimension:
            dim = self.local_dimension()
            if dim != 1:
                raise PreconditionFailed(
                    f"base ring has local dimension {dim}, not 1")

    # -- bases and reduction ------------------------------------------------

    def local_dimension(self):
        return krull_dim(self.j_ideal)

    def monomial_reduce(self, p):
        """Canonical form modulo J when every element of J's basis is a
        single term.

        Such relations only delete the monomials they divide
        (``delete_multiples``, as in ``reduce_jet``), which is the remainder
        of the one division loop's long division, so this always
        terminates; for non-monomial J the input is returned unchanged
        (divisions absorb the difference through their J slots).
        """
        leads = self.j_ideal.monomial_leads()
        return p if leads is None else delete_multiples(p, leads)

    def reduce_jet(self, p, precision, prime=None):
        """Canonical form of p modulo J + (x)^N, or modulo P_i + (x)^N for
        the prime of index ``prime`` (each P_i contains J).  A basis of
        single terms (J = (x1*x2), J = 0) reduces by deletion, which gives
        the remainder of the one division loop (``groebner._normal_form``),
        used otherwise: long division under the cut, so the remainder is
        p's own, with no unit."""
        ideal = self.j_ideal if prime is None else self.prime_ideals[prime]
        return ideal.reduce_full(p, cut=(self.base, precision))

    def at(self, p, point, precision):
        """Canonical form of p at ``point`` (name -> Polynomial) modulo
        J + (x)^N, substituted under the cut at N: the terms it drops lie
        in (x)^N, and the canonical form is unique and linear."""
        cut = (self.base, precision)
        return self.reduce_jet(p.substitute(point, cut), precision)

    def contains_power(self, ideal, N):
        """True iff (x)^N lies in ``ideal`` (of the base variables) locally:
        iff (x)^N <= L(I) under the local degree order, iff no standard
        monomial has degree N.  They are closed under division, so an ideal
        of positive dimension has them in every degree."""
        return krull_dim(ideal) <= 0 and all(
            degree < N for degree, _ in enumerate(standard_monomials(ideal)))

    def with_minimal_primes(self):
        """This ring when it has its primes; otherwise the same ring, its
        dimension checked, with the minimal primes of J."""
        if self.primes is not None:
            return self
        return LocalRingSpec(self.table, self.j_gens, minimal_primes(
            list(self.j_gens), self.table))

    def with_table(self, newtable):
        """Same ring data lifted to an extended table."""
        ring = LocalRingSpec(newtable,
                             [g.lift(newtable) for g in self.j_gens],
                             None if self.primes is None else
                             tuple(tuple(q.lift(newtable) for q in p)
                                   for p in self.primes),
                             check_dimension=False)
        return ring

    def jet(self, p, precision):
        if not isinstance(p, Polynomial):
            p = Polynomial.const(self.table, p)
        return Jet(self, self.reduce_jet(p, precision), precision)

    def zero_jet(self, precision):
        return Jet(self, Polynomial.zero(self.table), precision)

    def validate_primes(self):
        """Check the stated invariants of a user-supplied prime list."""
        if self.primes is None:
            raise NeronError("no primes to validate")
        for prime in self.prime_ideals:
            for g in prime.gens:
                if g.constant_coefficient() != 0:
                    raise PreconditionFailed(
                        "a supplied prime is the unit ideal")
            for g in self.j_gens:
                if not prime.contains(g):
                    raise PreconditionFailed(
                        "a supplied prime does not contain J")
        for a in self.prime_ideals:
            for b in self.prime_ideals:
                if a is not b and all(b.contains(g) for g in a.gens):
                    raise PreconditionFailed("supplied primes are comparable")
        meet = None
        for p_gens in self.primes:
            meet = list(p_gens) if meet is None else intersect(
                meet, list(p_gens), self.table)
        for g in meet or []:
            if not radical_membership(g, list(self.j_gens) or
                                      [Polynomial.zero(self.table)],
                                      self.table):
                raise PreconditionFailed(
                    "intersection of supplied primes is not in the radical of J")
        return True


class Jet:
    """Truncated element of the completion: polynomial of x-degree < N.

    ``poly`` is always the canonical form modulo J + (x)^N; ``+``, ``-``
    and ``truncate`` rely on it and divide by nothing.  Build jets from
    other polynomials with ``LocalRingSpec.jet``.
    """

    __slots__ = ("ring", "poly", "precision")

    def __init__(self, ring, poly, precision):
        if precision < 1:
            raise NeronError("jet precision must be at least 1")
        self.ring = ring
        self.poly = poly
        self.precision = precision

    def is_zero(self):
        return self.poly.is_zero()

    def order(self):
        return self.poly.order()

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return self.ring.jet(other, self.precision)

    def _at(self, n):
        """The canonical polynomial at precision n <= self.precision: the
        terms of x-degree below n, as the canonical form is linear."""
        if n == self.precision:
            return self.poly
        return self.poly.below((self.ring.base, n))

    def __add__(self, other):
        other = self._coerce(other)
        n = min(self.precision, other.precision)
        return Jet(self.ring, self._at(n) + other._at(n), n)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ring, -self.poly, self.precision)

    def __sub__(self, other):
        other = self._coerce(other)
        n = min(self.precision, other.precision)
        return Jet(self.ring, self._at(n) - other._at(n), n)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product at the smaller precision.  A rational or a constant
        polynomial scales the content, which keeps the form canonical.
        Any other factor enters as a jet (a polynomial is reduced on
        entry), and their product is cut at the precision and reduced."""
        if isinstance(other, Polynomial) and other.is_constant():
            other = other.constant_coefficient()
        if isinstance(other, (int, Fraction)):
            return Jet(self.ring, self.poly * other, self.precision)
        other = self._coerce(other)
        n = min(self.precision, other.precision)
        ring = self.ring
        return Jet(ring, ring.reduce_jet(
            self.poly.mul(other.poly, (ring.base, n)), n), n)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise NeronError("negative exponent in jet power")
        if k == 0:
            return Jet(self.ring, Polynomial.const(self.ring.table, 1),
                       self.precision)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def truncate(self, precision):
        if precision > self.precision:
            raise NeronError("cannot raise jet precision")
        return Jet(self.ring, self._at(precision), precision)

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.precision == other.precision
                and self.poly == other.poly)

    def __repr__(self):
        return f"jet({self.poly!r}; N={self.precision})"


def jet_invert(u):
    """Jet z with u*z = 1 modulo J + (x)^N.  u must be a nonzero constant
    modulo (x), which makes it a unit: (x) is nilpotent modulo (x)^N.

    The inverse is unique in canonical form, so each of three paths gives
    the same jet: a constant u = c gives 1/c at once, at any precision;
    over a J whose basis is all single terms (J = 0 included), 1/u is
    solved one x-degree at a time (``_divide_by_unit``); any other J takes
    Newton's inverse (``newton_inverse``).
    """
    ring, n = u.ring, u.precision
    head = u.poly.below((ring.base, 1))
    c = head.constant_coefficient()
    if c == 0 or not head.is_constant():
        raise NotAUnit("jet is not a nonzero constant modulo (x)")
    if u.poly == head:
        return ring.jet(exact_div(1, c), n)
    leads = ring.j_ideal.monomial_leads()
    if leads is not None:
        return _divide_by_unit(ring.jet(1, n), u, n, leads)
    return newton_inverse(u)


def newton_inverse(u):
    """The inverse of the unit jet u (a nonzero constant modulo (x)) by
    Newton's iteration with doubling precision (von zur Gathen & Gerhard,
    Modern Computer Algebra, 9.1): an inverse z modulo (x)^k gives
    z - z*(u*z - 1) modulo (x)^2k, so ceil(log2 N) steps reach N.
    ``jet_invert`` takes it for a J that is not monomial; the tests
    compare the other paths with it."""
    ring, n = u.ring, u.precision
    z = ring.jet(exact_div(1, u.poly.constant_coefficient()), 1)
    while z.precision < n:
        # canonical at precision k is canonical at any higher precision
        z = Jet(ring, z.poly, min(2 * z.precision, n))
        z = z - z * (u * z - 1)
    return z


def jet_divide(num, den):
    """Jet z with den*z = num modulo (x)^(N - ord den) + J, else NotDivisible.

    Three paths, after the shortcuts for a zero num and for num = den:
    - a constant den c scales num by 1/c, at any precision;
    - a unit den, whose x-degree-0 part is a nonzero constant c, has one
      quotient.  When J's basis is all single terms (J = 0 included), it
      is solved one x-degree at a time (``_divide_by_unit``); for any
      other J it is num * jet_invert(den).  A den with a constant term
      and another term of x-degree 0 raises NotAUnit;
    - a den with no constant term is solved as an exact linear system on
      the coefficients of z over the standard monomials; any solution is
      returned (free coordinates zero).  A precision that needs more than
      sys.maxsize unknowns raises PreconditionFailed.
    """
    ring = num.ring
    if den.is_zero():
        raise NotDivisible("division by a zero jet")
    o = den.order()
    n = min(num.precision, den.precision)
    n_res = n - o
    if n_res < 1:
        raise NotDivisible("no precision left after dividing")
    if num.is_zero():
        return ring.zero_jet(n_res)
    if num.poly == den.poly:
        return ring.jet(1, n_res)
    c = den.poly.constant_coefficient()
    if c != 0:
        if den.poly.is_constant():
            return Jet(ring, num._at(n) * exact_div(1, c), n)
        leads = ring.j_ideal.monomial_leads()
        if leads is not None:
            return _divide_by_unit(num, den, n, leads)
        return num * jet_invert(den.truncate(n))
    if n_res > sys.maxsize:
        raise PreconditionFailed(
            f"jet division at precision {n} has more unknowns than can be "
            f"listed")
    table = ring.table
    target = n_res + o
    cols = sum(itertools.islice(standard_monomials(ring.j_ideal), n_res), [])
    col_vecs = []
    support = {}
    for m in cols:
        prod = ring.reduce_jet(den.poly * Polynomial(table, {m: 1}),
                               target)
        col_vecs.append(prod)
        for mm in prod.monomials():
            support.setdefault(mm, len(support))
    rhs_poly = ring.reduce_jet(num.poly, target)
    for mm in rhs_poly.monomials():
        support.setdefault(mm, len(support))
    nrows = len(support)
    ncols = len(cols)
    A = [[0] * ncols for _ in range(nrows)]
    for j, vec in enumerate(col_vecs):
        for mm in vec.monomials():
            A[support[mm]][j] = vec.coefficient(mm)
    rhs = [0] * nrows
    for mm in rhs_poly.monomials():
        rhs[support[mm]] = rhs_poly.coefficient(mm)
    sol = _solve_exact(A, rhs)
    if sol is None:
        raise NotDivisible("jet division has no solution at this precision")
    z = Polynomial.from_terms(table, [(m, c) for m, c in zip(cols, sol) if c])
    return ring.jet(z, n_res)


def _divide_by_unit(num, den, n, leads):
    """The jet z with den*z = num modulo J + (x)^n, for J with the basis of
    single terms ``leads`` and den a nonzero constant c modulo (x).

    The power-series recurrence (Knuth, TAOCP vol. 2, 4.7): with p_k the
    part of x-degree k of p, z_k = (num_k - sum_(j>=1) [den_j*z_(k-j)]) / c,
    where [.] drops the multiples of the leads, as reduction modulo J
    does.  Each z_k is kept as integer terms over its own denominator, in
    lowest terms, so the denominators do not grow with a power of c; z is
    built from them once.  A term of z_k is a term of num times at most k
    terms of den, which bounds the degrees, so monomials are packed
    (``orders.Packing``) and multiply by one int addition.  A precision
    past sys.maxsize, whose degrees could not all be solved, raises
    PreconditionFailed.
    """
    if n > sys.maxsize:
        raise PreconditionFailed(
            f"jet division by a unit at precision {n} has more degrees than "
            f"can be solved")
    ring = num.ring
    base = ring.base

    def degree(m):
        return sum([m[i] for i in base])

    # den = dn/dd * dints, so z solves dints*z = a/b * nints
    dn, dd, dints = den.poly._view()
    nn, nd, nints = num.poly._view()
    scale = Fraction(nn * dd, nd * dn)
    a, b = scale.numerator, scale.denominator
    pk = packing(_DEGREVLEX, ring.table, max([
        max(map(sum, nints)) + (n - 1) * max(map(sum, dints)),
        *map(sum, leads)]))
    pack, divides = pk.pack, pk.divides
    c = None
    parts = {}      # x-degree j >= 1 -> [(packed monomial, coefficient)]
    for m, v in dints.items():
        j = degree(m)
        if j == 0:
            if any(m):
                raise NotAUnit("jet is not a nonzero constant modulo (x)")
            c = v
        else:
            parts.setdefault(j, []).append((pack(m), v))
    parts = sorted(parts.items())
    rhs = {}        # x-degree k -> {packed monomial: coefficient}
    for m, v in nints.items():
        rhs.setdefault(degree(m), {})[pack(m)] = a * v
    leads = [pack(lm) for lm in leads]
    z = []          # z_k = ints / q as (ints, q), q > 0
    for k in range(n):
        acc = rhs.get(k, {})
        L = b if acc else 1     # the denominator of acc
        get = acc.get
        for j, terms in parts:
            if j > k:
                break
            ints, q = z[k - j]
            if not ints:
                continue
            f, r = divmod(L, q)
            if r:       # widen acc's denominator to lcm(L, q)
                g = q // gcd(L, q)
                for m in acc:
                    acc[m] *= g
                L *= g
                f = L // q
            for mt, v in terms:
                cv = v * f
                for mz, w in ints.items():
                    m = mt + mz
                    acc[m] = get(m, 0) - cv * w
        ints = {m: v for m, v in acc.items()
                if v and not any(divides(lm, m) for lm in leads)}
        if not ints:
            z.append((ints, 1))
            continue
        q = L * c
        g = gcd(q, *ints.values())
        if q < 0:
            g = -g
        if g != 1:
            q //= g
            ints = {m: v // g for m, v in ints.items()}
        z.append((ints, q))
    Q = lcm(*[q for ints, q in z if ints])
    unpack = pk.unpack
    out = {unpack(m): v * (Q // q) for ints, q in z for m, v in ints.items()}
    return Jet(ring, from_int_terms(ring.table, out, 1, Q), n)


def _solve_exact(A, rhs):
    """Gauss-Jordan elimination over the rationals, run fraction-free;
    None when inconsistent.

    Each row is scaled to integers.  A step with pivot p, d the pivot of
    the step before (1 at first), replaces every other row R by
    (p*R - R[col]*pivot row) / d from the pivot column on, and the
    division is exact (Bareiss 1968).  Each row stays a nonzero multiple
    of its rational counterpart, so the pivot, the first nonzero entry of
    its column, and the solution are those of elimination over Q.  The
    last pivot is the common denominator of the solution.  Free variables
    are set to zero so low-degree particular solutions come out when they
    exist (columns are ordered by ascending degree).
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    rows = []
    for r, b in zip(A, rhs):
        row = list(r) + [b]
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    pivots = []
    d = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        p = pr[col]
        for r, rr in enumerate(rows):
            if r != rank:
                a = rr[col]
                for c in range(col, ncols + 1):
                    rr[c] = (p * rr[c] - a * pr[c]) // d
        pivots.append(col)
        d = p
        if len(pivots) == nrows:
            break
    if any(rows[r][ncols] for r in range(len(pivots), nrows)):
        return None
    sol = [0] * ncols
    for r, col in enumerate(pivots):
        sol[col] = exact_div(rows[r][ncols], d)
    return sol


# ---------------------------------------------------------------------------
# minimal primes (restricted decomposer)

MAX_COMPONENTS = 64   # components minimal_primes tracks at most


def _split_variable(g):
    """Position of the first variable dividing every term of g, or None."""
    shared = None
    for m in g.monomials():
        sup = {i for i, e in enumerate(m) if e}
        shared = sup if shared is None else (shared & sup)
        if not shared:
            return None
    return min(shared)


def minimal_primes(j_gens, table):
    """Minimal primes over J via variable splitting plus saturation.

    One split rule: take the first basis element g, other than a variable
    itself, that some variable divides term by term, and v the first such
    variable.  A power v^k, k >= 2, is replaced by v; any other g branches
    into (I, v) and (I : v^infinity).
    Handles the monomial-style relation ideals this library meets; anything
    it cannot certify raises DecompositionIncomplete, directing the caller
    to supply the primes explicitly (MINPRIMES in the problem file).
    """
    order = mixed_order(table)
    live = [g for g in j_gens if not g.is_zero()]
    if not live:
        return [()]
    start = std_basis(live, table, order)
    if any(b.is_constant() for b in start):
        raise NeronError("J is the unit ideal")
    work = [tuple(start)]
    finished = []
    while work:
        if len(finished) + len(work) > MAX_COMPONENTS:
            raise DecompositionIncomplete(
                "too many components; supply MINPRIMES")
        gens = work.pop()
        basis = std_basis(list(gens), table, order)
        if any(b.is_constant() and not b.is_zero() for b in basis):
            continue
        if not basis:
            finished.append(())
            continue
        branches = None
        for g in basis:
            i = _split_variable(g)
            if i is None:
                continue
            v = Polynomial.var(table, table.names[i])
            mons = list(g.monomials())
            if len(mons) == 1 and sum(mons[0]) == mons[0][i]:   # c * v^k
                if mons[0][i] == 1:   # v itself: nothing to split
                    continue
                branches = (tuple(b for b in basis if b is not g) + (v,),)
            else:
                branches = (tuple(basis) + (v,),
                            saturate(Ideal(table, basis), v)[0])
            break
        if branches is not None:
            work.extend(branches)
            continue
        if _certify_prime(basis):
            finished.append(tuple(basis))
        else:
            raise DecompositionIncomplete(
                "cannot certify a component prime; supply MINPRIMES")
    # keep inclusion-minimal components, deduplicated
    uniq = []
    for gens in finished:
        ideal = Ideal(table, gens)
        if not any(same_ideal(ideal, other) for other in uniq):
            uniq.append(ideal)
    return [ideal.gens for ideal in uniq
            if not any(other is not ideal
                       and all(ideal.contains(o) for o in other.gens)
                       and not same_ideal(ideal, other)
                       for other in uniq)]


def _certify_prime(basis):
    """True for a basis of variables (one-term, degree one) or of one
    linear form: such an ideal is prime."""
    if all(len(b.monomials()) == 1 and b.total_degree() == 1
           for b in basis):
        return True
    return len(basis) == 1 and basis[0].total_degree() == 1


SMALL_VALUES = (0, 1, -1, 2, -2, 3, -3)   # entries of every searched vector
MAX_ACTIVE_ATTEMPTS = 1000  # combinations active_element tries at most


def small_vectors_by_norm(n, lo=1, hi=None):
    """Vectors of length n with entries in SMALL_VALUES and L1 norm lo to
    hi, each once, by norm and within a norm in ``itertools.product``
    order: each +-e_i comes first, each +-e_i +- e_j before any norm-3
    vector."""
    top = max(SMALL_VALUES)

    def of_norm(k, total):
        if k == 0:
            yield ()
            return
        for c in SMALL_VALUES:
            if 0 <= total - abs(c) <= top * (k - 1):
                for tail in of_norm(k - 1, total - abs(c)):
                    yield (c,) + tail

    for total in range(lo, (top * n if hi is None else hi) + 1):
        yield from of_norm(n, total)


def avoids_primes(p, primes):
    """True iff p lies in none of the Ideals ``primes``: for the minimal
    primes of J, iff p is active."""
    return not any(prime.contains(p) for prime in primes)


def active_element(target_gens, primes, table, accept=None):
    """Element of the target ideal avoiding every minimal prime.

    ``primes`` are Ideals.  Search order: the given generators first, then
    at most MAX_ACTIVE_ATTEMPTS other combinations, their coefficient
    vectors from ``small_vectors_by_norm``, each offered to ``accept`` once.
    """
    live = [g for g in target_gens if not g.is_zero()]
    if not live:
        raise TargetInsidePrime("target ideal is zero")
    for prime in primes:
        if all(prime.contains(g) for g in live):
            raise TargetInsidePrime("target ideal lies inside a minimal prime")
    for g in live:
        if avoids_primes(g, primes) and (accept is None or accept(g)):
            return g
    for coeffs in itertools.islice(small_vectors_by_norm(len(live)),
                                   MAX_ACTIVE_ATTEMPTS):
        if coeffs.count(0) == len(coeffs) - 1 and 1 in coeffs:
            continue  # a generator itself, tried above
        d = Polynomial.zero(table)
        for c, g in zip(coeffs, live):
            if c:
                d = d + g * c
        if d.is_zero() or not avoids_primes(d, primes):
            continue
        if accept is None or accept(d):
            return d
    raise ActiveElementNotFound(
        "no active element found within the attempt budget")


def compute_e(d, ring):
    """Least e >= 1 with (0 : d^e) = (0 : d^(e+1)) in A.  A d with a
    nonzero constant term is a unit of A, so every (0 : d^k) is 0 and e = 1
    with no colon.  Otherwise e = max(1, k) for k the index where the colon
    chain J, (J : d), ... of ``saturate`` is stable, started from
    ``ring.j_ideal`` to reuse its basis."""
    if d.constant_coefficient():
        return 1
    return max(1, saturate(ring.j_ideal, d, max_steps=50)[1])


def check_precision_bound(N, d, e, ring):
    """True iff (x)^N is contained in (d^(2e+1)) + J locally."""
    return ring.contains_power(
        Ideal(ring.table, list(ring.j_gens) + [d ** (2 * e + 1)]), N)
