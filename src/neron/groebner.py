"""Groebner bases for global orders, standard bases for local and mixed ones.

Every division runs in one loop, ``_normal_form``, as Singular's engine
divides with one normal form.  Its rule follows from its input: long
division under a global order or for a fully reduced remainder (a degree
cut is taken with the latter), and otherwise Mora's weak normal form with
ecart selection, for orders in which some variables rank below 1 (those
realize computations in the localization).  Long division is Mora's rule
at ecart 0, so under a degree order the two agree.  Divisions can carry
witnesses, exact identities

    unit * dividend = sum(quotient_i * divisor_i) + remainder

where the unit is 1 for global orders and has lead term 1 (hence is
invertible in the localization) otherwise.

The loop runs fraction-free on the integer views of ``poly``, with
monomials packed into ints (``orders.Packing``): the dividend is packed
integer terms over one denominator, each reducer (``_Prepared``) holds
its packed terms and lead, and a step's divisibility test, monomial
product, order comparison and ecart are int operations.  The remainder is
unpacked once, from its integer terms, and a rational coefficient is
built only for rows.  The operands of one computation share one packing,
taken from their degrees; a step whose terms would pass its degree limit
repacks them all wider first, so no result depends on the width.

Basis computation is Buchberger's loop with the normal pair-selection
strategy and Gebauer-Moeller pruning, on packed leads.  Output bases are
monic, sorted and minimal for every order: no element's lead divides
another's.  Identical inputs give byte-identical bases, and for global
orders they are also fully tail-reduced.  The loop stops at the first
element whose lead monomial is 1 (a unit of the ring the order
realizes), which is then the whole minimal basis; only syzygy collection
runs every pair.

A monomial ideal needs no loop: when every generator is a single term
(``single_terms``), its basis is its minimal generators, which are unique
(Miller & Sturmfels, Combinatorial Commutative Algebra, ch. 1), made monic
and sorted as the loop sorts (``minimal_monomials``).  Every S-polynomial
of two terms is zero, so the loop would return the same tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from operator import attrgetter

from .errors import NeronError, NotInIdeal
from .orders import mixed_order, packing
from .poly import Polynomial, exact_div, from_int_terms

_SNAPSHOT_BASE = 10 ** 9
_ECART = attrgetter("ecart", "idx")


class _Prepared:
    """Reducer at one packing: its polynomial num/den * ints with the
    primitive integer terms ``ints`` under packed monomials, the packed
    lead ``lm``, the integer coefficient ``b`` there, the largest total
    degree ``deg`` and the ecart.

    ``row`` is either None (the element stands for itself in position
    ``idx`` of the tracking space) or a sparse dict {j: Polynomial} with
    the polynomial = sum(row[j] * space[j]) exactly.
    """

    __slots__ = ("num", "den", "ints", "lm", "b", "deg", "ecart", "idx",
                 "row")

    def __init__(self, num, den, ints, pk, idx, row=None):
        rev, limit = pk.rev, pk.limit
        self.num, self.den, self.ints = num, den, ints
        self.lm = lm = min([m ^ rev for m in ints]) ^ rev
        self.b = ints[lm]
        self.deg = max([m & limit for m in ints])
        self.ecart = self.deg - (lm & limit)
        self.idx = idx
        self.row = row

    def lc(self):
        """The lead coefficient, num/den * b."""
        return exact_div(self.b * self.num, self.den)

    def repacked(self, pk, old):
        """This reducer, packed by ``old``, at the packing ``pk``."""
        return _Prepared(self.num, self.den,
                         {pk.repack(m, old): v for m, v in self.ints.items()},
                         pk, self.idx, self.row)


def single_terms(gens):
    """The monomials of the nonzero ``gens`` when each is a single term,
    None otherwise: the one test for a monomial ideal."""
    out = []
    for g in gens:
        mons = g.monomials()
        if len(mons) > 1:
            return None
        out.extend(mons)
    return tuple(out)


def minimal_monomials(mons, table, order):
    """The standard basis of the ideal of the monomials ``mons`` under any
    order: its minimal generators, monic and sorted by lead, largest first,
    as ``std_basis`` returns them.  A constant gives (1), as the stop rule
    does, and no monomial the zero ideal ()."""
    pk = packing(order, table, max(map(sum, mons), default=0))
    divides, neg = pk.divides, pk.neg
    packed = sorted(set(map(pk.pack, mons)), key=lambda a: a ^ neg,
                    reverse=True)
    return tuple(from_int_terms(table, {pk.unpack(a): 1}) for a in packed
                 if not any(b != a and divides(b, a) for b in packed))


def _reducers(basis, order, table):
    """The packing for the nonzero polynomials ``basis`` under ``order``,
    and their reducers."""
    pk = packing(order, table, max([b.total_degree() for b in basis],
                                   default=0))
    pack = pk.pack
    reducers = []
    for i, b in enumerate(basis):
        num, den, ints = b._view()
        reducers.append(_Prepared(num, den, {pack(m): v
                                             for m, v in ints.items()}, pk, i))
    return pk, reducers


def _unpacked(pk, ints, num=1, den=1):
    """The polynomial num/den * ints of packed integer terms."""
    unpack = pk.unpack
    return from_int_terms(pk.table, {unpack(m): v for m, v in ints.items()},
                          num, den)


def _widen(pk, deg, reducers, *terms):
    """The packing for total degree ``deg``, the reducers and each dict of
    packed terms in ``terms`` repacked to it, in their order."""
    wide = pk.wider(deg)
    return (wide, [g.repacked(wide, pk) for g in reducers],
            *[{wide.repack(m, pk): v for m, v in d.items()} for d in terms])


def _sub_scaled(h, g_terms, t, coef, heap=None, pk=None, degs=None):
    """In-place h -= coef * x^t * g on packed integer terms; new monomials
    m are pushed on the heap as m ^ pk.rev and the optional degree
    multiset is kept in sync."""
    if pk is not None:
        rev, limit = pk.rev, pk.limit
    get = h.get
    for m, c in g_terms.items():
        key = m + t
        acc = get(key)
        if acc is None:
            h[key] = -coef * c
            if heap is not None:
                heappush(heap, key ^ rev)
            if degs is not None:
                d = key & limit
                degs[d] = degs.get(d, 0) + 1
        else:
            acc -= coef * c
            if acc:
                h[key] = acc
            else:
                del h[key]
                if degs is not None:
                    d = key & limit
                    degs[d] -= 1
                    if not degs[d]:
                        del degs[d]


def _reduce_lead(h, den, rem, c, g, t, heap, pk, degs=None):
    """One fraction-free step of a division: h/den, whose lead term is
    c*x^m, loses that term to g, with x^t * lm(g) = m.  Returns the new den.

    With G the integer terms of g, b their lead and q = gcd(c, b), h (and
    the remainder ``rem``, which shares den) is scaled by |b|/q when that
    is not 1, and sign(b)*(c/q) * x^t * G is subtracted.  After a scaling,
    h, rem and den are divided by their gcd, so den stays the least common
    denominator of the dividend and the remainder.
    """
    b = g.b
    q = gcd(c, b)
    f = abs(b) // q
    k = c // q if b > 0 else -(c // q)
    if f != 1:
        for m in h:
            h[m] *= f
        for m in rem:
            rem[m] *= f
        den *= f
    _sub_scaled(h, g.ints, t, k, heap, pk, degs)
    if f != 1:
        q = gcd(den, *h.values(), *rem.values())
        if q != 1:
            for m in h:
                h[m] //= q
            for m in rem:
                rem[m] //= q
            den //= q
    return den


def _start(p, reducers, pk, cut=None):
    """A copy of the dividend, without its terms beyond the cut, as
    (packed integer terms, denominator), with the packing that holds it
    and the reducers at that packing.

    p is a Polynomial or a pair (packed integer terms, denominator) at
    ``pk``, as ``spoly`` returns them."""
    if not isinstance(p, Polynomial):
        h, den = p
        return dict(h), den, pk, reducers
    num, den, ints = p._view()
    if cut is not None:
        positions, bound = cut
        ints = {m: v for m, v in ints.items()
                if sum([m[i] for i in positions]) < bound}
    deg = max(map(sum, ints), default=0)
    if deg > pk.limit:
        pk, reducers = _widen(pk, deg, reducers)
    pack = pk.pack
    return {pack(m): v * num for m, v in ints.items()}, den, pk, reducers


def _step_coef(c, den, g):
    """The value-level quotient coefficient (c/den) / lc(g) of a step."""
    return exact_div(c * g.den, den * g.b * g.num)


def _reducer_row(table, g):
    if g.row is not None:
        return g.row
    return {g.idx: Polynomial.const(table, 1)}


def _row_update(table, row, g_row, mon, coef):
    """In-place row -= coef * x^mon * g_row for sparse polynomial rows."""
    shift = Polynomial(table, {mon: coef})
    for j, q in g_row.items():
        cur = row.get(j)
        upd = (cur - shift * q) if cur is not None else -(shift * q)
        if upd.is_zero():
            row.pop(j, None)
        else:
            row[j] = upd


def delete_multiples(p, leads, cut=None):
    """The terms of p that no monomial of ``leads`` divides, without those
    of degree N or more at ``positions`` for ``cut = (positions, N)``; p
    itself when it loses none.

    This is the full remainder of p by the monic one-term reducers x^lm:
    each step subtracts c * x^t * x^lm, which removes the term c * x^m it
    divides and adds none, so no heap and no scaling is needed."""
    if not leads:
        return p if cut is None else p.below(cut)
    supports = [[(i, e) for i, e in enumerate(lm) if e] for lm in leads]
    positions, bound = cut or ((), 1)   # no cut: every degree is 0 < 1
    num, den, ints = p._view()
    kept = {}
    for m, v in ints.items():
        if sum([m[i] for i in positions]) >= bound:
            continue
        for support in supports:
            for i, e in support:
                if m[i] < e:
                    break
            else:       # this lead divides m
                break
        else:           # no lead divides m
            kept[m] = v
    if len(kept) == len(ints):
        return p
    return from_int_terms(p.table, kept, num, den)


def _normal_form(p, reducers, pk, full, row, cut):
    """The one division loop; returns (remainder, row).  Its rule follows
    from its input (Greuel-Pfister 1.6-1.7):

    - Long division under a global order or when ``full``: each step
      takes the first reducer whose lead divides the largest term, and the
      remainder is p's own.  ``full`` sets a term that no reducer divides
      aside and goes on; otherwise that term ends the division.  A cut is
      taken with ``full``: ``cut = (positions, N)`` drops every term of
      degree at least N in the variables at ``positions``, on entry and as
      it comes off the heap, so the division runs modulo the ideal plus
      (x)^N.  It ends under a global order or a cut.
    - Mora's weak normal form otherwise: each step takes the reducer of
      least (ecart, idx); when that ecart exceeds the dividend's, the
      dividend is first snapshot into the reducers.  The remainder is that
      of u*p for a unit u, zero iff p lies in the ideal of the localization
      the order realizes.  A snapshot cannot carry the terms set aside, so
      a full division keeps to long division.

    Under a degree order every ecart is 0 and the reducers are in idx
    order, so the two rules take the same steps and no snapshot fires.

    The dividend is integer terms H over one denominator D, the remainder
    shares D, and each step (``_reduce_lead``) stays on ints.  The heap
    holds packed m ^ pk.rev, so it pops the largest term first; a reducer
    divides m by the guard-bit test, the ecart reads the total-degree
    field, and a step past the packing's degree limit first repacks
    everything wider.  A snapshot keeps H, as a nonzero multiple of a
    reducer removes the same terms, and scales its row by D.  The
    remainder comes in the dividend's form: a Polynomial, unpacked once,
    or the triple (packed integer terms, denominator, packing); it is the
    dividend unchanged when no step was taken and no term dropped.  A row
    update takes the step's value-level coefficient.
    """
    h, den, pk, local = _start(p, reducers, pk, cut)
    mora = not (pk.glob or full)
    local = list(local)
    table = pk.table
    if cut is not None:
        positions, bound = cut

        def dropped(m):
            return sum([m >> pk.shifts[i] & pk.limit
                        for i in positions]) >= bound

    rev, guard, limit = pk.rev, pk.guard, pk.limit
    heap = [m ^ rev for m in h]
    heapify(heap)
    degs = None
    if mora:
        degs = {}
        for m in h:
            d = m & limit
            degs[d] = degs.get(d, 0) + 1
    rem = {}
    n_snap = 0
    stepped = False
    while h:
        while heap and heap[0] ^ rev not in h:
            heappop(heap)
        if not heap:
            break
        m = heap[0] ^ rev
        if cut is not None and dropped(m):
            del h[m]
            heappop(heap)
            continue
        top = m | guard
        if mora:
            g = min([g for g in local if (top - g.lm) & guard == guard],
                    key=_ECART, default=None)
        else:
            for g in local:
                if (top - g.lm) & guard == guard:
                    break
            else:
                g = None
        if g is None:
            if not full:
                rem = h
                break
            rem[m] = h.pop(m)
            heappop(heap)
            continue
        t = m - g.lm
        need = (t & limit) + g.deg
        if need > limit:
            pk, local, h, rem = _widen(pk, need, local, h, rem)
            rev, guard, limit = pk.rev, pk.guard, pk.limit
            heap = [k ^ rev for k in h]
            heapify(heap)
            continue
        c = h[m]
        if mora and g.ecart > max(degs) - (m & limit):
            q = gcd(*h.values())
            snap = _Prepared(q, 1, {k: v // q for k, v in h.items()}, pk,
                             _SNAPSHOT_BASE + n_snap,
                             {j: r * den for j, r in row.items()}
                             if row is not None else None)
            n_snap += 1
            local.append(snap)
        if row is not None:
            _row_update(table, row, _reducer_row(table, g), pk.unpack(t),
                        _step_coef(c, den, g))
        den = _reduce_lead(h, den, rem, c, g, t, heap, pk, degs)
        stepped = True
    if isinstance(p, Polynomial):
        if stepped or len(rem) < len(p._view()[2]):
            p = _unpacked(pk, rem, 1, den)
        return p, row
    if stepped or len(rem) < len(p[0]):
        return (rem, den, pk), row
    return (*p, pk), row


def classic_nf(p, reducers, pk, full=True, row=None, cut=None):
    """Long division by reducers at the packing ``pk`` (full, or under a
    global order), run by ``_normal_form``; returns (remainder, row).  A
    cut is taken with ``full`` and meant for reduction without rows."""
    return _normal_form(p, reducers, pk, full, row, cut)


def mora_nf(p, reducers, pk, row=None):
    """Mora's weak normal form by reducers at the packing ``pk`` (long
    division under a global order), run by ``_normal_form``; returns
    (remainder, row)."""
    return _normal_form(p, reducers, pk, False, row, None)


def _divide(p, reducers, pk, full=True, row=None):
    """Long division for global orders, Mora's normal form otherwise, each
    through its entry point into ``_normal_form``; returns (remainder,
    row).  ``full=False`` stops a long division at the first term no
    reducer divides, as Mora's normal form does."""
    if pk.glob:
        return classic_nf(p, reducers, pk, full=full, row=row)
    return mora_nf(p, reducers, pk, row=row)


def spoly(f, g, pk):
    """x^u * f/lc(f) - x^v * g/lc(g) for reducers f and g, with x^u * lm(f)
    = x^v * lm(g) the lcm of the leads, on the packed integer terms: with
    F, G the primitive terms, bf, bg their leads and q = gcd(bf, bg), it
    is ((bg/q) * x^u * F - (bf/q) * x^v * G) / (bf*bg/q).  Returned as
    (packed integer terms, denominator) over their least denominator, the
    dividend form the normal forms take."""
    lcm = pk.lcm(f.lm, g.lm)
    bf, bg = f.b, g.b
    q = gcd(bf, bg)
    a, b = bg // q, bf // q
    den = bf * a
    if den < 0:
        a, b, den = -a, -b, -den
    u = lcm - f.lm
    out = {m + u: a * c for m, c in f.ints.items()}
    _sub_scaled(out, g.ints, lcm - g.lm, b)
    q = gcd(den, *out.values())
    if q != 1:
        out = {m: v // q for m, v in out.items()}
        den //= q
    return out, den


def _spoly_row(table, gi, gj, pk):
    """The row of ``spoly(gi, gj)``: x^u * row(gi)/lc(gi) - x^v *
    row(gj)/lc(gj), as two row updates."""
    lcm = pk.lcm(gi.lm, gj.lm)
    row = {}
    _row_update(table, row, _reducer_row(table, gi), pk.unpack(lcm - gi.lm),
                exact_div(-1, gi.lc()))
    _row_update(table, row, _reducer_row(table, gj), pk.unpack(lcm - gj.lm),
                exact_div(1, gj.lc()))
    return row


def _update_pairs(P, lms, pk):
    """Gebauer-Moeller pair update after appending the last lead of
    ``lms``: drops the pairs of P ({pair: lcm of its leads}) that the new
    lead makes redundant and returns the new pairs as (i, j, lcm)."""
    new = len(lms) - 1
    f = lms[new]
    divides, limit, lcm = pk.divides, pk.limit, pk.lcm
    with_f = [lcm(a, f) for a in lms[:new]]
    for (i, j), L in list(P.items()):
        if divides(f, L) and L != with_f[i] and L != with_f[j]:
            del P[(i, j)]
    groups = {}
    for i, L in enumerate(with_f):
        groups.setdefault(L, []).append(i)
    # by degree, a proper divisor of an lcm comes before it, so the
    # minimal lcms do not depend on the order of equal degrees
    minimal = []
    for L in sorted(groups, key=lambda L: L & limit):
        if not any(divides(L2, L) for L2 in minimal):
            minimal.append(L)
    return [(groups[L][0], new, L) for L in minimal
            if not (pk.glob and any(with_f[i] == lms[i] + f
                                    for i in groups[L]))]


def std_basis(gens, table, order, *, track=None):
    """Monic, sorted, minimal standard basis of the ideal generated by
    ``gens``.

    track=None     -> basis tuple
    track="rows"   -> (basis, rows): basis[k] = sum(rows[k][j] * gens[j])
    track="syz"    -> (basis, rows, syzygies): syzygies are vectors v with
                      sum(v[j] * gens[j]) = 0 exactly; with tracking enabled
                      all pairs are processed (no pruning) so the collected
                      vectors generate the first syzygy module.

    The elements are reducers at one packing, wide enough for twice the
    largest degree among them, so every lcm and S-polynomial of two fits;
    an element past that repacks them wider.  One loop divides every
    dividend packed: the generators with their unit rows, then the
    S-polynomial of each live pair.  A dividend that is or reduces to zero
    gives its row as a syzygy, any other remainder an element, and only
    the final basis is unpacked.  The pair queue is a heap of (key of the
    lcm, i, j), each key computed once per pair; a pair that the criteria
    drop stays in the heap and is skipped.

    Stop rule: unless syzygies are collected, the computation ends at the
    first element whose lead monomial is 1.  Its lead divides every other
    lead, so the minimal basis is that element alone (made monic), with
    its row, whatever further pairs would add.

    Without tracking, generators that are all single terms skip the loop:
    their basis is ``minimal_monomials``, the tuple the loop would return.
    """
    if track is None:
        mons = single_terms(gens)
        if mons is not None:
            return minimal_monomials(mons, table, order)
    pk = packing(order, table, max([g.total_degree() for g in gens],
                                   default=0))
    use_criteria = track != "syz"

    G = []
    lms = []
    P = {}          # live pairs -> the lcm of their leads
    queue = []      # (key of the lcm, i, j), dropped pairs included
    syzygies = []

    def add_element(r, row):
        """Append the packed remainder r, made primitive; True when the
        stop rule ends the computation."""
        nonlocal pk
        h, den, rpk = r
        q = gcd(*h.values())
        if q != den and row is not None:
            inv = exact_div(den, q)     # 1/content
            row = {j: c * inv for j, c in row.items()}
        limit = rpk.limit
        deg = max([m & limit for m in h])
        if 2 * deg > pk.limit:
            old, pk = pk, pk.wider(deg)
            G[:] = [g.repacked(pk, old) for g in G]
            lms[:] = [g.lm for g in G]
            for i, j in P:
                P[(i, j)] = pk.lcm(lms[i], lms[j])
            queue[:] = [(pk.key(L), i, j) for (i, j), L in P.items()]
            heapify(queue)
        if q != 1:
            h = {m: v // q for m, v in h.items()}
        if rpk is not pk:
            h = {pk.repack(m, rpk): v for m, v in h.items()}
        g = _Prepared(1, 1, h, pk, len(G), row)
        G.append(g)
        lms.append(g.lm)
        if use_criteria:
            pairs = _update_pairs(P, lms, pk)
        else:
            pairs = [(i, len(G) - 1, pk.lcm(lms[i], g.lm))
                     for i in range(len(G) - 1)]
        for i, j, L in pairs:
            P[(i, j)] = L
            heappush(queue, (pk.key(L), i, j))
        return use_criteria and not g.lm

    def dividends():
        """Each generator, packed, with its unit row, then the
        S-polynomial and row of each live pair popped from the heap."""
        one = Polynomial.const(table, 1)
        for j, g in enumerate(gens):
            num, den, ints = g._view()
            pack = pk.pack
            yield (({pack(m): v * num for m, v in ints.items()}, den),
                   {j: one} if track else None)
        while queue:
            _, i, j = heappop(queue)
            if P.pop((i, j), None) is not None:
                yield (spoly(G[i], G[j], pk),
                       _spoly_row(table, G[i], G[j], pk) if track else None)

    for r, row in dividends():
        if r[0]:
            r, row = _divide(r, G, pk, full=False, row=row)
        if r[0]:
            if add_element(r, row):
                break
        elif track == "syz" and row:
            syzygies.append(row)

    basis = _post_process(G, pk, track)
    if track is None:
        return tuple(p for p, _ in basis)
    rows = tuple(_row_tuple(row, len(gens), table) for _, row in basis)
    if track == "rows":
        return tuple(p for p, _ in basis), rows
    syz_vecs = tuple(_row_tuple(v, len(gens), table) for v in syzygies)
    return tuple(p for p, _ in basis), rows, syz_vecs


def _row_tuple(row, ngens, table):
    if row is None:
        return None
    zero = Polynomial.zero(table)
    return tuple(row.get(j, zero) for j in range(ngens))


def _post_process(G, pk, track):
    """The minimal basis as (polynomial, row) pairs, monic and sorted by
    lead, largest first: keep each element whose lead no other lead
    divides (of equal leads, the first), tail-reduce under a global
    order.  Tail reduction keeps each lead and its coefficient."""
    neg, divides = pk.neg, pk.divides
    live = sorted(G, key=lambda g: g.lm ^ neg)
    minimal = [g for k, g in enumerate(live)
               if not any(divides(h.lm, g.lm) and (h.lm != g.lm or j < k)
                          for j, h in enumerate(live))]
    out = []
    for g in minimal:
        row = g.row if track else None
        inv = exact_div(1, g.lc())
        if pk.glob:
            others = [h for h in minimal if h is not g]
            (h, den, rpk), row = classic_nf(
                ({m: v * g.num for m, v in g.ints.items()}, g.den), others,
                pk, full=True, row=None if row is None else dict(row))
            p = _unpacked(rpk, h, 1, den) * inv
        else:
            # g/lc(g) = ints/b
            unpack, sign = pk.unpack, (1 if g.b > 0 else -1)
            p = from_int_terms(pk.table, {unpack(m): sign * v
                                          for m, v in g.ints.items()},
                               1, abs(g.b))
        if row is not None:
            row = {j: q * inv for j, q in row.items()}
        out.append((g.lm ^ neg, p, row))
    out.sort(key=lambda e: e[0], reverse=True)
    return [(p, row) for _, p, row in out]


def normal_form_against(p, basis, table, order):
    """Normal form of p versus a precomputed basis (zero iff membership).
    ``desing._in_j`` needs it: membership in J in the polynomial ring takes
    J's global basis, which no ``Ideal`` holds."""
    if p.is_zero() or not basis:
        return p
    if any(b.is_zero() for b in basis):
        raise NeronError("zero polynomial has no lead term")
    pk, prepared = _reducers(basis, order, table)
    return _divide(p, prepared, pk)[0]


class Ideal:
    """Immutable ideal of the ring its table declares: generators plus the
    standard basis under ``mixed_order(table)``, computed on first use
    with its prepared lead data and kept as long as the Ideal.

    Membership is decided in the localization at the base variables; a
    test in another ring calls ``std_basis`` and ``normal_form_against``
    with its order.  ``leads`` reads the lead ideal off the same basis:
    I <= I' with L(I) = L(I') gives I = I'.
    """

    __slots__ = ("table", "gens", "_basis")

    def __init__(self, table, gens):
        self.table = table
        self.gens = tuple(gens)
        self._basis = None

    def _prepared(self):
        """(basis, packing, reducers, one_term); ``one_term`` is the tuple
        of basis leads when every basis element is a single term, None
        otherwise."""
        if self._basis is None:
            order = mixed_order(self.table)
            basis = std_basis(self.gens, self.table, order)
            pk, prepared = _reducers(basis, order, self.table)
            self._basis = (basis, pk, prepared, single_terms(basis))
        return self._basis

    def basis(self):
        return self._prepared()[0]

    def leads(self):
        """Minimal generators of the lead ideal: the basis leads, as a
        frozenset of monomials."""
        _, pk, prepared, _ = self._prepared()
        return frozenset(pk.unpack(g.lm) for g in prepared)

    def monomial_leads(self):
        """The basis leads when every basis element is a single term (a
        monomial ideal), None otherwise."""
        return self._prepared()[3]

    def nf(self, p):
        """Normal form of p; zero iff p lies in the ideal."""
        if p.is_zero():
            return p
        basis, pk, prepared, _ = self._prepared()
        if not basis:
            return p
        return _divide(p, prepared, pk)[0]

    def contains(self, p):
        return self.nf(p).is_zero()

    def reduce_full(self, p, cut=None):
        """Fully tail-reduced remainder of p by long division.

        With ``cut = (positions, N)`` the remainder is taken modulo the
        ideal plus (x)^N, x the variables at ``positions``: terms of degree
        at least N are dropped, so no generator of (x)^N is ever listed.
        When the ideal lives in the base variables x, on which the mixed
        order is local, the leading ideal of I + (x)^N is that of I plus
        (x)^N (Mora; Greuel-Pfister 1.6-1.7), so the remainder is the
        unique one over the standard monomials, the same as division by a
        basis of I + (x)^N.  Terminates under a cut: the monomials below it
        are finitely many.

        A basis of single terms (the zero ideal included) divides by
        deletion: a monic one-term reducer removes the term it divides and
        adds none, so ``delete_multiples`` gives the long division's
        remainder (``classic_nf``) in one pass over the terms.
        """
        _, pk, prepared, one_term = self._prepared()
        if one_term is not None:
            return delete_multiples(p, one_term, cut)
        return classic_nf(p, prepared, pk, full=True, cut=cut)[0]

    def __repr__(self):
        return f"Ideal({list(self.gens)!r})"


@dataclass
class DivisionWitness:
    """Exact division record: unit*dividend = sum(q*d) + remainder."""

    dividend: Polynomial
    divisors: tuple
    unit: Polynomial
    quotients: tuple
    remainder: Polynomial

    def check(self):
        """True when the identity holds; demo 01 shows a witness checked
        this way."""
        acc = self.dividend * self.unit
        for q, d in zip(self.quotients, self.divisors):
            acc = acc - q * d
        return acc == self.remainder


def lift_division(p, gens, table, order):
    """Express p exactly in terms of ``gens`` (zero remainder) or raise.

    The generators are completed to a basis with representation tracking and
    the witnesses are composed, so the resulting identity
    unit*p = sum(q*gens) holds exactly as polynomials.  One nonzero
    generator g needs no basis: the division runs by g itself, with row
    1, each step subtracting what a step by its basis g/lc(g) would.
    """
    live = [g for g in gens if not g.is_zero()]
    if p.is_zero():
        zero = Polynomial.zero(p.table)
        return DivisionWitness(p, tuple(gens), Polynomial.const(p.table, 1),
                               tuple(zero for _ in gens), zero)
    if not live:
        raise NotInIdeal("dividend is not in the zero ideal")
    zero = Polynomial.zero(table)
    if len(live) == 1:
        basis = (live[0],)
        one = Polynomial.const(table, 1)
        rows = (tuple(one if g is live[0] else zero for g in gens),)
    else:
        basis, rows = std_basis(gens, table, order, track="rows")
    pk, prepared = _reducers(basis, order, table)
    # p itself is tracked in the extra slot: its coefficient is the unit
    extra = len(basis)
    r, row = _divide(p, prepared, pk,
                     row={extra: Polynomial.const(table, 1)})
    if not r.is_zero():
        raise NotInIdeal("dividend is not in the ideal at this order")
    unit = row.get(extra, zero)
    q_gens = [zero] * len(gens)
    for k, brow in enumerate(rows):
        qb = -row.get(k, zero)
        if qb.is_zero():
            continue
        for j, coeff in enumerate(brow):
            if coeff is not None and not coeff.is_zero():
                q_gens[j] = q_gens[j] + qb * coeff
    return DivisionWitness(p, tuple(gens), unit, tuple(q_gens), zero)

