"""Groebner bases for global orders, standard bases for local and mixed ones.

The division procedure switches on the order: ordinary multivariate long
division for global orders, Mora's normal form with ecart selection for
orders in which some variables rank below 1 (those realize computations in
the localization).  Divisions can carry witnesses, exact identities

    unit * dividend = sum(quotient_i * divisor_i) + remainder

where the unit is 1 for global orders and has lead term 1 (hence is
invertible in the localization) otherwise.

Both divisions run fraction-free on the integer views of ``poly``: the
dividend is integer terms over one denominator, the remainder is created
from its integer terms, and a rational coefficient is built only for rows.

Basis computation is Buchberger's loop with the normal pair-selection
strategy and Gebauer-Moeller pruning.  Output bases are monic, sorted and
minimal for every order: no element's lead divides another's.  Identical
inputs give byte-identical bases, and for global orders they are also
fully tail-reduced.  The loop stops at the first element whose lead
monomial is 1 (a unit of the ring the order realizes), which is then the
whole minimal basis; only syzygy collection runs every pair.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .errors import NotInIdeal
from .poly import (Polynomial, exact_div, from_int_terms, mon_deg, mon_div,
                   mon_divides, mon_lcm, mon_mul)

_SNAPSHOT_BASE = 10 ** 9


class _Prepared:
    """Reducer with cached lead data for one order.

    ``row`` is either None (the element stands for itself in position
    ``idx`` of the tracking space) or a sparse dict {j: Polynomial} with
    poly = sum(row[j] * space[j]) exactly.  ``ints`` are the primitive
    integer terms of poly and ``b`` their coefficient at the lead.
    """

    __slots__ = ("poly", "lm", "lc", "ecart", "idx", "row", "ints", "b")

    def __init__(self, poly, keyf, idx, row=None):
        self.poly = poly
        self.lm, self.lc = poly.lead(keyf)
        self.ecart = poly.total_degree() - mon_deg(self.lm)
        self.idx = idx
        self.row = row
        self.ints = poly._view()[2]
        self.b = self.ints[self.lm]


class _RK:
    """Reversed-order heap entry so heapq acts as a max-heap on keys."""

    __slots__ = ("k", "m")

    def __init__(self, k, m):
        self.k = k
        self.m = m

    def __lt__(self, other):
        return self.k > other.k


def _sub_scaled(h, g_terms, mon, coef, heap=None, keyf=None, degs=None):
    """In-place h -= coef * x^mon * g on integer terms; new monomials are
    pushed on the heap and the optional degree multiset is kept in sync."""
    shift = any(mon)
    for m, c in g_terms.items():
        key = tuple([x + y for x, y in zip(m, mon)]) if shift else m
        acc = h.get(key)
        if acc is None:
            h[key] = -coef * c
            if heap is not None:
                heapq.heappush(heap, _RK(keyf(key), key))
            if degs is not None:
                d = sum(key)
                degs[d] = degs.get(d, 0) + 1
        else:
            acc = acc - coef * c
            if acc:
                h[key] = acc
            else:
                del h[key]
                if degs is not None:
                    d = sum(key)
                    degs[d] -= 1
                    if not degs[d]:
                        del degs[d]


def _reduce_lead(h, den, rem, c, g, t, heap, keyf, degs=None):
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
    _sub_scaled(h, g.ints, t, k, heap, keyf, degs)
    if f != 1:
        q = gcd(den, *h.values(), *rem.values())
        if q != 1:
            for m in h:
                h[m] //= q
            for m in rem:
                rem[m] //= q
            den //= q
    return den


def _start(p, cut=None):
    """The dividend p, without its terms beyond the cut, as (integer terms,
    denominator): a copy to reduce."""
    num, den, ints = p._view()
    if cut is not None:
        positions, bound = cut
        h = {m: v * num for m, v in ints.items()
             if sum([m[i] for i in positions]) < bound}
    elif num == 1:
        h = dict(ints)
    else:
        h = {m: v * num for m, v in ints.items()}
    return h, den


def _step_coef(c, den, g):
    """The value-level quotient coefficient (c/den) / lc(g) of a step."""
    lc = g.lc
    return exact_div(c * lc.denominator, den * lc.numerator)


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


def classic_nf(p, reducers, keyf, table, full=True, row=None, cut=None):
    """Long division; returns (remainder, row).

    ``cut = (positions, N)`` drops every term of degree at least N in the
    variables at ``positions``, on entry and as it comes off the heap: the
    division then runs modulo the ideal plus (x)^N without listing (x)^N.
    A cut is meant for full reduction without rows.  Termination is
    guaranteed for global orders, and for any order under a cut.

    The loop is fraction-free: the dividend is integer terms H over one
    denominator D (p = H/D), the remainder's terms sit over the same D, and
    each step (``_reduce_lead``) stays on ints.  The remainder is built
    once, from the integer terms, at the end; when no step was taken and
    the cut dropped nothing, the remainder is p itself.  A row update
    takes the step's value-level coefficient, one rational number per step.
    """
    if cut is not None:
        positions, bound = cut

        def dropped(m):
            return sum(m[i] for i in positions) >= bound

    h, den = _start(p, cut)
    heap = [_RK(keyf(m), m) for m in h]
    heapq.heapify(heap)
    rem = {}
    stepped = False
    while h:
        while heap and heap[0].m not in h:
            heapq.heappop(heap)
        if not heap:
            break
        m = heap[0].m
        if cut is not None and dropped(m):
            del h[m]
            heapq.heappop(heap)
            continue
        c = h[m]
        hit = None
        for g in reducers:
            if mon_divides(g.lm, m):
                hit = g
                break
        if hit is None:
            rem[m] = c
            del h[m]
            heapq.heappop(heap)
            if not full:
                rem.update(h)
                h = {}
            continue
        t = mon_div(m, hit.lm)
        if row is not None:
            _row_update(table, row, _reducer_row(table, hit), t,
                        _step_coef(c, den, hit))
        den = _reduce_lead(h, den, rem, c, hit, t, heap, keyf)
        stepped = True
    if not stepped and len(rem) == len(p._view()[2]):
        return p, row
    return from_int_terms(table, rem, 1, den), row


def mora_nf(p, reducers, keyf, table, row=None):
    """Mora's weak normal form for arbitrary (in particular local) orders.

    Head reduction with ecart selection; reducers found en route with larger
    ecart than the current element trigger a snapshot that later reductions
    may reuse.  Returns (remainder, row).  The remainder is zero iff p lies
    in the ideal of the localization the order realizes.

    The loop is fraction-free, as in ``classic_nf``: the dividend is
    integer terms H over one denominator D.  A snapshot keeps H as it is,
    since a nonzero multiple of a reducer removes the same terms; its row
    is scaled by D to match.  The remainder is built once, as H/D, or is p
    itself when no step was taken.
    """
    local = list(reducers)
    h, den = _start(p)
    heap = [_RK(keyf(m), m) for m in h]
    heapq.heapify(heap)
    degs = {}
    for m in h:
        d = mon_deg(m)
        degs[d] = degs.get(d, 0) + 1
    n_snap = 0
    stepped = False
    while h:
        while heap and heap[0].m not in h:
            heapq.heappop(heap)
        if not heap:
            break
        m = heap[0].m
        c = h[m]
        cands = [g for g in local if mon_divides(g.lm, m)]
        if not cands:
            break
        h_ecart = max(degs) - mon_deg(m)
        g = min(cands, key=lambda e: (e.ecart, e.idx))
        if g.ecart > h_ecart:
            snap = _Prepared(from_int_terms(table, dict(h)), keyf,
                             _SNAPSHOT_BASE + n_snap,
                             {j: q * den for j, q in row.items()}
                             if row is not None else None)
            n_snap += 1
            local.append(snap)
        t = mon_div(m, g.lm)
        if row is not None:
            _row_update(table, row, _reducer_row(table, g), t,
                        _step_coef(c, den, g))
        den = _reduce_lead(h, den, {}, c, g, t, heap, keyf, degs)
        stepped = True
    return (from_int_terms(table, h, 1, den) if stepped else p), row


def _divide(p, reducers, keyf, table, glob, full=True, row=None):
    """Long division for global orders, Mora's normal form otherwise;
    returns (remainder, row).  ``full=False`` stops a long division at the
    first term no reducer divides, as Mora's normal form does."""
    if glob:
        return classic_nf(p, reducers, keyf, table, full=full, row=row)
    return mora_nf(p, reducers, keyf, table, row=row)


def spoly(f, g, keyf, table):
    """x^u * f/lc(f) - x^v * g/lc(g), with x^u * lm(f) = x^v * lm(g) the lcm
    of the leads, combined on the integer views: with F, G the primitive
    integer terms, bf, bg their leads and q = gcd(bf, bg), it is
    ((bg/q) * x^u * F - (bf/q) * x^v * G) / (bf*bg/q)."""
    lmf = f.lead(keyf)[0]
    lmg = g.lead(keyf)[0]
    lcm = mon_lcm(lmf, lmg)
    F = f._view()[2]
    G = g._view()[2]
    bf, bg = F[lmf], G[lmg]
    q = gcd(bf, bg)
    a, b = bg // q, bf // q
    den = bf * a
    if den < 0:
        a, b, den = -a, -b, -den
    u = mon_div(lcm, lmf)
    out = {tuple([x + y for x, y in zip(m, u)]): a * c for m, c in F.items()}
    _sub_scaled(out, G, mon_div(lcm, lmg), b)
    return from_int_terms(table, out, 1, den)


def _spoly_row(table, gi, gj, keyf):
    lcm = mon_lcm(gi.lm, gj.lm)
    row = {}
    for g, sign in ((gi, 1), (gj, -1)):
        shift = Polynomial(table, {mon_div(lcm, g.lm): exact_div(sign, g.lc)})
        for j, q in _reducer_row(table, g).items():
            cur = row.get(j)
            upd = (cur + shift * q) if cur is not None else shift * q
            if upd.is_zero():
                row.pop(j, None)
            else:
                row[j] = upd
    return row


def _update_pairs(G, P, new_idx, lms, glob):
    """Gebauer-Moeller pair update after appending element new_idx."""
    lmf = lms[new_idx]
    P = {pair for pair in P
         if (not mon_divides(lmf, mon_lcm(lms[pair[0]], lms[pair[1]]))
             or mon_lcm(lms[pair[0]], lms[pair[1]]) == mon_lcm(lms[pair[0]], lmf)
             or mon_lcm(lms[pair[0]], lms[pair[1]]) == mon_lcm(lms[pair[1]], lmf))}
    lcm_groups = {}
    for i in range(new_idx):
        lcm_groups.setdefault(mon_lcm(lms[i], lmf), []).append(i)
    minimal = []
    for L in sorted(lcm_groups, key=lambda m: (mon_deg(m), m)):
        if all(not mon_divides(L2, L) for L2 in minimal):
            minimal.append(L)
    for L in minimal:
        if glob and any(mon_lcm(lms[i], lmf) == mon_mul(lms[i], lmf)
                        for i in lcm_groups[L]):
            continue
        P.add((min(lcm_groups[L]), new_idx))
    return P


def std_basis(gens, table, order, *, track=None):
    """Monic, sorted, minimal standard basis of the ideal generated by
    ``gens``.

    track=None     -> basis tuple
    track="rows"   -> (basis, rows): basis[k] = sum(rows[k][j] * gens[j])
    track="syz"    -> (basis, rows, syzygies): syzygies are vectors v with
                      sum(v[j] * gens[j]) = 0 exactly; with tracking enabled
                      all pairs are processed (no pruning) so the collected
                      vectors generate the first syzygy module.

    Stop rule: unless syzygies are collected, the computation ends at the
    first element whose lead monomial is 1.  Its lead divides every other
    lead, so the minimal basis is that element alone (made monic), with
    its row, whatever further pairs would add.
    """
    keyf = order.key(table)
    glob = order.is_global(table)
    use_criteria = track != "syz"

    G = []
    lms = []
    P = set()
    syzygies = []

    def add_element(p, row):
        """Append p; True when the stop rule ends the computation."""
        nonlocal P
        content = p.content()
        if content != 1:
            inv = exact_div(1, content)
            p = p * inv
            if row is not None:
                row = {j: q * inv for j, q in row.items()}
        prepared = _Prepared(p, keyf, len(G), row)
        G.append(prepared)
        lms.append(prepared.lm)
        if use_criteria:
            P = _update_pairs(G, P, len(G) - 1, lms, glob)
        else:
            P |= {(i, len(G) - 1) for i in range(len(G) - 1)}
        return use_criteria and not any(prepared.lm)

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        row = {j: Polynomial.const(table, 1)} if track else None
        r, row = _divide(g, G, keyf, table, glob, full=False, row=row)
        if r.is_zero():
            if track == "syz" and row and any(not q.is_zero()
                                              for q in row.values()):
                syzygies.append(dict(row))
            continue
        if add_element(r, row):
            P = set()
            break

    def pair_sort_key(pair):
        i, j = pair
        return (keyf(mon_lcm(lms[i], lms[j])), pair)

    while P:
        pair = min(P, key=pair_sort_key)
        P.remove(pair)
        i, j = pair
        s = spoly(G[i].poly, G[j].poly, keyf, table)
        row = _spoly_row(table, G[i], G[j], keyf) if track else None
        if s.is_zero():
            if track == "syz" and row:
                syzygies.append(row)
            continue
        r, row = _divide(s, G, keyf, table, glob, full=False, row=row)
        if r.is_zero():
            if track == "syz" and row and any(not q.is_zero()
                                              for q in row.values()):
                syzygies.append(row)
            continue
        if add_element(r, row):
            break

    basis = _post_process(G, keyf, glob, table, track)
    if track is None:
        return tuple(b.poly for b in basis)
    rows = tuple(_row_tuple(b.row, len(gens), table) for b in basis)
    if track == "rows":
        return tuple(b.poly for b in basis), rows
    syz_vecs = tuple(_row_tuple(v, len(gens), table) for v in syzygies)
    return tuple(b.poly for b in basis), rows, syz_vecs


def _row_tuple(row, ngens, table):
    if row is None:
        return None
    zero = Polynomial.zero(table)
    return tuple(row.get(j, zero) for j in range(ngens))


def _post_process(G, keyf, glob, table, track):
    """Keep each element whose lead no other lead divides (of equal leads,
    the first), tail-reduce under a global order, make monic, sort."""
    live = sorted((g for g in G if not g.poly.is_zero()),
                  key=lambda g: keyf(g.lm))
    minimal = [g for k, g in enumerate(live)
               if not any(mon_divides(h.lm, g.lm) and (h.lm != g.lm or j < k)
                          for j, h in enumerate(live))]
    if glob:
        reduced = []
        for g in minimal:
            others = [h for h in minimal if h is not g]
            row = dict(g.row) if (track and g.row is not None) else None
            r, row = classic_nf(g.poly, others, keyf, table, full=True,
                                row=row)
            reduced.append(_Prepared(r, keyf, g.idx, row))
        minimal = reduced
    out = []
    for g in minimal:
        lc = g.poly.lead(keyf)[1]
        inv = exact_div(1, lc)
        p = g.poly * inv
        row = None
        if track and g.row is not None:
            row = {j: q * inv for j, q in g.row.items()}
        out.append(_Prepared(p, keyf, g.idx, row))
    out.sort(key=lambda g: keyf(g.lm), reverse=True)
    return out


def normal_form_against(p, basis, table, order):
    """Normal form of p versus a precomputed basis (zero iff membership)."""
    if p.is_zero() or not basis:
        return p
    keyf = order.key(table)
    prepared = [_Prepared(b, keyf, i) for i, b in enumerate(basis)]
    return _divide(p, prepared, keyf, table, order.is_global(table))[0]


class Ideal:
    """Immutable ideal: generators plus, per term order, a standard basis.

    The basis of each order is computed on first use, together with its
    prepared lead data, and lives as long as the Ideal.  Membership is
    decided in the ring the order implies: the polynomial ring for global
    orders, the localization for local and mixed ones.  ``leads`` reads the
    lead ideal off the same basis: I <= I' with L(I) = L(I') gives I = I'.
    """

    __slots__ = ("table", "gens", "_bases")

    def __init__(self, table, gens):
        self.table = table
        self.gens = tuple(gens)
        self._bases = {}

    def _prepared(self, order):
        got = self._bases.get(order)
        if got is None:
            keyf = order.key(self.table)
            basis = std_basis(self.gens, self.table, order)
            got = (basis, keyf, order.is_global(self.table),
                   [_Prepared(b, keyf, i) for i, b in enumerate(basis)])
            self._bases[order] = got
        return got

    def basis(self, order):
        return self._prepared(order)[0]

    def leads(self, order):
        """Minimal generators of the lead ideal: the basis leads, as a
        frozenset of monomials."""
        return frozenset(g.lm for g in self._prepared(order)[3])

    def nf(self, p, order):
        """Normal form of p; zero iff p lies in the ideal."""
        if p.is_zero():
            return p
        basis, keyf, glob, prepared = self._prepared(order)
        if not basis:
            return p
        return _divide(p, prepared, keyf, self.table, glob)[0]

    def contains(self, p, order):
        return self.nf(p, order).is_zero()

    def reduce_full(self, p, order, cut=None):
        """Fully tail-reduced remainder of p by long division.

        With ``cut = (positions, N)`` the remainder is taken modulo the
        ideal plus (x)^N, x the variables at ``positions``: terms of degree
        at least N are dropped, so no generator of (x)^N is ever listed.
        When the ideal lives in the x variables and the order is local
        on them, the leading ideal of I + (x)^N is that of I plus (x)^N
        (Mora; Greuel-Pfister 1.6-1.7), so the remainder is the unique one
        over the standard monomials, the same as division by a basis of
        I + (x)^N.  Terminates for global orders, and for any order under
        a cut: the monomials below it are finitely many.
        """
        basis, keyf, _, prepared = self._prepared(order)
        if not basis:
            return p if cut is None else p.below(cut)
        return classic_nf(p, prepared, keyf, self.table, full=True,
                          cut=cut)[0]

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
        acc = self.dividend * self.unit
        for q, d in zip(self.quotients, self.divisors):
            acc = acc - q * d
        return acc == self.remainder


def lift_division(p, gens, table, order):
    """Express p exactly in terms of ``gens`` (zero remainder) or raise.

    The generators are completed to a basis with representation tracking and
    the witnesses are composed, so the resulting identity
    unit*p = sum(q*gens) holds exactly as polynomials.
    """
    live = [g for g in gens if not g.is_zero()]
    if p.is_zero():
        zero = Polynomial.zero(p.table)
        return DivisionWitness(p, tuple(gens), Polynomial.const(p.table, 1),
                               tuple(zero for _ in gens), zero)
    if not live:
        raise NotInIdeal("dividend is not in the zero ideal")
    basis, rows = std_basis(gens, table, order, track="rows")
    keyf = order.key(table)
    prepared = [_Prepared(b, keyf, i) for i, b in enumerate(basis)]
    # p itself is tracked in the extra slot: its coefficient is the unit
    extra = len(basis)
    r, row = _divide(p, prepared, keyf, table, order.is_global(table),
                     row={extra: Polynomial.const(table, 1)})
    if not r.is_zero():
        raise NotInIdeal("dividend is not in the ideal at this order")
    zero = Polynomial.zero(table)
    unit = row.get(extra, zero)
    q_gens = [zero] * len(gens)
    for k, brow in enumerate(rows):
        qb = -row.get(k, zero)
        if qb.is_zero():
            continue
        for j, coeff in enumerate(brow):
            if coeff is not None and not coeff.is_zero():
                q_gens[j] = q_gens[j] + qb * coeff
    return DivisionWitness(p, tuple(gens), unit, tuple(q_gens),
                           Polynomial.zero(table))


def buchberger_criterion(basis, table, order):
    """True when every S-polynomial of the basis reduces to zero."""
    if len(basis) < 2:
        return True
    keyf = order.key(table)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = spoly(basis[i], basis[j], keyf, table)
            if not normal_form_against(s, basis, table, order).is_zero():
                return False
    return True
