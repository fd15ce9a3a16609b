"""Ideal operations built on the basis engine.

Intersection uses the single auxiliary-variable t-trick; the quotient (I : J)
is the intersection of (I : g) over the generators of J, and (I : g) is the
intersection I meet (g) divided by g.  All of these remain valid over the
localizations realized by local and mixed orders, because the auxiliary
variable and eliminated blocks always carry a global order.
"""

from __future__ import annotations

from itertools import combinations

from .errors import NeronError, NotInIdeal
from .groebner import Ideal, divide_with_witness, std_basis
from .orders import AUX, elim_order, global_order, mixed_order
from .poly import Polynomial


def _aux_table(table, stem="t"):
    name = table.fresh_name(stem)
    return table.extend((name, AUX)), name


def intersect(gens_a, gens_b, table, order=None):
    """Generators of the intersection of two ideals (t-trick)."""
    order = mixed_order(table) if order is None else order
    ext, t = _aux_table(table)
    tv = Polynomial.var(ext, t)
    one = Polynomial.const(ext, 1)
    work = [tv * g.lift(ext) for g in gens_a if not g.is_zero()]
    work += [(one - tv) * g.lift(ext) for g in gens_b if not g.is_zero()]
    if not work:
        return ()
    basis = std_basis(work, ext, elim_order(ext, (AUX,), order))
    t_pos = (ext.index(t),)
    out = []
    for b in basis:
        if not b.involves(t_pos):
            out.append(b.restrict(table))
    return tuple(out)


def divide_out(p, g, table, order=None):
    """A polynomial q with (q) = (p/g) in the ring the order implies.

    Used on generators of an intersection with (g); exact term-wise division
    is attempted first, otherwise the division witness absorbs a unit, which
    is harmless for generating sets.
    """
    order = mixed_order(table) if order is None else order
    if p.is_zero():
        return p
    if len(g.monomials()) == 1:
        q = p.div_term(g)
        if q is not None:
            return q
    w = divide_with_witness(p, [g], table, order)
    if not w.remainder.is_zero():
        raise NotInIdeal("divide_out of an element outside the principal ideal")
    return w.quotients[0]


def quotient_by_poly(gens, g, table, order=None):
    """(I : g) for a single nonzero polynomial g."""
    order = mixed_order(table) if order is None else order
    if g.is_zero():
        raise NeronError("colon by zero")
    if g.is_constant():
        return tuple(gens)
    meet = intersect(gens, [g], table, order)
    out = []
    for p in meet:
        q = divide_out(p, g, table, order)
        if not q.is_zero():
            out.append(q)
    return tuple(out)


def ideal_quotient(gens_i, gens_j, table, order=None):
    """(I : J) = {h : h*J inside I}."""
    order = mixed_order(table) if order is None else order
    live = [g for g in gens_j if not g.is_zero()]
    if not live:
        return (Polynomial.const(table, 1),)
    result = None
    for g in live:
        q = quotient_by_poly(gens_i, g, table, order)
        result = q if result is None else intersect(result, q, table, order)
    return tuple(std_basis(result, table, order))


def same_ideal(a, b, order):
    """True when the Ideals a and b are equal at this order: a <= b with
    equal lead ideals gives a = b (Greuel-Pfister 1.6-1.7)."""
    return (a.leads(order) == b.leads(order)
            and all(b.contains(g, order) for g in a.basis(order)))


def ideal_equal(gens_a, gens_b, table, order=None):
    order = mixed_order(table) if order is None else order
    return same_ideal(Ideal(table, gens_a), Ideal(table, gens_b), order)


def saturate(gens, g, table, order=None, max_steps=100):
    """((I : g^infinity), k) with k the first index where the chain
    I, (I : g), ((I : g) : g), ... is stable.  ``gens`` may be an Ideal,
    whose cached bases the chain then starts from."""
    order = mixed_order(table) if order is None else order
    if g.is_zero():
        raise NeronError("saturation by zero")
    current = gens if isinstance(gens, Ideal) else Ideal(table, gens)
    for k in range(max_steps):
        nxt = Ideal(table, quotient_by_poly(current.basis(order), g, table,
                                            order))
        if same_ideal(current, nxt, order):
            return current.basis(order), k
        current = nxt
    raise NeronError("saturation chain did not stabilize (cap reached)")


def eliminate(gens, roles, table, order=None):
    """Generators of the ideal intersected with the subring without ``roles``."""
    ambient = mixed_order(table) if order is None else order
    positions = table.block(*roles)
    if not positions:
        return tuple(std_basis(gens, table, ambient))
    basis = std_basis([g for g in gens if not g.is_zero()], table,
                      elim_order(table, tuple(roles), ambient))
    return tuple(b for b in basis if not b.involves(positions))


def radical_membership(p, gens, table):
    """True iff p lies in the radical of (gens) in the polynomial ring.

    Rabinowitsch trick with one auxiliary variable under a global order; a
    positive answer is definitive for every localization as well.
    """
    if p.is_zero():
        return True
    ext, z = _aux_table(table, stem="z")
    zv = Polynomial.var(ext, z)
    one = Polynomial.const(ext, 1)
    work = [g.lift(ext) for g in gens if not g.is_zero()]
    work.append(one - zv * p.lift(ext))
    basis = std_basis(work, ext, global_order(), stop_on_unit=True)
    return any(b.is_constant() and not b.is_zero() for b in basis)


def syzygies(gens, table, order=None):
    """Generating vectors of the first syzygy module of ``gens``."""
    order = mixed_order(table) if order is None else order
    zero = Polynomial.zero(table)
    one = Polynomial.const(table, 1)
    out = []
    for j, g in enumerate(gens):
        if g.is_zero():
            out.append(tuple(one if i == j else zero
                             for i in range(len(gens))))
    live = [g for g in gens]
    _, _, syz = std_basis(live, table, order, track="syz")
    seen = set()
    for vec in syz:
        if vec not in seen:
            seen.add(vec)
            out.append(vec)
    return tuple(out)


def krull_dim(gens, table, order=None, positions=None):
    """Dimension via independent variable sets of the lead-term ideal.

    For a local order this is the dimension of the localized quotient; the
    unit ideal returns -1.  ``gens`` may be an Ideal, whose cached basis is
    then used.
    """
    order = mixed_order(table) if order is None else order
    positions = tuple(range(len(table))) if positions is None else tuple(positions)
    ideal = gens if isinstance(gens, Ideal) else Ideal(
        table, [g for g in gens if not g.is_zero()])
    leads = ideal.leads(order)
    if any(not any(lm) for lm in leads):   # a constant: the unit ideal
        return -1
    supports = [frozenset(i for i in positions if lm[i]) for lm in leads]
    for size in range(len(positions), -1, -1):
        for S in combinations(positions, size):
            sset = set(S)
            if all(not sup <= sset for sup in supports):
                return size
    return 0
