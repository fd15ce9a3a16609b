"""Ideal operations built on the basis engine.

Intersection uses the single auxiliary-variable t-trick; the quotient (I : J)
is the intersection of (I : g) over the generators of J, and (I : g) is the
intersection I meet (g) divided by g.  Monomial input takes the closed
forms (Miller & Sturmfels, Combinatorial Commutative Algebra, ch. 1): two
ideals of single terms meet in the ideal of the lcms of their generators,
and the elements of I meet (g) for a single term g divide by it term by
term.  Each gives the tuple the t-trick and ``lift_division`` give.

Order rule: every operation here runs in ``mixed_order(table)``, which
realizes the ring k[x]_(x)[Y, T, ...] that the table declares, just as a
ring declared in Singular fixes the order of its ``quotient``, ``sat`` and
``eliminate``; an ``Ideal`` holds its basis under that order.  No
operation takes an order.  The results stay valid over the localization
because the auxiliary variable and eliminated blocks always carry a global
order.  ``radical_membership`` alone works in the polynomial ring.
"""

from __future__ import annotations

from itertools import combinations
from operator import sub

from .errors import NeronError
from .groebner import (Ideal, lift_division, minimal_monomials, single_terms,
                       std_basis)
from .orders import AUX, BASE, elim_order, global_order, mixed_order
from .poly import Polynomial, from_int_terms


def _aux_table(table, stem="t"):
    name = table.fresh_name(stem)
    return table.extend((name, AUX)), name


def intersect(gens_a, gens_b, table):
    """Generators of the intersection of two ideals.

    Two monomial ideals meet in the ideal of the lcms lcm(a_i, b_j), whose
    minimal generators, monic and sorted largest first under
    ``mixed_order(table)``, are the t-free elements of the t-trick's basis:
    it only ever makes monomials and monomial multiples of (1 - t)*b_j,
    and the S-polynomial of t*a and t*b - b is lcm(a, b).  Any other input
    takes the t-trick (``t_trick_intersect``)."""
    a, b = single_terms(gens_a), single_terms(gens_b)
    if a is None or b is None:
        return t_trick_intersect(gens_a, gens_b, table)
    return minimal_monomials([tuple(map(max, m, n)) for m in a for n in b],
                             table, mixed_order(table))


def t_trick_intersect(gens_a, gens_b, table):
    """Generators of the intersection of two ideals: the elements free of
    t of a basis of t*I + (1 - t)*K under an order that eliminates t."""
    ext, t = _aux_table(table)
    tv = Polynomial.var(ext, t)
    one = Polynomial.const(ext, 1)
    work = [tv * g.lift(ext) for g in gens_a if not g.is_zero()]
    work += [(one - tv) * g.lift(ext) for g in gens_b if not g.is_zero()]
    if not work:
        return ()
    basis = std_basis(work, ext, elim_order(ext, (AUX,)))
    t_pos = (ext.index(t),)
    out = []
    for b in basis:
        if not b.involves(t_pos):
            out.append(b.restrict(table))
    return tuple(out)


def quotient_by_poly(gens, g, table):
    """(I : g) for a single nonzero polynomial g.

    Each generator p of I meet (g) is divided by g: q is the quotient of
    the witness unit*p = q*g of ``lift_division``.  The unit is invertible
    in the local ring, so (q) = (p/g) there and the q generate (I : g).
    A single term g divides p term by term, for any I: p lies in (g) in
    the polynomial ring, g has ecart 0, so no division step needs a unit
    and ``lift_division``'s quotient is that one."""
    if g.is_zero():
        raise NeronError("colon by zero")
    if g.is_constant():
        return tuple(gens)
    meet = intersect(gens, [g], table)
    if single_terms([g]) is not None:
        return tuple(_divide_by_term(p, g) for p in meet)
    order = mixed_order(table)
    out = []
    for p in meet:
        q = lift_division(p, [g], table, order).quotients[0]
        if not q.is_zero():
            out.append(q)
    return tuple(out)


def _divide_by_term(p, g):
    """p / g for a single term g that divides every term of p."""
    gn, gd, gints = g._view()
    ((mg, sign),) = gints.items()       # primitive: sign is 1 or -1
    num, den, ints = p._view()
    return from_int_terms(p.table, {tuple(map(sub, m, mg)): sign * v
                                    for m, v in ints.items()},
                          num * gd, den * gn)


def ideal_quotient(gens_i, gens_j, table):
    """(I : J) = {h : h*J inside I}."""
    live = [g for g in gens_j if not g.is_zero()]
    if not live:
        return (Polynomial.const(table, 1),)
    result = None
    for g in live:
        q = quotient_by_poly(gens_i, g, table)
        result = q if result is None else intersect(result, q, table)
    return tuple(std_basis(result, table, mixed_order(table)))


def same_ideal(a, b):
    """True when the Ideals a and b are equal: a <= b with equal lead
    ideals gives a = b (Greuel-Pfister 1.6-1.7).  ``minimal_primes``
    deduplicates and compares its components with it."""
    return (a.leads() == b.leads()
            and all(b.contains(g) for g in a.basis()))


def saturate(ideal, g, max_steps=100):
    """((I : g^infinity), k) for the Ideal I, with k the first index where
    the chain I, (I : g), ((I : g) : g), ... is stable.  The chain starts
    from the cached basis of I.  Each step contains the one before, so
    equal lead ideals mean equal ideals (Greuel-Pfister 1.6-1.7) and no
    containment is tested."""
    if g.is_zero():
        raise NeronError("saturation by zero")
    table = ideal.table
    current = ideal
    for k in range(max_steps):
        nxt = Ideal(table, quotient_by_poly(current.basis(), g, table))
        if current.leads() == nxt.leads():
            return current.basis(), k
        current = nxt
    raise NeronError("saturation chain did not stabilize (cap reached)")


def eliminate(gens, roles, table):
    """Generators of the ideal intersected with the subring without ``roles``."""
    positions = table.block(*roles)
    if not positions:
        return tuple(std_basis(gens, table, mixed_order(table)))
    basis = std_basis([g for g in gens if not g.is_zero()], table,
                      elim_order(table, tuple(roles)))
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
    basis = std_basis(work, ext, global_order())
    return any(b.is_constant() and not b.is_zero() for b in basis)


def syzygies(gens, table):
    """Generating vectors of the first syzygy module of ``gens``, each
    once, the unit vectors of the zero generators first.  ``std_basis``
    gives each zero generator its unit row and never divides by it, so
    only those vectors have an entry at a zero generator."""
    _, _, syz = std_basis(gens, table, mixed_order(table), track="syz")
    zeros = [j for j, g in enumerate(gens) if g.is_zero()]
    return tuple(sorted(dict.fromkeys(syz), key=lambda v: all(
        v[j].is_zero() for j in zeros)))


def krull_dim(ideal):
    """Dimension of the Ideal I over its base block: the size of the
    largest set S of base variables such that no lead monomial of I has
    its base support inside S (an independent set of the lead ideal, read
    off the cached basis).

    Under the local order on the base this is the dimension of the
    localized quotient; the unit ideal returns -1.
    """
    table = ideal.table
    positions = table.block(BASE)
    leads = ideal.leads()
    if any(not any(lm) for lm in leads):   # a constant: the unit ideal
        return -1
    supports = [frozenset(i for i in positions if lm[i]) for lm in leads]
    for size in range(len(positions), -1, -1):
        for S in combinations(positions, size):
            sset = set(S)
            if all(not sup <= sset for sup in supports):
                return size
    return 0
