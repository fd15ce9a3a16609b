"""Variable tables and monomial orders.

Variables are grouped into named blocks by role: base variables (the x of the
local ring), algebra variables (Y), tangent variables (T), slack variables
(Z), the inverter variables (W) and throwaway auxiliary variables used by
the t-trick and by radical membership.

A term order is a sequence of segments, each a degree (global or local)
and a reverse-lexicographic tie break over some variables; its key function
on exponent tuples follows that sequence and is the definition of the
order.  Orders are parameters of the basis engine, never baked into a
polynomial: the same ideal is used under elimination, local and global
orders during a single run.  The ideal operations run in
``mixed_order(table)``, the order the table declares.

The library reads an order only through a ``Packing``: monomials packed
into ints whose fields follow the same sequence, so that products,
divisibility tests and comparisons are int operations.  The basis engine,
the product loop and the printer share it.  The caches of packings and
orders are bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import NeronError

BASE = "base"
ALGEBRA = "algebra"
TANGENT = "tangent"
SLACK = "slack"
INVERTER = "inverter"
AUX = "aux"

ROLES = (BASE, ALGEBRA, TANGENT, SLACK, INVERTER, AUX)


@dataclass(frozen=True)
class VarTable:
    """Ordered, immutable list of named variables tagged with block roles."""

    names: tuple
    roles: tuple

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise NeronError("duplicate variable names in table")
        if len(self.names) != len(self.roles):
            raise NeronError("names and roles length mismatch")
        for r in self.roles:
            if r not in ROLES:
                raise NeronError(f"unknown block role {r!r}")

    @staticmethod
    def make(*pairs):
        names = tuple(p[0] for p in pairs)
        roles = tuple(p[1] for p in pairs)
        return VarTable(names, roles)

    def __len__(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise NeronError(f"unknown variable {name!r}") from None

    def block(self, *roles):
        """Positions of all variables whose role is in ``roles``."""
        rs = set(roles)
        return tuple(i for i, r in enumerate(self.roles) if r in rs)

    def block_names(self, *roles):
        return tuple(self.names[i] for i in self.block(*roles))

    def roles_present(self):
        seen = []
        for r in self.roles:
            if r not in seen:
                seen.append(r)
        return tuple(seen)

    def extend(self, *pairs):
        """New table with extra variables appended; old positions unchanged."""
        return VarTable(self.names + tuple(p[0] for p in pairs),
                        self.roles + tuple(p[1] for p in pairs))

    def fresh_name(self, stem):
        if stem not in self.names:
            return stem
        k = 1
        while f"{stem}_{k}" in self.names:
            k += 1
        return f"{stem}_{k}"


class TermOrder:
    """Base class.  Subclasses list their comparison sequence as
    segments: ``(sign, positions)`` compares the degree in the variables
    at ``positions``, times ``sign`` (+1 global, -1 local), and then their
    exponents in reverse, each negated (the revlex tie break)."""

    def key(self, table):
        """Sort key on exponent tuples; larger key = larger term.  This is
        the definition of the order, with no memo: the library compares
        packed monomials (``Packing.key``), which order the same way.  It
        stays as the reference the packing tests compare against, and the
        frozen benchmark's tracer counts its calls."""
        segments = tuple((sign, pos, pos[::-1]) for sign, pos in
                         self._segments(table, tuple(range(len(table)))))

        def keyf(m):
            out = ()
            for sign, pos, rev in segments:
                d = sum([m[i] for i in pos])
                out += (d if sign > 0 else -d,) + tuple([-m[i] for i in rev])
            return out

        return keyf

    def _segments(self, table, positions):
        raise NotImplementedError

    def is_global(self, table):
        """True when every variable monomial compares above 1: every
        variable lies in a global segment."""
        return all(sign > 0 for sign, pos in
                   self._segments(table, tuple(range(len(table)))) if pos)


@dataclass(frozen=True)
class DegRevLex(TermOrder):
    def _segments(self, table, positions):
        return [(1, positions)]


@dataclass(frozen=True)
class NegDegRevLex(TermOrder):
    """Local order: 1 ranks above every variable monomial of its block."""

    def _segments(self, table, positions):
        return [(-1, positions)]


@dataclass(frozen=True)
class BlockOrder(TermOrder):
    """Product of sub-orders over role groups, heaviest group first.

    A group eliminates its block exactly because it is compared strictly
    before all following groups.
    """

    blocks: tuple  # tuple of (roles-tuple, TermOrder)

    def _segments(self, table, positions):
        out = []
        covered = set()
        for roles, sub in self.blocks:
            rs = set(roles)
            pos = tuple(i for i in positions if table.roles[i] in rs)
            covered |= set(pos)
            out += sub._segments(table, pos)
        uncovered = [i for i in positions if i not in covered]
        if uncovered:
            raise NeronError(
                "block order does not cover variables "
                + ", ".join(table.names[i] for i in uncovered))
        return out


class Packing:
    """Monomials of ``table`` packed into ints for ``order``, with fields
    of ``bits`` value bits and one guard bit above each (Monagan & Pearce,
    CASC 2007).

    The fields follow the order's comparison sequence, most significant
    first: for each segment its degree field, then its exponents in
    reverse; last, the total degree (the ecart reads it).  A monomial
    packs as the dot product of its exponents with per-variable weights:
    each exponent adds to its own field, its segment's degree field and
    the total.  No field exceeds the total degree, so a monomial fits
    exactly when its total degree is at most ``limit``; then packing is
    linear, and for packed monomials a and b:

    - the product is ``a + b``;
    - a divides b when ``((b | guard) - a) & guard == guard``: a field of
      b lifted by its guard bit keeps that bit after subtracting a's
      field exactly when it is not smaller, and never borrows;
    - the total degree is ``a & limit``;
    - ``a ^ neg`` compares like ``order.key``'s tuple.  It complements
      the fields whose tuple entry is negated (local degrees and all
      exponents), so each field grows with its entry, and a field, its
      guard bit clear, never reaches the one above.  It is the signed
      reading ``2*(a & plus) - a`` plus the constant ``neg``.
    - ``a ^ rev``, with ``rev`` the other value bits, reverses that
      order: a min-heap of ``a ^ rev`` pops the largest monomial first,
      and ``^ rev`` recovers it.

    Every user takes the width from its operands (``packing``): the
    products and sorts of the product loop and the printer never go past
    ``limit``, and a step of the basis engine that would repacks wider.
    """

    __slots__ = ("order", "table", "bits", "limit", "guard", "neg", "rev",
                 "weights", "shifts", "exps", "segments", "glob")

    def __init__(self, order, table, bits):
        n = len(table)
        segments = [(sign, pos) for sign, pos in
                    order._segments(table, tuple(range(n))) if pos]
        fields = []     # (sign, positions, is a degree field), high first
        for sign, pos in segments:
            fields.append((sign, pos, True))
            fields.extend((-1, (i,), False) for i in reversed(pos))
        fields.append((1, tuple(range(n)), True))   # the total degree
        width = bits + 1
        limit = (1 << bits) - 1
        weights = [0] * n
        shifts = [0] * n
        guard = neg = rev = exps = 0
        degree_shifts = []
        for k, (sign, pos, degree) in enumerate(fields):
            s = (len(fields) - 1 - k) * width
            for i in pos:
                weights[i] += 1 << s
            if degree:
                degree_shifts.append(s)
            else:
                shifts[pos[0]] = s
                exps |= limit << s
            guard |= 1 << (s + bits)
            if sign > 0:
                rev |= limit << s
            else:
                neg |= limit << s
        self.order, self.table, self.bits = order, table, bits
        self.limit, self.guard, self.neg, self.rev = limit, guard, neg, rev
        self.weights, self.shifts, self.exps = tuple(weights), shifts, exps
        # per segment: the mask of its exponent fields, the multiplier
        # that sums them into its degree field, and that field's shift
        self.segments = [
            (sum(limit << shifts[i] for i in pos),
             sum(1 << (j * width) for j in range(1, len(pos) + 1)), s)
            for (sign, pos), s in zip(segments, degree_shifts)]
        self.glob = order.is_global(table)

    def pack(self, m):
        """The packed exponent tuple m."""
        return sum(map(mul, m, self.weights))

    def unpack(self, a):
        """The exponent tuple of packed a."""
        limit = self.limit
        return tuple([a >> s & limit for s in self.shifts])

    def key(self, a):
        """An int that compares like ``order.key`` of the monomial."""
        return a ^ self.neg

    def divides(self, a, b):
        """True when packed a divides packed b."""
        guard = self.guard
        return ((b | guard) - a) & guard == guard

    def lcm(self, a, b):
        """The packed lcm, for a and b whose lcm fits: the larger of each
        pair of exponent fields, with the degree fields summed again (the
        multiplier of a segment adds each of its exponent fields into its
        degree field; the partial sums it leaves in other fields are at
        most that degree, so none carries)."""
        guard, limit = self.guard, self.limit
        d = ((a | guard) - b) & guard       # guard bits where a >= b
        top = d - (d >> self.bits)          # value bits of those fields
        e = ((a & top) | (b & ~top)) & self.exps
        out = e
        total = 0
        for mask, summer, s in self.segments:
            deg = ((e & mask) * summer >> s) & limit
            out |= deg << s
            total += deg
        return out | total

    def repack(self, a, old):
        """Packed a of the packing ``old``, packed by this one."""
        return self.pack(old.unpack(a))

    def wider(self, deg):
        """The packing of the same order and table for total degree deg."""
        return packing(self.order, self.table, deg)


@lru_cache(maxsize=256)
def _cached_packing(order, table, bits):
    return Packing(order, table, bits)


def packing(order, table, deg):
    """The packing of ``order`` on ``table`` for operands of total degree
    at most ``deg``: at least 4 value bits, and room for 2*deg, so every
    product, lcm and S-polynomial of two operands fits too."""
    return _cached_packing(order, table, max(4, (2 * deg).bit_length()))


@lru_cache(maxsize=64)
def mixed_order(table):
    """Standard order for computations over (k[x]/J)_(x)[Y, T, ...].

    All non-base blocks are global (degrevlex) and dominate the base block,
    which carries the local order realizing the localization at (x).
    """
    present = table.roles_present()
    non_base = tuple(r for r in present if r != BASE)
    if not non_base:
        return NegDegRevLex()
    if BASE not in present:
        return DegRevLex()
    return BlockOrder(((non_base, DegRevLex()), ((BASE,), NegDegRevLex())))


@lru_cache(maxsize=64)
def elim_order(table, roles):
    """Elimination order: ``roles`` dominate, the rest keeps the mixed
    order of ``table``."""
    roles = tuple(roles)
    rest = tuple(r for r in table.roles_present() if r not in roles)
    return BlockOrder(((roles, DegRevLex()), (rest, mixed_order(table))))


def global_order():
    """Plain degrevlex on everything (polynomial-ring computations)."""
    return DegRevLex()
