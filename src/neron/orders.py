"""Variable tables and monomial orders.

Variables are grouped into named blocks by role: base variables (the x of the
local ring), algebra variables (Y), tangent variables (T), slack variables
(Z), the inverter variables (W) and throwaway auxiliary variables used by
the t-trick and by radical membership.

A term order is a key function on exponent tuples.  Orders are parameters of
the basis engine, never baked into a polynomial: the same ideal is used under
elimination, local and global orders during a single run.  The ideal
operations run in ``mixed_order(table)``, the order the table declares.

Key functions memoize their monomials and forget them at MEMO_LIMIT
entries; the caches of key functions and orders are bounded too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


MEMO_LIMIT = 1 << 16   # monomials one key function remembers at most


def _memoized(fn):
    cache = {}

    def wrapped(m):
        v = cache.get(m)
        if v is None:
            if len(cache) >= MEMO_LIMIT:
                cache.clear()
            v = fn(m)
            cache[m] = v
        return v

    return wrapped


@lru_cache(maxsize=256)
def _cached_key(order, table):
    return _memoized(order._key_impl(table, tuple(range(len(table)))))


class TermOrder:
    """Base class. Subclasses provide key functions over exponent tuples."""

    def key(self, table):
        """Memoized sort key on exponent tuples; larger key = larger term."""
        return _cached_key(self, table)

    def _key_impl(self, table, positions):
        raise NotImplementedError

    def is_global(self, table):
        """True when every variable monomial compares above 1."""
        keyf = self.key(table)
        n = len(table)
        one = keyf((0,) * n)
        return all(keyf(tuple(1 if j == i else 0 for j in range(n))) > one
                   for i in range(n))


@dataclass(frozen=True)
class DegRevLex(TermOrder):
    def _key_impl(self, table, positions):
        rev = positions[::-1]
        return lambda m: ((sum(m[i] for i in positions),)
                          + tuple(-m[i] for i in rev))


@dataclass(frozen=True)
class NegDegRevLex(TermOrder):
    """Local order: 1 ranks above every variable monomial of its block."""

    def _key_impl(self, table, positions):
        rev = positions[::-1]
        return lambda m: ((-sum(m[i] for i in positions),)
                          + tuple(-m[i] for i in rev))


@dataclass(frozen=True)
class BlockOrder(TermOrder):
    """Product of sub-orders over role groups, heaviest group first.

    A group eliminates its block exactly because it is compared strictly
    before all following groups.
    """

    blocks: tuple  # tuple of (roles-tuple, TermOrder)

    def _key_impl(self, table, positions):
        keyfs = []
        covered = set()
        for roles, sub in self.blocks:
            rs = set(roles)
            pos = tuple(i for i in positions if table.roles[i] in rs)
            covered |= set(pos)
            keyfs.append(sub._key_impl(table, pos))
        uncovered = [i for i in positions if i not in covered]
        if uncovered:
            raise NeronError(
                "block order does not cover variables "
                + ", ".join(table.names[i] for i in uncovered))

        def keyf(m, _keyfs=tuple(keyfs)):
            out = ()
            for kf in _keyfs:
                out += kf(m)
            return out

        return keyf


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
