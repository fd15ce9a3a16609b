"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is its integer view ``(num, den, ints)``: a positive content
num/den in lowest terms and primitive integer terms ``ints`` (a map from
exponent tuples to nonzero ints whose gcd is 1), with poly = num/den *
ints.  The zero polynomial is ``(1, 1, {})``.  The view is unique, so it
decides equality and the hash.  The constructor turns a value map into
the view once; products, sums, negation, scaling, cuts, derivatives and
substitution run on views and create their results with ``_from_ints``.
Monomials are exponent tuples; the product's term loop and the printer's
sort pack them into ints through ``orders.Packing``, the one monomial
layout of the library, which the basis engine runs on too.

``_view()`` is the contract that ``groebner`` reads: its fraction-free
normal forms and S-polynomials take the integer terms directly.  Every
other module reads monomials (``monomials()``) and single coefficients
(``coefficient``); ``terms``, the value map from exponent tuples to
coefficients (an ``int`` when the coefficient is integral and a
``Fraction`` otherwise), is built afresh on each read and is meant for
callers outside the library.  Every print of a polynomial in the library
is ``str(p)``, its canonical text (``format_poly`` in the table's mixed
order).  The view is never mutated; the hash and the text are derived
from it on first use and kept, so polynomials are immutable and safe to
share across threads.  No floating point appears anywhere: a coefficient
that is not an ``int`` or a ``Fraction`` is refused, and every identity
the rest of the library relies on is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import NeronError, PolyParseError
from .orders import DegRevLex, mixed_order, packing

_RATIONAL = (int, Fraction)
_DEGREVLEX = DegRevLex()
_new = object.__new__


def exact_div(a, b):
    """Exact coefficient division; stays an int when the result is one.

    Coefficients are ints whenever possible and Fractions otherwise, which
    is safe because ints satisfy the Rational interface and hash-equal their
    Fraction counterparts.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    out = a / b
    return out.numerator if out.denominator == 1 else out


def _times(n1, d1, n2, d2):
    """(n1/d1) * (n2/d2) in lowest terms, for factors in lowest terms."""
    if d1 == d2 == 1:
        return n1 * n2, 1
    g1 = gcd(n1, d2)
    g2 = gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _from_ints(table, ints, num=1, den=1):
    """The polynomial num/den * ints, for primitive integer terms ``ints``
    and num/den > 0 in lowest terms."""
    p = _new(Polynomial)
    p.table = table
    p._iv = (num, den, ints) if ints else (1, 1, ints)
    p._hash = p._text = None
    return p


# A product goes strand by strand (``_strand_product``) when each operand
# has at least this many terms per strand, so at least this many terms.
# Below it, the dict loop is about as fast (bench/test_mul_kernel.py).
_STRAND_MIN = 8


def _strands(ints, i):
    """The integer terms as strands along position i: {monomial with
    position i zeroed: (least exponent at i, coefficients from there
    upward with 0 in the gaps)}.  None when there are fewer than
    ``_STRAND_MIN`` terms per strand or more gaps than terms."""
    groups = {}
    for m, c in ints.items():
        key = m[:i] + (0,) + m[i + 1:]
        row = groups.get(key)
        if row is None:
            groups[key] = row = {}
        row[m[i]] = c
    spans = {key: (min(row), max(row)) for key, row in groups.items()}
    if (len(ints) < _STRAND_MIN * len(groups) or 2 * len(ints)
            < sum([high - low + 1 for low, high in spans.values()])):
        return None
    return {key: (low, [groups[key].get(e, 0) for e in range(low, high + 1)])
            for key, (low, high) in spans.items()}


def _kronecker(a, b, n, scale):
    """The first n coefficients of scale * a * b, for coefficient lists
    a and b, by one integer product (Kronecker substitution; Harvey, JSC
    2009).

    Only the first n entries of a and b reach those coefficients.  Each
    list is packed as the sum of c_k 2^(kB), with slots of B bits that
    hold any coefficient of the product, at most scale * max|a| * max|b|
    * min(len(a), len(b)), with a sign bit to spare.  Adding 2^(B-1) to
    every slot makes each slot's digit its coefficient plus 2^(B-1), with
    no borrow between slots, so the coefficients are read off the bytes.
    """
    same = b is a
    a = a[:n]
    b = a if same else b[:n]
    nbytes = (scale * max(map(abs, a)) * max(map(abs, b))
              * min(len(a), len(b))).bit_length() // 8 + 1
    half = 1 << (8 * nbytes - 1)
    half_slot = half.to_bytes(nbytes, "little")

    def pack(dense):
        return int.from_bytes(b"".join(
            [(c + half).to_bytes(nbytes, "little") for c in dense]),
            "little") - int.from_bytes(half_slot * len(dense), "little")

    za = pack(a)
    z = scale * za * (za if same else pack(b)) + int.from_bytes(
        half_slot * n, "little")
    data = memoryview((z & ((1 << (8 * nbytes * n)) - 1)).to_bytes(
        n * nbytes, "little"))
    return [int.from_bytes(data[k:k + nbytes], "little") - half
            for k in range(0, n * nbytes, nbytes)]


def _strand_product(ta, tb, cut):
    """Integer terms of the product, or None when an operand is not
    dense in strands (``_strands``) along the position where the longer
    one spans the most exponents.  Each strand pair is one integer
    product (``_kronecker``); under a cut, the pairs and the coefficients
    at or past it are not computed."""
    cols = list(zip(*tb))
    i = max(range(len(cols)), key=lambda j: max(cols[j]) - min(cols[j]))
    square = ta is tb
    sb = _strands(tb, i)
    sa = sb if square or sb is None else _strands(ta, i)
    if sa is None:
        return None
    pa = list(sa.items())
    pb = pa if square else list(sb.items())
    out = {}
    get = out.get
    for k, (ka, (la, a)) in enumerate(pa):
        # a square meets each unordered strand pair once, doubled when the
        # two strands differ
        for kb, (lb, b) in pb[k:] if square else pb:
            key = [x + y for x, y in zip(ka, kb)]
            low, n = la + lb, len(a) + len(b) - 1
            if cut is not None:
                room = cut[1] - sum([key[j] for j in cut[0]])
                if room <= (low if i in cut[0] else 0):
                    continue
                if i in cut[0]:
                    n = min(n, room - low)
            pre, post = tuple(key[:i]), tuple(key[i + 1:])
            for e, v in enumerate(_kronecker(
                    a, b, n, 2 if square and kb is not ka else 1)):
                if v:
                    m = pre + (low + e,) + post
                    out[m] = get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def from_int_terms(table, ints, num=1, den=1):
    """The polynomial num/den * ints for integer terms and num, den > 0,
    neither reduced; its content is split off with one gcd pass."""
    g = gcd(*ints.values())
    if g > 1:
        ints = {m: v // g for m, v in ints.items()}
        num *= g
    g = gcd(num, den)
    return _from_ints(table, ints, num // g, den // g)


class Polynomial:
    """Immutable sparse polynomial over a VarTable.

    ``Polynomial(table, terms)`` is the polynomial with value map
    ``terms`` {exponent tuple: int or Fraction}; zero coefficients are
    dropped.
    """

    # the table, the integer view (num, den, ints), and the hash and the
    # canonical text, each computed on first use
    __slots__ = ("table", "_iv", "_hash", "_text")

    def __init__(self, table, terms):
        mons, nums, dens = [], [], []
        for m, c in terms.items():
            if not isinstance(c, _RATIONAL):
                raise NeronError(f"coefficient {c!r} is not an int or a "
                                 "Fraction")
            if c:
                mons.append(m)
                nums.append(c.numerator)
                dens.append(c.denominator)
        g = gcd(*nums)
        den = lcm(*dens)
        self.table = table
        self._iv = (g or 1, den, {m: n // g * (den // d)
                                  for m, n, d in zip(mons, nums, dens)})
        self._hash = self._text = None

    @property
    def terms(self):
        """The value map {exponent tuple: coefficient}, a new dict on each
        read.  No library module reads it; it stays because the frozen
        benchmark's tracer sizes products with it."""
        num, den, ints = self._iv
        if den == 1:
            return {m: v * num for m, v in ints.items()}
        return {m: exact_div(v * num, den) for m, v in ints.items()}

    def _view(self):
        """(num, den, primitive integer terms) with poly = num/den * terms;
        the content of zero is 1."""
        return self._iv

    def monomials(self):
        """The exponent tuples of the terms, a view in insertion order;
        no monomial order is implied."""
        return self._iv[2].keys()

    def _scaled(self, num, den):
        """num/den times this polynomial, for num != 0 and den > 0."""
        n, d, ints = self._iv
        if num < 0:
            num = -num
            ints = {m: -v for m, v in ints.items()}
        n, d = _times(n, d, num, den)
        return _from_ints(self.table, ints, n, d)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table):
        return _from_ints(table, {})

    @staticmethod
    def const(table, value):
        return Polynomial(table, {tuple(0 for _ in table.names): value})

    @staticmethod
    def var(table, name, power=1):
        i = table.index(name)
        mon = tuple(power if j == i else 0 for j in range(len(table)))
        return _from_ints(table, {mon: 1})

    @staticmethod
    def from_terms(table, items):
        """The sum of the terms c * x^mon for the pairs (mon, c) of
        ``items``.  No library module calls it; it stays because the frozen
        benchmark's instance generator builds its operands with it."""
        total = PolySum(table)
        for mon, c in items:
            total.add(Polynomial(table, {mon: c}))
        return total.value()

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self._iv[2]

    def is_constant(self):
        return all(sum(m) == 0 for m in self._iv[2])

    def coefficient(self, mon):
        """The coefficient of ``mon``, 0 when it has none."""
        num, den, ints = self._iv
        v = ints.get(mon)
        return 0 if v is None else exact_div(v * num, den)

    def constant_coefficient(self):
        return self.coefficient(tuple(0 for _ in self.table.names))

    def total_degree(self):
        """Largest total degree, or -1 for the zero polynomial."""
        mons = self._iv[2]
        if not mons:
            return -1
        return max(map(sum, mons))

    def order(self):
        """Smallest total degree of a term, or None for zero."""
        mons = self._iv[2]
        if not mons:
            return None
        return min(map(sum, mons))

    def degree_in(self, positions):
        mons = self._iv[2]
        if not mons:
            return -1
        return max(sum(m[i] for i in positions) for m in mons)

    def involves(self, positions):
        return any(m[i] for m in self._iv[2] for i in positions)

    def select(self, keep):
        """The terms whose monomial satisfies ``keep``; the polynomial
        itself when that is all of them."""
        num, den, ints = self._iv
        kept = {m: v for m, v in ints.items() if keep(m)}
        if len(kept) == len(ints):
            return self
        return from_int_terms(self.table, kept, num, den)

    def below(self, cut):
        """The terms of degree below N in the variables at ``positions``,
        for ``cut = (positions, N)``; the polynomial itself when it has no
        other terms."""
        positions, bound = cut
        num, den, ints = self._iv
        kept = {m: v for m, v in ints.items()
                if sum([m[i] for i in positions]) < bound}
        if len(kept) == len(ints):
            return self
        return from_int_terms(self.table, kept, num, den)

    def variables(self):
        used = set()
        for m in self._iv[2]:
            for i, e in enumerate(m):
                if e:
                    used.add(self.table.names[i])
        return used

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self._iv == other._iv

    def __hash__(self):
        if self._hash is None:
            num, den, ints = self._iv
            self._hash = hash((num, den, frozenset(ints.items())))
        return self._hash

    def __neg__(self):
        num, den, ints = self._iv
        return _from_ints(self.table, {m: -v for m, v in ints.items()},
                          num, den)

    def _operand(self, other):
        """``other`` as a polynomial over this table: rationals become
        constants; None for anything else."""
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, _RATIONAL):
            return Polynomial.const(self.table, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return PolySum(self.table).add(self).add(other).value()

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return PolySum(self.table).add(self).add(other, -1).value()

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return PolySum(self.table).add(self, -1).add(other).value()

    def mul(self, other, cut=None):
        """The product; with ``cut = (positions, N)`` only the term pairs
        whose degrees in the variables at ``positions`` sum below N are
        multiplied, which gives the product with every term of degree at
        least N in those variables dropped.

        The term loops run on the operands' integer views, and the product
        is created from its integer terms.  An uncut product of primitive
        integer polynomials is primitive (Gauss's lemma); a cut one has its
        content split off with one gcd.  Each term of the shorter operand
        meets each term of the longer one, or under a cut those whose
        degree keeps the pair below it, in the tuple loop's order.  A
        one-term operand is +-1 at one monomial once its content is split
        off: a constant +1 keeps the other's integer terms as they are
        (uncut, the product shares them), -1 negates them, and any other
        monomial shifts them; under a cut the terms are filtered in one
        pass first.  Operands that are dense strands along one variable
        (terms that differ only in its exponent, as the jets and the
        expansion of s'' are), with at least ``_STRAND_MIN`` terms per
        strand, multiply strand by strand, each strand pair as one integer
        product, cut or not (``_strand_product``), with the same product
        but maybe another insertion order of its terms, and a square
        ``p.mul(p)`` there meets each unordered strand pair once.
        """
        table = self.table
        if isinstance(other, _RATIONAL):
            if other == 0:
                return _from_ints(table, {})
            p = self if cut is None else self.below(cut)
            if other == 1:
                return p
            return p._scaled(other.numerator, other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        na, da, ta = self._iv
        nb, db, tb = other._iv
        if not ta or not tb:
            return _from_ints(table, {})
        if len(ta) > len(tb):
            ta, tb = tb, ta
        num, den = _times(na, da, nb, db)
        # a cut can leave the integer terms of a product with a content
        finish = _from_ints if cut is None else from_int_terms
        if len(ta) == 1:
            # A one-term operand is +-1 times a monomial (its content is in
            # num/den): it shifts the other's terms, or, when constant,
            # keeps them as they are (views are never mutated) or negates
            # them.  Nothing can cancel, and packing would cost more than
            # so few pairs save.
            (m1, c1), = ta.items()
            if cut is not None:
                positions, bound = cut
                room = bound - sum([m1[i] for i in positions])
                tb = {m2: c2 for m2, c2 in tb.items()
                      if sum([m2[i] for i in positions]) < room}
            if any(m1):
                tb = {tuple(map(add, m1, m2)): c1 * c2
                      for m2, c2 in tb.items()}
            elif c1 < 0:
                tb = {m2: -c2 for m2, c2 in tb.items()}
            return finish(table, tb, num, den)
        if len(ta) >= _STRAND_MIN:
            ints = _strand_product(ta, tb, cut)
            if ints is not None:
                return finish(table, ints, num, den)
        # Packed monomials (orders.Packing): the degrevlex packing has the
        # fewest fields, and it holds twice the larger operand degree, so
        # packing is linear on these products and injective; the product of
        # monomials is one int addition, and the accumulation below visits
        # and cancels keys exactly as the tuple loop would.
        pk = packing(_DEGREVLEX, table, max(max(map(sum, ta)),
                                            max(map(sum, tb))))
        pack = pk.pack
        pa = [(pack(m), c) for m, c in ta.items()]
        pb = [(pack(m), c) for m, c in tb.items()]
        if cut is None:
            rows = [(p1, c1, pb) for p1, c1 in pa]
        else:
            # a term meets the terms that keep the pair below the cut
            positions, bound = cut
            degs = [sum([m[i] for i in positions]) for m in tb]
            rows = []
            for m, (p1, c1) in zip(ta, pa):
                room = bound - sum([m[i] for i in positions])
                rows.append((p1, c1,
                             [t for t, d in zip(pb, degs) if d < room]))
        out = {}
        get = out.get
        for p1, c1, row in rows:
            for p2, c2 in row:
                p = p1 + p2
                acc = get(p, 0) + c1 * c2
                if acc:
                    out[p] = acc
                else:
                    del out[p]
        unpack = pk.unpack
        return finish(table, {unpack(p): v for p, v in out.items()}, num,
                      den)

    __mul__ = __rmul__ = mul

    def __pow__(self, n):
        if n < 0:
            raise NeronError("negative exponent in polynomial power")
        result = Polynomial.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- calculus and substitution -----------------------------------------

    def derivative(self, name):
        i = self.table.index(name)
        num, den, ints = self._iv
        # m -> m - e_i is injective on the terms it keeps: nothing collides
        out = {}
        for m, v in ints.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = v * e
        return from_int_terms(self.table, out, num, den)

    def substitute(self, assignment, cut=None):
        """Compose with ``assignment``, a map variable name -> Polynomial.

        Variables not mentioned stay themselves.  All polynomials must share
        this polynomial's table.  With ``cut = (positions, N)`` every power
        and product is taken under the cut (see ``mul``), which gives the
        composition with every term of degree at least N in the variables at
        ``positions`` dropped.  The composition runs on the integer terms
        and takes the content once, at the end.  A term takes the powers of
        only the variables it involves, so one that involves none is never
        multiplied under the cut: a term whose other variables already pass
        the cut is dropped first, as every product of it would be.
        """
        table = self.table
        idx = {}
        for name, val in assignment.items():
            if isinstance(val, _RATIONAL):
                val = Polynomial.const(table, val)
            if val.table != table:
                raise NeronError("substitution value over a different table")
            idx[table.index(name)] = val
        if not idx:
            return self if cut is None else self.below(cut)
        # seeded with val itself, so that val * val is a square
        powers = {i: {1: val} for i, val in idx.items()}
        num, den, ints = self._iv
        out = PolySum(table)
        for m, c in ints.items():
            residual = tuple(0 if i in idx else e for i, e in enumerate(m))
            if cut is not None and sum(
                    [residual[i] for i in cut[0]]) >= cut[1]:
                continue
            factor = from_int_terms(table, {residual: c})
            for i, val in idx.items():
                e = m[i]
                if not e:
                    continue
                cache = powers[i]
                if e not in cache:
                    p = max(cache)
                    acc = cache[p]
                    while p < e:
                        acc = acc.mul(val, cut)
                        p += 1
                        cache[p] = acc
                factor = factor.mul(cache[e], cut)
            out.add(factor)
        total = out.value()
        return total if num == den else total._scaled(num, den)

    def lift(self, newtable):
        """Reinterpret over an extended table (old positions must agree)."""
        if newtable.names[:len(self.table)] != self.table.names:
            raise NeronError("table extension must append variables")
        if newtable == self.table:
            return self
        pad = (0,) * (len(newtable) - len(self.table))
        num, den, ints = self._iv
        return _from_ints(newtable, {m + pad: v for m, v in ints.items()},
                          num, den)

    def restrict(self, newtable):
        """Project to a prefix table; extra positions must be unused."""
        n = len(newtable)
        if self.table.names[:n] != newtable.names:
            raise NeronError("not a prefix table")
        num, den, ints = self._iv
        out = {}
        for m, v in ints.items():
            if any(m[n:]):
                raise NeronError("polynomial uses variables outside the prefix")
            out[m[:n]] = v
        return _from_ints(newtable, out, num, den)

    def primitive(self):
        num, den, ints = self._iv
        if num == den:
            return self
        return _from_ints(self.table, ints)

    def __repr__(self):
        """The canonical text, ``format_poly`` in the table's mixed order;
        computed once and kept, like the hash."""
        if self._text is None:
            self._text = format_poly(self, mixed_order(self.table))
        return self._text


class PolySum:
    """A sum of polynomials over one table, added in place.

    The running sum is integer terms over one common denominator, the lcm
    of the denominators added so far.  Adding a polynomial is one pass over
    its integer view and builds no rational coefficient; ``value()`` splits
    the content off once, with one gcd pass.
    """

    __slots__ = ("table", "ints", "den")

    def __init__(self, table):
        self.table = table
        self.ints = {}
        self.den = 1

    def add(self, p, sign=1):
        """In place sum += sign * p; returns the sum."""
        num, den, ints = p._iv
        if not ints:
            return self
        out = self.ints
        if not out:
            self.den = den
            k = num if sign == 1 else -num
            self.ints = dict(ints) if k == 1 else {m: v * k
                                                   for m, v in ints.items()}
            return self
        if self.den % den:
            f = den // gcd(self.den, den)
            for m in out:
                out[m] *= f
            self.den *= f
        k = num * (self.den // den)
        if sign != 1:
            k = -k
        get = out.get
        for m, v in ints.items():
            acc = get(m, 0) + v * k
            if acc:
                out[m] = acc
            else:
                del out[m]
        return self

    def value(self):
        """The sum as a polynomial.  It takes over the running terms, so
        nothing is added after."""
        return from_int_terms(self.table, self.ints, 1, self.den)


def taylor_coefficients(f, names, at):
    """Coefficients of f expanded around the point ``at`` in ``names``.

    Returns a dict mapping multi-indices alpha (tuples over ``names``) to
    the exact coefficient c_alpha of prod (X_i - at_i)^alpha_i, so that f
    is the sum of c_alpha * prod (X_i - at_i)^alpha_i and c_alpha is
    (d^alpha f / alpha!) evaluated at ``at``.  ``at`` maps names to
    polynomials or constants free of ``names``; a name of ``names`` that
    it leaves out expands around 0, and one of its names outside ``names``
    is replaced by its value.  f is composed once with X_i + at_i
    (``substitute``), and the terms of the composition are grouped by
    their exponents at ``names``.
    """
    table = f.table
    num, den, ints = f.substitute(
        {n: Polynomial.var(table, n) + v if n in names else v
         for n, v in at.items()})._iv
    pos = [table.index(n) for n in names]
    groups = {}
    for m, c in ints.items():
        alpha = tuple([m[i] for i in pos])
        rest = list(m)
        for i in pos:
            rest[i] = 0
        groups.setdefault(alpha, {})[tuple(rest)] = c
    return {alpha: from_int_terms(table, group, num, den)
            for alpha, group in groups.items()}


# ---------------------------------------------------------------------------
# parsing and printing

_SYMBOLS = "+-*^(),/"
# CPython refuses int <-> str conversions past 4 300 digits, process-wide;
# longer numbers are converted in halves, each piece below this length.
_DIGITS = 4000
_DIGITS_BOUND = 10 ** _DIGITS


def _int(digits):
    """The int of a string of decimal digits, of any length."""
    if len(digits) <= _DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int(digits[:-k]) * 10 ** k + _int(digits[-k:])


def _decimal(n):
    """``str(n)`` for an int n >= 0 of any size."""
    if n < _DIGITS_BOUND:
        return str(n)
    k = n.bit_length() * 30103 // 200000   # about half the digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).rjust(k, "0")


def _tokenize(text, symbols=_SYMBOLS):
    """Tokens (kind, value, line, col); each symbol is its own kind."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in symbols:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Tokens:
    """A cursor over a ``_tokenize`` token list, which ends in an ``end``
    token."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        """The next token, which must be of ``kind``; the error calls the
        token it wanted ``what``, or its kind."""
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(f"expected {what or kind}, got {tok[1]!r}",
                                 tok[2], tok[3])
        return tok


class _PolyParser(_Tokens):
    def __init__(self, table, tokens):
        super().__init__(tokens)
        self.table = table

    def parse_expr(self):
        sign = 1
        kind, val, _, _ = self.peek()
        if kind in ("+", "-"):
            self.next()
            sign = -1 if kind == "-" else 1
        result = self.parse_term() * sign
        while True:
            kind, val, _, _ = self.peek()
            if kind == "+":
                self.next()
                result = result + self.parse_term()
            elif kind == "-":
                self.next()
                result = result - self.parse_term()
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            result = result * self.parse_factor()
        return result

    def parse_factor(self):
        kind, val, line, col = self.peek()
        if kind == "-":
            self.next()
            return -self.parse_factor()
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            kind, val, line, col = self.next()
            if kind != "int":
                raise PolyParseError("expected integer exponent" + (
                    f", got {val!r}" if val else ""), line, col)
            return base ** _int(val)
        return base

    def parse_atom(self):
        kind, val, line, col = self.next()
        if kind == "int":
            num = _int(val)
            if self.peek()[0] == "/":
                self.next()
                kind2, val2, line2, col2 = self.next()
                if kind2 != "int":
                    raise PolyParseError("expected denominator", line2, col2)
                den = _int(val2)
                if den == 0:
                    raise PolyParseError("zero denominator", line2, col2)
                return Polynomial.const(self.table, exact_div(num, den))
            return Polynomial.const(self.table, num)
        if kind == "ident":
            if val not in self.table.names:
                raise PolyParseError(f"undeclared variable {val!r}", line, col)
            return Polynomial.var(self.table, val)
        if kind == "(":
            inner = self.parse_expr()
            kind2, _, line2, col2 = self.next()
            if kind2 != ")":
                raise PolyParseError("expected ')'", line2, col2)
            return inner
        raise PolyParseError(f"unexpected token {val!r}", line, col)


def parse_poly(table, text):
    """Parse the textual polynomial syntax over ``table``.  ``text`` may
    also be a ``_tokenize`` token list; errors carry its positions."""
    parser = _PolyParser(
        table, _tokenize(text) if isinstance(text, str) else text)
    try:
        p = parser.parse_expr()
    except RecursionError:
        raise PolyParseError("expression nested too deeply",
                             *parser.peek()[2:]) from None
    kind, val, line, col = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", line, col)
    return p


def format_poly(p, order):
    """Canonical printing: terms sorted descending in the active order,
    by their packed keys (``orders.Packing.key``).

    Each coefficient is printed from the integer view, reduced by one gcd,
    as ``str`` prints an int or a ``Fraction``."""
    if p.is_zero():
        return "0"
    pk = packing(order, p.table, p.total_degree())
    pack, neg = pk.pack, pk.neg
    num, den, ints = p._view()
    names = p.table.names
    parts = []
    for m in sorted(ints, key=lambda m: pack(m) ^ neg, reverse=True):
        v = ints[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{_decimal(e)}")
        body = "*".join(factors)
        a = abs(v) * num
        if den == 1:
            mag = _decimal(a)
        else:
            g = gcd(a, den)
            mag = _decimal(a // g) + ("" if g == den
                                      else "/" + _decimal(den // g))
        if not body:
            chunk = mag
        elif mag == "1":
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        if not parts:
            parts.append(chunk if v > 0 else f"-{chunk}")
        else:
            parts.append(f"+ {chunk}" if v > 0 else f"- {chunk}")
    return " ".join(parts)


def jacobian(fs, names):
    """Rows of partial derivatives of each f with respect to ``names``."""
    if not names:
        raise NeronError("jacobian needs a nonempty variable list")
    return [[f.derivative(n) for n in names] for f in fs]
