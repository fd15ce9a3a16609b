"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples to nonzero coefficients: an
``int`` when the coefficient is integral and a ``Fraction`` otherwise, so
equal values always have equal types.  Each polynomial caches its integer
view ``(content, integer terms)``: a positive rational content c and
primitive integer terms (their gcd is 1) with poly = c * terms.  Products
are created with their view already set, and the term loops of products,
S-polynomials and normal forms (``groebner``) run on integer terms only; a
rational coefficient is built where a result leaves the kernel, and only
where a denominator survives.  No floating point appears anywhere; every
identity the rest of the library relies on is exact.  Values are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .errors import NeronError, PolyParseError

_ZERO = 0
_ONE = 1


def exact_div(a, b):
    """Exact coefficient division; stays an int when the result is one.

    Coefficients are ints whenever possible and Fractions otherwise, which
    is safe because ints satisfy the Rational interface and hash-equal their
    Fraction counterparts.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if not r:
            return q
        return Fraction(a, b)
    out = Fraction(a) / b
    if out.denominator == 1:
        return out.numerator
    return out


def _canon_coeff(c):
    if isinstance(c, int):
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    if c.denominator == 1:
        return c.numerator
    return c


def _from_ints(table, ints, num=1, den=1):
    """The polynomial num/den * ints, created with its integer view set.

    ``ints`` are primitive integer terms and num/den > 0 is in lowest terms.
    Each coefficient costs one gcd with den; it is a Fraction only when a
    denominator survives.
    """
    if not ints:
        return Polynomial(table, {})
    if den == 1:
        terms = ints if num == 1 else {m: v * num for m, v in ints.items()}
        scale = num
    else:
        terms = {}
        for m, v in ints.items():
            g = gcd(v, den)
            terms[m] = (v // den * num if g == den
                        else Fraction(v // g * num, den // g))
        scale = Fraction(num, den)
    p = Polynomial(table, terms)
    p._intview = (scale, ints)
    return p


def from_int_terms(table, ints, num=1, den=1):
    """The polynomial num/den * ints for integer terms and num, den > 0,
    neither reduced; its content is split off with one gcd pass, except
    for num = den, where ``ints`` are the terms and the view waits for its
    first use."""
    if num == den:
        return Polynomial(table, ints)
    g = gcd(*ints.values())
    if g > 1:
        ints = {m: v // g for m, v in ints.items()}
        num *= g
    g = gcd(num, den)
    return _from_ints(table, ints, num // g, den // g)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples over a fixed VarTable)

def mon_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mon_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mon_div(a, b):
    """Quotient a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mon_deg(a):
    return sum(a)


class Polynomial:
    """Immutable sparse polynomial over a VarTable."""

    __slots__ = ("table", "terms", "_hash", "_intview")

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms
        self._hash = None
        self._intview = None

    def _int_view(self):
        """(content, primitive integer terms) with poly = content * terms.

        Cached, and set at creation by products and normal forms, so
        chained products split the content once.  The content of zero is 1.
        """
        cached = self._intview
        if cached is None:
            terms = self.terms
            vals = terms.values()
            if all(type(c) is int for c in vals):
                g = gcd(*vals)
                cached = ((1, terms) if g <= 1 else
                          (g, {m: c // g for m, c in terms.items()}))
            else:
                nums = [c.numerator for c in vals]
                dens = [c.denominator for c in vals]
                g = gcd(*nums)
                den = lcm(*dens)
                cached = (g if den == 1 else Fraction(g, den),
                          {m: n // g * (den // d)
                           for m, n, d in zip(terms, nums, dens)})
            self._intview = cached
        return cached

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table):
        return Polynomial(table, {})

    @staticmethod
    def const(table, value):
        c = _canon_coeff(value)
        if c == 0:
            return Polynomial(table, {})
        return Polynomial(table, {tuple(0 for _ in table.names): c})

    @staticmethod
    def var(table, name, power=1):
        i = table.index(name)
        mon = tuple(power if j == i else 0 for j in range(len(table)))
        return Polynomial(table, {mon: _ONE})

    @staticmethod
    def from_terms(table, items):
        terms = {}
        for mon, c in items:
            c = _canon_coeff(c)
            if c == 0:
                continue
            acc = terms.get(mon, _ZERO) + c
            if acc:
                terms[mon] = _canon_coeff(acc)
            else:
                terms.pop(mon, None)
        return Polynomial(table, terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(mon_deg(m) == 0 for m in self.terms)

    def constant_coefficient(self):
        zero_mon = tuple(0 for _ in self.table.names)
        return self.terms.get(zero_mon, _ZERO)

    def total_degree(self):
        """Largest total degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mon_deg(m) for m in self.terms)

    def order(self):
        """Smallest total degree of a term, or None for zero."""
        if not self.terms:
            return None
        return min(mon_deg(m) for m in self.terms)

    def degree_in(self, positions):
        if not self.terms:
            return -1
        return max(sum(m[i] for i in positions) for m in self.terms)

    def involves(self, positions):
        return any(any(m[i] for i in positions) for m in self.terms)

    def below(self, cut):
        """The terms of degree below N in the variables at ``positions``,
        for ``cut = (positions, N)``."""
        positions, bound = cut
        return Polynomial(self.table, {
            m: c for m, c in self.terms.items()
            if sum([m[i] for i in positions]) < bound})

    def variables(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.table.names[i])
        return used

    def lead(self, keyf):
        """(monomial, coefficient) maximal under the order key."""
        if not self.terms:
            raise NeronError("zero polynomial has no lead term")
        m = max(self.terms, key=keyf)
        return m, self.terms[m]

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self):
        return Polynomial(self.table, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.table, other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return Polynomial(self.table, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.table, other)
        out = dict(self.terms)
        _add_into(out, other.terms, -1)
        return Polynomial(self.table, out)

    def __rsub__(self, other):
        return (-self) + other

    def mul(self, other, cut=None):
        """The product; with ``cut = (positions, N)`` only the term pairs
        whose degrees in the variables at ``positions`` sum below N are
        multiplied, which gives the product with every term of degree at
        least N in those variables dropped.

        The term loops run on the operands' integer views, and the product
        is created with its own view set.  An uncut product of primitive
        integer polynomials is primitive (Gauss's lemma); a cut one has its
        content split off with one gcd.
        """
        table = self.table
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial(table, {})
            p = self if cut is None else self.below(cut)
            if other == 1:
                return p
            s, ints = p._int_view()
            if other < 0:
                other = -other
                ints = {m: -v for m, v in ints.items()}
            scale = s * other
            return _from_ints(table, ints, scale.numerator, scale.denominator)
        sa, ta = self._int_view()
        sb, tb = other._int_view()
        if not ta or not tb:
            return Polynomial(table, {})
        if len(ta) > len(tb):
            ta, tb = tb, ta
        scale = sa * sb
        # a cut can leave the integer terms of a product with a content
        finish = _from_ints if cut is None else from_int_terms
        if len(ta) == 1:
            # A one-term operand shifts the other's terms.  Nothing can
            # cancel, and packing would cost more than so few pairs save.
            (m1, c1), = ta.items()
            items = tb.items()
            if cut is not None:
                positions, bound = cut
                room = bound - sum([m1[i] for i in positions])
                items = [(m2, c2) for m2, c2 in items
                         if sum([m2[i] for i in positions]) < room]
            ints = {tuple([x + y for x, y in zip(m1, m2)]): c1 * c2
                    for m2, c2 in items}
            return finish(table, ints, scale.numerator, scale.denominator)
        # Packed exponents (Monagan & Pearce): each monomial becomes one int
        # with a field of `bits` bits per variable, the first variable in
        # the highest field.  The width holds the largest exponent sum of
        # this product, so adding two packed monomials never carries from
        # one field into the next; the product of monomials is one int
        # addition, and packing is injective, so the accumulation below
        # visits and cancels keys exactly as the tuple loop would.
        bits = (max(map(max, ta)) + max(map(max, tb))).bit_length() or 1
        pa = []
        for m, c in ta.items():
            p = 0
            for e in m:
                p = (p << bits) | e
            pa.append((p, c))
        pb = []
        for m, c in tb.items():
            p = 0
            for e in m:
                p = (p << bits) | e
            pb.append((p, c))
        if cut is None:
            rows = [(p1, c1, pb) for p1, c1 in pa]
        else:
            # Sorted by degree, each term of the shorter operand meets only
            # the prefix of the longer one that keeps the pair below the cut.
            positions, bound = cut
            db = [sum([m[i] for i in positions]) for m in tb]
            by_degree = sorted(range(len(pb)), key=db.__getitem__)
            pb = [pb[k] for k in by_degree]
            db = [db[k] for k in by_degree]
            rows = []
            for m, (p1, c1) in zip(ta, pa):
                k = bisect_left(db, bound - sum([m[i] for i in positions]))
                if k:
                    rows.append((p1, c1, pb[:k]))
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
        mask = (1 << bits) - 1
        shifts = range(bits * (len(table) - 1), -1, -bits)
        ints = {tuple([p >> s & mask for s in shifts]): v
                for p, v in out.items()}
        return finish(table, ints, scale.numerator, scale.denominator)

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
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1:]
                acc = out.get(dm, _ZERO) + c * e
                if acc:
                    out[dm] = _canon_coeff(acc)
                else:
                    out.pop(dm, None)
        return Polynomial(self.table, out)

    def substitute(self, assignment, cut=None):
        """Compose with ``assignment``, a map variable name -> Polynomial.

        Variables not mentioned stay themselves.  All polynomials must share
        this polynomial's table.  With ``cut = (positions, N)`` every power
        and product is taken under the cut (see ``mul``), which gives the
        composition with every term of degree at least N in the variables at
        ``positions`` dropped.
        """
        idx = {}
        for name, val in assignment.items():
            if isinstance(val, (int, Fraction)):
                val = Polynomial.const(self.table, val)
            if val.table != self.table:
                raise NeronError("substitution value over a different table")
            idx[self.table.index(name)] = val
        if not idx:
            return self if cut is None else self.below(cut)
        powers = {i: {0: Polynomial.const(self.table, 1)} for i in idx}
        out = {}
        for m, c in self.terms.items():
            residual = tuple(0 if i in idx else e for i, e in enumerate(m))
            factor = Polynomial(self.table, {residual: c})
            for i, val in idx.items():
                e = m[i]
                cache = powers[i]
                if e not in cache:
                    p = max(cache)
                    acc = cache[p]
                    while p < e:
                        acc = acc.mul(val, cut)
                        p += 1
                        cache[p] = acc
                factor = factor.mul(cache[e], cut)
            _add_into(out, factor.terms)
        return Polynomial(self.table, out)

    def lift(self, newtable):
        """Reinterpret over an extended table (old positions must agree)."""
        if newtable.names[:len(self.table)] != self.table.names:
            raise NeronError("table extension must append variables")
        pad = len(newtable) - len(self.table)
        if pad == 0 and newtable == self.table:
            return self
        return Polynomial(newtable,
                          {m + (0,) * pad: c for m, c in self.terms.items()})

    def restrict(self, newtable):
        """Project to a prefix table; extra positions must be unused."""
        n = len(newtable)
        if self.table.names[:n] != newtable.names:
            raise NeronError("not a prefix table")
        out = {}
        for m, c in self.terms.items():
            if any(m[n:]):
                raise NeronError("polynomial uses variables outside the prefix")
            out[m[:n]] = c
        return Polynomial(newtable, out)

    def content(self):
        """Positive rational c with self/c integer, coprime coefficients;
        1 for zero."""
        return self._int_view()[0]

    def primitive(self):
        c, ints = self._int_view()
        if c == 1:
            return self
        return _from_ints(self.table, ints)

    def __repr__(self):
        from .orders import mixed_order
        return format_poly(self, mixed_order(self.table))


def _add_into(out, terms, sign=1):
    """In place out += sign * terms; integral sums are stored as ints."""
    for m, c in terms.items():
        acc = out.get(m, _ZERO) + c if sign == 1 else out.get(m, _ZERO) - c
        if acc:
            out[m] = (acc if type(acc) is int or acc.denominator != 1
                      else acc.numerator)
        else:
            out.pop(m, None)


def taylor_coefficients(f, names, at):
    """Coefficients of f expanded around the point ``at`` in ``names``.

    Returns a dict mapping multi-indices alpha (tuples over ``names``) to the
    polynomial (d^alpha f / alpha!) evaluated at ``at``; that is, the exact
    coefficient of prod (X_i - at_i)^alpha_i.  ``at`` maps each name to a
    polynomial or constant.
    """
    table = f.table
    out = {}
    stack = [(tuple(0 for _ in names), f, 1)]
    while stack:
        alpha, g, factor = stack.pop()
        if g.is_zero():
            continue
        if alpha not in out:
            out[alpha] = (g, factor)
            # extend along the last nonzero coordinate and beyond to avoid
            # revisiting permutations of the same multi-index
            start = 0
            for i in range(len(alpha) - 1, -1, -1):
                if alpha[i]:
                    start = i
                    break
            for i in range(start, len(names)):
                d = g.derivative(names[i])
                if d.is_zero():
                    continue
                nalpha = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                stack.append((nalpha, d, exact_div(factor, nalpha[i])))
    result = {}
    subs = {n: (v if isinstance(v, Polynomial) else Polynomial.const(table, v))
            for n, v in at.items()}
    for alpha, (g, factor) in out.items():
        val = g.substitute(subs) * factor
        if not val.is_zero():
            result[alpha] = val
    return result


# ---------------------------------------------------------------------------
# parsing and printing

_SYMBOLS = "+-*^(),/"


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


class _PolyParser:
    def __init__(self, table, tokens):
        self.table = table
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        kind, val, line, col = self.peek()
        raise PolyParseError(message + (f", got {val!r}" if val else ""), line, col)

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
            kind, val, line, col = self.peek()
            if kind != "int":
                self.fail("expected integer exponent")
            self.next()
            return base ** int(val)
        return base

    def parse_atom(self):
        kind, val, line, col = self.next()
        if kind == "int":
            num = int(val)
            if self.peek()[0] == "/":
                self.next()
                kind2, val2, line2, col2 = self.next()
                if kind2 != "int":
                    raise PolyParseError("expected denominator", line2, col2)
                den = int(val2)
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
    p = parser.parse_expr()
    kind, val, line, col = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", line, col)
    return p


def format_poly(p, order):
    """Canonical printing: terms sorted descending in the active order."""
    if p.is_zero():
        return "0"
    keyf = order.key(p.table)
    parts = []
    for m in sorted(p.terms, key=keyf, reverse=True):
        c = p.terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(p.table.names[i])
            elif e > 1:
                factors.append(f"{p.table.names[i]}^{e}")
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        if not parts:
            parts.append(chunk if c > 0 else f"-{chunk}")
        else:
            parts.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
    return " ".join(parts)


def jacobian(fs, names):
    """Rows of partial derivatives of each f with respect to ``names``."""
    if not names:
        raise NeronError("jacobian needs a nonempty variable list")
    return [[f.derivative(n) for n in names] for f in fs]
