#!/usr/bin/env python3
# Ideal operations over the localized base ring, minimal primes and jets.

from neron import (ALGEBRA, BASE, Ideal, VarTable, eliminate, ideal_quotient,
                   mixed_order, parse_poly, radical_membership, same_ideal,
                   saturate)
from neron.localring import (LocalRingSpec, jet_divide, jet_invert,
                             minimal_primes)

T = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA))
order = mixed_order(T)

# Colon ideals, saturations, eliminations: all witnessable via normal forms.
colon = ideal_quotient([parse_poly(T, "x1*x2")], [parse_poly(T, "x1")],
                       T, order)
print("(x1*x2 : x1) =", colon)
print("equal to (x2):",
      same_ideal(Ideal(T, colon), Ideal(T, [parse_poly(T, "x2")]), order))

sat, stable_at = saturate([parse_poly(T, "x1^2*x2")], parse_poly(T, "x1"),
                          T, order)
print("(x1^2*x2 : x1^infinity) =", sat, " stabilizes at", stable_at)

elim = eliminate([parse_poly(T, "(x1+x2)^2"), parse_poly(T, "x2*Y1 - x1*Y2"),
                  parse_poly(T, "x1*x2")], (ALGEBRA,), T, order)
print("eliminating the algebra block:", elim)

print("x1 in radical of (x1^2):",
      radical_membership(parse_poly(T, "x1"), [parse_poly(T, "x1^2")], T))

# The two-branch base ring A = Q[x1,x2]_(x)/(x1*x2).
J = [parse_poly(T, "x1*x2")]
primes = minimal_primes(J, T)
print("minimal primes of (x1*x2):", primes)
ring = LocalRingSpec(T, J, primes=primes)

# Jets are truncated elements of the completion, kept canonical modulo
# J + (x)^N; arithmetic truncates to the smallest precision involved.
u = ring.jet(parse_poly(T, "1 + x1"), 5)
inv = jet_invert(u)
print("1/(1+x1) at precision 5:", inv)
print("u * inv == 1:", (u * inv - 1).is_zero())

num = ring.jet(parse_poly(T, "x1^6 + x2^6"), 12)
den = ring.jet(parse_poly(T, "(x1 + x2)^4"), 12)
q = jet_divide(num, den)
print("jet division result:", q)
print("multiply-back check:", (den * q - num).is_zero())
