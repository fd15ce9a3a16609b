#!/usr/bin/env python3
# Exact polynomial kernel: tables, term orders, bases, division witnesses.

from neron import (ALGEBRA, BASE, NegDegRevLex, VarTable,
                   buchberger_criterion, format_poly, global_order,
                   lift_division, mixed_order, parse_poly, std_basis)

# Variables live in named blocks: base variables x carry the local order,
# algebra variables Y stay global, so computations happen over the
# localization (k[x]/J)_(x) adjoined with polynomial variables.
T = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA))

p = parse_poly(T, "(x1 + x2)*(x1 - x2)")
print("exact arithmetic:", p)                       # x1^2 - x2^2

# Under the local order the constant monomial dominates the base block.
keyf = NegDegRevLex().key(T)
print("local order ranks 1 above x1:", keyf((0, 0, 0, 0)) > keyf((1, 0, 0, 0)))

# A standard basis under the mixed order (Y global above x local).
g1 = parse_poly(T, "x2*Y1 - x1*Y2")
g2 = parse_poly(T, "x1*x2")
order = mixed_order(T)
basis = std_basis([g1, g2], T, order)
print("standard basis:")
for b in basis:
    print("   ", format_poly(b, order))

# Every computed basis satisfies the Buchberger criterion.
print("all S-polynomials reduce to zero:",
      buchberger_criterion(basis, T, order))

# Memberships come with exact witnesses: unit * p = sum(q_i * g_i).
w = lift_division(parse_poly(T, "x1^2*Y2"), [g1, g2], T, order)
print("witness checks out:", w.check(), "| unit:", w.unit)
for q, g in zip(w.quotients, w.divisors):
    print("   quotient", format_poly(q, order), " on ", format_poly(g, order))

# Global orders give canonical reduced Groebner bases.
gb = std_basis([parse_poly(T, "x1^2 + x2"), parse_poly(T, "x1*x2 - x2")],
               T, global_order())
print("reduced Groebner basis:", [format_poly(b, global_order()) for b in gb])
