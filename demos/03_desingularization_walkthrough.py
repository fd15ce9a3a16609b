#!/usr/bin/env python3
# The full pipeline on the two-branch worked instance, with its trace.
#
# A = Q[x1,x2]_(x)/(x1*x2) has two minimal primes, B is presented by
# x2*Y1 - x1*Y2 together with the two monomial forms, and the morphism
# sends Y1, Y2 to x1*u, x2*w for explicit rational unit series, known to
# jet precision 12.  The output is a standard smooth presentation over A
# through which the morphism factors.

from neron import BASE, ALGEBRA, Polynomial, VarTable, parse_poly
from neron.cli import emit_trace
from neron.desing import DesingProblem, MorphismApprox, desingularize
from neron.localring import LocalRingSpec, minimal_primes

T = VarTable.make(("x1", BASE), ("x2", BASE), ("Y1", ALGEBRA), ("Y2", ALGEBRA))
J = [parse_poly(T, "x1*x2")]
ring = LocalRingSpec(T, J, primes=minimal_primes(J, T))

relations = (parse_poly(T, "x2*Y1 - x1*Y2"),
             parse_poly(T, "x2*Y1"),
             parse_poly(T, "x1*Y2"))

N = 12
u = Polynomial(T, {(k, 0, 0, 0): 1 for k in range(N)})        # 1/(1-x1)
w = Polynomial(T, {(0, k, 0, 0): 2 ** k for k in range(N)})   # 1/(1-2*x2)
jets = {"Y1": ring.jet(parse_poly(T, "x1") * u, N),
        "Y2": ring.jet(parse_poly(T, "x2") * w, N)}
# higher-precision jets of the same series let the factorization be checked
u24 = Polynomial(T, {(k, 0, 0, 0): 1 for k in range(24)})
w24 = Polynomial(T, {(0, k, 0, 0): 2 ** k for k in range(24)})
verify = {"Y1": ring.jet(parse_poly(T, "x1") * u24, 24),
          "Y2": ring.jet(parse_poly(T, "x2") * w24, 24)}

problem = DesingProblem(ring, relations, MorphismApprox(N, jets, verify),
                        max_subset=3)
result = desingularize(problem)

print(emit_trace(result.trace, "text").decode())
print("simplified output relations:")
for rel in result.simplified:
    print("   ", rel)
print("localized at s, s', s'':",
      ", ".join(str(u) for u in result.presentation.inverted))
print("certificate exponent e =", result.certificate.e,
      "| constant b =", [str(b) for b in result.certificate.b])
print("jet factorization verified at precision", result.jet_map.precision)
