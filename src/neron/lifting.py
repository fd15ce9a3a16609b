"""Strong approximation with a linear Artin function for dimension one.

Approximate solutions of a polynomial system over the base ring lift to
jets of arbitrary precision by a Newton-style contraction, provided the
evaluated Jacobian ideal of a chosen subsystem is large enough.  The Artin
function is linear: an approximate solution modulo (x)^((e+1)*(rho+1)+c)
yields a lifted one agreeing modulo (x)^c.

The construction mirrors the desingularization equations with the smooth
base equal to A and the unit s equal to 1: h = Y - y' - d^e G(y') T and
g = b + T + d^(e-1) Q with d = (det H)(y').  Q comes from the same
shifted-point expansion as in desing (ShiftedPoint), evaluated at jets T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .desing import (AlgebraPresentation, MorphismApprox, ShiftedPoint,
                     complete_H, jacobian_colon, jacobian_minors)
from .errors import (DivisionFailed, HypothesisViolated, NeronError,
                     NoContraction, NotDivisible, PreconditionFailed)
from .groebner import Ideal
from .linalg import det_adjugate
from .localring import Jet, compute_e, jet_divide
from .orders import ALGEBRA
from .poly import Polynomial


@dataclass
class LiftingProblem:
    """System data and an approximate polynomial solution."""

    ring: object                 # LocalRingSpec
    relations: tuple             # generators of I in A[Y]
    f_indices: tuple             # which generators form the subsystem f
    approx: dict                 # variable name -> Polynomial over the base
    rho: int
    target: int                  # requested output precision c

    def f_polys(self):
        return tuple(self.relations[i] for i in self.f_indices)


@dataclass
class LiftReport:
    e: int
    rho: int
    nu: int
    lifted: dict
    agreement: int
    update_orders: list = field(default_factory=list)


def nu_bound(e, rho, c):
    """The linear Artin function (e+1)*(rho+1) + c."""
    if e < 0 or rho < 0 or c < 1:
        raise NeronError("nu_bound needs e, rho >= 0 and c >= 1")
    return (e + 1) * (rho + 1) + c


def _jacobian_products(prob):
    """Evaluations at y' of generators of ((f) + J : I + J) * Delta_f.

    When every nonzero relation is one of f, I lies in (f) and the colon
    is the unit ideal: the data are the nonzero maximal minors themselves,
    and no colon is computed."""
    ring = prob.ring
    fs = prob.f_polys()
    y_names = ring.table.block_names(ALGEBRA)
    if all(p.is_zero() or p in fs for p in prob.relations):
        data = jacobian_minors(ring.table, fs, y_names)
    else:
        colon, minor_list = jacobian_colon(ring, fs, prob.relations, y_names)
        data = [c * m for c in colon for m in minor_list]
    subs = dict(prob.approx)
    out = []
    for p in data:
        val = ring.monomial_reduce(p.substitute(subs))
        if not val.is_zero():
            out.append(val)
    return out


def check_hypothesis(prob):
    """True iff (x)^rho lies in (J, evaluated Jacobian data).

    The hypothesis of the theorem reads (x)^rho in (J, (x)^nu, data) with
    nu = nu_bound(e, rho, c) > rho; by Nakayama's lemma in A that holds
    exactly when (x)^rho lies in (J, data), so neither nu nor e is needed.
    Only that ideal matters, so when f is all of I (``neron lift`` without
    ``--f-indices``) the colon ((f) + J : I + J), which is then (1), is
    skipped and the data are the nonzero maximal minors of df/dY.  A colon
    computed by the t-trick may come out as a unit of k[x]_(x) other than
    1, which generates the same ideal.
    """
    ring = prob.ring
    return ring.contains_power(
        Ideal(ring.table, _jacobian_products(prob) + list(ring.j_gens)),
        prob.rho)


def _completion_data(prob):
    """(H, d, G'): the square matrix H at y', the element d = (det H)(y')
    and the adjugate G' of H, from one ``det_adjugate``."""
    ring = prob.ring.with_minimal_primes()
    f_polys = list(prob.f_polys())
    prec = max(prob.target, prob.rho + 1, 2)
    v = MorphismApprox(prec, {nm: ring.jet(p, prec)
                              for nm, p in prob.approx.items()})
    B = AlgebraPresentation(ring, tuple(prob.relations))
    H = complete_H(B, f_polys, v)
    dH, Gp = det_adjugate(H)
    d = ring.monomial_reduce(dH.substitute(
        {nm: j.poly for nm, j in v.jets.items()}))
    if d.is_zero():
        raise DivisionFailed("det(H) vanishes at the approximate solution")
    return H, d, Gp


def newton_lift(prob):
    """Lift the approximate solution to jets of the target precision.

    Solves g = 0 by the contraction T <- -b - d^(e-1) Q(T) from T = 0; each
    iteration must strictly increase the x-order of the update.  Returns the
    lifted jets y = y' + d^e G(y') T with the exact agreement order.
    """
    ring = prob.ring
    table = ring.table
    y_names = list(table.block_names(ALGEBRA))
    f_polys = list(prob.f_polys())
    r = len(f_polys)
    c = prob.target
    if prob.rho < 0:
        raise PreconditionFailed(f"rho = {prob.rho} is negative")
    if c < 1:
        raise PreconditionFailed(f"target precision {c} is below 1")
    if r > len(y_names):
        raise PreconditionFailed(
            f"the subsystem f has {r} relations but there are only "
            f"{len(y_names)} algebra variables")

    if any(not ring.at(rel, prob.approx, prob.rho).is_zero()
           for rel in prob.relations):
        raise PreconditionFailed("I(y') does not vanish modulo (x)^rho")

    _, d, Gp = _completion_data(prob)
    e = compute_e(d, ring)
    if not check_hypothesis(prob):
        raise HypothesisViolated(
            "the evaluated Jacobian ideal does not reach (x)^rho")
    nu = nu_bound(e, prob.rho, c)

    d_ord = d.order() or 0
    prec = c + (e + 1) * d_ord + 1
    d_jet = ring.jet(d, prec)
    d_e1 = d_jet ** (e + 1)
    b_jets = []
    for fp in f_polys:
        val = Jet(ring, ring.at(fp, prob.approx, prec), prec)
        if val.is_zero():
            b_jets.append(ring.zero_jet(max(prec - d_e1.order() if
                                            d_e1.order() else prec, 1)))
            continue
        try:
            b_jets.append(jet_divide(val, d_e1))
        except NotDivisible as exc:
            raise DivisionFailed(
                f"f(y') is not divisible by d^(e+1): {exc}") from exc
    for b in b_jets:
        if not b.is_zero() and (b.order() or 0) < 1:
            raise NoContraction("the contraction seed b has order zero")

    # d^(e-1) * Q_i(T) = expand(f_i, p, e + 1, 2) at jets T, with s = 1.
    # b is cut to the precision of T: the expansion of a relation linear
    # in Y is the zero polynomial, which would not cut it.
    n = len(y_names)
    t_prec = min(b.precision for b in b_jets) if b_jets else prec
    b_jets = [b.truncate(t_prec) for b in b_jets]
    t_cur = [ring.zero_jet(t_prec) for _ in range(n)]
    point = ShiftedPoint(ring, prob.approx, Gp, Polynomial.const(table, 1),
                         d, e, t_cur)
    p_deg = max((fp.degree_in(table.block(ALGEBRA)) for fp in f_polys),
                default=0)
    orders = []
    for _ in range(c + 2):
        t_next = [-b - point.expand(fp, p_deg, e + 1, 2)
                  for b, fp in zip(b_jets, f_polys)] + t_cur[r:]
        steps = [tn - tc for tn, tc in zip(t_next, t_cur)]
        diff_orders = [delta.order() for delta in steps
                       if not delta.is_zero()]
        if not diff_orders:
            break
        step = min(diff_orders)
        if orders and step <= orders[-1]:
            raise NoContraction(
                "update order did not strictly increase")
        orders.append(step)
        t_cur = t_next
        point.move(steps)
        if step > t_prec:
            break

    # y = y' + d^e G(y') T
    lifted = {}
    for nm, b_pow in zip(point.y_names, point.b_pow):
        acc = ring.jet(prob.approx[nm], c)
        lifted[nm] = (acc + b_pow[1].truncate(min(t_prec, c))).truncate(c)

    lifted_point = {nm: j.poly for nm, j in lifted.items()}
    if any(not ring.at(rel, lifted_point, c).is_zero()
           for rel in prob.relations):
        raise DivisionFailed(
            "the lifted jets do not annihilate every relation")

    agreement = c
    for nm in y_names:
        delta = ring.reduce_jet(lifted[nm].poly - prob.approx[nm], c)
        if not delta.is_zero():
            agreement = min(agreement, delta.order())
    return LiftReport(e, prob.rho, nu, lifted, agreement, orders)


def strong_approx_decide(prob, y_second, precision):
    """Lift a refined approximation and certify agreement modulo (x)^rho.

    ``y_second`` maps variable names to polynomials with
    I(y'') = 0 modulo (x)^precision and y'' = y' modulo (x)^rho, where
    precision = (e+2)*(rho+1).  The lift runs from y'' to the requested
    target and the result agrees with y' modulo (x)^rho.  It is the
    paper's strong approximation statement; demo 04 and acceptance
    criterion 6 run it.
    """
    ring = prob.ring
    for nm, p in prob.approx.items():
        if not ring.reduce_jet(y_second[nm] - p, prob.rho).is_zero():
            raise PreconditionFailed(
                "y'' does not agree with y' modulo (x)^rho")
    if any(not ring.at(rel, y_second, precision).is_zero()
           for rel in prob.relations):
        raise PreconditionFailed(
            "I(y'') does not vanish modulo (x)^precision")
    if not check_hypothesis(prob):
        raise PreconditionFailed(
            "the evaluated Jacobian ideal does not contain (x)^rho")
    prob2 = LiftingProblem(ring, prob.relations, prob.f_indices,
                           dict(y_second), prob.rho, prob.target)
    report = newton_lift(prob2)
    for nm, p in prob.approx.items():
        if not ring.reduce_jet(report.lifted[nm].poly - p,
                               prob.rho).is_zero():
            raise PreconditionFailed(
                "lifted solution does not agree with y' modulo (x)^rho")
    return report
