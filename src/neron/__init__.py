"""Exact commutative algebra and constructive Neron desingularization.

The package is a library first: an exact rational polynomial kernel with
global, local and mixed term orders, a standard-basis engine, the ideal
operations that feed the one-dimensional desingularization algorithm, a
Greenberg-type strong approximation lifter, and a small command line driver
around a textual problem-file format.
"""

from .errors import (ActiveElementNotFound, BoundTooSmall, CertificateFailed,
                     CompletionFailed, ConditionStarStarFailed,
                     DecompositionIncomplete, DivisibilityViolated,
                     DivisionFailed, HypothesisViolated, NeronError,
                     NoContraction, NotAUnit, NotDivisible, NotInIdeal,
                     PolyParseError, PreconditionFailed, TargetInsidePrime,
                     VerificationFailed)
from .orders import (ALGEBRA, AUX, BASE, INVERTER, SLACK, TANGENT, BlockOrder,
                     DegRevLex, NegDegRevLex, TermOrder, VarTable,
                     elim_order, global_order, mixed_order)
from .poly import Polynomial, format_poly, jacobian, parse_poly, taylor_coefficients
from .linalg import PolyMatrix, det, det_adjugate, minors
from .groebner import (DivisionWitness, Ideal, lift_division,
                       normal_form_against, std_basis)
from .idealops import (eliminate, ideal_quotient, intersect, krull_dim,
                       radical_membership, same_ideal, saturate, syzygies)

__all__ = [n for n in dir() if not n.startswith("_")]
