"""Command line driver: desing, hba, lift and check on problem files.

Exit codes: 0 success; 2 the precision bound is too small (with the exact
message on stderr); 3 a hypothesis or search condition failed; 4 parse
error; 5 an internal certificate or verification failure.  Results go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .desing import desingularize, elkik_ideal, AlgebraPresentation
from .errors import (ActiveElementNotFound, BoundTooSmall, CertificateFailed,
                     CompletionFailed, ConditionStarStarFailed,
                     DecompositionIncomplete, DivisibilityViolated,
                     DivisionFailed, HypothesisViolated, NeronError,
                     NoContraction, NotAUnit, NotDivisible, NotInIdeal,
                     PolyParseError, PreconditionFailed, TargetInsidePrime,
                     VerificationFailed)
from .lifting import LiftingProblem, newton_lift
from .orders import mixed_order
from .poly import format_poly
from .problemfile import parse_problem

_CONDITION_ERRORS = (ConditionStarStarFailed, HypothesisViolated,
                     ActiveElementNotFound, TargetInsidePrime,
                     CompletionFailed, PreconditionFailed, NoContraction,
                     DivisionFailed, DivisibilityViolated, NotDivisible,
                     DecompositionIncomplete, NotAUnit)
_CERTIFICATE_ERRORS = (CertificateFailed, VerificationFailed, NotInIdeal)


def _render_trace_text(trace):
    lines = []
    for rec in trace:
        v = rec.values
        if rec.line == 1:
            body = ", ".join(f"{k} = {val}" for k, val in v.items())
        elif rec.line == 2:
            body = f"D = {v.get('D', 'A')}"
        elif rec.line == 3:
            body = f"H_cap_A = {v.get('H_cap_A')}"
        elif rec.line in (4, 9, 12):
            body = rec.note if v.get("triggered") != "True" else \
                ", ".join(f"{k} = {val}" for k, val in v.items()
                          if k != "triggered")
            if rec.line == 12:
                body = "bound check passed" if v.get("ok") == "True" \
                    else rec.note
        elif rec.line == 5:
            body = f"f = {v.get('f')}"
        elif rec.line == 6:
            body = f"H = {v.get('H')}, det(H) = {v.get('det')}"
        elif rec.line == 7:
            body = f"R = {v.get('R')}"
        elif rec.line == 8:
            body = f"P = {v.get('P')}, (P) cap A = {v.get('P_cap_A')}"
        elif rec.line == 10:
            body = f"d = {v.get('d')}"
        elif rec.line == 11:
            body = f"e = {v.get('e')}"
        elif rec.line == 13:
            body = f"b = {v.get('b')}"
        elif rec.line == 14:
            body = f"G' = {v.get('Gprime')}"
        elif rec.line == 15:
            body = f"s = {v.get('s')}; h = {v.get('h')}"
        elif rec.line == 16:
            body = f"p = {v.get('p')}; g = {v.get('g')}"
        elif rec.line == 17:
            body = f"s' = {v.get('s_prime')}"
        elif rec.line == 18:
            body = f"s'' = {v.get('s_second')} (s-power {v.get('s_power')})"
        else:
            body = (f"return presentation with relations {v.get('relations')} "
                    f"localized at {v.get('multiplier')}")
        lines.append(f"{rec.line}. {body}")
    return "\n".join(lines) + "\n"


def emit_trace(trace, fmt="text"):
    """Render a trace; the machine format is line-delimited JSON."""
    if not trace:
        return b""
    if fmt == "machine":
        out = []
        for rec in trace:
            out.append(json.dumps({"line": rec.line, "label": rec.label,
                                   "values": rec.values, "note": rec.note},
                                  sort_keys=True))
        return ("\n".join(out) + "\n").encode()
    return _render_trace_text(trace).encode()


def parse_trace(data):
    """Re-parse the machine trace format into plain records."""
    records = []
    for line in data.decode().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def _cmd_desing(pf, fmt):
    problem = pf.build()
    result = desingularize(problem)
    out = emit_trace(result.trace, fmt).decode()
    order = mixed_order(result.presentation.table)
    if fmt == "machine":
        payload = {
            "relations": [format_poly(p, order)
                          for p in result.presentation.relations],
            "simplified": [format_poly(p, order) for p in result.simplified],
            "inverted": [format_poly(p, order)
                         for p in result.presentation.inverted],
        }
        if result.jet_map is not None:
            payload["jet_checks"] = [list(c) for c in result.jet_map.checks]
        out += json.dumps({"output": payload}, sort_keys=True) + "\n"
    else:
        out += "output relations:\n"
        for p in result.simplified:
            out += "  " + format_poly(p, order) + "\n"
        # "(s) * (s') * (s'')" as trace record 19 already printed it
        localized = next(rec.values["multiplier"] for rec in result.trace
                         if rec.line == 19)
        out += "localized at: " + localized + "\n"
        if result.jet_map is not None:
            out += (f"jet factorization verified at precision "
                    f"{result.jet_map.precision}\n")
    return 0, out, ""


def _cmd_hba(pf, fmt):
    problem = pf.build()
    B = AlgebraPresentation(problem.ring, tuple(problem.relations))
    data = elkik_ideal(B, problem.max_subset)
    order = mixed_order(problem.ring.table)
    if fmt == "machine":
        payload = {
            "generators": [format_poly(p, order) for p in data.gens],
            "h_cap_a": [format_poly(p, order) for p in data.h_cap_a],
            "subsets": [list(c.subset) for c in data.contributions],
        }
        return 0, json.dumps(payload, sort_keys=True) + "\n", ""
    out = "smoothness ideal generators:\n"
    for p in data.gens:
        out += "  " + format_poly(p, order) + "\n"
    out += "contraction to the base:\n"
    for p in data.h_cap_a:
        out += "  " + format_poly(p, order) + "\n"
    return 0, out, ""


def _cmd_lift(pf, fmt, rho, target, f_indices):
    problem = pf.build()
    ring = problem.ring
    if rho is None or target is None:
        raise PreconditionFailed("lift needs --rho and --target-precision")
    idx = tuple(f_indices) if f_indices else tuple(range(len(problem.relations)))
    approx = {nm: j.poly for nm, j in problem.morphism.jets.items()}
    lp = LiftingProblem(ring, tuple(problem.relations), idx, approx,
                        rho, target)
    report = newton_lift(lp)
    order = mixed_order(ring.table)
    if fmt == "machine":
        payload = {
            "e": report.e, "rho": report.rho, "nu": report.nu,
            "agreement": report.agreement,
            "update_orders": report.update_orders,
            "lifted": {nm: format_poly(j.poly, order)
                       for nm, j in report.lifted.items()},
        }
        return 0, json.dumps(payload, sort_keys=True) + "\n", ""
    out = (f"e = {report.e}, rho = {report.rho}, nu(c) = {report.nu}, "
           f"agreement = {report.agreement}\n")
    for nm, j in report.lifted.items():
        out += f"  {nm} = {format_poly(j.poly, order)} (precision {j.precision})\n"
    return 0, out, ""


def _cmd_check(pf, fmt):
    problem = pf.build()
    ring = problem.ring
    notes = []
    if ring.primes is None:
        from .localring import minimal_primes
        primes = minimal_primes(list(ring.j_gens), ring.table, ring.order)
        notes.append(f"minimal primes: {len(primes)} component(s)")
    else:
        ring.validate_primes()
        notes.append("supplied minimal primes validated")
    from .desing import eval_at_jets
    for rel in problem.relations:
        val = eval_at_jets(rel, problem.morphism, ring)
        if not val.is_zero():
            raise PreconditionFailed(
                "a relation does not vanish at the jets modulo (x)^N")
    notes.append("jets define a morphism modulo (x)^N")
    out = "\n".join(notes) + "\n"
    return 0, out, ""


def run_command(cmd, path, fmt="text", rho=None, target=None, f_indices=None,
                seed=None, max_subset=None):
    """Dispatch a subcommand; returns (exit_code, stdout, stderr)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return 4, "", f"cannot read problem file: {exc}\n"
    try:
        pf = parse_problem(text)
        if seed is not None:
            pf.seed = seed
        if max_subset is not None:
            pf.max_subset = max_subset
        if cmd == "desing":
            return _cmd_desing(pf, fmt)
        if cmd == "hba":
            return _cmd_hba(pf, fmt)
        if cmd == "lift":
            return _cmd_lift(pf, fmt, rho, target, f_indices)
        if cmd == "check":
            return _cmd_check(pf, fmt)
        return 4, "", f"unknown command {cmd!r}\n"
    except PolyParseError as exc:
        return 4, "", f"parse error: {exc}\n"
    except BoundTooSmall as exc:
        return 2, "", str(exc) + "\n"
    except ConditionStarStarFailed as exc:
        return 3, "", f"{type(exc).__name__}: {exc}\n" + "".join(
            f"  subset {list(subset)}, prime "
            f"{'-' if prime is None else prime}: {reason}\n"
            for subset, prime, reason in exc.diagnostics)
    except _CONDITION_ERRORS as exc:
        return 3, "", f"{type(exc).__name__}: {exc}\n"
    except _CERTIFICATE_ERRORS as exc:
        return 5, "", f"{type(exc).__name__}: {exc}\n"
    except NeronError as exc:
        return 5, "", f"{type(exc).__name__}: {exc}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="neron",
        description="constructive desingularization for one-dimensional "
                    "local rings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("desing", "run the full pipeline and print the trace"),
            ("hba", "compute the smoothness ideal and its base contraction"),
            ("lift", "Newton-lift the jets to a target precision"),
            ("check", "validate the problem file and preconditions")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-subset", type=int, default=None)
        p.add_argument("--format", choices=("text", "machine"),
                       default="text")
        if name == "lift":
            p.add_argument("--rho", type=int, default=None)
            p.add_argument("--target-precision", type=int, default=None)
            p.add_argument("--f-indices", type=str, default=None,
                           help="comma separated generator indices forming f")
    args = parser.parse_args(argv)
    f_indices = None
    if getattr(args, "f_indices", None):
        f_indices = tuple(int(t) for t in args.f_indices.split(","))
    code, out, err = run_command(
        args.command, args.file, fmt=args.format,
        rho=getattr(args, "rho", None),
        target=getattr(args, "target_precision", None),
        f_indices=f_indices, seed=args.seed, max_subset=args.max_subset)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
