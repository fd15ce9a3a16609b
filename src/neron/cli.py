"""Command line driver: desing, hba, lift and check on problem files.

Exit codes: 0 success, 4 an unreadable file or unknown command, and
otherwise the code the raised error carries (see ``errors``).  Results go
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .desing import (AlgebraPresentation, desingularize, elkik_ideal,
                     validate_morphism)
from .errors import NeronError, PreconditionFailed
from .lifting import LiftingProblem, newton_lift
from .problemfile import parse_problem


def emit_trace(trace, fmt="text"):
    """Render a trace: each record's text line, or one JSON object per
    record with its label, line, note and rendered values."""
    if fmt == "machine":
        lines = (json.dumps({"label": rec.label, "line": rec.line,
                             "note": rec.note, "values": rec.rendered()},
                            sort_keys=True) for rec in trace)
    else:
        lines = (rec.text() for rec in trace)
    return "".join(line + "\n" for line in lines).encode()


def parse_trace(data):
    """Re-parse the machine trace format into plain records.  The
    benchmark's cli workload checks machine output with it."""
    records = []
    for line in data.decode().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def _cmd_desing(pf, fmt):
    problem = pf.build()
    result = desingularize(problem)
    out = emit_trace(result.trace, fmt).decode()
    if fmt == "machine":
        payload = {
            "relations": list(map(str, result.presentation.relations)),
            "simplified": list(map(str, result.simplified)),
            "inverted": list(map(str, result.presentation.inverted)),
        }
        if result.jet_map is not None:
            payload["jet_checks"] = [list(c) for c in result.jet_map.checks]
        out += json.dumps({"output": payload}, sort_keys=True) + "\n"
    else:
        out += "output relations:\n"
        for p in result.simplified:
            out += f"  {p}\n"
        # "(s) * (s') * (s'')" as trace record 19 prints it
        localized = next(rec.rendered()["multiplier"]
                         for rec in result.trace if rec.line == 19)
        out += "localized at: " + localized + "\n"
        if result.jet_map is not None:
            out += (f"jet factorization verified at precision "
                    f"{result.jet_map.precision}\n")
    return 0, out, ""


def _cmd_hba(pf, fmt):
    problem = pf.build()
    B = AlgebraPresentation(problem.ring, tuple(problem.relations))
    data = elkik_ideal(B, problem.max_subset)
    if fmt == "machine":
        payload = {
            "generators": list(map(str, data.gens)),
            "h_cap_a": list(map(str, data.h_cap_a)),
            "subsets": [list(c.subset) for c in data.contributions],
        }
        return 0, json.dumps(payload, sort_keys=True) + "\n", ""
    out = "smoothness ideal generators:\n"
    for p in data.gens:
        out += f"  {p}\n"
    out += "contraction to the base:\n"
    for p in data.h_cap_a:
        out += f"  {p}\n"
    return 0, out, ""


def _cmd_lift(pf, fmt, rho, target, f_indices):
    problem = pf.build()
    ring = problem.ring
    if rho is None or target is None:
        raise PreconditionFailed("lift needs --rho and --target-precision")
    n_rel = len(problem.relations)
    idx = tuple(f_indices) if f_indices else tuple(range(n_rel))
    for k, i in enumerate(idx):
        if not 0 <= i < n_rel:
            raise PreconditionFailed(
                f"--f-indices: index {i} is out of range 0..{n_rel - 1}")
        if i in idx[:k]:
            raise PreconditionFailed(f"--f-indices: index {i} is repeated")
    approx = {nm: j.poly for nm, j in problem.morphism.jets.items()}
    lp = LiftingProblem(ring, tuple(problem.relations), idx, approx,
                        rho, target)
    report = newton_lift(lp)
    if fmt == "machine":
        payload = {
            "e": report.e, "rho": report.rho, "nu": report.nu,
            "agreement": report.agreement,
            "update_orders": report.update_orders,
            "lifted": {nm: str(j.poly) for nm, j in report.lifted.items()},
        }
        return 0, json.dumps(payload, sort_keys=True) + "\n", ""
    out = (f"e = {report.e}, rho = {report.rho}, nu(c) = {report.nu}, "
           f"agreement = {report.agreement}\n")
    for nm, j in report.lifted.items():
        out += f"  {nm} = {j.poly} (precision {j.precision})\n"
    return 0, out, ""


def _cmd_check(pf, fmt):
    problem = pf.build()
    ring = problem.ring
    notes = []
    if ring.primes is None:
        primes = ring.with_minimal_primes().primes
        notes.append(f"minimal primes: {len(primes)} component(s)")
    else:  # pf.build() has validated them
        notes.append("supplied minimal primes validated")
    validate_morphism(problem.relations, problem.morphism, ring)
    notes.append("jets define a morphism modulo (x)^N")
    out = "\n".join(notes) + "\n"
    return 0, out, ""


def run_command(cmd, path, fmt="text", rho=None, target=None, f_indices=None,
                max_subset=None):
    """Dispatch a subcommand; returns (exit_code, stdout, stderr)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return 4, "", f"cannot read problem file: {exc}\n"
    try:
        pf = parse_problem(text)
        if max_subset is not None:
            if max_subset < 1:
                raise PreconditionFailed("--max-subset must be at least 1")
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
    except NeronError as exc:
        return exc.exit_code, "", exc.report()


def _parse_indices(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise PreconditionFailed(
            f"--f-indices: {text!r} is not a comma separated list of "
            f"integers") from None


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
        p.add_argument("--max-subset", type=int, default=None)
        p.add_argument("--format", choices=("text", "machine"),
                       default="text")
        if name == "lift":
            p.add_argument("--rho", type=int, default=None)
            p.add_argument("--target-precision", type=int, default=None)
            p.add_argument("--f-indices", type=str, default=None,
                           help="comma separated generator indices forming f")
    args = parser.parse_args(argv)
    try:
        f_indices = (_parse_indices(args.f_indices)
                     if getattr(args, "f_indices", None) else None)
    except NeronError as exc:
        code, out, err = exc.exit_code, "", exc.report()
    else:
        code, out, err = run_command(
            args.command, args.file, fmt=args.format,
            rho=getattr(args, "rho", None),
            target=getattr(args, "target_precision", None),
            f_indices=f_indices, max_subset=args.max_subset)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
