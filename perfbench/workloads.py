"""The benchmark's workloads: their ops, the timed calls and the checks.

Each op is one call into a public ``neron`` function.  The call alone is
timed; the check of its answer runs afterwards, outside the timed interval.
Every op ends with exactly one outcome:

* ``solved``            the answer passed its check;
* ``rejected:<Error>``  a typed hypothesis or condition error was raised;
* ``timeout``           the per-op deadline fired (charged at the deadline);
* ``failed:<reason>``   anything else, including an answer that fails its
                        check.

Calls go through module attributes (``neron.desing.desingularize``), so the
tracer's wrappers are used when they are installed.
"""

import gc
import glob
import hashlib
import os
import signal
import time

# Generator instances of the ``seeds`` workload: an unbroken range of the
# certificate generator, sized so that one pass takes about 6 s and a run
# can hold four passes.  Seeds 9, 14 and 31 run for 40 s to over 400 s;
# ``--census`` runs the whole range 0-31 under the deadline and prints
# every outcome.
SEEDS_RANGE = range(17, 28)
# The generator's whole range, run by the ``lift`` workload and the census.
ALL_SEEDS = range(0, 32)
LIFT_TARGET = 80

# Per-op deadline: four times the slowest solving op (about 4 s) and well
# below the fastest seed known not to finish in time (seed 14, about 42 s).
DEADLINE_S = 15.0

# Typed rejections: the inputs lie outside the algorithm's hypotheses.
REJECTION_NAMES = (
    "ConditionStarStarFailed", "HypothesisViolated", "ActiveElementNotFound",
    "TargetInsidePrime", "CompletionFailed", "PreconditionFailed",
    "NoContraction", "DivisionFailed", "DivisibilityViolated", "NotDivisible",
    "JetDivisionFailed", "DecompositionIncomplete", "NotAUnit",
    "SeparabilityFailure", "BoundTooSmall")


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Op:
    """One timed call: ``run()`` returns a value that ``check(value)``
    turns into an outcome and, for CLI ops, a stdout digest."""

    def __init__(self, op_id, run, check):
        self.op_id = op_id
        self.run = run
        self.check = check


def rejection_types():
    import neron.errors as errors
    return tuple(getattr(errors, n) for n in REJECTION_NAMES
                 if hasattr(errors, n))


def timed(op, rejections, deadline=DEADLINE_S):
    """Run one op under the deadline; returns (seconds, outcome, digest).

    A full garbage collection before the timer starts keeps the previous
    op's garbage from being collected on this op's time.
    """
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    value = None
    outcome = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            value = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
    except DeadlineExceeded:
        return deadline, "timeout", None
    except rejections as exc:
        elapsed = time.perf_counter() - t0
        outcome = "rejected:" + type(exc).__name__
    except Exception as exc:  # any other error is the op's outcome
        elapsed = time.perf_counter() - t0
        outcome = "failed:" + type(exc).__name__
    finally:
        signal.signal(signal.SIGALRM, previous)
    if outcome is not None:
        return elapsed, outcome, None
    try:
        outcome, digest = op.check(value)
    except Exception as exc:  # a check that cannot complete is a failure
        outcome, digest = "failed:check-" + type(exc).__name__, None
    return elapsed, outcome, digest


# ---------------------------------------------------------------------------
# set-up shared by all workloads

class Inputs:
    """Generator instances and the problem file list, made before any op."""

    def __init__(self, root):
        from instances import random_certificate_instance
        self.instances = {s: random_certificate_instance(s)
                          for s in ALL_SEEDS}
        self.problem_paths = sorted(
            glob.glob(os.path.join(root, "problems", "*.gnd")))


# ---------------------------------------------------------------------------
# seeds: desingularize on generator instances

def _seed_op(problem, seed):
    import neron.desing as desing

    def run():
        return desing.desingularize(problem)

    def check(result):
        # the library's own verifier re-checks every certificate identity
        desing.verify_certificate(result.certificate, result.algebra,
                                  result.morphism)
        return "solved", None

    return Op(f"seed-{seed}", run, check)


def seeds_ops(inputs, seed_range=SEEDS_RANGE):
    return [_seed_op(inputs.instances[s], s) for s in seed_range]


# ---------------------------------------------------------------------------
# lift: newton_lift on the same generator instances

def _lift_problem(problem, rho):
    import neron.lifting as lifting
    approx = {nm: j.poly for nm, j in problem.morphism.jets.items()}
    f_indices = tuple(range(len(problem.relations)))
    return lifting.LiftingProblem(problem.ring, tuple(problem.relations),
                                  f_indices, approx, rho, LIFT_TARGET)


def smallest_rho(problem, cap=8):
    """Smallest rho the hypothesis check accepts (0 when it raises)."""
    import neron.lifting as lifting
    for rho in range(cap + 1):
        try:
            if lifting.check_hypothesis(_lift_problem(problem, rho)):
                return rho
        except Exception:  # the op itself reports the typed error
            return rho
    return cap


def _lift_op(problem, seed, rho):
    import neron.lifting as lifting
    prob = _lift_problem(problem, rho)

    def run():
        return lifting.newton_lift(prob)

    def check(report):
        ring = problem.ring
        lifted = {nm: j.poly for nm, j in report.lifted.items()}
        for rel in problem.relations:
            val = ring.monomial_reduce(rel.substitute(lifted))
            if not ring.reduce_jet(val, LIFT_TARGET).is_zero():
                return "failed:relation-nonzero-mod-x^target", None
        return "solved", None

    return Op(f"lift-{seed}", run, check)


def lift_ops(inputs):
    return [_lift_op(inputs.instances[s], s,
                     smallest_rho(inputs.instances[s]))
            for s in ALL_SEEDS]


# ---------------------------------------------------------------------------
# cli: run_command in-process on every shipped problem file

def _cli_op(op_id, cmd, path, kwargs):
    import neron.cli as cli

    def run():
        return cli.run_command(cmd, path, **kwargs)

    def check(value):
        code, out, err = value
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code == 0:
            if not out:
                return "failed:empty-stdout", digest
            if kwargs.get("fmt") == "machine":
                records = cli.parse_trace(out.encode())
                if not records or "output" not in records[-1]:
                    return "failed:machine-output-unparsed", digest
            return "solved", digest
        # documented answers: 2 the precision bound is too small, 3 a
        # hypothesis or condition failed (stderr starts with the error name)
        if code == 2 and not out and err:
            return "rejected:BoundTooSmall", digest
        if code == 3 and not out and err:
            return "rejected:" + err.split(":", 1)[0].strip(), digest
        return f"failed:exit-{code}", digest

    return Op(op_id, run, check)


def cli_ops(inputs):
    ops = []
    for path in inputs.problem_paths:
        name = os.path.splitext(os.path.basename(path))[0]
        ops.append(_cli_op(f"check:{name}", "check", path, {}))
        ops.append(_cli_op(f"hba:{name}", "hba", path, {}))
        for fmt in ("text", "machine"):
            ops.append(_cli_op(f"desing-{fmt}:{name}", "desing", path,
                               {"fmt": fmt}))
    hyper = [p for p in inputs.problem_paths
             if os.path.basename(p) == "example1_hypersurface.gnd"]
    for path in hyper:
        ops.append(_cli_op("lift:example1_hypersurface", "lift", path,
                           {"rho": 1, "target": 20, "f_indices": (0,)}))
    return ops


def census_ops(inputs):
    return seeds_ops(inputs, ALL_SEEDS)


WORKLOADS = {"seeds": seeds_ops, "cli": cli_ops, "lift": lift_ops,
             "census": census_ops}

