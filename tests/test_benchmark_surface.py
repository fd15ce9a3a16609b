"""The library surface that the frozen benchmark in perfbench/ reads.

Every traced function and method must still resolve, one op of each
workload must still solve, and the benchmark's own test must pass, so a
deletion cannot silently break a workload or drop a traced layer.  The
tracer rewraps module attributes for the whole process, so it is
installed only in a pass of its own process.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, attr, name", tracing.FUNCTIONS,
                         ids=[name for _, _, name in tracing.FUNCTIONS])
def test_traced_function_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, methods, name", tracing.METHODS,
                         ids=[name for _, _, _, name in tracing.METHODS])
def test_traced_method_resolves(module, cls, methods, name):
    klass = getattr(importlib.import_module(module), cls)
    for method in methods:
        assert callable(getattr(klass, method))


def test_one_op_of_each_workload_solves():
    inputs = workloads.Inputs(os.path.join(PERFBENCH, os.pardir))
    ops = {op.op_id: op for op in (workloads.seeds_ops(inputs, [17])
                                   + workloads.lift_ops(inputs)
                                   + workloads.cli_ops(inputs))}
    rejections = workloads.rejection_types()
    for op_id in ("seed-17", "lift-0", "check:example4"):
        _, outcome, _ = workloads.timed(ops[op_id], rejections)
        assert outcome == "solved", op_id


def test_frozen_inputs_test_passes():
    """``perfbench/test_frozen_inputs.py`` prints with ``format_poly(p,
    order)`` and reads ``DesingProblem.seed``, and its generator builds
    with ``Polynomial.from_terms``.  The file lies outside ``testpaths``,
    so it runs as its own pytest process."""
    root = os.path.join(PERFBENCH, os.pardir)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/test_frozen_inputs.py",
         "-q", "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_traced_cli_pass_matches_the_untraced_one():
    """One ``cli`` pass with the tracer installed and one without, each in
    a fresh process: the tracer finds every name it reads (``terms``,
    ``TermOrder.key``, ``spoly``, ...), and each op ends the same way and
    prints the same bytes under it."""
    root = os.path.join(PERFBENCH, os.pardir)
    passes = []
    for trace in ("1", "0"):
        proc = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "passrun.py"), root,
             "cli", "-1", trace],
            cwd=root, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        passes.append(json.loads(proc.stdout.splitlines()[-1]))
    traced, plain = passes
    assert traced["missing"] == []
    assert ([(op["id"], op["outcome"], op["digest"]) for op in traced["ops"]]
            == [(op["id"], op["outcome"], op["digest"])
                for op in plain["ops"]])
