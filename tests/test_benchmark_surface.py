"""The library surface that the frozen benchmark in perfbench/ reads.

Every traced function and method must still resolve, and one op of each
workload must still solve, so a deletion cannot silently break a workload
or drop a traced layer.  The tracer itself is not installed: it rewraps
module attributes for the whole process.
"""

import importlib
import os
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
