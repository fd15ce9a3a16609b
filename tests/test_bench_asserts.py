"""The microbenchmarks in bench/ assert their operand and product sizes and
that every kernel computes the same product.  This runs them once each,
with timing off, so those asserts hold on every tier-1 run; the directory
lies outside ``testpaths``, so it is run as its own pytest process."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_bench_asserts_hold():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "--benchmark-disable",
         "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
