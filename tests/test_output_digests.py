"""Byte-stable machine output: pinned stdout digests of the shipped problems.

Each entry pins the exit code and the sha256 of stdout of
``run_command(cmd, path, fmt="machine")``.  A change to any digest means the
machine format or a computed value changed; refactors must leave them as
they are.
"""

import glob
import hashlib
import os

import pytest

from neron.cli import run_command

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

PINNED = {
    ("desing", "example1_hypersurface.gnd"):
        (0, "36f8d1e9cb2dd482d1ead925cbba7f903540f8c97f81207c6dda9ce3204c4699"),
    ("hba", "example1_hypersurface.gnd"):
        (0, "407c5cf09e7f4dfc21d207cc7d201010a53384833004dc551d7d99f0ca1c03ef"),
    ("desing", "example21.gnd"): (3, EMPTY),
    ("hba", "example21.gnd"):
        (0, "dad64833ab9e959c8ff59b3eeb87f418c773f82e7bf8e246b9430e224b45328d"),
    ("desing", "example4.gnd"):
        (0, "aa3d416a42f7b354211f7c916d68c75fee9a269be8ab3eac2d3fdf5294d886fe"),
    ("hba", "example4.gnd"):
        (0, "c13f80359a66ce9599d86f7290f235a5d729c7ea5bea915d6871384daf8549e7"),
    ("desing", "example4_N4.gnd"): (2, EMPTY),
    ("hba", "example4_N4.gnd"):
        (0, "c13f80359a66ce9599d86f7290f235a5d729c7ea5bea915d6871384daf8549e7"),
}


def test_every_problem_file_is_pinned():
    shipped = {os.path.basename(p)
               for p in glob.glob(os.path.join(PROBLEMS, "*.gnd"))}
    for cmd in ("desing", "hba"):
        assert {name for c, name in PINNED if c == cmd} == shipped


@pytest.mark.parametrize("cmd,name", sorted(PINNED))
def test_machine_stdout_digest(cmd, name):
    code, out, _ = run_command(cmd, os.path.join(PROBLEMS, name),
                               fmt="machine")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == PINNED[(cmd, name)]
