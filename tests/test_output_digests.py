"""Byte-stable output: pinned digests of the commands on the shipped problems.

Each ``PINNED`` entry pins the exit code and the sha256 of stdout of
``run_command(cmd, path, fmt="machine")``.  Each ``CLI_PINNED`` entry pins
the exit code and the sha256 of stdout and of stderr of one command the
benchmark's ``cli`` workload runs, in its format.  A change to any digest
means an output format or a computed value changed; refactors must leave
them as they are.
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
        (0, "1a8e13bc9c0d56ee4d75e7c0c62c4d416dc868cd135373d0ae2865a3759bad98"),
    ("hba", "example1_hypersurface.gnd"):
        (0, "407c5cf09e7f4dfc21d207cc7d201010a53384833004dc551d7d99f0ca1c03ef"),
    ("desing", "example21.gnd"): (3, EMPTY),
    ("hba", "example21.gnd"):
        (0, "dad64833ab9e959c8ff59b3eeb87f418c773f82e7bf8e246b9430e224b45328d"),
    ("desing", "example4.gnd"):
        (0, "640b567030f53f047b297e4183712eea864d3b594ff7089e8b7ac0cdf03ddd4f"),
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


# (command, format, file) -> (exit code, sha256 of stdout, sha256 of stderr)
CLI_PINNED = {
    ("check", "text", "example1_hypersurface.gnd"):
        (0, "af101bda58115e0e1060a59fc12b819e0b20c2c7b63647691e2466034cd792bb",
         EMPTY),
    ("hba", "text", "example1_hypersurface.gnd"):
        (0, "fb8d4c2b7b138a3acbd8638867f1bf66db341c873c15ca99546d6e5074fc90c2",
         EMPTY),
    ("desing", "text", "example1_hypersurface.gnd"):
        (0, "5a2a2ce9016619c148998fad67d69c5bc9f896373a424e444f83b9aae2380751",
         EMPTY),
    ("desing", "machine", "example1_hypersurface.gnd"):
        (0, "1a8e13bc9c0d56ee4d75e7c0c62c4d416dc868cd135373d0ae2865a3759bad98",
         EMPTY),
    ("check", "text", "example21.gnd"):
        (3, EMPTY,
         "2b68ffa1cdc6df18e1aec55b06d74a56bcde89e09045346033acfe46fd2841de"),
    ("hba", "text", "example21.gnd"):
        (0, "4e0c68ea1bda3e742c2d55b3802c11806b699bf2edbee215dc69b9b6c96f84c1",
         EMPTY),
    ("desing", "text", "example21.gnd"):
        (3, EMPTY,
         "2b68ffa1cdc6df18e1aec55b06d74a56bcde89e09045346033acfe46fd2841de"),
    ("desing", "machine", "example21.gnd"):
        (3, EMPTY,
         "2b68ffa1cdc6df18e1aec55b06d74a56bcde89e09045346033acfe46fd2841de"),
    ("check", "text", "example4.gnd"):
        (0, "e4e0d42d0111e368f42f0a8bc7dd9aa487f71de5800eda0d826cd15b81ad7826",
         EMPTY),
    ("hba", "text", "example4.gnd"):
        (0, "db3cc19bd38c6cf80e28ae336117dba93bcf3683a732f634937208522069f82a",
         EMPTY),
    ("desing", "text", "example4.gnd"):
        (0, "eb6b91a63b5bb6063c740e149d3af1ec9d10fd26c06fdf709c4a95c5580b9d71",
         EMPTY),
    ("desing", "machine", "example4.gnd"):
        (0, "640b567030f53f047b297e4183712eea864d3b594ff7089e8b7ac0cdf03ddd4f",
         EMPTY),
    ("check", "text", "example4_N4.gnd"):
        (0, "e4e0d42d0111e368f42f0a8bc7dd9aa487f71de5800eda0d826cd15b81ad7826",
         EMPTY),
    ("hba", "text", "example4_N4.gnd"):
        (0, "db3cc19bd38c6cf80e28ae336117dba93bcf3683a732f634937208522069f82a",
         EMPTY),
    ("desing", "text", "example4_N4.gnd"):
        (2, EMPTY,
         "4a0c0ffec96cccf5df99d3d4cd34e0b5474d950c2c5231faa8e6860fb5411150"),
    ("desing", "machine", "example4_N4.gnd"):
        (2, EMPTY,
         "4a0c0ffec96cccf5df99d3d4cd34e0b5474d950c2c5231faa8e6860fb5411150"),
    ("lift", "text", "example1_hypersurface.gnd"):
        (0, "80273f8b3bc14d28da1212cf5992d924a04b14447202313560beaf78e6bbb4f5",
         EMPTY),
}
LIFT_ARGS = {"rho": 1, "target": 20, "f_indices": (0,)}


def test_every_cli_command_is_pinned():
    shipped = {os.path.basename(p)
               for p in glob.glob(os.path.join(PROBLEMS, "*.gnd"))}
    want = {(cmd, fmt, name) for name in shipped
            for cmd, fmt in (("check", "text"), ("hba", "text"),
                             ("desing", "text"), ("desing", "machine"))}
    want.add(("lift", "text", "example1_hypersurface.gnd"))
    assert set(CLI_PINNED) == want


@pytest.mark.parametrize("cmd,fmt,name", sorted(CLI_PINNED))
def test_cli_output_digests(cmd, fmt, name):
    extra = LIFT_ARGS if cmd == "lift" else {}
    code, out, err = run_command(cmd, os.path.join(PROBLEMS, name), fmt=fmt,
                                 **extra)
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == \
        CLI_PINNED[(cmd, fmt, name)]
