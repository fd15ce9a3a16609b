"""Command line driver: commands, formats, exit codes."""

import json
import subprocess
import sys

import pytest

from neron.cli import emit_trace, parse_trace, run_command

GOLDEN = "problems/example4.gnd"
TOO_SMALL = "problems/example4_N4.gnd"
HYPER = "problems/example1_hypersurface.gnd"
CURVE = "problems/example21.gnd"


def test_desing_text_output_contains_trace_lines():
    code, out, err = run_command("desing", GOLDEN, fmt="text")
    assert code == 0, err
    assert "11. e = 1" in out.splitlines()
    assert "7. R = x1 + x2" in out
    assert "16. p = 1; g = T1" in out
    assert "jet factorization verified" in out


def test_desing_machine_format_round_trips():
    code, out, err = run_command("desing", GOLDEN, fmt="machine")
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if ln.startswith('{"')]
    trace_lines = [json.loads(ln) for ln in lines if "label" in ln]
    assert [rec["line"] for rec in trace_lines] == list(range(1, 20))
    blob = ("\n".join(ln for ln in lines if "label" in ln) + "\n").encode()
    assert parse_trace(blob) == trace_lines


def test_trace_emit_empty():
    assert emit_trace([], "text") == b""
    assert emit_trace([], "machine") == b""


def test_bound_too_small_exit_code_and_message():
    code, out, err = run_command("desing", TOO_SMALL)
    assert code == 2
    assert err.strip() == "the algorithm fails since the bound N is too small"


# the two monomial relations admit no passing subsystem
NO_SUBSYSTEM = """
    ring { field Q; vars x1 x2; relations x1*x2; }
    algebra { vars Y1 Y2; relations x2*Y1, x1*Y2; }
    morphism { precision 8;
      Y1 = x1 + x1^2 + x1^3;
      Y2 = x2 - x2^3; }
    minprimes { x1 | x2 }
    """


def _run_text(text):
    import os
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".gnd", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        return run_command("desing", path)
    finally:
        os.unlink(path)


def test_parse_error_exit_code():
    code, out, err = _run_text("ring { field Q vars x }")
    assert code == 4
    assert "parse error" in err


def test_missing_file_exit_code():
    code, out, err = run_command("desing", "problems/no_such_file.gnd")
    assert code == 4


def test_condition_failure_exit_code():
    code, out, err = _run_text(NO_SUBSYSTEM)
    assert code == 3
    assert "ConditionStarStarFailed" in err


def test_condition_failure_lists_diagnostics_on_stderr():
    code, out, err = _run_text(NO_SUBSYSTEM)
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert lines[0] == ("ConditionStarStarFailed: no generator subset passes "
                        "the evaluated Jacobian test at this precision")
    reason = "no product survives modulo this prime"
    assert lines[1:] == [f"  subset [0], prime 1: {reason}",
                         f"  subset [1], prime 0: {reason}",
                         f"  subset [0, 1], prime 0: {reason}"]


def test_hba_space_curve_contains_fitting_witness():
    code, out, err = run_command("hba", CURVE)
    assert code == 0, err
    # the scaled minor x2^2*Y2 enters through the colon witness x2
    assert any("x2^3*Y2" in line for line in out.splitlines())


def test_check_command():
    code, out, err = run_command("check", GOLDEN)
    assert code == 0, err
    assert "morphism" in out


def test_lift_command_on_hypersurface():
    code, out, err = run_command("lift", HYPER, rho=1, target=20,
                                 f_indices=(0,))
    assert code == 0, err
    assert "agreement" in out


def test_cli_main_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "neron.cli", "desing", GOLDEN,
         "--format", "text"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "11. e = 1" in proc.stdout
    proc2 = subprocess.run(
        [sys.executable, "-m", "neron.cli", "desing", TOO_SMALL],
        capture_output=True, text=True)
    assert proc2.returncode == 2
    assert proc2.stderr.strip() == \
        "the algorithm fails since the bound N is too small"


def test_exit_codes_never_zero_on_error():
    # taxonomy: every mapped error class produces a nonzero code
    from neron.cli import _CERTIFICATE_ERRORS, _CONDITION_ERRORS
    assert all(issubclass(e, Exception) for e in _CONDITION_ERRORS)
    assert all(issubclass(e, Exception) for e in _CERTIFICATE_ERRORS)
