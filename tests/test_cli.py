"""Command line driver: commands, formats, exit codes."""

import json
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neron.poly
from conftest import random_certificate_instance
from neron import errors
from neron.cli import emit_trace, main, parse_trace, run_command
from neron.desing import desingularize

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


def _rewritten(path, tmp_path, old, new):
    """A copy of the problem file at ``path`` under ``tmp_path``, with the
    text matching the pattern ``old`` replaced by ``new``."""
    with open(path, encoding="utf-8") as fh:
        text = re.sub(old, new, fh.read())
    out = tmp_path / path.split("/")[-1]
    out.write_text(text, encoding="utf-8")
    return str(out)


# exit codes of check, hba and desing with the precision set to 10^29.
# Precision bounds are decided by a staircase walk bounded by the
# colength, never by N; example4's verify jets stop at degree 23, so they
# do not extend its jets below N.
HUGE = (r"precision \d+;", f"precision {10 ** 29};")
HUGE_PRECISION_EXITS = {HYPER: (3, 0, 3), CURVE: (3, 0, 3),
                        GOLDEN: (3, 0, 3), TOO_SMALL: (0, 0, 0)}


@pytest.mark.parametrize("path", list(HUGE_PRECISION_EXITS))
@pytest.mark.parametrize("k, cmd", enumerate(("check", "hba", "desing")))
def test_huge_precision_ends_in_a_typed_outcome(tmp_path, path, k, cmd):
    code, out, err = run_command(cmd, _rewritten(path, tmp_path, *HUGE))
    assert code == HUGE_PRECISION_EXITS[path][k], err


def test_huge_precision_jet_division_at_stage_9_is_typed(tmp_path):
    """At precision 10^29 with jets Y1 = Y2 = x, stage 9 tries d' = 1 at
    once, and ``jet_divide`` would need one unknown per standard monomial
    below N, more than can be listed: a precondition failure naming the
    precision, exit 3, and not NotDivisible, which would send stage 9
    through its candidates for every degree below N."""
    path = _rewritten(HYPER, tmp_path, r"precision \d+;\s*Y1 = [^;]*;"
                      r"\s*Y2 = [^;]*;",
                      f"precision {10 ** 29}; Y1 = x; Y2 = x;")
    code, out, err = run_command("desing", path)
    assert code == 3 and out == ""
    assert err.startswith("PreconditionFailed: jet division at precision "
                          f"{10 ** 29} ")


# the square root of 1 + x: d = 2*Y1 is a unit at the jet
SQRT = """
    ring { field Q; vars x; }
    algebra { vars Y1; relations Y1^2 - 1 - x; }
    morphism { precision 4; Y1 = 1 + 1/2*x - 1/8*x^2 + 1/16*x^3; }
    """


class _DeadlinePassed(Exception):
    pass


def _raise_deadline(signum, frame):
    raise _DeadlinePassed()


def test_lift_to_a_huge_target_with_a_unit_d_is_typed(tmp_path, capsys):
    """Dividing by the unit d at a target c of 10^29 would solve one degree
    at a time below c + 1, the precision of the lift's jets when d has
    order 0: a precondition failure naming that precision, exit 3, within
    an interval timer that turns a run without end into a failure."""
    path = tmp_path / "sqrt.gnd"
    path.write_text(SQRT, encoding="utf-8")
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        code = main(["lift", str(path), "--rho", "1",
                     "--target-precision", str(10 ** 29)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("PreconditionFailed: jet division by a "
                                   f"unit at precision {10 ** 29 + 1} ")


@pytest.mark.parametrize("old, new", [
    HUGE, (r"verify Y1 = x1 \+ x1\^2", "verify Y1 = x1 + 2*x1^2")])
def test_a_verify_jet_that_does_not_extend_its_jet_is_refused(
        tmp_path, old, new):
    """check and desing agree: a verify jet that differs from its morphism
    jet below N is a precondition failure, exit 3, before any basis work
    of desing."""
    path = _rewritten(GOLDEN, tmp_path, old, new)
    for cmd in ("check", "desing"):
        code, out, err = run_command(cmd, path)
        assert code == 3
        assert err.startswith("PreconditionFailed: verification jet for Y1 "
                              "does not extend")


# the two monomial relations admit no passing subsystem
NO_SUBSYSTEM = """
    ring { field Q; vars x1 x2; relations x1*x2; }
    algebra { vars Y1 Y2; relations x2*Y1, x1*Y2; }
    morphism { precision 8;
      Y1 = x1 + x1^2 + x1^3;
      Y2 = x2 - x2^3; }
    minprimes { x1 | x2 }
    """


def _run_text(text, cmd="desing"):
    """Run ``cmd`` on a temporary problem file holding ``text``, a str or
    raw bytes."""
    import os
    import tempfile
    data = text if isinstance(text, bytes) else text.encode()
    with tempfile.NamedTemporaryFile("wb", suffix=".gnd", delete=False) as fh:
        fh.write(data)
        path = fh.name
    try:
        return run_command(cmd, path)
    finally:
        os.unlink(path)


def test_parse_error_exit_code():
    code, out, err = _run_text("ring { field Q vars x }")
    assert code == 4
    assert "parse error" in err


_BAD_RING = """ring {{ field Q; vars {vars}; {relations} }}
algebra {{ vars Y1; relations Y1 - x1; }}
morphism {{ precision 5; Y1 = x1; }}
{minprimes}"""


def _bad_ring(relations="relations x1*x2;", minprimes="", vars="x1 x2"):
    return _BAD_RING.format(vars=vars, relations=relations,
                            minprimes=minprimes)


HYPOTHESIS_VIOLATIONS = {
    "J = (1)": (_bad_ring("relations 1;"),
                "relation ideal is not contained in (x)"),
    "dimension 2": (_bad_ring("", vars="x1 y"),
                    "base ring has local dimension 2, not 1"),
    "{ x1 | }": (_bad_ring(minprimes="minprimes { x1 | }"),
                 "intersection of supplied primes is not in the radical "
                 "of J"),
    "{ Y1 }": (_bad_ring(minprimes="minprimes { Y1 }"),
               "minimal primes must live in the base block"),
    "{ 1 | x2 }": (_bad_ring(minprimes="minprimes { 1 | x2 }"),
                   "a supplied prime is the unit ideal"),
    "{ x1 | x2 + Y1 }": (_bad_ring(minprimes="minprimes { x1 | x2 + Y1 }"),
                         "minimal primes must live in the base block"),
}


@pytest.mark.parametrize("case", list(HYPOTHESIS_VIOLATIONS))
def test_a_violated_ring_hypothesis_exits_3(case):
    """A base ring or prime list that breaks a stated hypothesis is a
    PreconditionFailed, exit 3, not an internal failure (exit 5)."""
    text, message = HYPOTHESIS_VIOLATIONS[case]
    code, out, err = _run_text(text, "check")
    assert (code, out) == (3, "")
    assert err == f"PreconditionFailed: {message}\n"


def test_coeffext_section_rejected():
    # coefficient extensions are not implemented; a file that asks for one
    # is refused instead of run as if the section were absent
    with open(GOLDEN) as fh:
        text = fh.read() + "coeffext { vars U1; relations 1; }\n"
    code, out, err = _run_text(text)
    assert code == 4
    assert out == ""
    assert "unknown section 'coeffext'" in err


def test_poly_parse_error_exit_code_names_its_position():
    text = ("ring { field Q; vars x1 x2; relations x1*x2; }\n"
            "algebra {\n"
            "  vars Y1 Y2;\n"
            "  relations Y1 - q7, x2*Y1 - x1*Y2;\n"
            "}\n"
            "morphism { precision 4; Y1 = x1; Y2 = x2; }\n")
    code, out, err = _run_text(text)
    assert code == 4 and out == ""
    assert err == "parse error: undeclared variable 'q7' (line 4, col 18)\n"


MISPLACED_BASE = """ring { field Q; vars x1 x2; relations x1*x2; }
algebra { vars Y1 Y2; relations x2*Y1 - x1*Y2; }
morphism { precision 4; Y1 = x1; Y2 = x2; }
options { max_subset 3; }
"""


# one statement each section does not accept, and where it stands
@pytest.mark.parametrize("section, statement, position", [
    ("ring", "precision 3;", (1, 46)),
    ("algebra", "Y1 = x1;", (2, 48)),
    ("morphism", "relations x1;", (3, 43)),
    ("options", "seed 42;", (4, 25)),
])
def test_misplaced_statement_rejected(section, statement, position):
    lines = MISPLACED_BASE.splitlines(keepends=True)
    row = [ln.split()[0] for ln in lines].index(section)
    lines[row] = lines[row].replace("}", statement + " }")
    code, out, err = _run_text("".join(lines))
    assert code == 4 and out == ""
    keyword = statement.split()[0]
    assert err == (f"parse error: statement {keyword!r} is not allowed in "
                   f"section {section!r} (line {position[0]}, "
                   f"col {position[1]})\n")


# jets that do not define a morphism: x2*Y1 - x1*Y2 -> -x1^2 modulo x1*x2
NOT_A_MORPHISM = """
    ring { field Q; vars x1 x2; relations x1*x2; }
    algebra { vars Y1 Y2; relations x2*Y1 - x1*Y2; }
    morphism { precision 4; Y1 = x1; Y2 = x1; }
    """


@pytest.mark.parametrize("cmd", ["desing", "check"])
def test_not_a_morphism_is_a_precondition_failure(cmd):
    code, out, err = _run_text(NOT_A_MORPHISM, cmd)
    assert code == 3 and out == ""
    assert err.startswith("PreconditionFailed: the jets do not define a "
                          "morphism")


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


def test_lift_machine_format_payload():
    code, out, err = run_command("lift", HYPER, fmt="machine", rho=1,
                                 target=20, f_indices=(0,))
    assert code == 0, err
    payload = json.loads(out)
    assert set(payload) == {"e", "rho", "nu", "agreement", "update_orders",
                            "lifted"}
    assert payload["rho"] == 1 and set(payload["lifted"]) == {"Y1", "Y2"}


@pytest.mark.parametrize("f_indices, message", [
    ((1,), "index 1 is out of range 0..0"),
    ((-1,), "index -1 is out of range 0..0"),
    ((0, 0), "index 0 is repeated"),
], ids=["past-the-last", "negative", "repeated"])
def test_lift_rejects_a_bad_f_index(f_indices, message):
    code, out, err = run_command("lift", HYPER, rho=1, target=12,
                                 f_indices=f_indices)
    assert (code, out) == (3, "")
    assert err == f"PreconditionFailed: --f-indices: {message}\n"


@pytest.mark.parametrize("path, options, message", [
    (GOLDEN, ["--rho", "1", "--target-precision", "12"],
     "the subsystem f has 3 relations but there are only 2 algebra "
     "variables"),
    (HYPER, ["--rho", "-1", "--target-precision", "12"],
     "rho = -1 is negative"),
    (HYPER, ["--rho", "1", "--target-precision", "0"],
     "target precision 0 is below 1"),
    (HYPER, ["--rho", "1", "--target-precision", "12", "--f-indices", "x"],
     "--f-indices: 'x' is not a comma separated list of integers"),
], ids=["more-relations-than-variables", "negative-rho", "zero-target",
        "non-integer-f-index"])
def test_lift_rejects_bad_values_with_exit_3(path, options, message, capsys):
    assert main(["lift", path] + options) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"PreconditionFailed: {message}\n")


def test_main_passes_f_indices_to_lift(capsys, monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["f_indices"])
        return run_command(*args, **kwargs)

    monkeypatch.setattr("neron.cli.run_command", spy)
    assert main(["lift", HYPER, "--rho", "1", "--target-precision", "12",
                 "--f-indices", "0"]) == 0
    assert seen == [(0,)]
    expected = run_command("lift", HYPER, rho=1, target=12, f_indices=(0,))
    assert capsys.readouterr().out == expected[1]


def test_max_subset_override_reaches_the_pipeline():
    def subsets(max_subset):
        code, out, err = run_command("hba", GOLDEN, fmt="machine",
                                     max_subset=max_subset)
        assert code == 0, err
        return json.loads(out)["subsets"]

    assert max(map(len, subsets(None))) == 2
    assert subsets(1) == [[0], [1], [2]]


def test_max_subset_below_one_in_the_file_is_a_parse_error():
    code, out, err = _run_text(MISPLACED_BASE.replace("max_subset 3",
                                                      "max_subset 0"))
    assert (code, out) == (4, "")
    assert err == ("parse error: max_subset must be at least 1 "
                   "(line 4, col 11)\n")


@pytest.mark.parametrize("cmd", ["hba", "desing"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_subset_below_one_is_a_precondition_failure(cmd, value, capsys):
    assert main([cmd, GOLDEN, "--max-subset", value]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "PreconditionFailed: --max-subset must be at least 1\n")


def test_unknown_command_exit_code():
    assert run_command("frobnicate", GOLDEN) == \
        (4, "", "unknown command 'frobnicate'\n")


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


def _error_classes(cls=errors.NeronError):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _error_classes(sub)
    return out


# exit code 3: a hypothesis or search condition failed (cli module docstring)
CONDITION_ERRORS = {
    "ConditionStarStarFailed", "HypothesisViolated", "ActiveElementNotFound",
    "TargetInsidePrime", "CompletionFailed", "PreconditionFailed",
    "NoContraction", "DivisionFailed", "DivisibilityViolated", "NotDivisible",
    "DecompositionIncomplete", "NotAUnit"}


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_exit_code_of_every_error(cls, monkeypatch):
    exc = cls() if cls is errors.BoundTooSmall else cls("boom")

    def fail(text):
        raise exc

    monkeypatch.setattr("neron.cli.parse_problem", fail)
    code, out, err = run_command("check", GOLDEN)
    name = cls.__name__
    expected = (2 if name == "BoundTooSmall" else
                3 if name in CONDITION_ERRORS else
                4 if name == "PolyParseError" else 5)
    assert (code, out) == (expected, "")
    if code in (3, 5):
        assert err.startswith(f"{name}: boom")


def _with_relation(relation):
    """A problem file whose algebra relation is ``relation`` (line 2)."""
    return ("ring { field Q; vars x1 x2; relations x1*x2; }\n"
            f"algebra {{ vars Y1; relations {relation}; }}\n"
            "morphism { precision 4; Y1 = x1; }\n")


NOT_UTF8 = b"ring { field Q; vars x\xff1; }\n"
DEEP_PARENS = _with_relation("(" * 400 + "Y1" + ")" * 400)
DEEP_MINUS = _with_relation("-" * 1200 + "Y1")
# a digit that int() cannot read
SUPERSCRIPT = _with_relation("Y1 - \u00b2")
# 5 000 digits, past the 4 300 that int() reads by default
LONG_LITERAL = _with_relation("Y1 - " + "7" * 5000)


def test_a_file_that_is_not_utf8_is_unreadable():
    code, out, err = _run_text(NOT_UTF8, "check")
    assert (code, out) == (4, "")
    assert err == ("cannot read problem file: 'utf-8' codec can't decode "
                   "byte 0xff in position 22: invalid start byte\n")


@pytest.mark.parametrize("text, opener", [(DEEP_PARENS, "("),
                                          (DEEP_MINUS, "-")],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_parse_error_at_its_token(text, opener):
    """The error names the token where parsing stopped, which lies inside
    the run of openers; the recursion limit decides which one."""
    code, out, err = _run_text(text, "check")
    assert (code, out) == (4, "")
    match = re.fullmatch(r"parse error: expression nested too deeply "
                         r"\(line 2, col (\d+)\)\n", err)
    assert match, err
    assert text.splitlines()[1][int(match[1]) - 1] == opener


@pytest.mark.parametrize("last, code", [("4", 0), ("5", 3)])
def test_long_integer_literals_are_read_exactly(last, code):
    """2 * 77...7 (5 000 sevens) is 155...54: the relation vanishes at
    Y1 = x1 only when each digit is read."""
    text = _with_relation("2*" + "7" * 5000 + "*Y1 - 1" + "5" * 4999 + last
                          + "*x1")
    assert _run_text(text, "check")[0] == code


# the problem-file syntax, a token at a time
_SOUP = ("ring", "algebra", "morphism", "options", "minprimes", "field",
         "vars", "relations", "precision", "verify", "max_subset", "Q", "x1",
         "x2", "Y1", "0", "1", "2", "7", "{", "}", ";", "=", "|", ",", "+",
         "-", "*", "^", "(", ")", "/", "#", "\n")


@settings(max_examples=200, deadline=2000)
@example(NOT_UTF8)
@example(DEEP_PARENS.encode())
@example(DEEP_MINUS.encode())
@example(SUPERSCRIPT.encode())
@example(LONG_LITERAL.encode())
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_SOUP), max_size=60).map(
        lambda tokens: " ".join(tokens).encode())))
def test_check_never_raises_on_a_malformed_file(data):
    """Arbitrary bytes and token soup end in a documented exit code, with
    nothing on stdout unless the check passed."""
    code, out, err = _run_text(data, "check")
    assert code in (0, 2, 3, 4, 5)
    assert code == 0 or out == ""


def test_printing_happens_at_the_edge(monkeypatch):
    """``desingularize`` prints nothing, and a ``desing`` command renders
    each polynomial it prints once, however often the text is read.  The
    spy replaces ``format_poly`` in every module that binds it."""
    printed = []
    format_poly = neron.poly.format_poly

    def spy(p, order):
        printed.append(p)       # kept alive, so each id names one object
        return format_poly(p, order)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "neron"
                and getattr(module, "format_poly", None) is format_poly):
            monkeypatch.setattr(module, "format_poly", spy)
    desingularize(random_certificate_instance(17))
    assert printed == []
    for fmt in ("text", "machine"):
        code, out, err = run_command("desing", HYPER, fmt)
        assert code == 0, err
        assert printed and len({id(p) for p in printed}) == len(printed)
        printed.clear()
