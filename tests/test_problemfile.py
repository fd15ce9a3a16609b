"""Problem file grammar: parsing, validation, round trips."""

import glob

import pytest

from neron.errors import PolyParseError
from neron.problemfile import parse_problem, print_problem

MINIMAL = """
ring { field Q; vars x1 x2; relations x1*x2; }
algebra { vars Y1 Y2; relations x2*Y1 - x1*Y2; }
morphism { precision 4; Y1 = x1; Y2 = x2; }
"""


def test_parse_minimal():
    pf = parse_problem(MINIMAL)
    assert pf.base_vars == ("x1", "x2")
    assert pf.y_vars == ("Y1", "Y2")
    assert pf.precision == 4
    assert pf.max_subset == 3
    prob = pf.build()
    assert len(prob.relations) == 1


def test_parse_all_shipped_files():
    files = sorted(glob.glob("problems/*.gnd"))
    assert len(files) >= 4
    for path in files:
        with open(path) as fh:
            pf = parse_problem(fh.read())
        assert pf.precision >= 1


def test_round_trip_print_parse():
    for path in sorted(glob.glob("problems/*.gnd")):
        with open(path) as fh:
            pf = parse_problem(fh.read())
        text = print_problem(pf)
        pf2 = parse_problem(text)
        assert print_problem(pf2) == text
        assert pf2.base_vars == pf.base_vars
        assert pf2.y_vars == pf.y_vars
        assert pf2.precision == pf.precision
        assert pf2.minprime_texts == () or pf.minprime_texts != ()


def test_empty_relations_accepted():
    text = """
    ring { field Q; vars x; }
    algebra { vars Y1; relations Y1 - x; }
    morphism { precision 3; Y1 = x; }
    """
    pf = parse_problem(text)
    assert pf.j_texts == ()
    prob = pf.build()
    assert prob.ring.j_gens == ()


def test_jet_degree_at_precision_rejected_with_position():
    text = """
    ring { field Q; vars x; }
    algebra { vars Y1; relations Y1 - x; }
    morphism { precision 3; Y1 = x^3; }
    """
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert info.value.line is not None
    assert "degree" in str(info.value)


def test_undeclared_variable_rejected():
    text = """
    ring { field Q; vars x; }
    algebra { vars Y1; relations Y2 - x; }
    morphism { precision 3; Y1 = x; }
    """
    with pytest.raises(PolyParseError):
        parse_problem(text)


def test_syntax_error_carries_line_and_column():
    text = "ring { field Q vars x; }"
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert info.value.line == 1


def test_non_rational_field_rejected():
    text = """
    ring { field F7; vars x; }
    algebra { vars Y1; relations Y1; }
    morphism { precision 2; Y1 = x; }
    """
    with pytest.raises(PolyParseError):
        parse_problem(text)


def test_missing_jet_rejected():
    text = """
    ring { field Q; vars x; }
    algebra { vars Y1 Y2; relations Y1 - x; }
    morphism { precision 3; Y1 = x; }
    """
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert "Y2" in str(info.value)


def test_minprimes_groups():
    text = MINIMAL.replace("morphism",
                           "minprimes { x1 | x2 }\nmorphism")
    pf = parse_problem(text)
    assert pf.minprime_texts == (("x1",), ("x2",))
    prob = pf.build()
    assert len(prob.ring.primes) == 2


def test_poly_error_reports_its_position_in_the_file():
    text = ("ring { field Q; vars x1 x2; relations x1*x2; }\n"
            "algebra {\n"
            "  vars Y1 Y2;\n"
            "  relations Y1 - q7, x2*Y1 - x1*Y2;\n"
            "}\n"
            "morphism { precision 4; Y1 = x1; Y2 = x2; }\n")
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert "undeclared variable 'q7'" in str(info.value)
    assert (info.value.line, info.value.col) == (4, 18)


def test_trailing_input_reported_at_the_statement_end():
    text = MINIMAL.replace("Y1 = x1;", "Y1 = x1 x2;")
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert "trailing input 'x2'" in str(info.value)
    assert (info.value.line, info.value.col) == (4, 33)
