"""Problem file grammar: parsing, validation, round trips."""

import glob

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neron.errors import PolyParseError
from neron.orders import ALGEBRA, BASE
from neron.poly import Polynomial, parse_poly
from neron.problemfile import parse_problem

MINIMAL = """
ring { field Q; vars x1 x2; relations x1*x2; }
algebra { vars Y1 Y2; relations x2*Y1 - x1*Y2; }
morphism { precision 4; Y1 = x1; Y2 = x2; }
"""


def test_parse_minimal():
    pf = parse_problem(MINIMAL)
    assert pf.table.block_names(BASE) == ("x1", "x2")
    assert pf.table.block_names(ALGEBRA) == ("Y1", "Y2")
    assert pf.precision == 4
    assert pf.max_subset == 3
    prob = pf.build()
    assert len(prob.relations) == 1


def test_long_scalars_parse_exactly():
    """Past CPython's 4 300-digit limit of int()."""
    big = "1" + "0" * 4999
    pf = parse_problem(MINIMAL.replace("precision 4;", f"precision {big};")
                       + f"options {{ max_subset {big}; }}\n")
    assert (pf.precision, pf.max_subset) == (10 ** 4999, 10 ** 4999)


def test_parse_all_shipped_files():
    files = sorted(glob.glob("problems/*.gnd"))
    assert len(files) >= 4
    for path in files:
        with open(path) as fh:
            pf = parse_problem(fh.read())
        assert pf.precision >= 1


def test_each_polynomial_is_parsed_once(monkeypatch):
    calls = []

    def counting_parse(table, text):
        calls.append(text)
        return parse_poly(table, text)

    monkeypatch.setattr("neron.problemfile.parse_poly", counting_parse)
    for path in sorted(glob.glob("problems/*.gnd")):
        calls.clear()
        with open(path) as fh:
            pf = parse_problem(fh.read())
        parsed = len(calls)
        pf.build()
        assert len(calls) == parsed, path
        assert parsed == (len(pf.j_gens) + len(pf.relations) + len(pf.jets)
                          + len(pf.verify) + sum(map(len, pf.minprimes)))


# (ring vars, J, minimal primes): base rings of local dimension 1
RINGS = (("x1", (), ""),
         ("x1 x2", ("x1*x2",), ""),
         ("x1 x2", ("x1*x2",), "x1 | x2"),
         ("x1 x2", ("x1^2 - x2^3",), ""))


@st.composite
def poly_texts(draw, names, max_deg):
    """A sum of terms, written with repeated factors and any signs, and
    the terms (coefficient, factor names) it is written from."""
    terms = draw(st.lists(st.tuples(
        st.fractions(-9, 9, max_denominator=4),
        st.lists(st.sampled_from(names), max_size=max_deg)), max_size=4))
    if not terms:
        return "0", terms
    return " ".join(
        f"{'-' if c < 0 else '+'} {abs(c)}" + "".join(f"*{n}" for n in mon)
        for c, mon in terms), terms


def drawn_value(T, terms):
    """The polynomial of drawn terms, built without the parser."""
    total = Polynomial.zero(T)
    for c, mon in terms:
        term = Polynomial.const(T, c)
        for n in mon:
            term = term * Polynomial.var(T, n)
        total = total + term
    return total


@st.composite
def problem_texts(draw):
    """A problem file and the fields it is written from."""
    base, j_gens, primes = draw(st.sampled_from(RINGS))
    xs = base.split()
    ys = [f"Y{i + 1}" for i in range(draw(st.integers(1, 2)))]
    precision = draw(st.integers(1, 5))
    relations = draw(st.lists(poly_texts(xs + ys, 3), max_size=2))
    jets = {y: draw(poly_texts(xs, precision - 1)) for y in ys}
    verify = {y: draw(poly_texts(xs, 6)) for y in ys if draw(st.booleans())}
    max_subset = draw(st.integers(1, 3))
    morphism = [f"precision {precision};"]
    morphism += [f"{y} = {text};" for y, (text, _) in jets.items()]
    morphism += [f"verify {y} = {text};" for y, (text, _) in verify.items()]
    texts = [text for text, _ in relations]
    sections = [
        f"ring {{ field Q; vars {base}; "
        + "".join(f"relations {g}; " for g in j_gens) + "}",
        f"algebra {{ vars {' '.join(ys)}; "
        + (f"relations {', '.join(texts)}; " if texts else "") + "}",
        "morphism { " + " ".join(morphism) + " }",
        f"options {{ max_subset {max_subset}; }}"]
    if primes:
        sections.append(f"minprimes {{ {primes} }}")
    fields = {"xs": tuple(xs), "ys": tuple(ys), "j_gens": j_gens,
              "primes": primes, "precision": precision,
              "max_subset": max_subset,
              "relations": [terms for _, terms in relations],
              "jets": {y: terms for y, (_, terms) in jets.items()},
              "verify": {y: terms for y, (_, terms) in verify.items()}}
    return "\n".join(draw(st.permutations(sections))) + "\n", fields


@settings(max_examples=60, deadline=None)
@given(problem_texts())
def test_generated_problem_round_trip(drawn):
    """Drawn fields, written as a problem file, parse back to themselves;
    each drawn polynomial is compared with its value built from its
    terms."""
    text, want = drawn
    pf = parse_problem(text)
    T = pf.table
    assert T.block_names(BASE) == want["xs"]
    assert T.block_names(ALGEBRA) == want["ys"]
    assert pf.precision == want["precision"]
    assert pf.max_subset == want["max_subset"]
    assert pf.j_gens == tuple(parse_poly(T, g) for g in want["j_gens"])
    assert pf.relations == tuple(drawn_value(T, terms)
                                 for terms in want["relations"])
    for key in ("jets", "verify"):
        assert getattr(pf, key) == {y: drawn_value(T, terms)
                                    for y, terms in want[key].items()}
    groups = want["primes"].split("|") if want["primes"] else []
    assert pf.minprimes == tuple(
        tuple(parse_poly(T, g) for g in group.split(",")) for group in groups)
    assert pf.build().max_subset == want["max_subset"]


def test_empty_relations_accepted():
    text = """
    ring { field Q; vars x; }
    algebra { vars Y1; relations Y1 - x; }
    morphism { precision 3; Y1 = x; }
    """
    pf = parse_problem(text)
    assert pf.j_gens == ()
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


def test_max_subset_below_one_rejected_with_position():
    text = MINIMAL + "options { max_subset 0; }\n"
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert "max_subset must be at least 1" in str(info.value)
    assert (info.value.line, info.value.col) == (5, 11)


_R = "ring { field Q; vars x; }\n"
_A = "algebra { vars Y1; }\n"
_M = "morphism { precision 3; Y1 = x; }\n"
PARSE_ERRORS = [
    ("", "missing ring section (line 1, col 1)"),
    (_R, "missing algebra section (line 1, col 1)"),
    (_R + _A, "missing morphism section (line 1, col 1)"),
    ("3 ring", "expected section name, got '3' (line 1, col 1)"),
    ("ring vars", "expected {, got 'vars' (line 1, col 6)"),
    ("ring { 3 }", "expected statement keyword, got '3' (line 1, col 8)"),
    (_R.replace("Q", "7"), "expected field name, got '7' (line 1, col 14)"),
    (_R + _A + _M.replace("3", "x"), "expected int, got 'x' (line 3, col 22)"),
    (_R + _A + _M.replace("Y1 = x;", "verify 3"),
     "expected variable, got '3' (line 3, col 32)"),
    (_R + _A + _M.replace("Y1 = x;", "Y1 x;"),
     "expected =, got 'x' (line 3, col 28)"),
    (_R + _A + _M.replace("Y1 = x;", "Y1 = x^;"),
     "expected integer exponent (line 3, col 32)"),
    (_R + _A + _M.replace("Y1 = x;", "Y1 = x^Y1;"),
     "expected integer exponent, got 'Y1' (line 3, col 32)"),
    (_R + _A + _M.replace("Y1 = x;", "Y1 = 1/x;"),
     "expected denominator (line 3, col 32)"),
    (_R + _A + _M.replace("Y1 = x;", "Y1 = (x;"),
     "expected ')' (line 3, col 32)"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_texts(text, message):
    """The texts of the token cursor's and the parsers' errors, with the
    position of the token they name."""
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert str(info.value) == message


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
    x1, x2 = (parse_poly(pf.table, name) for name in ("x1", "x2"))
    assert pf.minprimes == ((x1,), (x2,))
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


@pytest.mark.parametrize("ring_vars, algebra_vars, position", [
    ("x", "Y1\n    x", (3, 5)),
    ("x", "Y1 Y1", (2, 19)),
    ("x Y1 x", "Y2", (1, 27)),
], ids=["ring-and-algebra", "algebra-twice", "ring-twice"])
def test_variable_declared_twice_is_a_parse_error(ring_vars, algebra_vars,
                                                  position):
    text = (f"ring {{ field Q; vars {ring_vars}; }}\n"
            f"algebra {{ vars {algebra_vars}; relations x; }}\n"
            "morphism { precision 3; Y1 = x; }\n")
    with pytest.raises(PolyParseError) as info:
        parse_problem(text)
    assert "declared twice" in str(info.value)
    assert (info.value.line, info.value.col) == position
