"""Problem file grammar: parsing, validation, round trips."""

import glob

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neron.errors import PolyParseError
from neron.poly import parse_poly
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
        assert pf2.minprimes == pf.minprimes


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
        print_problem(pf)
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
    """A sum of terms, written with repeated factors and any signs."""
    terms = draw(st.lists(st.tuples(
        st.fractions(-9, 9, max_denominator=4),
        st.lists(st.sampled_from(names), max_size=max_deg)), max_size=4))
    if not terms:
        return "0"
    return " ".join(
        f"{'-' if c < 0 else '+'} {abs(c)}" + "".join(f"*{n}" for n in mon)
        for c, mon in terms)


@st.composite
def problem_texts(draw):
    base, j_gens, primes = draw(st.sampled_from(RINGS))
    xs = base.split()
    ys = [f"Y{i + 1}" for i in range(draw(st.integers(1, 2)))]
    precision = draw(st.integers(1, 5))
    relations = draw(st.lists(poly_texts(xs + ys, 3), max_size=2))
    morphism = [f"precision {precision};"]
    morphism += [f"{y} = {draw(poly_texts(xs, precision - 1))};" for y in ys]
    morphism += [f"verify {y} = {draw(poly_texts(xs, 6))};" for y in ys
                 if draw(st.booleans())]
    sections = [
        f"ring {{ field Q; vars {base}; "
        + "".join(f"relations {g}; " for g in j_gens) + "}",
        f"algebra {{ vars {' '.join(ys)}; "
        + (f"relations {', '.join(relations)}; " if relations else "") + "}",
        "morphism { " + " ".join(morphism) + " }",
        f"options {{ max_subset {draw(st.integers(1, 3))}; }}"]
    if primes:
        sections.append(f"minprimes {{ {primes} }}")
    return "\n".join(draw(st.permutations(sections))) + "\n"


@settings(max_examples=60, deadline=None)
@given(problem_texts())
def test_generated_problem_round_trip(text):
    pf = parse_problem(text)
    printed = print_problem(pf)
    pf2 = parse_problem(printed)
    assert print_problem(pf2) == printed
    prob, prob2 = pf.build(), pf2.build()
    assert prob2.relations == prob.relations
    assert prob2.ring.j_gens == prob.ring.j_gens
    assert prob2.max_subset == prob.max_subset
    for key in ("jets", "verify"):
        jets, jets2 = (getattr(p.morphism, key) for p in (prob, prob2))
        assert {nm: (j.poly, j.precision) for nm, j in jets2.items()} == \
            {nm: (j.poly, j.precision) for nm, j in jets.items()}


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
