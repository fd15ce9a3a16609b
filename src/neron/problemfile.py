"""Line-oriented problem files.

Grammar (``#`` starts a comment, statements end with ``;``)::

    ring     { field Q; vars x1 x2; relations x1*x2; }
    algebra  { vars Y1 Y2; relations x2*Y1 - x1*Y2, x2*Y1; }
    morphism { precision 12; Y1 = <poly>; verify Y1 = <poly>; }
    options  { max_subset 3; }
    minprimes{ x1 | x2 }

Each section accepts only the statements shown for it; any other statement
is a parse error at its position.  Relations lists are comma separated;
repeated ``relations`` statements append.  Only the rationals are supported
as coefficient field.  Parse errors inside a polynomial carry the line and
column of the offending token in the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .desing import DesingProblem, MorphismApprox
from .errors import PolyParseError
from .localring import LocalRingSpec
from .orders import ALGEBRA, BASE, VarTable, mixed_order
from .poly import _tokenize, format_poly, parse_poly

# structural symbols plus those of the polynomial syntax
_SYMBOLS = "{};=|,+-*^()/"
# the statements each section accepts; "=" stands for `Y1 = <poly>;`
_STATEMENTS = {"ring": ("field", "vars", "relations"),
               "algebra": ("vars", "relations"),
               "morphism": ("precision", "verify", "="),
               "options": ("max_subset",)}
_KEYWORDS = {kw for kws in _STATEMENTS.values() for kw in kws} - {"="}


@dataclass
class ProblemFile:
    base_vars: tuple
    j_texts: tuple
    y_vars: tuple
    i_texts: tuple
    precision: int
    jet_texts: dict
    verify_texts: dict = field(default_factory=dict)
    max_subset: int = 3
    minprime_texts: tuple = ()

    def table(self):
        pairs = [(n, BASE) for n in self.base_vars]
        pairs += [(n, ALGEBRA) for n in self.y_vars]
        return VarTable.make(*pairs)

    def build(self):
        """Ring, relation list and morphism data ready for the pipeline."""
        table = self.table()
        j_gens = [parse_poly(table, t) for t in self.j_texts]
        primes = None
        if self.minprime_texts:
            primes = tuple(tuple(parse_poly(table, t) for t in group)
                           for group in self.minprime_texts)
        ring = LocalRingSpec(table, j_gens, primes)
        if primes is not None:
            ring.validate_primes()
        relations = tuple(parse_poly(table, t) for t in self.i_texts)
        jets = {nm: ring.jet(parse_poly(table, t), self.precision)
                for nm, t in self.jet_texts.items()}
        verify = {}
        if self.verify_texts:
            vprec = max(self.precision,
                        max(parse_poly(table, t).total_degree() + 1
                            for t in self.verify_texts.values()))
            verify = {nm: ring.jet(parse_poly(table, t), vprec)
                      for nm, t in self.verify_texts.items()}
        morphism = MorphismApprox(self.precision, jets, verify)
        return DesingProblem(ring, relations, morphism,
                             max_subset=self.max_subset)


class _Stream:
    def __init__(self, text):
        self.tokens = _tokenize(text, _SYMBOLS)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(f"expected {what or kind}, got {tok[1]!r}",
                                 tok[2], tok[3])
        return tok


def _collect_poly(stream, stop_kinds):
    """Tokens of one polynomial, closed by an ``end`` token at the stop
    symbol, so that ``parse_poly`` reports positions in the file."""
    tokens = []
    while stream.peek()[0] not in stop_kinds:
        tok = stream.next()
        if tok[0] == "end":
            raise PolyParseError("unterminated statement", tok[2], tok[3])
        tokens.append(tok)
    kind, val, line, col = stream.peek()
    if not tokens:
        raise PolyParseError("expected a polynomial", line, col)
    return tokens + [("end", "", line, col)]


def _text(tokens):
    return " ".join(tok[1] for tok in tokens[:-1])


def parse_problem(text):
    """Parse and validate a problem file."""
    stream = _Stream(text)
    sections = {}
    while stream.peek()[0] != "end":
        kind, name, line, col = stream.expect("ident", "section name")
        if name not in ("ring", "algebra", "morphism", "options",
                        "minprimes"):
            raise PolyParseError(f"unknown section {name!r}", line, col)
        if name in sections:
            raise PolyParseError(f"duplicate section {name!r}", line, col)
        stream.expect("{")
        sections[name] = (line, col, _section_body(stream, name))
    if "ring" not in sections:
        raise PolyParseError("missing ring section", 1, 1)
    if "algebra" not in sections:
        raise PolyParseError("missing algebra section", 1, 1)
    if "morphism" not in sections:
        raise PolyParseError("missing morphism section", 1, 1)
    pf = _assemble(sections)
    _validate(pf, sections)
    return pf


def _section_body(stream, name):
    body = {"vars": [], "relations": [], "assign": [], "verify": [],
            "scalars": {}, "groups": []}
    if name == "minprimes":
        group = []
        while True:
            kind, val, line, col = stream.peek()
            if kind == "}":
                stream.next()
                if group:
                    body["groups"].append(tuple(group))
                return body
            if kind == "|":
                stream.next()
                body["groups"].append(tuple(group))
                group = []
                continue
            group.append(_collect_poly(stream, ("|", ",", "}")))
            if stream.peek()[0] == ",":
                stream.next()
    while True:
        kind, val, line, col = stream.peek()
        if kind == "}":
            stream.next()
            return body
        stream.expect("ident", "statement keyword")
        if (val if val in _KEYWORDS else "=") not in _STATEMENTS[name]:
            raise PolyParseError(
                f"statement {val!r} is not allowed in section {name!r}",
                line, col)
        if val == "vars":
            while stream.peek()[0] == "ident":
                body["vars"].append(stream.next()[1])
            stream.expect(";")
        elif val == "relations":
            # each polynomial stops at "," or ";"; ";" ends the statement
            body["relations"].append(_collect_poly(stream, (",", ";")))
            while stream.next()[0] == ",":
                body["relations"].append(_collect_poly(stream, (",", ";")))
        elif val == "field":
            kind2, val2, line2, col2 = stream.expect("ident", "field name")
            if val2 != "Q":
                raise PolyParseError(
                    "only the rational field Q is supported", line2, col2)
            stream.expect(";")
        elif val in ("precision", "max_subset"):
            kind2, val2, line2, col2 = stream.expect("int")
            body["scalars"][val] = int(val2)
            stream.expect(";")
        else:
            # `Y1 = poly;` morphism assignment, or `verify Y1 = poly;`
            key, (_, name2, line2, col2) = (
                ("verify", stream.expect("ident", "variable"))
                if val == "verify" else ("assign", (kind, val, line, col)))
            stream.expect("=")
            body[key].append(
                (name2, _collect_poly(stream, (";",)), line2, col2))
            stream.expect(";")


def _assemble(sections):
    ring_body = sections["ring"][2]
    algebra_body = sections["algebra"][2]
    morph_body = sections["morphism"][2]
    options = sections.get("options", (0, 0, {"scalars": {}}))[2]["scalars"]
    minprimes_body = sections.get("minprimes")
    pf = ProblemFile(
        base_vars=tuple(ring_body["vars"]),
        j_texts=tuple(map(_text, ring_body["relations"])),
        y_vars=tuple(algebra_body["vars"]),
        i_texts=tuple(map(_text, algebra_body["relations"])),
        precision=morph_body["scalars"].get("precision", 0),
        jet_texts={nm: _text(toks) for nm, toks, _, _ in morph_body["assign"]},
        verify_texts={nm: _text(toks)
                      for nm, toks, _, _ in morph_body["verify"]},
        max_subset=options.get("max_subset", 3),
        minprime_texts=tuple(tuple(map(_text, group))
                             for group in minprimes_body[2]["groups"])
        if minprimes_body else (),
    )
    return pf


def _validate(pf, sections):
    morph = sections["morphism"]
    if pf.precision < 1:
        raise PolyParseError("morphism precision must be at least 1",
                             morph[0], morph[1])
    if len(set(pf.base_vars)) != len(pf.base_vars) or not pf.base_vars:
        raise PolyParseError("ring vars must be nonempty and distinct",
                             sections["ring"][0], sections["ring"][1])
    table = pf.table()
    minprimes = sections.get("minprimes")
    groups = minprimes[2]["groups"] if minprimes else ()
    for toks in (sections["ring"][2]["relations"]
                 + sections["algebra"][2]["relations"]
                 + [toks for group in groups for toks in group]):
        parse_poly(table, toks)
    declared = set(pf.y_vars)
    for key, what in (("assign", "jet"), ("verify", "verify jet")):
        for nm, toks, line, col in morph[2][key]:
            if nm not in declared:
                raise PolyParseError(
                    f"{what} for undeclared variable {nm!r}", line, col)
            degree = parse_poly(table, toks).total_degree()
            if key == "assign" and degree >= pf.precision:
                raise PolyParseError(
                    f"jet for {nm!r} has degree {degree} >= precision "
                    f"{pf.precision}", line, col)
    missing = declared - set(pf.jet_texts)
    if missing:
        raise PolyParseError(
            "morphism section is missing jets for: " + ", ".join(sorted(missing)),
            morph[0], morph[1])
    return pf


def print_problem(pf):
    """Canonical text for a ProblemFile; parse(print(pf)) round-trips."""
    table = pf.table()
    order = mixed_order(table)

    def fmt(text):
        return format_poly(parse_poly(table, text), order)

    lines = ["ring {", f"  field Q;", "  vars " + " ".join(pf.base_vars) + ";"]
    if pf.j_texts:
        lines.append("  relations " + ", ".join(fmt(t) for t in pf.j_texts) + ";")
    lines += ["}", "algebra {", "  vars " + " ".join(pf.y_vars) + ";"]
    if pf.i_texts:
        lines.append("  relations " + ", ".join(fmt(t) for t in pf.i_texts) + ";")
    lines += ["}", "morphism {", f"  precision {pf.precision};"]
    for nm in pf.y_vars:
        if nm in pf.jet_texts:
            lines.append(f"  {nm} = " + fmt(pf.jet_texts[nm]) + ";")
    for nm in pf.y_vars:
        if nm in pf.verify_texts:
            lines.append(f"  verify {nm} = " + fmt(pf.verify_texts[nm]) + ";")
    lines += ["}", "options {", f"  max_subset {pf.max_subset};", "}"]
    if pf.minprime_texts:
        groups = " | ".join(", ".join(fmt(t) for t in group)
                            for group in pf.minprime_texts)
        lines.append("minprimes { " + groups + " }")
    return "\n".join(lines) + "\n"
