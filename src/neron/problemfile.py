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
from .orders import ALGEBRA, BASE, VarTable
from .poly import _int, _tokenize, _Tokens, parse_poly

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
    """A parsed problem file; every polynomial lives over ``table``."""

    table: VarTable
    j_gens: tuple
    relations: tuple
    precision: int
    jets: dict
    verify: dict = field(default_factory=dict)
    max_subset: int = 3
    minprimes: tuple = ()

    def build(self):
        """Ring and morphism jets ready for the pipeline."""
        primes = self.minprimes or None
        ring = LocalRingSpec(self.table, self.j_gens, primes)
        if primes is not None:
            ring.validate_primes()
        jets = {nm: ring.jet(p, self.precision) for nm, p in self.jets.items()}
        vprec = max([self.precision]
                    + [p.total_degree() + 1 for p in self.verify.values()])
        verify = {nm: ring.jet(p, vprec) for nm, p in self.verify.items()}
        morphism = MorphismApprox(self.precision, jets, verify)
        return DesingProblem(ring, self.relations, morphism,
                             max_subset=self.max_subset)


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


def parse_problem(text):
    """Parse and validate a problem file; each polynomial is parsed once."""
    stream = _Tokens(_tokenize(text, _SYMBOLS))
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
    for name in ("ring", "algebra", "morphism"):
        if name not in sections:
            raise PolyParseError(f"missing {name} section", 1, 1)
    return _assemble(sections)


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
                body["vars"].append(stream.next())
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
            if val == "max_subset" and _int(val2) < 1:
                raise PolyParseError("max_subset must be at least 1",
                                     line, col)
            body["scalars"][val] = _int(val2)
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
    """Check the statements and parse each polynomial once, over the
    variables of both sections."""
    ring, algebra, morph = (sections[name]
                            for name in ("ring", "algebra", "morphism"))
    precision = morph[2]["scalars"].get("precision", 0)
    if precision < 1:
        raise PolyParseError("morphism precision must be at least 1",
                             morph[0], morph[1])
    if not ring[2]["vars"]:
        raise PolyParseError("ring vars must be nonempty", ring[0], ring[1])
    names = []
    for _, name, line, col in ring[2]["vars"] + algebra[2]["vars"]:
        if name in names:
            raise PolyParseError(f"variable {name!r} is declared twice",
                                 line, col)
        names.append(name)
    n_base = len(ring[2]["vars"])
    table = VarTable.make(*((n, BASE) for n in names[:n_base]),
                          *((n, ALGEBRA) for n in names[n_base:]))

    def parse_all(polys):
        return tuple(parse_poly(table, toks) for toks in polys)

    j_gens = parse_all(ring[2]["relations"])
    relations = parse_all(algebra[2]["relations"])
    minprimes = tuple(map(parse_all, sections["minprimes"][2]["groups"])
                      if "minprimes" in sections else ())
    declared = set(table.block_names(ALGEBRA))
    jets, verify = {}, {}
    for key, what, dest in (("assign", "jet", jets),
                            ("verify", "verify jet", verify)):
        for nm, toks, line, col in morph[2][key]:
            if nm not in declared:
                raise PolyParseError(
                    f"{what} for undeclared variable {nm!r}", line, col)
            dest[nm] = parse_poly(table, toks)
            degree = dest[nm].total_degree()
            if key == "assign" and degree >= precision:
                raise PolyParseError(
                    f"jet for {nm!r} has degree {degree} >= precision "
                    f"{precision}", line, col)
    missing = declared - set(jets)
    if missing:
        raise PolyParseError(
            "morphism section is missing jets for: " + ", ".join(sorted(missing)),
            morph[0], morph[1])
    options = sections.get("options", (0, 0, {"scalars": {}}))[2]["scalars"]
    return ProblemFile(table, j_gens, relations, precision, jets, verify,
                       options.get("max_subset", 3), minprimes)
