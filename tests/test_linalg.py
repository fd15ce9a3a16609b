"""Determinants, adjugates and minors of polynomial matrices."""

import random

import pytest

from neron import (ALGEBRA, BASE, Polynomial, PolyMatrix, VarTable, det,
                   det_adjugate, jacobian, minors, parse_poly)
from neron.errors import NeronError


def table_xy():
    return VarTable.make(("x1", BASE), ("x2", BASE),
                         ("Y1", ALGEBRA), ("Y2", ALGEBRA), ("Y3", ALGEBRA))


def identity(table, n):
    one, zero = Polynomial.const(table, 1), Polynomial.zero(table)
    return PolyMatrix(table, [[one if i == j else zero for j in range(n)]
                              for i in range(n)])


def random_matrix(table, rng, n):
    def rp():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mon = tuple(rng.randint(0, 2) for _ in table.names)
            terms[mon] = terms.get(mon, 0) + rng.randint(-4, 4)
        return Polynomial.from_terms(table, terms.items())
    return PolyMatrix(table, [[rp() for _ in range(n)] for _ in range(n)])


def test_adjugate_completed_jacobian():
    T = table_xy()
    M = PolyMatrix(T, [[parse_poly(T, "x2"), parse_poly(T, "x1")],
                       [parse_poly(T, "-1"), parse_poly(T, "1")]])
    d, adj = det_adjugate(M)
    assert d == parse_poly(T, "x1 + x2")
    assert adj.rows[0] == [parse_poly(T, "1"), parse_poly(T, "-x1")]
    assert adj.rows[1] == [parse_poly(T, "1"), parse_poly(T, "x2")]


def test_adjugate_hypersurface_matrix():
    T = table_xy()
    M = PolyMatrix(T, [[parse_poly(T, "Y2"), parse_poly(T, "Y1")],
                       [Polynomial.zero(T), parse_poly(T, "1")]])
    d, adj = det_adjugate(M)
    assert d == parse_poly(T, "Y2")
    assert adj.rows[0] == [parse_poly(T, "1"), parse_poly(T, "-Y1")]
    assert adj.rows[1] == [Polynomial.zero(T), parse_poly(T, "Y2")]


def test_adjugate_identity_matrix():
    T = table_xy()
    M = identity(T, 3)
    d, adj = det_adjugate(M)
    assert d == parse_poly(T, "1")
    assert adj == M


def test_adjugate_identity_on_random_matrices():
    T = VarTable.make(("x1", BASE), ("x2", BASE))
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(6):
            M = random_matrix(T, rng, n)
            d, adj = det_adjugate(M)
            prod1 = adj.matmul(M)
            prod2 = M.matmul(adj)
            for i in range(n):
                for j in range(n):
                    want = d if i == j else Polynomial.zero(T)
                    assert prod1[i, j] == want
                    assert prod2[i, j] == want


def test_minors_contains_fitting_witness():
    T = table_xy()
    row = PolyMatrix(T, [[parse_poly(T, "2*x2^2*Y2"),
                          parse_poly(T, "2*x1^2*Y1"),
                          parse_poly(T, "2*x1^2*Y3")]])
    out = minors(row, 1)
    assert parse_poly(T, "2*x2^2*Y2") in out


def test_minors_identity_and_singular():
    T = table_xy()
    assert minors(identity(T, 2), 2) == [parse_poly(T, "1")]
    repeated = PolyMatrix(T, [[parse_poly(T, "x1"), parse_poly(T, "x2"),
                               parse_poly(T, "1")]] * 3)
    assert all(m.is_zero() for m in minors(repeated, 3))
    with pytest.raises(NeronError):
        minors(identity(T, 2), 5)


def test_minors_deterministic_order():
    T = table_xy()
    M = PolyMatrix(T, [[parse_poly(T, "x1"), parse_poly(T, "x2")],
                       [parse_poly(T, "Y1"), parse_poly(T, "Y2")]])
    out = minors(M, 1)
    assert out == [parse_poly(T, t) for t in ("x1", "x2", "Y1", "Y2")]


def test_jacobian_of_product_leibniz():
    T = table_xy()
    rng = random.Random(9)

    def rp():
        terms = {}
        for _ in range(4):
            mon = tuple(rng.randint(0, 2) for _ in T.names)
            terms[mon] = terms.get(mon, 0) + rng.randint(-3, 3)
        return Polynomial.from_terms(T, terms.items())

    names = ["Y1", "Y2", "Y3"]
    for _ in range(6):
        f, g = rp(), rp()
        left = jacobian([f * g], names)[0]
        jf = jacobian([f], names)[0]
        jg = jacobian([g], names)[0]
        for k in range(3):
            assert left[k] == jf[k] * g + f * jg[k]


def test_det_non_square_raises():
    T = table_xy()
    with pytest.raises(NeronError):
        det(PolyMatrix(T, [[parse_poly(T, "x1"), parse_poly(T, "x2")]]))
