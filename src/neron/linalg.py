"""Matrices of polynomials: determinants, adjugates and minors.

Everything is exact; determinants use cofactor expansion with memoization on
column subsets, which is fine at the matrix sizes this library meets (the
Jacobian completions stay below 6x6).
"""

from __future__ import annotations

from itertools import combinations

from .errors import NeronError
from .poly import Polynomial


class PolyMatrix:
    """Rectangular matrix of polynomials over one table."""

    __slots__ = ("table", "rows")

    def __init__(self, table, rows):
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise NeronError("ragged matrix")
        self.table = table
        self.rows = [list(r) for r in rows]

    @property
    def shape(self):
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def scale(self, c):
        return PolyMatrix(self.table, [[e * c for e in row] for row in self.rows])

    def matmul(self, other):
        n, m = self.shape
        m2, k = other.shape
        if m != m2:
            raise NeronError("shape mismatch in matrix product")
        zero = Polynomial.zero(self.table)
        out = []
        for i in range(n):
            row = []
            for j in range(k):
                acc = zero
                for t in range(m):
                    acc = acc + self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.table, out)

    def submatrix(self, row_idx, col_idx):
        return PolyMatrix(self.table,
                          [[self.rows[i][j] for j in col_idx] for i in row_idx])

    def lift(self, newtable):
        return PolyMatrix(newtable,
                          [[e.lift(newtable) for e in row] for row in self.rows])

    def __repr__(self):
        return "[" + "; ".join(", ".join(repr(e) for e in row)
                               for row in self.rows) + "]"


def _det_rows(table, rows, cols, memo):
    """Determinant of rows[len-cols:] x cols via expansion on the first row."""
    k = len(cols)
    if k == 0:
        return Polynomial.const(table, 1)
    start = len(rows) - k
    key = (start, cols)
    if key in memo:
        return memo[key]
    acc = Polynomial.zero(table)
    row = rows[start]
    for pos, j in enumerate(cols):
        entry = row[j]
        if entry.is_zero():
            continue
        rest = cols[:pos] + cols[pos + 1:]
        sub = _det_rows(table, rows, rest, memo)
        term = entry * sub
        acc = acc + (term if pos % 2 == 0 else -term)
    memo[key] = acc
    return acc


def det(M):
    n, m = M.shape
    if n != m:
        raise NeronError("determinant of a non-square matrix")
    return _det_rows(M.table, M.rows, tuple(range(n)), {})


def det_adjugate(M):
    """(det M, adj M) with adj*M = M*adj = det*Id exactly."""
    n, m = M.shape
    if n != m:
        raise NeronError("adjugate of a non-square matrix")
    d = det(M)
    if n == 0:
        return d, PolyMatrix(M.table, [])
    adj = []
    all_idx = tuple(range(n))
    for i in range(n):
        adj_row = []
        for j in range(n):
            rows = [M.rows[r] for r in all_idx if r != j]
            cols = tuple(c for c in all_idx if c != i)
            minor = _det_rows(M.table, rows, cols, {})
            adj_row.append(minor if (i + j) % 2 == 0 else -minor)
        adj.append(adj_row)
    return d, PolyMatrix(M.table, adj)


def minors(M, r):
    """All r x r minors in lexicographic order of row/column index sets."""
    n, m = M.shape
    if r < 0 or r > min(n, m):
        raise NeronError(f"minor size {r} out of range for {n}x{m}")
    if r == 0:
        return [Polynomial.const(M.table, 1)]
    out = []
    for rows_idx in combinations(range(n), r):
        picked = [M.rows[i] for i in rows_idx]
        for cols_idx in combinations(range(m), r):
            out.append(_det_rows(M.table, picked, cols_idx, {}))
    return out
