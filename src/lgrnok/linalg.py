"""Exact linear algebra over the integers.

Every entry is an int.  Elimination is fraction-free: rows stay integer
and are divided by their gcd, and `primitive` divides a vector by the gcd
of its entries.  Nothing ever touches a rational or a float.
"""

from __future__ import annotations

from math import gcd
from operator import mul

def dot(u, v):
    return sum(map(mul, u, v))


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is the Bareiss invariant
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _gauss_jordan(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Gauss-Jordan elimination of an integer matrix, fraction-free and in place.

    Each pivot is cleared from every other row by cross-multiplication,
    and every row that changes is divided by the gcd of its entries, so the
    entries stay small.  Afterwards the first len(pivots) rows are the
    nonzero ones; row k is primitive, positive in column pivots[k] and zero
    in every other pivot column.  The pivot columns are those of the
    reduced row echelon form.

    Returns (pivots, num, den): the elimination multiplied the determinant
    of the rows by num/den, row swaps and sign flips included.
    """
    pivots: list[int] = []
    num = den = 1
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            num = -num
        row = m[r]
        p = row[c]
        for i, other in enumerate(m):
            f = other[c]
            if i == r or not f:
                continue
            reduced = [p * x - f * y for x, y in zip(other, row)]
            num *= p
            g = gcd(*reduced)
            if g > 1:
                reduced = [x // g for x in reduced]
                den *= g
            m[i] = reduced
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for k, c in enumerate(pivots):
        g = gcd(*m[k]) if m[k][c] > 0 else -gcd(*m[k])
        if g != 1:
            m[k] = [x // g for x in m[k]]
            den *= g
    return pivots, num, den


def rref(rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of an integer matrix, fraction-free.

    Returns (rows, pivot columns).  Each returned row is the primitive
    integer multiple, with positive pivot, of the corresponding row of the
    reduced row echelon form over the rationals.
    """
    m = [list(row) for row in rows]
    pivots, _, _ = _gauss_jordan(m)
    return m[: len(pivots)], pivots


def invert(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) of a square integer matrix M, with M.adj = det.I.

    Raises ValueError when M is singular.
    """
    n = len(matrix)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(matrix)]
    pivots, num, den = _gauss_jordan(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    # The left block is now diag(d_1..d_n), so det M = prod(d_k) * den / num,
    # and row k of M^-1 is the right half of row k divided by d_k.
    diag = 1
    for k in range(n):
        diag *= aug[k][k]
    det = diag * den // num
    return tuple(tuple(x * det // row[k] for x in row[n:]) for k, row in enumerate(aug)), det


def affine_pivot_columns(points) -> list[int]:
    """Coordinate subset on which the affine span of integer `points`
    projects bijectively.

    Returns the pivot columns of the matrix of differences p - points[0];
    its length is the affine dimension of the point set.
    """
    if len(points) < 2:
        return []
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return _gauss_jordan(diffs)[0]


def primitive(vector) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries, preserving
    direction; the zero vector stays zero."""
    g = gcd(*vector)
    return tuple(x // g for x in vector) if g > 1 else tuple(vector)
