from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from lgrnok.linalg import affine_pivot_columns, bareiss_det, invert, primitive, rref
from oracles import mat_mul

entries = st.integers(min_value=-4, max_value=4)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def small_matrix(draw):
    return draw(matrices(draw(st.integers(1, 5)), draw(st.integers(1, 5))))


@st.composite
def square_matrix(draw):
    n = draw(st.integers(1, 5))
    return draw(matrices(n, n))


def reference_rref(rows):
    """Reduced row echelon form over Fraction, each row then multiplied by
    the lcm of its denominators: the oracle for `rref`.  With the pivot 1,
    that integer row is primitive and its pivot positive."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0])):
        i = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    cleared = []
    for row in m[:r]:
        scale = lcm(*(x.denominator for x in row))
        cleared.append(tuple(int(x * scale) for x in row))
    return cleared, pivots


@settings(max_examples=200, deadline=None)
@given(small_matrix())
def test_rref_matches_fraction_reference(rows):
    reduced, pivots = rref(rows)
    ref_rows, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots
    # each row is the primitive multiple, with positive pivot, of the
    # rational reduced row, which the reference has cleared to exactly that
    assert [tuple(row) for row in reduced] == ref_rows
    assert all(isinstance(x, int) for row in reduced for x in row)


@settings(max_examples=100, deadline=None)
@given(small_matrix())
def test_affine_pivot_columns_match_reference(points):
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    expected = reference_rref(diffs)[1] if diffs else []
    assert affine_pivot_columns([tuple(p) for p in points]) == expected


@settings(max_examples=200, deadline=None)
@given(square_matrix())
def test_invert_gives_adjugate_and_determinant(matrix):
    det = bareiss_det(matrix)
    assume(det != 0)
    adj, got = invert(matrix)
    n = len(matrix)
    assert got == det
    assert mat_mul(matrix, adj) == tuple(
        tuple(det if i == j else 0 for j in range(n)) for i in range(n)
    )


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(2, 5))
def test_invert_rejects_singular_matrices(data, n):
    rows = data.draw(matrices(n - 1, n))
    coeffs = data.draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    dependent = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    position = data.draw(st.integers(0, n - 1))
    matrix = rows[:position] + [dependent] + rows[position:]
    with pytest.raises(ValueError):
        invert(matrix)


def test_primitive():
    assert primitive((4, -6, 0)) == (2, -3, 0)
    assert primitive((-3, 9, 6)) == (-1, 3, 2)
    assert primitive((0, 0)) == (0, 0)
    # integers only: a rational vector is refused, not rescaled
    with pytest.raises(TypeError):
        primitive((Fraction(1, 2), Fraction(-1, 3)))
