from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from lgrnok.partitions import (
    catalan,
    cells,
    check_in_box,
    complement,
    diagonal_excess,
    diagonal_lengths,
    format_partition,
    hook_partition,
    indexset_to_partition,
    maxdiag,
    normalize,
    orbit_representative,
    partition_to_indexset,
    skew_cells,
    staircase_syt_count,
    symplectic_dimension,
    syt_count,
    transpose,
    transpose_classes,
    transpose_indexset,
)
import oracles
from oracles import (
    assemble_hooks,
    cell_diagonal_lengths,
    diagonal_balance,
    hook_decomposition,
    parse_partition,
    partition_above_path,
    partitions_in_box,
)


@st.composite
def box_partition(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lam = draw(st.sampled_from(partitions_in_box(n)))
    return n, lam


def test_indexset_examples():
    assert indexset_to_partition((1, 3, 5), 3) == (3, 2, 1)
    assert indexset_to_partition((4, 5, 6), 3) == ()
    assert indexset_to_partition(tuple(range(5, 9)), 4) == ()
    # 124 <-> (3,3,2); 125 <-> (3,3,1) is its neighbour in the table
    assert indexset_to_partition((1, 2, 4), 3) == (3, 3, 2)
    assert indexset_to_partition((1, 2, 5), 3) == (3, 3, 1)
    assert indexset_to_partition((1, 3, 4), 3) == transpose((3, 3, 1))


def test_indexset_rejects_malformed():
    with pytest.raises(ValueError):
        indexset_to_partition((1, 2), 3)
    with pytest.raises(ValueError):
        indexset_to_partition((1, 2, 7), 3)
    with pytest.raises(ValueError):
        indexset_to_partition((1, 1, 2), 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_indexset_roundtrip_exhaustive(n):
    for I in combinations(range(1, 2 * n + 1), n):
        assert partition_to_indexset(indexset_to_partition(I, n), n) == I
        assert transpose_indexset(I, n) == partition_to_indexset(transpose(indexset_to_partition(I, n)), n)


def test_transpose_examples():
    assert transpose((3, 1, 1)) == (3, 1, 1)
    assert transpose((3, 3)) == (2, 2, 2)
    assert transpose(()) == ()


@pytest.mark.parametrize("n", range(1, 7))
def test_transpose_counts_the_rows_of_each_column(n):
    for lam in partitions_in_box(n):
        columns = range(1, lam[0] + 1) if lam else ()
        assert transpose(lam) == tuple(sum(1 for p in lam if p >= c) for c in columns)


def test_normalize_strips_trailing_zeros_only():
    assert normalize((3, 1, 0, 0)) == (3, 1)
    assert normalize([2, 2]) == (2, 2)
    assert normalize((0, 0)) == normalize(()) == ()


@pytest.mark.parametrize("parts", [(2.5, 1), (3, 1.0), ("3",)])
def test_a_part_that_is_not_an_int_is_refused(parts):
    with pytest.raises(TypeError):
        normalize(parts)
    with pytest.raises(TypeError):
        check_in_box(parts, 3)
    with pytest.raises(TypeError):
        partition_to_indexset(parts, 3)


@pytest.mark.parametrize("parts", [(3, 0, 1), (0, 2), (2, 0, 0, 1)])
def test_an_interior_zero_is_refused(parts):
    with pytest.raises(ValueError, match="not weakly decreasing"):
        normalize(parts)
    with pytest.raises(ValueError):
        partition_to_indexset(parts, 4)


def test_increasing_and_negative_parts_are_refused():
    with pytest.raises(ValueError, match="not weakly decreasing"):
        normalize((1, 2))
    with pytest.raises(ValueError, match="negative part"):
        normalize((2, -1))


def test_complement_examples():
    assert complement((2,), 3) == (3, 3, 1)
    assert complement((1,), 3) == (3, 3, 2)
    assert complement((3, 3, 3), 3) == ()
    with pytest.raises(ValueError):
        complement((4,), 3)


@given(box_partition())
def test_involutions(nl):
    n, lam = nl
    assert transpose(transpose(lam)) == lam
    assert complement(complement(lam, n), n) == lam


def test_maxdiag():
    assert maxdiag(skew_cells((3, 3, 3), (3, 3, 2))) == 1
    assert maxdiag(skew_cells((), ())) == 0
    assert maxdiag(set(cells((4, 4, 4, 4)))) == 4
    assert maxdiag({(1, 1), (2, 2), (4, 4)}) == 2


@given(box_partition(max_n=4), box_partition(max_n=4))
def test_maxdiag_bounds(a, b):
    n, mu = a
    _, lam = b
    assert maxdiag(skew_cells(mu, lam)) <= n
    assert maxdiag(skew_cells(mu, ())) == maxdiag(set(cells(mu)))


def test_hook_decomposition_examples():
    assert hook_decomposition((3, 3, 1)) == ((3, 2), (2, 0))
    assert hook_decomposition((3, 3, 2)) == ((3, 2), (2, 1))
    assert hook_decomposition((1,)) == ((1, 0),)
    assert hook_decomposition(()) == ()
    assert hook_partition(3, 2) == (3, 1, 1)


@given(box_partition())
def test_hooks_reassemble(nl):
    _, lam = nl
    hooks = hook_decomposition(lam)
    assert assemble_hooks(hooks) == lam
    assert sum(a + b for a, b in hooks) == sum(lam)
    # strict nesting
    for (a1, b1), (a2, b2) in zip(hooks, hooks[1:]):
        assert a2 < a1 and b2 < b1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hooks_of_balanced_reps_are_arm_heavy(n):
    # arm >= leg for every hook of every representative's complement; strict
    # inequality fails in general, e.g. the (1,1) hook of (4,2,2) at n=4
    for lam in oracles.transpose_classes(n):
        for a, b in hook_decomposition(complement(lam, n)):
            assert a >= b


def test_diagonal_balance():
    assert diagonal_balance((2,)) == (1, 0)
    assert diagonal_balance((1, 1)) == (0, 1)
    # self-conjugate staircase: cells (1,2),(1,3) above, (2,1),(3,1) below
    assert diagonal_balance((3, 2, 1)) == (2, 2)
    assert [diagonal_excess(lam) for lam in ((2,), (1, 1), (3, 2, 1), ())] == [1, -1, 0, 0]
    assert orbit_representative((1, 1)) == (2,)
    assert orbit_representative((2,)) == (2,)


@given(box_partition())
def test_diagonal_balance_swaps_under_transpose(nl):
    _, lam = nl
    above, below = diagonal_balance(lam)
    assert diagonal_balance(transpose(lam)) == (below, above)
    assert diagonal_excess(transpose(lam)) == -diagonal_excess(lam)


def walked_classes(n, *args):
    """The walk's records, in order, with each representative's partition."""
    return [(indexset_to_partition([k for k in range(1, 2 * n + 1) if rep >> k & 1], n), rest)
            for batch in transpose_classes(n, *args) for rep, *rest in batch]


def test_class_counts():
    # (C(2n,n) + 2^n) / 2 representatives; only n <= 3 agrees with C_{n+1}
    assert [len(walked_classes(n)) for n in (1, 2, 3, 4, 5)] == [2, 5, 14, 43, 142]
    assert [catalan(n + 1) for n in (1, 2, 3, 4, 5)] == [2, 5, 14, 42, 132]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_transpose_classes_in_first_appearance_order(n):
    # the oracle keeps the first appearance of the cell-based representative
    seen = oracles.transpose_classes(n)
    assert [lam for lam, _ in walked_classes(n)] == list(seen)
    # 2^n self-conjugate partitions fit in the box
    assert len(seen) == (comb(2 * n, n) + 2 ** n) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_walk_sums_the_lex_first_member(n):
    # Weights that keep each diagonal in its own byte make x read back I's
    # diagonal lengths, and a column that is one bit per hook makes the
    # image read back the complement's hooks, which the oracle reads cell
    # by cell: both at the lex-first member I of each class, not at its
    # representative.  The walk's step pairing is lgrnok's one map from an
    # index set to its complement's hooks.  Every hook clashes with
    # every other, and each decodes to its own two steps.
    bit = {(j, h): 1 << (2 * n + 1) * j + h for j in range(n + 1, 2 * n + 1) for h in range(1, n + 1)}
    hooks = [[(1, 1, bit.get((j, h), 0), 1 << j | 1 << h) for h in range(n + 1)]
             for j in range(2 * n + 1)]
    weights = [-(1 << 8 * d) for d in range(2 * n - 1)]
    records = walked_classes(n, 0, weights, hooks)
    assert [lam for lam, _ in records] == list(oracles.transpose_classes(n))
    for lam, (x, image, clash, decoded) in records:
        I = partition_to_indexset(lam, n)
        I = min(I, transpose_indexset(I, n))
        assert x == sum(length << 8 * d for d, length in enumerate(diagonal_lengths(I, n)))
        hooks_of_complement = hook_decomposition(complement(indexset_to_partition(I, n), n))
        pairs = {(n + arm, n - leg) for arm, leg in hooks_of_complement}
        assert image == sum(map(bit.get, pairs))
        assert bool(clash) == (len(pairs) > 1)
        assert decoded == sum(1 << j | 1 << h for j, h in pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_path_readings_match_cell_oracles(n):
    # every partition in the box: what lgrnok reads off the index set equals
    # the cell-by-cell definitions
    for I in combinations(range(1, 2 * n + 1), n):
        lam = partition_above_path(I, n)
        assert indexset_to_partition(I, n) == lam
        assert partition_to_indexset(lam, n) == I
        above, below = diagonal_balance(lam)
        assert diagonal_excess(lam) == above - below
        assert orbit_representative(lam) == oracles.orbit_representative(lam)
        assert diagonal_lengths(I, n) == cell_diagonal_lengths(lam, n)


def test_staircase_syt_counts():
    assert staircase_syt_count(1) == 1
    assert staircase_syt_count(3) == 16
    assert staircase_syt_count(4) == 768


def test_symplectic_dimension():
    # V(omega_n) is the primitive part of the n-th exterior power of C^2n,
    # and at n=2 V(k omega_2) is the harmonic polynomials of degree k in 5
    # variables
    for n in range(2, 11):
        rho = tuple(range(n, 0, -1))
        assert symplectic_dimension(1, rho) == comb(2 * n, n) - comb(2 * n, n - 2)
        assert symplectic_dimension(0, rho) == 1
    for k in range(8):
        assert symplectic_dimension(k, (1,)) == k + 1
        assert symplectic_dimension(k, (2, 1)) == comb(k + 4, 4) - comb(k + 2, 4)
    with pytest.raises(ArithmeticError, match="2 does not divide 3"):
        symplectic_dimension(1, (2,))


def test_syt_count_small_shapes_brute_force():
    # oracle: enumerate all fillings for tiny shapes
    from itertools import permutations

    def brute(shape):
        size = sum(shape)
        boxes = [(r, c) for r, row in enumerate(shape) for c in range(row)]
        count = 0
        for perm in permutations(range(1, size + 1)):
            fill = dict(zip(boxes, perm))
            if all(fill[(r, c)] < fill[(r, c + 1)] for (r, c) in boxes if (r, c + 1) in fill) and all(
                fill[(r, c)] < fill[(r + 1, c)] for (r, c) in boxes if (r + 1, c) in fill
            ):
                count += 1
        return count

    for shape in [(2, 1), (3, 2, 1), (2, 2), (3, 1)]:
        assert syt_count(shape) == brute(shape)


def test_parse_format_roundtrip():
    assert parse_partition("3,3,1") == (3, 3, 1)
    assert format_partition((3, 3, 1)) == "3,3,1"
    assert parse_partition("-") == ()
    assert format_partition(()) == "-"
