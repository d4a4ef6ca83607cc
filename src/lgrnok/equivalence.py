"""The valuation matrix M_n and the unimodular match of the two polytopes.

Columns of M_n are valuations of the Pluecker coordinates squeezed between
the (n-1) x (n-1) and n x n squares: pair (i, j) with 0 <= i <= j <= n-1
names the diagram with j extra boxes right of the diagonal and i below,
columns ordered by ascending i then descending j.  Rows follow the
valuation coordinate system.  M_n carries the antichain indicator vertices
of the superpotential polytope onto the Pluecker valuation set; the block
structure, the constructive column reduction, and that vertex match are
each checkable in exact arithmetic.

The vertex level is one depth-first walk over the 2n steps of the lattice
paths in the n x n square, with no table of classes or antichains.  Each
step updates the packed max-plus operand of `valuation` (exact for
n <= valuation.MAX_PACKED_N) and the diagonal excess; each vertical step of
the second half closes a horizontal step of the first, and that pair is a
hook of the complement, whose poset element, clash mask and packed column
are read off one table.  At the end of a path the walk keeps the class's
representative only, and checks that its hooks form an antichain whose
image under M_n is its valuation.

Several classes share one antichain, so the bijection with the antichains
is proved on a section of the classes: those whose antichain decodes back
to their own index set, each element (i, j) to the hook (n+1-i, j-i).  The
decode is a left inverse of the hook map there, so the map is injective on
the sections, and there must be as many sections as antichains, Catalan(n+1)
(`verify_main_theorem`).

The main theorem is checked at two levels, by two functions with the
shape of the verification registry, (n, deadline) -> (ok, witness).  The
vertex level, `verify_main_theorem`, is the walk above.  The hull level,
`verify_hull_level`, runs the vertex level first and then compares the
facets of Delta with the rows of Gamma pulled back through M_n, and both
normalized volumes with the staircase SYT count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import polytope, superpotential, valuation
from .linalg import bareiss_det, identity, invert, mat_mul, mat_vec
from .partitions import (
    Partition,
    complement,
    complement_hooks,
    diagonal_excess,
    hook_partition,
    indexset_to_partition,
    normalize,
    partition_to_indexset,
    staircase_syt_count,
    transpose_classes,
)
from .polytope import normalize_row
from .superpotential import (
    antichain_count_formula,
    build_poset,
    enumerate_antichains,
    gamma_hrep,
    lex_cells,
)
from .valuation import FIELD_BITS, coordinate_system, valuation_maxdiag

Pair = tuple[int, int]


def column_pairs(n: int) -> tuple[Pair, ...]:
    """(i, j) with 0 <= i <= j <= n-1: ascending i, descending j."""
    return tuple((i, j) for i in range(n) for j in range(n - 1, i - 1, -1))


def column_partition(n: int, i: int, j: int) -> Partition:
    """Diagram containing the (n-1) x (n-1) square with j boxes added right
    of the main diagonal and i below."""
    if not 0 <= i <= j <= n - 1:
        raise ValueError(f"bad column pair ({i}, {j}) for n={n}")
    return normalize((n,) * j + (n - 1,) * (n - 1 - j) + (i,))


@dataclass(frozen=True)
class ValuationMatrix:
    n: int
    entries: tuple[tuple[int, ...], ...]
    row_labels: tuple[Partition, ...]
    col_pairs: tuple[Pair, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def column(self, t: int) -> tuple[int, ...]:
        return tuple(row[t] for row in self.entries)


@cache
def build_valuation_matrix(n: int) -> ValuationMatrix:
    pairs = column_pairs(n)
    columns = [valuation_maxdiag(n, column_partition(n, i, j)) for (i, j) in pairs]
    rows = coordinate_system(n)
    entries = tuple(tuple(col[r] for col in columns) for r in range(len(rows)))
    return ValuationMatrix(n=n, entries=entries, row_labels=rows, col_pairs=pairs)


# -- block structure ---------------------------------------------------------


def upper_left_closed_form(n: int) -> tuple[tuple[int, ...], ...]:
    """1 on the bottom row, else 1 up to the antidiagonal and 2 past it."""
    return tuple(
        tuple(1 if i == n else (1 if j <= n - i else 2) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def check_blocks(M: ValuationMatrix) -> tuple[bool, str]:
    """The block lemmas of M_n: the upper left block in closed form, the
    lower right block equal to M_{n-1}, equal nonzero lower left columns
    and a zero bottom row in the upper right block.  Returns (all hold,
    the failures)."""
    n = M.n
    if n < 2:
        raise ValueError("block structure needs n >= 2")
    e = M.entries
    witness = []

    ul_expect = upper_left_closed_form(n)
    bad = [(i, j, e[i][j], ul_expect[i][j])
           for i in range(n) for j in range(n) if e[i][j] != ul_expect[i][j]]
    if bad:
        witness.append(f"upper left {bad[0]}")

    prev = build_valuation_matrix(n - 1).entries
    if not all(
        e[n + r][n + c] == prev[r][c]
        for r in range(len(prev))
        for c in range(len(prev))
    ):
        witness.append("lower right block differs from the (n-1) matrix")

    ll_cols = [tuple(e[r][c] for r in range(n, M.size)) for c in range(n)]
    if not (len(set(ll_cols)) == 1 and any(ll_cols[0])):
        witness.append(f"lower left columns {ll_cols}")

    if any(e[n - 1][c] for c in range(n, M.size)):
        witness.append(f"upper right bottom row {[e[n - 1][c] for c in range(n, M.size)]}")

    return not witness, "; ".join(witness)


# -- unimodularity ------------------------------------------------------------


def _block_diag(a, b):
    na, nb = len(a), len(b)
    out = []
    for i in range(na + nb):
        row = []
        for j in range(na + nb):
            if i < na and j < na:
                row.append(a[i][j])
            elif i >= na and j >= na:
                row.append(b[i - na][j - na])
            else:
                row.append(0)
        out.append(tuple(row))
    return tuple(out)


def corner_transform(n: int) -> tuple[tuple[int, ...], ...]:
    """Column operations sending the upper left block to the identity:
    subtract each column from its right neighbour, subtract all later
    columns from the first, then reverse the column order."""
    a = tuple(
        tuple(1 if i == j else (-1 if j == i + 1 else 0) for j in range(n))
        for i in range(n)
    )
    b = tuple(
        tuple(1 if i == j else (-1 if j == 0 and i > 0 else 0) for j in range(n))
        for i in range(n)
    )
    c = tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))
    return mat_mul(mat_mul(a, b), c)


@cache
def reduction_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Unimodular column operations R with M_n R lower triangular, unit
    diagonal.  Built blockwise: the corner transform upstairs, the (n-1)
    reduction downstairs, then column clean-up of the upper right block."""
    if n == 1:
        return identity(1)
    M = build_valuation_matrix(n).entries
    R = [list(row) for row in _block_diag(corner_transform(n), reduction_matrix(n - 1))]
    N = len(M)
    prod = [list(row) for row in mat_mul(M, R)]
    for r in range(n - 1):
        for c in range(n, N):
            coef = prod[r][c]
            if coef:
                for row_p, row_r in zip(prod, R):
                    row_p[c] -= coef * row_p[r]
                    row_r[c] -= coef * row_r[r]
    reduced = tuple(tuple(row) for row in prod)
    if not is_lower_triangular_unit(reduced):
        raise AssertionError(f"constructive reduction failed for n={n}")
    return tuple(tuple(row) for row in R)


def is_lower_triangular_unit(matrix) -> bool:
    return all(
        (matrix[i][j] == 0 if j > i else (j < i or matrix[i][i] == 1))
        for i in range(len(matrix))
        for j in range(len(matrix))
    )


def is_unimodular(M: ValuationMatrix) -> tuple[bool, int]:
    """(|det| == 1, det), with the constructive reduction replayed as a
    second witness."""
    det = bareiss_det(M.entries)
    reduced = mat_mul(M.entries, reduction_matrix(M.n))
    constructive_ok = is_lower_triangular_unit(reduced)
    return det in (1, -1) and constructive_ok, det


# -- hooks, antichains, and the main theorem ----------------------------------


def antichain_from_partition(n: int, lam: Partition) -> frozenset[Pair]:
    """Hooks (a, b) of the complement of lam, read off lam's lattice path,
    as poset elements (n+1-a, b+n+1-a).

    A hook with arm <= leg is transposed first (complementing a hook or its
    transpose names the same Pluecker class and the same valuation); without
    this the element would fall outside the poset, e.g. the (1,1) hook of
    (4,2,2) in the 4x4 square.  Whether the elements form an antichain of
    the poset is left to the caller: the main theorem tests it with the
    clash masks of `enumerate_antichains`.
    """
    indexset = partition_to_indexset(lam, n)
    if diagonal_excess(lam) < 0:
        raise ValueError(f"{lam} has more boxes below the diagonal than right of it")
    return frozenset(_hook_element(n, a, b) for a, b in complement_hooks(indexset, n))


def _hook_element(n: int, arm: int, leg: int) -> Pair:
    """The poset element (n+1-arm, n+1-arm+leg) of a complement's hook,
    the hook transposed first when arm <= leg."""
    if arm <= leg:
        arm, leg = leg + 1, arm - 1
    return (n + 1 - arm, n + 1 - arm + leg)


def singleton_column_pair(i: int, j: int, n: int) -> Pair:
    """Column pair matched to the singleton antichain {b_ij}."""
    return (i - 1, n - 1 - (j - i))


def verify_singleton_images(n: int) -> bool:
    """Each unit vector lands on the valuation of the complement of the
    matching hook, and the pair bijection is position-preserving."""
    M = build_valuation_matrix(n)
    for t, (i, j) in enumerate(lex_cells(n)):
        if M.col_pairs[t] != singleton_column_pair(i, j, n):
            return False
        hook = hook_partition(n + 1 - i, j - i)
        expected = valuation_maxdiag(n, complement(hook, n))
        if M.column(t) != expected:
            return False
    return True


def verify_maxdiag_additivity(n: int) -> bool:
    """maxdiag(mu \\ lam) splits as the sum over the complement's hooks."""
    from . import plabic
    from .partitions import maxdiag, skew_cells

    G = plabic.build_corect_graph(n)
    labels = sorted(set(G.faces.values()))
    for lam in transpose_classes(n):
        pieces = [complement(hook_partition(a, b), n)
                  for (a, b) in complement_hooks(partition_to_indexset(lam, n), n)]
        for mu in labels:
            whole = maxdiag(skew_cells(mu, lam))
            split = sum(maxdiag(skew_cells(mu, piece)) for piece in pieces)
            if whole != split:
                return False
    return True


def verify_valuation_additivity(n: int) -> bool:
    """val(p_lam) is the coordinatewise sum over the complement's hooks."""
    for lam in transpose_classes(n):
        pieces = [complement(hook_partition(a, b), n)
                  for (a, b) in complement_hooks(partition_to_indexset(lam, n), n)]
        total = [0] * (n * (n + 1) // 2)
        for piece in pieces:
            total = [a + b for a, b in zip(total, valuation_maxdiag(n, piece))]
        if tuple(total) != valuation_maxdiag(n, lam):
            return False
    return True


def image_of_antichains(n: int, deadline: polytope.Deadline | None = None) -> dict[frozenset, tuple[int, ...]]:
    """M_n applied to each antichain indicator: the sum of the columns the
    antichain picks (the zero vector for the empty antichain).  The
    deadline, if any, is polled as the antichains are enumerated.  The
    main theorem does not build this table; the tests compare against it."""
    M = build_valuation_matrix(n)
    column = dict(zip(lex_cells(n), zip(*M.entries)))
    zero = (0,) * M.size
    return {a: tuple(map(sum, zip(zero, *map(column.__getitem__, a))))
            for a in enumerate_antichains(build_poset(n), deadline)}


def pulled_back_gamma_rows(n: int) -> frozenset:
    """Rows of Gamma carried to the coordinates of Delta = M_n(Gamma).

    With M.adj = det.I, the row c.x + d >= 0 on Gamma becomes
    sign(det).(c.adj).y + d.|det| >= 0 on y = M.x.
    """
    adj, det = invert(build_valuation_matrix(n).entries)
    sign = 1 if det > 0 else -1
    adj_t = tuple(zip(*adj))
    return frozenset(
        normalize_row(tuple(sign * x for x in mat_vec(adj_t, c)), d * abs(det))
        for c, d in gamma_hrep(n).rows
    )


def _walk_table(n: int) -> tuple:
    """What one step of a lattice path adds on the vertex walk.

      vertical    per vertical step k <= n: the packed diagonals 0..n-k of
                  `valuation._packed_table`, each of which the step
                  lengthens by one cell, and the n - k cells it adds right
                  of the main diagonal;
      horizontal  per horizontal step k >= n+2: the packed diagonals
                  n+1-k..-1, and minus the k-n-1 cells it adds below the
                  main diagonal;
      hooks       hooks[j][h] for the vertical step j > n that closes the
                  horizontal step h <= n, whose pair is the complement's
                  hook (j-n, n-h): the bit of its poset element, that
                  element's clash mask, M_n's column of it packed one byte
                  per entry, and the two steps the element decodes to.

    Steps that add nothing hold (0, 0).  Raises ValueError unless every
    entry of M_n is >= 0 and n times the largest is below 2**8: a hook
    set has at most n elements, so then no byte of a sum of its columns
    carries into the next and a wrong image cannot alias the right one.
    """
    masks = valuation._packed_table(n)[1]  # diagonal d at masks[d + n - 1]
    vertical = [(0, 0)] * (2 * n + 1)
    horizontal = [(0, 0)] * (2 * n + 1)
    for k in range(1, n + 1):
        vertical[k] = (sum(masks[n - 1:2 * n - k]), n - k)
    for k in range(n + 2, 2 * n + 1):
        horizontal[k] = (sum(masks[2 * n - k:n - 1]), n + 1 - k)
    M = build_valuation_matrix(n)
    if min(map(min, M.entries)) < 0 or n * max(map(max, M.entries)) >= 1 << FIELD_BITS:
        raise ValueError(f"M_{n} has entries outside 0..{((1 << FIELD_BITS) - 1) // n}, "
                         "too wide for a packed sum of n columns")
    columns = [int.from_bytes(bytes(col), "little") for col in zip(*M.entries)]
    clash = superpotential._clash_masks(build_poset(n))
    index = {x: t for t, x in enumerate(lex_cells(n))}
    hooks = [[None] * (n + 1) for _ in range(2 * n + 1)]
    for j in range(n + 1, 2 * n + 1):
        for h in range(1, n + 1):
            i, top = element = _hook_element(n, j - n, n - h)
            t = index[element]
            # (i, top) decodes to the hook (n+1-i, top-i): steps 2n+1-i and n-top+i.
            decode = (1 << 2 * n + 1 - i) | (1 << n - top + i)
            hooks[j][h] = (1 << t, clash[t], columns[t], decode)
    return vertical, horizontal, hooks


class _Unmatched(Exception):
    """A class whose hooks form no antichain, or whose hook image is not
    its valuation; the message names it."""


def _vertex_walk(n: int, deadline: polytope.Deadline) -> int:
    """Walks every lattice path of the n x n square, depth first, and
    returns the number of section classes; raises _Unmatched at the first
    class that fails.  The deadline is polled once per first half of a
    path.

    Along the path the walk keeps, step by step (`_walk_table`): the packed
    max-plus operand x = base - sum_d l(d) masks[d], the diagonal excess,
    the index sets of the path (I) and of its transpose (T) as bitmasks,
    the open horizontal steps of the first half and, as each is closed,
    the summed packed columns, the clash masks and the decoded steps of
    the hooks' poset elements.
    """
    table = valuation._packed_table(n)
    vertical, horizontal, hooks = _walk_table(n)
    last = 2 * n
    first_half = (1 << n + 1) - 2  # the steps 1..n
    sections = 0

    def partition(I: int) -> Partition:
        return indexset_to_partition([k for k in range(1, last + 1) if I >> k & 1], n)

    def second(k, opened, r, x, excess, I, T, image, blocked, decoded):
        nonlocal sections
        if k > last:
            diff = I ^ T  # I <= T exactly when its lowest bit is I's
            if excess < 0 or not excess and diff & -diff & T:
                return  # T's class, counted at T
            if image != valuation._packed_maxplus(table, x):
                raise _Unmatched(f"hook bijection fails at {partition(I)}")
            if decoded == I ^ first_half:
                sections += 1
            return
        if r:  # a vertical step closes the latest open horizontal step
            bit, clash, column, decode = hooks[k][opened[r - 1]]
            if blocked & bit:
                raise _Unmatched(f"the hooks of {partition(I | ((1 << r) - 1) << k)} "
                                 "do not form an antichain")
            second(k + 1, opened, r - 1, x, excess, I | 1 << k, T,
                   image + column, blocked | clash, decoded | decode)
        if r <= last - k:
            cells, below = horizontal[k]
            second(k + 1, opened, r, x - cells, excess + below, I, T | 1 << last + 1 - k,
                   image, blocked, decoded)

    def first(k, opened, x, excess, I, T):
        if k > n:
            deadline.check()
            second(k, opened, len(opened), x, excess, I, T, 0, 0, 0)
            return
        cells, right = vertical[k]
        first(k + 1, opened, x - cells, excess + right, I | 1 << k, T)
        first(k + 1, opened + (k,), x, excess, I, T | 1 << last + 1 - k)

    first(1, (), table[0], 0, 0, 0)
    return sections


def verify_main_theorem(n: int, deadline: polytope.Deadline | None = None) -> tuple[bool, str]:
    """Check that the valuation matrix carries the vertices of the
    superpotential polytope onto those of the Newton-Okounkov body: the
    valuation set is M_n(antichain indicators).  Returns (ok, witness).

    One walk over the lattice paths (`_vertex_walk`) visits each transpose
    class once, at its representative I (more boxes right of the diagonal
    than below, or as many and I <= T), and checks that
      - the poset elements of the complement's hooks form an antichain
        (the clash masks of `enumerate_antichains`), and
      - M_n's columns summed over them equal the valuation of I.
    Several classes share one antichain, so the bijection is proved on a
    section of the classes: those whose antichain decodes back to I, each
    element (i, j) to the hook (n+1-i, j-i).  The decode is a left inverse
    of the hook map on the sections, so the map is injective there; there
    must be as many sections as antichain_count_formula(n), so the
    sections' antichains are all the antichains.  Then every valuation is
    an image, and every image is a section's valuation.  That the images
    are distinct follows from `matrix-unimodular`; no set of values is
    kept.  The deadline is polled once per first half of a path.
    """
    try:
        sections = _vertex_walk(n, deadline or polytope.Deadline())
    except _Unmatched as exc:
        return False, str(exc)
    antichains = antichain_count_formula(n)
    return sections == antichains, f"{sections} section classes against {antichains} antichains"


def verify_hull_level(n: int, deadline: polytope.Deadline | None = None) -> tuple[bool, str]:
    """Check that the facets of Delta are the rows of Gamma pulled back
    through M_n, and that both polytopes have the normalized volume
    staircase_syt_count(n), the degree of LGr(n, 2n).  Returns (ok, witness).

    The vertex level runs first, and its failure is returned as it is: the
    hull is compared only once the walk has shown that Delta's points,
    `valuation.delta_vertices`, are the images of the antichain indicators.
    The volume of Delta reuses the facet run of the comparison.
    """
    deadline = deadline or polytope.Deadline()
    ok, witness = verify_main_theorem(n, deadline)
    if not ok:
        return ok, witness
    delta = polytope.VPolytope.from_points(valuation.delta_vertices(n))
    gamma = polytope.VPolytope.from_points(superpotential.gamma_vertex_set(n))
    facets_delta = polytope.facets(delta, deadline)
    vol_gamma = polytope.normalized_volume(gamma, deadline)
    vol_delta = polytope.normalized_volume(delta, deadline, facets_delta)
    expected = staircase_syt_count(n)
    detail = []
    if not vol_gamma == vol_delta == expected:
        detail.append(f"volumes {vol_gamma} / {vol_delta}, expected {expected}")
    if facets_delta.row_set() != pulled_back_gamma_rows(n):
        detail.append("facets of Delta differ from the rows of Gamma pulled back through M_n")
    return not detail, "; ".join(detail)


def gamma_vertices_match_hrep(n: int, deadline: polytope.Deadline | None = None) -> bool:
    """Vertex enumeration of the superpotential H-rep returns exactly the
    antichain indicator vectors."""
    enumerated = polytope.vertices(gamma_hrep(n), deadline)
    expected = tuple(sorted(polytope.as_point(v) for v in superpotential.gamma_vertex_set(n)))
    return enumerated.points == expected
