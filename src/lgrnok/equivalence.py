"""The valuation matrix M_n and the unimodular match of the two polytopes.

Columns of M_n are valuations of the Pluecker coordinates squeezed between
the (n-1) x (n-1) and n x n squares: pair (i, j) with 0 <= i <= j <= n-1
names the diagram with j extra boxes right of the diagonal and i below,
columns ordered by ascending i then descending j.  Rows follow the
valuation coordinate system.  M_n carries the antichain indicator vertices
of the superpotential polytope onto the Pluecker valuation set; the block
structure, the determinant, and that vertex match are each checked in
exact arithmetic.  Unimodularity is the determinant alone: the paper's
column operations, which reduce M_n to a unit lower triangular matrix,
prove the same |det M_n| = 1, and the tests keep them as a lemma.

The vertex level reads the one walk over the lattice paths that also gives
the valuation table and Delta's points (`partitions.transpose_classes`),
with no table of classes or antichains.  Each vertical step of the second
half of a path closes a horizontal step of the first, and that pair is a
hook of the complement, whose poset element, clash mask and packed column
the walk reads off one table (`_walk_table`).  Each class's hooks must form
an antichain whose image under M_n is its valuation, and the classes whose
antichain decodes back to their own steps, a section of the classes, must
match the Catalan(n+1) antichains one to one (`verify_main_theorem`).

Read at the classes whose complement is a single hook, the vertex level
shows that each column of M_n is the valuation of that hook's complement;
read at every other class, that a valuation is the sum of those columns
over the complement's principal hooks.  The additivity of the valuation
over the hooks is therefore part of it, read through the walk's one hook
map.  The tests keep the additivity lemmas, of the valuation and of
maxdiag face by face, against a cell-by-cell hook decomposition.

The main theorem is checked at two levels, by two functions with the
shape of the verification registry, n -> (ok, witness).  The
vertex level, `verify_main_theorem`, is the walk above.  The hull level,
`verify_hull_level`, runs the vertex level first, then asks |det M_n| = 1,
looks up Gamma's coordinate rows, and reads the masks of Gamma's rows on
the antichain indicators in one pass: Gamma's normalized volume is the
staircase SYT count and no cut falls short of a facet, so the rows are
exactly Gamma's facets.  It runs no double description; with the vertex
level and the determinant, the facets of Delta are the rows of Gamma
pulled back through M_n.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb

from . import polytope, superpotential, valuation
from .budget import armed
from .linalg import bareiss_det
from .partitions import (
    Partition,
    catalan,
    complement,
    hook_partition,
    indexset_to_partition,
    normalize,
    staircase_syt_count,
    transpose_classes,
)
from .superpotential import (
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


class ValuationMatrix(namedtuple("ValuationMatrix", "n entries row_labels col_pairs")):
    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.entries)

    def column(self, t: int) -> tuple[int, ...]:
        return tuple(row[t] for row in self.entries)


@cache
def build_valuation_matrix(n: int) -> ValuationMatrix:
    """M_n, one shared matrix per n; the deadline is polled as the
    coordinate system is built and once per column.  Past the packed
    table's range it raises before the coordinate system is built."""
    valuation._check_packed_range(n)
    rows, pairs = coordinate_system(n), column_pairs(n)
    columns = []
    for i, j in pairs:
        armed().check()
        columns.append(valuation_maxdiag(n, column_partition(n, i, j)))
    return ValuationMatrix(n=n, entries=tuple(zip(*columns)), row_labels=rows, col_pairs=pairs)


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


def is_unimodular(M: ValuationMatrix) -> tuple[bool, str]:
    """|det M_n| == 1, by one exact determinant.  Returns (ok, the
    determinant as witness)."""
    det = bareiss_det(M.entries)
    return det in (1, -1), f"det {det}"


# -- hooks, antichains, and the main theorem ----------------------------------


def _hook_element(n: int, arm: int, leg: int) -> Pair:
    """The poset element (n+1-arm, n+1-arm+leg) of a complement's hook,
    the hook transposed first when arm <= leg: complementing a hook or its
    transpose names the same Pluecker class and the same valuation, and
    without it the element would fall outside the poset, e.g. the (1,1)
    hook of (4,2,2) in the 4x4 square.  The one hook-to-element map: the
    vertex walk's table (`_walk_table`) reads every hook through it."""
    if arm <= leg:
        arm, leg = leg + 1, arm - 1
    return (n + 1 - arm, n + 1 - arm + leg)


def singleton_column_pair(i: int, j: int, n: int) -> Pair:
    """Column pair matched to the singleton antichain {b_ij}."""
    return (i - 1, n - 1 - (j - i))


def verify_singleton_images(n: int) -> tuple[bool, str]:
    """Each unit vector lands on the valuation of the complement of the
    matching hook, and the pair bijection is position-preserving.  Returns
    (ok, witness), the witness naming the first failing column."""
    M = build_valuation_matrix(n)
    for t, (i, j) in enumerate(lex_cells(n)):
        pair = singleton_column_pair(i, j, n)
        if M.col_pairs[t] != pair:
            return False, f"column {t} has the pair {M.col_pairs[t]}, expected {pair} for {(i, j)}"
        hook = hook_partition(n + 1 - i, j - i)
        expected = valuation_maxdiag(n, complement(hook, n))
        if M.column(t) != expected:
            return False, f"column {t} of {(i, j)} is {M.column(t)}, expected {expected}"
    return True, ""


def image_of_antichains(n: int) -> dict[frozenset, tuple[int, ...]]:
    """M_n applied to each antichain indicator: the sum of the columns the
    antichain picks (the zero vector for the empty antichain).  The
    deadline is polled as the antichains are enumerated.  The main
    theorem does not build this table; the tests compare against it."""
    M = build_valuation_matrix(n)
    column = dict(zip(lex_cells(n), zip(*M.entries)))
    zero = (0,) * M.size
    return {a: tuple(map(sum, zip(zero, *map(column.__getitem__, a))))
            for a in enumerate_antichains(build_poset(n))}


def _walk_table(n: int) -> list[list[tuple[int, int, int, int]]]:
    """The hook table of the lattice-path walk (`partitions.transpose_classes`):
    hooks[j][h] for the vertical step j > n that closes the horizontal step
    h <= n, whose pair is the complement's hook (j-n, n-h), holds the bit
    of its poset element, that element's clash mask, M_n's column of it
    packed one byte per entry, and the two steps the element decodes to.

    Raises ValueError unless every entry of M_n is >= 0 and n times the
    largest is below 2**8: a hook set has at most n elements, so then no
    byte of a sum of its columns carries into the next and a wrong image
    cannot alias the right one.
    """
    M = build_valuation_matrix(n)
    if min(map(min, M.entries)) < 0 or n * max(map(max, M.entries)) >= 1 << FIELD_BITS:
        raise ValueError(f"M_{n} has entries outside 0..{((1 << FIELD_BITS) - 1) // n}, "
                         "too wide for a packed sum of n columns")
    columns = [int.from_bytes(bytes(col), "little") for col in zip(*M.entries)]
    clash = superpotential._clash_masks(build_poset(n))
    index = {x: t for t, x in enumerate(lex_cells(n))}
    hooks = [[(0, 0, 0, 0)] * (n + 1) for _ in range(2 * n + 1)]
    for j in range(n + 1, 2 * n + 1):
        for h in range(1, n + 1):
            i, top = element = _hook_element(n, j - n, n - h)
            t = index[element]
            # (i, top) decodes to the hook (n+1-i, top-i): steps 2n+1-i and n-top+i.
            decode = (1 << 2 * n + 1 - i) | (1 << n - top + i)
            hooks[j][h] = (1 << t, clash[t], columns[t], decode)
    return hooks


def verify_main_theorem(n: int) -> tuple[bool, str]:
    """Check that the valuation matrix carries the vertices of the
    superpotential polytope onto those of the Newton-Okounkov body: the
    valuation set is M_n(antichain indicators).  Returns (ok, witness).

    The lattice-path walk (`partitions.transpose_classes`), given the hook
    table of `_walk_table`, yields one record per transpose class, and there
    must be (C(2n, n) + 2^n) / 2 of them: 2^n of the C(2n, n) index sets are
    their own transpose.  Each record is checked:
      - the poset elements of the complement's hooks form an antichain
        (the clash masks of `enumerate_antichains`), and
      - M_n's columns summed over them equal the class's valuation.
    The walk reads both at the class's lex-first member I.  They hold there
    exactly when they hold at its representative, the member that the
    valuation table prints: the closed-form valuation is invariant under
    transposition, and `_hook_element` gives I and its transpose the same
    set of poset elements.

    Several classes share one antichain, so the bijection is proved on a
    section of the classes: those whose antichain decodes back to the
    representative's own steps, each element (i, j) to the hook
    (n+1-i, j-i).  The decode is a left inverse of the hook map on the
    sections, so the map is injective there; there must be as many
    sections as catalan(n + 1) antichains, so the sections' antichains are
    all the antichains.  Then every valuation is an image, and every image
    is a section's valuation.  That the images are distinct follows from
    `matrix-unimodular`.  Sections are decided at the representative, so a
    class named by its other member shows in their count.  The deadline is
    polled once per first half of a path.
    """
    table, maxplus = valuation._packed_table(n), valuation._packed_maxplus
    # rep ^ first_half: the vertical steps > n and the horizontal steps <= n,
    # the steps that pair into the complement's hooks.
    first_half = (1 << n + 1) - 2
    records = sections = 0
    for batch in transpose_classes(n, table[0], table[1], _walk_table(n)):
        for rep, x, image, clash, decoded in batch:
            if clash or image != maxplus(table, x):
                lam = indexset_to_partition(valuation._indexset(rep, n), n)
                return False, (f"the hooks of {lam} do not form an antichain" if clash
                               else f"hook bijection fails at {lam}")
            sections += decoded == rep ^ first_half
        records += len(batch)
    classes, antichains = (comb(2 * n, n) + 2 ** n) // 2, catalan(n + 1)
    return (records == classes and sections == antichains,
            f"{records} classes against {classes}, "
            f"{sections} section classes against {antichains} antichains")


def verify_hull_level(n: int) -> tuple[bool, str]:
    """Check that the rows of `gamma_hrep` are the facets of Gamma, and so,
    pulled back through M_n, the facets of Delta, and that Gamma has the
    normalized volume staircase_syt_count(n), the degree of LGr(n, 2n).
    Returns (ok, witness).

    The vertex level runs first, and its failure is returned as it is.  It
    shows that the valuations, Delta's points, are M_n applied to the
    antichain indicators, one to one.  Then |det M_n| = 1 is read off the
    cached M_n: with it, M_n is an automorphism of the lattice, so Delta =
    M_n(Gamma), with the same face lattice and the same normalized volume.

    The rows then certify themselves.  Say Q = conv(indicators).  Its
    facets through its least point, the origin, are the coordinate rows
    x_e >= 0 (every point is >= 0, and 0 and each e_i are indicators);
    no pyramid of the volume stands on them, so they are looked up.  One
    pass of the rows' masks on the indicators (`polytope.volume_and_cuts`)
    raises unless every row is >= 0 at every indicator and every cut it
    builds on is a facet of its face (the leaf check); each row is 0 or 1
    at every indicator, so no pyramid is refused for its height.  Then the
    volume is at most Vol(Q), below it if a facet of Q or of a face below
    is missing, and Vol(Q) = e(P_n) = staircase_syt_count(n) (Stanley, Two
    poset polytopes, 1986).  So no facet is missing, and as many maximal
    cuts as distinct rows leave no row that is not one.

    The certificate runs on Gamma's 0/1 points, not on Delta's: M_n carries
    each indicator to its valuation and each row to its pull-back with the
    same mask, so the two certificates are one, and on Gamma's side the
    masks are the ones the volume reads anyway, the rows need no inverse of
    M_n and their values are small sums of 0/1 coordinates.
    """
    ok, witness = verify_main_theorem(n)
    if not ok:
        return ok, witness
    ok, witness = is_unimodular(build_valuation_matrix(n))
    if not ok:
        return ok, f"M_n has {witness}"
    H = gamma_hrep(n)
    rows = H.row_set()
    missing = [cell for t, cell in enumerate(lex_cells(n))
               if ((0,) * t + (1,) + (0,) * (H.dim - 1 - t), 0) not in rows]
    detail = [f"no coordinate row x_{missing[0]} >= 0 among Gamma's rows"] if missing else []
    gamma = polytope.VPolytope.from_points(superpotential.gamma_vertex_set(n))
    volume, cuts = polytope.volume_and_cuts(gamma, H)
    expected = staircase_syt_count(n)
    if cuts != len(rows):
        detail.append(f"{len(rows)} distinct rows of Gamma against {cuts} facets")
    if volume != expected:
        detail.append(f"volume of Gamma {volume}, expected {expected}")
    return not detail, "; ".join(detail)


def gamma_facets_match_hrep(n: int) -> tuple[bool, str]:
    """The double description of the antichain indicators' hull gives
    exactly the rows of `gamma_hrep`, a second route to the hull level's
    facet certificate.  Returns (ok, witness), the witness naming the least
    facet missing from the rows and the least row that is not a facet."""
    hull = polytope.facets(polytope.VPolytope.from_points(superpotential.gamma_vertex_set(n)))
    got, rows = hull.row_set(), gamma_hrep(n).row_set()
    return got == rows, f"missing {min(got - rows, default=None)}, extra {min(rows - got, default=None)}"
