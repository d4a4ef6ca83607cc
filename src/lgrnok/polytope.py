"""Exact polytope engine over the integers.

V-polytopes are point lists, H-polytopes are systems c.x + d >= 0 with the
rows scaled to primitive integer vectors.  The one conversion, points to
facets (`facets`), runs the double description method on the polar cone
with the combinatorial adjacency test, updating the zero sets of the rays
as rows are inserted; no floating point anywhere.

Points are lattice points, tuples of ints, everywhere: Delta is the hull
of integer valuation vectors and Gamma has 0/1 vertices, and M_n is
unimodular, so no point, facet or volume the program builds is ever
non-integral.  `VPolytope.from_points` refuses a non-integer coordinate,
and `normalized_volume` is an int.  A point set must be full-dimensional:
`facets`, `f_vector` and `normalized_volume` raise ValueError otherwise,
and so does `volume_and_cuts`, through its leaf check (Delta and Gamma
are full-dimensional at every n).

One facet run gives the whole face lattice.  A face is the set of points on
it, held as a bitmask, and its facets are its maximal proper nonempty
intersections with the polytope's facets (`_facets_of`), so no face is
hulled again.  The f-vector counts the faces one dimension at a time, down
from the facets.  Volumes are normalized (dim! times Euclidean) and summed
from unit-height pyramids over the faces (`volume_and_cuts`), a greater
height refused: that holds on every compressed polytope, as on Gamma, whose
rows are 0 or 1 at its points, and on Delta = M_n(Gamma), M_n unimodular.
No simplex, no determinant and no lattice basis is formed.

No dimension is refused.  The one bound is the run's armed deadline,
polled in every long loop: per inserted row and per plus ray of the double
description, and per face of the f-vector and of a volume.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index, mul

from .budget import armed
from .linalg import affine_pivot_columns, dot, invert, primitive, rref

Point = tuple[int, ...]
Row = tuple[tuple[int, ...], int]  # (coefficients, constant): c.x + d >= 0


def normalize_row(coeffs, const) -> Row:
    ints = primitive(tuple(coeffs) + (const,))
    return ints[:-1], ints[-1]


class VPolytope(namedtuple("VPolytope", "dim points")):
    __slots__ = ()

    @staticmethod
    def from_points(points) -> "VPolytope":
        """The sorted distinct points; raises TypeError on a coordinate that
        is not an int, such as 0.5 or a rational one half."""
        pts = tuple(sorted({tuple(map(index, p)) for p in points}))
        if not pts:
            raise ValueError("a polytope needs at least one point")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points of mixed dimensions")
        return VPolytope(dim=len(pts[0]), points=pts)


class HPolytope(namedtuple("HPolytope", "dim rows")):
    __slots__ = ()

    def row_set(self) -> frozenset[Row]:
        return frozenset(normalize_row(c, d) for c, d in self.rows)


# -- double description ----------------------------------------------------


def _extreme_rays(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {x : r.x >= 0 for every row}.

    Raises ValueError when the rows leave a lineality space: the one caller,
    the polar of a full-dimensional hull, always has a pointed cone.
    """
    d = len(rows[0])
    # The pivot columns of the transpose are the first rows that span.
    basis_idx = rref([list(col) for col in zip(*rows)])[1]
    if len(basis_idx) < d:
        raise ValueError("cone has a lineality space")
    # Column j of adj solves basis.x = det.e_j: the ray leaving basis row j.
    adj, det = invert([rows[i] for i in basis_idx])
    sign = 1 if det > 0 else -1
    rays = [primitive([sign * x for x in col]) for col in zip(*adj)]
    # Bit k of a ray's zero set: the ray is on the hyperplane of the k-th
    # processed row.  The basis rays are off exactly their own row.
    full = (1 << d) - 1
    zero_sets = {r: full & ~(1 << j) for j, r in enumerate(rays)}

    processed = d
    chosen = set(basis_idx)
    for idx, row in enumerate(rows):
        if idx in chosen:
            continue
        armed().check()
        values = {r: sum(map(mul, row, r)) for r in rays}
        bit = 1 << processed
        processed += 1
        plus = [r for r in rays if values[r] > 0]
        zero = [r for r in rays if values[r] == 0]
        minus = [r for r in rays if values[r] < 0]
        for r in zero:
            zero_sets[r] |= bit
        if not minus:
            continue
        fresh = {}
        for rp in plus:
            # a single insertion ran for over 80 s (facets of Delta at n=7)
            armed().check()
            for rm in minus:
                common = zero_sets[rp] & zero_sets[rm]
                # adjacent rays of the pointed d-dimensional cone share
                # tight rows of rank d - 2 (Fukuda-Prodon), so at least
                # d - 2 of them; and no third ray is tight on every row
                # both are
                if common.bit_count() < d - 2 or any(
                    r3 is not rp and r3 is not rm and (common & ~zero_sets[r3]) == 0
                    for r3 in rays
                ):
                    continue
                combo = primitive(
                    [values[rp] * xm - values[rm] * xp for xp, xm in zip(rp, rm)]
                )
                # Both parents satisfy every processed row, so the positive
                # combination is tight exactly where both are, and on this row.
                fresh[combo] = common | bit
        for r in minus:
            del zero_sets[r]
        zero_sets.update(fresh)
        rays = plus + zero + sorted(set(fresh) - set(plus) - set(zero))
    return sorted(set(rays))


def _full_dim(V: VPolytope) -> tuple[Point, ...]:
    """V's points; raises ValueError unless they affinely span R^dim."""
    if len(affine_pivot_columns(V.points)) < V.dim:
        raise ValueError("the polytope engine needs a full-dimensional point set")
    return V.points


def _facets_full_dim(points: tuple[Point, ...]) -> tuple[Row, ...]:
    """Irredundant facets of a full-dimensional hull via the polar dual."""
    m = len(points)
    sums = [sum(col) for col in zip(*points)]
    # Polar about the centroid c = sums/m, scaled by m to stay integer:
    # the row (1, -(p - c)) is a positive multiple of (m, sums - m.p).
    cone_rows = [(1,) + (0,) * len(sums)]
    for p in points:
        cone_rows.append(primitive((m,) + tuple(s - m * x for x, s in zip(p, sums))))
    rays = _extreme_rays(cone_rows)
    rows = []
    for ray in rays:
        if ray[0] == 0:
            raise AssertionError("polar of a full-dimensional hull must be bounded")
        # y = ray[1:]/ray[0] and y.(x - c) <= 1, times m.ray[0] > 0:
        # -m.ray[1:].x + (m.ray[0] + ray[1:].sums) >= 0
        y = ray[1:]
        rows.append(normalize_row(tuple(-m * v for v in y), m * ray[0] + dot(y, sums)))
    return tuple(sorted(set(rows)))


def facets(V: VPolytope) -> HPolytope:
    """Irredundant H-representation of conv(points), which must be
    full-dimensional."""
    return HPolytope(dim=V.dim, rows=_facets_full_dim(_full_dim(V)))


# -- face lattice: f-vector and volume ----------------------------------------


def _facet_masks(points: tuple[Point, ...],
                 rows: tuple[Row, ...]) -> tuple[list[int], list[list[int]]]:
    """(masks, values): bit i of a row's mask is set when points[i] lies on
    the row's hyperplane, and a row's values are c.p + d at the points, in
    their order.  Raises ValueError at the first point where a row is
    negative."""
    masks, table = [], []
    for coeffs, const in rows:
        values = [dot(coeffs, p) + const for p in points]
        low = min(values)
        if low < 0:
            raise ValueError(f"the row {(coeffs, const)} is {low} at {points[values.index(low)]}")
        masks.append(sum(1 << i for i, v in enumerate(values) if not v))
        table.append(values)
    return masks, table


def _facets_of(face: int, facet_masks: list[int]) -> dict[int, int]:
    """The facets of a face: its maximal proper nonempty intersections with
    the polytope's facets, all masks of points, each mapped to the index of
    one facet whose mask cuts it."""
    cuts: dict[int, int] = {}
    for i, mask in enumerate(facet_masks):
        cuts.setdefault(face & mask, i)
    cuts.pop(0, None)
    cuts.pop(face, None)
    # Largest first: a cut inside another lies inside a maximal one, kept
    # before it.
    maximal: dict[int, int] = {}
    for cut in sorted(cuts, key=int.bit_count, reverse=True):
        for other in maximal:
            if cut & other == cut:
                break
        else:
            maximal[cut] = cuts[cut]
    return maximal


def f_vector(V: VPolytope) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}) of conv(points), which must be full-dimensional.

    The (d-1)-faces are the facet masks of one facet run; going down one
    dimension at a time, the k-faces are the facets of the (k+1)-faces.
    The deadline is polled once per face.
    """
    points = _full_dim(V)
    masks = _facet_masks(points, _facets_full_dim(points))[0]
    faces = set(masks)
    counts = [len(faces)]
    for _ in range(V.dim - 1):
        below: set[int] = set()
        for face in faces:
            armed().check()
            below.update(_facets_of(face, masks))
        faces = below
        counts.append(len(faces))
    return tuple(reversed(counts))


def normalized_volume(V: VPolytope) -> int:
    """dim! times the Euclidean volume of the full-dimensional conv(points),
    taken on V's own facets (`volume_and_cuts`)."""
    return volume_and_cuts(V, facets(V))[0]


def volume_and_cuts(V: VPolytope, H: HPolytope) -> tuple[int, int]:
    """The normalized volume of V, and the number of maximal cuts of V's
    points by H's rows (`_facets_of`), both read off one pass of H's masks.

    H's rows must be valid on V: a row negative at a point raises
    ValueError.  A redundant row is harmless: it cuts each face in a face
    that is not maximal or that a facet row cuts too, or in nothing, and a
    multiple of a row is read as that row.  So where the rows include the
    facets, the maximal cuts are the facets, one mask each, and they are
    as many as the distinct rows exactly when every row is a facet.

    A face F with least point a (a vertex, the points being sorted) is the
    union of the pyramids from a over the facets G of F that avoid a.  If
    the row cutting F in G is 1 at a, read off the pass's values, a is at
    lattice height 1 above G, and the pyramid's volume is Vol(G), each
    volume normalized in its face's own lattice.  A greater value raises
    ValueError naming the row, its value and the apex: so every such row
    must be 1 at its apex, as every facet row of a compressed polytope is,
    Gamma and Delta among them.  A point has volume 1.

    The leaf check: the whole set is taken at dimension V.dim and each cut
    one lower, and a single point reached at a positive dimension, or a
    face reached at two, raises ValueError.  A cut's affine rank is below
    its face's, so that refuses a set that is not full-dimensional and a
    cut that is not a facet of its face.  A passing run's pyramids do not
    overlap, so its volume is at most Vol(V), below it if a facet is
    missing.  Memoized on the face, volume and dimension packed in one
    int; the deadline is polled once per face.
    """
    points = V.points
    rows = tuple(normalize_row(c, d) for c, d in H.rows)
    masks, values = _facet_masks(points, rows)
    width = V.dim.bit_length()
    dims = (1 << width) - 1
    memo: dict[int, int] = {}  # face -> volume << width | the dimension it was reached at

    def volume(face: int, dim: int) -> int:
        if not face & (face - 1):
            if dim:
                raise ValueError(f"the point {points[face.bit_length() - 1]} is reached at "
                                 f"dimension {dim}: a cut above it is not a facet")
            return 1
        armed().check()
        apex_bit = face & -face
        apex = apex_bit.bit_length() - 1
        total = 0
        for cut, i in _facets_of(face, masks).items():
            if cut & apex_bit:
                continue
            if values[i][apex] > 1:
                raise ValueError(f"the row {rows[i]} is {values[i][apex]} at the apex "
                                 f"{points[apex]}: not a unit-height pyramid")
            packed = memo.get(cut)
            if packed is None:
                packed = memo[cut] = volume(cut, dim - 1) << width | dim - 1
            elif packed & dims != dim - 1:
                raise ValueError(f"the face of {cut.bit_count()} points from "
                                 f"{points[(cut & -cut).bit_length() - 1]} is reached at dimensions "
                                 f"{packed & dims} and {dim - 1}: a cut above it is not a facet")
            total += packed >> width
        return total

    whole = (1 << len(points)) - 1
    return volume(whole, V.dim), len(_facets_of(whole, masks))
