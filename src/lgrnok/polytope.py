"""Exact polytope engine over the integers.

V-polytopes are point lists, H-polytopes are systems c.x + d >= 0 with the
rows scaled to primitive integer vectors.  Conversions both ways run the
double description method on a pointed cone with the combinatorial
adjacency test, updating the zero sets of the rays as rows are inserted;
no floating point anywhere.

Points are rational at the interface (`as_point`, the points `vertices`
returns, the volume `normalized_volume` returns) and integer inside: a
point set is scaled once by the lcm L of its denominators, the work runs
in integers, and facet rows are rescaled by L and volumes divided by L^dim.

Volumes are normalized (dim! times Euclidean).  They come from a recursive
boundary triangulation: cone each face from its least vertex over the
triangulations of the facets avoiding it.  One facet run on the whole point
set gives every face: a face is the set of points on it, held as a bitmask,
and its facets are its maximal proper intersections with the polytope's
facets, so no face is hulled again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .linalg import affine_pivot_columns, bareiss_det, dot, invert, primitive, rref

Point = tuple[Fraction, ...]
IntPoint = tuple[int, ...]
Row = tuple[tuple[int, ...], int]  # (coefficients, constant): c.x + d >= 0

MAX_DIM = 10
MAX_FACE_LATTICE_DIM = 8


class UnboundedError(ValueError):
    pass


class TimeBudgetExceeded(RuntimeError):
    pass


# Steps of a long loop (index sets, antichains, order ideals) between two
# polls of a Deadline.
POLL_EVERY = 1024


class Deadline:
    """A time budget armed once, when it is made, and polled by the engine;
    with no seconds it never expires."""

    def __init__(self, seconds: float | None = None):
        self.expires = None if seconds is None else time.monotonic() + seconds

    def check(self):
        if self.expires is not None and time.monotonic() > self.expires:
            raise TimeBudgetExceeded("computation exceeded its time budget")


def as_point(values) -> Point:
    return tuple(Fraction(v) for v in values)


def normalize_row(coeffs, const) -> Row:
    ints = primitive(tuple(coeffs) + (const,))
    return ints[:-1], ints[-1]


@dataclass(frozen=True)
class VPolytope:
    dim: int
    points: tuple[Point, ...]

    @staticmethod
    def from_points(points) -> "VPolytope":
        pts = tuple(sorted({as_point(p) for p in points}))
        if not pts:
            raise ValueError("a polytope needs at least one point")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points of mixed dimensions")
        return VPolytope(dim=len(pts[0]), points=pts)


@dataclass(frozen=True)
class HPolytope:
    dim: int
    rows: tuple[Row, ...]
    equalities: tuple[Row, ...] = field(default=())

    def row_set(self) -> frozenset[Row]:
        return frozenset(normalize_row(c, d) for c, d in self.rows)


# -- double description ----------------------------------------------------


def _extreme_rays(rows: list[tuple[int, ...]], deadline: Deadline) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {x : r.x >= 0 for every row}.

    Raises UnboundedError when the rows leave a lineality space, since every
    caller here wants a pointed cone.
    """
    d = len(rows[0])
    # The pivot columns of the transpose are the first rows that span.
    basis_idx = rref([list(col) for col in zip(*rows)])[1]
    if len(basis_idx) < d:
        raise UnboundedError("cone has a lineality space")
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
        deadline.check()
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
            deadline.check()
            for rm in minus:
                common = zero_sets[rp] & zero_sets[rm]
                # adjacent: no third ray is tight on every row both are
                if any(
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


def vertices(H: HPolytope, deadline: Deadline | None = None) -> VPolytope:
    """Exact vertex enumeration; raises UnboundedError for unbounded input."""
    deadline = deadline or Deadline()
    if H.dim > MAX_DIM:
        raise ValueError(f"dimension {H.dim} exceeds the supported {MAX_DIM}")
    cone_rows: list[tuple[int, ...]] = [(1,) + (0,) * H.dim]
    for c, d in H.rows:
        cone_rows.append((d,) + tuple(c))
    for c, d in H.equalities:
        cone_rows.append((d,) + tuple(c))
        cone_rows.append(tuple(-x for x in (d,) + tuple(c)))
    rays = _extreme_rays(cone_rows, deadline)
    points = []
    for ray in rays:
        if ray[0] == 0:
            if any(ray[1:]):
                raise UnboundedError(f"recession ray {ray[1:]}")
            continue
        points.append(tuple(Fraction(x, ray[0]) for x in ray[1:]))
    if not points:
        raise ValueError("empty polytope")
    return VPolytope.from_points(points)


def _lattice(points: tuple[Point, ...]) -> tuple[tuple[IntPoint, ...], int]:
    """(L * points, L) for L the lcm of the coordinates' denominators."""
    scale = lcm(*(x.denominator for p in points for x in p))
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in p) for p in points), scale


def _facets_full_dim(points: tuple[IntPoint, ...], deadline: Deadline) -> tuple[Row, ...]:
    """Irredundant facets of a full-dimensional hull via the polar dual."""
    m = len(points)
    sums = [sum(col) for col in zip(*points)]
    # Polar about the centroid c = sums/m, scaled by m to stay integer:
    # the row (1, -(p - c)) is a positive multiple of (m, sums - m.p).
    cone_rows = [(1,) + (0,) * len(sums)]
    for p in points:
        cone_rows.append(primitive((m,) + tuple(s - m * x for x, s in zip(p, sums))))
    rays = _extreme_rays(cone_rows, deadline)
    rows = []
    for ray in rays:
        if ray[0] == 0:
            raise AssertionError("polar of a full-dimensional hull must be bounded")
        # y = ray[1:]/ray[0] and y.(x - c) <= 1, times m.ray[0] > 0:
        # -m.ray[1:].x + (m.ray[0] + ray[1:].sums) >= 0
        y = ray[1:]
        rows.append(normalize_row(tuple(-m * v for v in y), m * ray[0] + dot(y, sums)))
    return tuple(sorted(set(rows)))


def affine_hull_equalities(points: tuple[IntPoint, ...]) -> tuple[Row, ...]:
    """Equations c.x + d = 0 cutting out the affine hull of integer points."""
    d = len(points[0])
    reduced, pivots = rref([(1,) + tuple(p) for p in points])
    # kernel vectors of the homogenized row space give the equations; row k
    # reads reduced[k][pc] * x_pc + reduced[k][f] * x_f = 0 for free f
    scale = lcm(*(row[pc] for row, pc in zip(reduced, pivots)))
    eqs = []
    for f in range(d + 1):
        if f in pivots:
            continue
        vec = [0] * (d + 1)
        vec[f] = scale
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[f] * (scale // row[pc])
        eqs.append(normalize_row(tuple(vec[1:]), vec[0]))
    return tuple(eq for eq in eqs if any(eq[0]))


def _facets(points: tuple[IntPoint, ...], deadline: Deadline) -> HPolytope:
    """`facets` of integer points, with the rows in their coordinates."""
    dim = len(points[0])
    pivots = affine_pivot_columns(points)
    if len(pivots) == dim:
        return HPolytope(dim=dim, rows=_facets_full_dim(points, deadline))
    if len(pivots) == 0:
        return HPolytope(dim=dim, rows=(), equalities=affine_hull_equalities(points))
    projected = tuple(tuple(p[c] for c in pivots) for p in points)
    proj_rows = _facets_full_dim(tuple(sorted(set(projected))), deadline)
    lifted = []
    for coeffs, const in proj_rows:
        full = [0] * dim
        for c, col in zip(coeffs, pivots):
            full[col] = c
        lifted.append((tuple(full), const))
    return HPolytope(dim=dim, rows=tuple(lifted), equalities=affine_hull_equalities(points))


def facets(V: VPolytope, deadline: Deadline | None = None) -> HPolytope:
    """Irredundant H-representation of conv(points).

    Input that is not full-dimensional is handled inside its affine hull:
    the hull equations come back in `equalities` and the facet rows only
    mention the pivot coordinates of the hull.
    """
    deadline = deadline or Deadline()
    if V.dim > MAX_DIM:
        raise ValueError(f"dimension {V.dim} exceeds the supported {MAX_DIM}")
    points, scale = _lattice(V.points)
    H = _facets(points, deadline)
    # c.(L x) + d >= 0 is (L c).x + d >= 0
    return HPolytope(
        dim=V.dim,
        rows=tuple(normalize_row([scale * x for x in c], d) for c, d in H.rows),
        equalities=tuple(normalize_row([scale * x for x in c], d) for c, d in H.equalities),
    )


# -- face lattice and f-vector ----------------------------------------------


def f_vector(V: VPolytope, deadline: Deadline | None = None) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}) of conv(points) by closing the vertex-facet
    incidences under intersection."""
    deadline = deadline or Deadline()
    points, _ = _lattice(V.points)
    d = len(affine_pivot_columns(points))
    if d > MAX_FACE_LATTICE_DIM:
        raise ValueError(f"face lattice enumeration guarded to dim {MAX_FACE_LATTICE_DIM}")
    H = _facets(points, deadline)
    verts = vertices_of_hull(VPolytope(dim=V.dim, points=points), H)
    facet_sets = []
    for coeffs, const in H.rows:
        facet_sets.append(
            frozenset(i for i, p in enumerate(verts) if dot(coeffs, p) + const == 0)
        )
    faces: set[frozenset[int]] = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        deadline.check()
        fresh: set[frozenset[int]] = set()
        for face in frontier:
            for fs in facet_sets:
                cut = face & fs
                if cut and cut != face and cut not in faces:
                    fresh.add(cut)
        faces |= fresh
        frontier = fresh
    counts = [0] * d
    for face in faces:
        pts = [verts[i] for i in face]
        counts[len(affine_pivot_columns(pts))] += 1
    return tuple(counts)


def vertices_of_hull(V: VPolytope, H: HPolytope | None = None) -> tuple[Point, ...]:
    """Extreme points among V.points (drops interior and boundary-interior
    points)."""
    H = H or facets(V)
    out = []
    for p in V.points:
        active = [row for row in H.rows if dot(row[0], p) + row[1] == 0]
        span = [row[0] for row in active] + [eq[0] for eq in H.equalities]
        if span and len(rref(span)[0]) == V.dim:
            out.append(p)
    return tuple(out)


# -- volume ------------------------------------------------------------------


def _triangulate(points: tuple[IntPoint, ...], deadline: Deadline,
                 rows: tuple[Row, ...] | None = None) -> list[tuple[IntPoint, ...]]:
    """Simplices (as point tuples in the order of `points`) triangulating
    conv(points), for sorted points spanning their space; sorted, so the
    least point on a face is a vertex of it.  `rows`, the facets if known,
    saves the facet run.

    A face is the bitmask of the points on it.  The facets of a face F are
    the maximal proper nonempty masks F & G over the facets G of the
    polytope, so one facet run gives the whole face lattice.  Each face is
    coned from its least point over the triangulations of its facets that
    avoid it, memoized on the mask; a k-face is a simplex when it holds
    k + 1 points.
    """
    dim = len(points[0])
    if len(points) == dim + 1:
        return [points]
    facet_masks = [
        sum(1 << i for i, p in enumerate(points) if dot(coeffs, p) + const == 0)
        for coeffs, const in rows or _facets_full_dim(points, deadline)
    ]
    memo: dict[int, list[int]] = {}

    def cone(face: int, k: int) -> list[int]:
        if face in memo:
            return memo[face]
        if face.bit_count() == k + 1:
            memo[face] = [face]
            return memo[face]
        cuts = {face & g for g in facet_masks} - {0, face}
        apex = face & -face
        simplices = []
        for cut in cuts:
            if cut & apex or any(cut != other and cut & other == cut for other in cuts):
                continue
            deadline.check()
            simplices.extend(apex | s for s in cone(cut, k - 1))
        memo[face] = simplices
        return simplices

    full = (1 << len(points)) - 1
    return [
        tuple(p for i, p in enumerate(points) if s >> i & 1)
        for s in cone(full, dim)
    ]


def normalized_volume(V: VPolytope, deadline: Deadline | None = None,
                      H: HPolytope | None = None) -> Fraction:
    """dim! times the Euclidean volume, by exact triangulation.  H, the
    facets of V when the caller already has them, saves the facet run."""
    deadline = deadline or Deadline()
    if V.dim > MAX_DIM:
        raise ValueError(f"dimension {V.dim} exceeds the supported {MAX_DIM}")
    points, scale = _lattice(V.points)
    if len(affine_pivot_columns(points)) < V.dim:
        raise ValueError("normalized_volume needs a full-dimensional polytope")
    # c.x + d >= 0 is c.(L x) + L d >= 0
    rows = None if H is None else tuple((c, scale * d) for c, d in H.rows)
    total = 0
    for simplex in _triangulate(points, deadline, rows):
        base = simplex[0]
        total += abs(bareiss_det([[x - b for x, b in zip(p, base)] for p in simplex[1:]]))
    # scaling by L multiplies the volume by L^dim
    return Fraction(total, scale ** V.dim)
