"""Dual quiver of the co-rectangles graph and its folded exchange matrix.

One quiver vertex per face; every edge between two colored vertices of the
plabic graph contributes an arrow between the faces it separates, directed
so that crossing the edge keeps its hollow endpoint on the left.  Faces
touching the boundary disk are frozen and arrows between two frozen
vertices are dropped.  Folding sums exchange-matrix entries over the
orbits of the transpose involution; the sum must not depend on which
column orbit member is used.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import combinations

from . import plabic
from .budget import armed, polled
from .partitions import Partition, format_partition, transpose


class Quiver(namedtuple("Quiver", "n vertices frozen arrows")):
    """The vertices sorted, the frozen ones as a set, and the arrows as
    sorted (tail, head) pairs with multiplicity."""

    __slots__ = ()

    def arrow_counter(self) -> Counter:
        return Counter(self.arrows)


def dual_quiver(G: plabic.PlabicGraph) -> Quiver:
    """The quiver, with the deadline polled every POLL_EVERY edges and
    every POLL_EVERY face pairs."""
    frozen = frozenset(G.faces[f] for f in G.boundary_adjacent_faces())
    raw: Counter = Counter()
    for edge in polled(G.edges):
        u, v = sorted(edge)
        if u not in G.colors or v not in G.colors:
            continue
        filled, hollow = (u, v) if G.colors[u] == "filled" else (v, u)
        source = G.faces[G.left_face[(filled, hollow)]]
        target = G.faces[G.left_face[(hollow, filled)]]
        if source in frozen and target in frozen:
            continue
        raw[(source, target)] += 1
    arrows: list[tuple[Partition, Partition]] = []
    for (a, b), count in polled(raw.items()):
        net = count - raw.get((b, a), 0)  # cancel 2-cycles
        if net > 0:
            arrows.extend([(a, b)] * net)
    vertices = tuple(sorted(G.faces.values()))
    return Quiver(n=G.n, vertices=vertices, frozen=frozen, arrows=tuple(sorted(arrows)))


def mutable_orbit_order(n: int) -> tuple[tuple[Partition, ...], ...]:
    """Self-paired cells first by descending strip, then the true pairs by
    descending strip then height; matches the printed n=4 convention.  The
    deadline is polled every POLL_EVERY pairs."""
    singles = [plabic.face_label(n, (k, k)) for k in range(n - 1, 0, -1)]
    pairs = [
        (plabic.face_label(n, (k, r)), plabic.face_label(n, (r, k)))
        for k, r in polled(combinations(range(n - 1, 0, -1), 2))
    ]
    return tuple([(s,) for s in singles] + pairs)


def frozen_orbit_order(n: int) -> tuple[tuple[Partition, ...], ...]:
    orbits: list[tuple[Partition, ...]] = [(plabic.face_label(n, plabic.TOP),)]
    for k in range(n - 1, 0, -1):
        orbits.append((plabic.face_label(n, (k, 0)), plabic.face_label(n, (0, k))))
    orbits.append((plabic.face_label(n, (0, 0)),))
    return tuple(orbits)


class FoldedMatrix(namedtuple("FoldedMatrix", "n row_orbits col_orbits entries")):
    __slots__ = ()


def fold(Q: Quiver) -> FoldedMatrix:
    """Orbit-summed exchange matrix, mutable orbits first, in one pass over
    the arrows: an arrow mu -> nu must have its transpose with the same
    count, and it adds that count to the sum of mu's row orbit at the
    column vertex nu and takes it from the sum of nu's row orbit at mu.
    Each vertex is transposed once.  Only the sums the arrows reach can be
    nonzero, so only those can make an entry ill-defined.  The deadline is
    polled per arrow, per sum reached and every POLL_EVERY items between.

    Raises if the transpose involution is not an arrow-preserving symmetry
    or if a column sum depends on the orbit member chosen.
    """
    n = Q.n
    cols = mutable_orbit_order(n)
    rows = cols + frozen_orbit_order(n)
    row_of = {v: r for r, orbit in enumerate(polled(rows)) for v in orbit}
    col_of = {v: c for c, orbit in enumerate(cols) for v in orbit}
    counts = Q.arrow_counter()
    flip = {v: transpose(v) for v in polled({v for arrow in counts for v in arrow})}
    check = armed().check
    # sums[r, c][nu]: B_{mu, nu} summed over the mu of row orbit r, at the
    # member nu of column orbit c
    sums: dict[tuple[int, int], dict[Partition, int]] = {}
    for (a, b), count in counts.items():
        check()
        if counts.get((flip[a], flip[b]), 0) != count:
            raise ValueError(f"transpose involution breaks at arrow {a} -> {b}")
        for mu, nu, entry in ((a, b, count), (b, a, -count)):
            if mu in row_of and nu in col_of:
                at = sums.setdefault((row_of[mu], col_of[nu]), {})
                at[nu] = at.get(nu, 0) + entry

    entries = [[0] * len(cols) for _ in polled(rows)]
    for r, c in sorted(sums):
        check()
        at = sums[r, c]
        by_member = {nu: at.get(nu, 0) for nu in cols[c]}
        if len(set(by_member.values())) != 1:
            raise ValueError(
                f"fold ill-defined at rows {rows[r]} x columns {cols[c]}: {by_member}"
            )
        entries[r][c] = by_member[cols[c][0]]
    return FoldedMatrix(n=n, row_orbits=rows, col_orbits=cols, entries=tuple(map(tuple, polled(entries))))


def folded_matrix(n: int) -> FoldedMatrix:
    return fold(dual_quiver(plabic.build_corect_graph(n)))


def quiver_to_dot(Q: Quiver) -> Iterator[str]:
    """The quiver as the lines of a dot file, made as they are read."""
    yield "digraph quiver {"
    for v in Q.vertices:
        shape = "box" if v in Q.frozen else "ellipse"
        yield f'  "{format_partition(v)}" [shape={shape}];'
    for (a, b) in Q.arrows:
        yield f'  "{format_partition(a)}" -> "{format_partition(b)}";'
    yield "}"
