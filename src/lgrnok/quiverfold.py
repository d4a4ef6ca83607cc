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

from collections import Counter
from typing import NamedTuple

from . import plabic
from .budget import Deadline
from .partitions import Partition, format_partition, transpose


class Quiver(NamedTuple):
    n: int
    vertices: tuple[Partition, ...]
    frozen: frozenset[Partition]
    arrows: tuple[tuple[Partition, Partition], ...]  # with multiplicity

    def arrow_counter(self) -> Counter:
        return Counter(self.arrows)


def dual_quiver(G: plabic.PlabicGraph) -> Quiver:
    frozen = frozenset(G.faces[f] for f in G.boundary_adjacent_faces())
    raw: Counter = Counter()
    for edge in G.edges:
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
    for (a, b) in sorted({tuple(sorted(pair)) for pair in raw}):
        net = raw.get((a, b), 0) - raw.get((b, a), 0)  # cancel 2-cycles
        if net > 0:
            arrows.extend([(a, b)] * net)
        elif net < 0:
            arrows.extend([(b, a)] * (-net))
    vertices = tuple(sorted(G.faces.values()))
    return Quiver(n=G.n, vertices=vertices, frozen=frozen, arrows=tuple(sorted(arrows)))


def exchange_entry(counts: Counter, mu: Partition, nu: Partition) -> int:
    """B_{mu,nu} = arrows mu -> nu minus arrows nu -> mu, counted in
    `Quiver.arrow_counter()`."""
    return counts.get((mu, nu), 0) - counts.get((nu, mu), 0)


def mutable_orbit_order(n: int) -> tuple[tuple[Partition, ...], ...]:
    """Self-paired cells first by descending strip, then the true pairs by
    descending strip then height; matches the printed n=4 convention."""
    singles = [plabic.face_label(n, (k, k)) for k in range(n - 1, 0, -1)]
    pairs = [
        (plabic.face_label(n, (k, r)), plabic.face_label(n, (r, k)))
        for k in range(n - 1, 0, -1)
        for r in range(k - 1, 0, -1)
    ]
    return tuple([(s,) for s in singles] + pairs)


def frozen_orbit_order(n: int) -> tuple[tuple[Partition, ...], ...]:
    orbits: list[tuple[Partition, ...]] = [(plabic.face_label(n, plabic.TOP),)]
    for k in range(n - 1, 0, -1):
        orbits.append((plabic.face_label(n, (k, 0)), plabic.face_label(n, (0, k))))
    orbits.append((plabic.face_label(n, (0, 0)),))
    return tuple(orbits)


class FoldedMatrix(NamedTuple):
    n: int
    row_orbits: tuple[tuple[Partition, ...], ...]
    col_orbits: tuple[tuple[Partition, ...], ...]
    entries: tuple[tuple[int, ...], ...]


def fold(Q: Quiver, deadline: Deadline = Deadline()) -> FoldedMatrix:
    """Orbit-summed exchange matrix, mutable orbits first; the deadline is
    polled once per arrow, as the symmetry is checked, and once per row
    orbit.

    Raises if the transpose involution is not an arrow-preserving symmetry
    or if a column sum depends on the orbit member chosen.
    """
    counts = Q.arrow_counter()
    for (a, b), c in counts.items():
        deadline.check()
        if counts.get((transpose(a), transpose(b)), 0) != c:
            raise ValueError(f"transpose involution breaks at arrow {a} -> {b}")

    n = Q.n
    cols = mutable_orbit_order(n)
    rows = tuple(list(cols) + list(frozen_orbit_order(n)))
    entries = []
    for row_orbit in rows:
        deadline.check()
        row = []
        for col_orbit in cols:
            sums = {
                nu: sum(exchange_entry(counts, mu, nu) for mu in row_orbit)
                for nu in col_orbit
            }
            if len(set(sums.values())) != 1:
                raise ValueError(
                    f"fold ill-defined at rows {row_orbit} x columns {col_orbit}: {sums}"
                )
            row.append(next(iter(sums.values())))
        entries.append(tuple(row))
    return FoldedMatrix(n=n, row_orbits=rows, col_orbits=cols, entries=tuple(entries))


def folded_matrix(n: int, deadline: Deadline = Deadline()) -> FoldedMatrix:
    return fold(dual_quiver(plabic.build_corect_graph(n)), deadline)


def quiver_to_dot(Q: Quiver) -> str:
    lines = ["digraph quiver {"]
    for v in Q.vertices:
        shape = "box" if v in Q.frozen else "ellipse"
        lines.append(f'  "{format_partition(v)}" [shape={shape}];')
    for (a, b) in Q.arrows:
        lines.append(f'  "{format_partition(a)}" -> "{format_partition(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
