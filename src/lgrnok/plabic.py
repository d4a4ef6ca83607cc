"""The co-rectangles plabic graph, its perfect orientation, and flows.

The graph for side n is an (n-1) x (n-1) grid of bicolored vertices inside
a disk with 2n boundary vertices (1..n along the bottom, right to left;
n+1..2n down the right side):

* filled f(r,k) and hollow h(r,k) for rows r and columns k in 1..n-1,
* a filled apex T above the grid and a hollow vertex L on the left,
* column k walks  boundary k - f(1,k) - h(1,k) - ... - f(n-1,k) - h(n-1,k) - T,
* row r walks     L - f(r,n-1) - h(r,n-1) - ... - f(r,1) - h(r,1) - boundary 2n+1-r,
* plus the edges L-T, T-boundary(n+1), L-boundary(n).

Faces sit in strips k = 0..n-1 (k columns to the right) at heights
r = 0..n-1 and carry the label (n^k, r^(n-k)), the complement of an
(n-k) x (n-r) rectangle; one extra face above everything is labelled by the
full square.  For each edge we record which face lies on each side, which
is all the global structure flows need.  n = 1 degenerates to the triangle
L, T and two boundary vertices with faces {empty, square}.

A flow to an index set J is a family of vertex-disjoint directed paths, one
from each boundary source outside J to its own boundary target in J.  The
whole network has few source-to-boundary paths (251 at n=5, 923 at n=6),
so they are listed once per network, each with a bitmask of its internal
vertices and its left faces, and a flow is chosen path by path from that
table: a path fits when its end is free and its mask misses the others.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .partitions import Partition, normalize

Vertex = tuple
FaceId = tuple  # (k, r) or ("top",)
Dart = tuple[Vertex, Vertex]

TOP: FaceId = ("top",)


def _b(i: int) -> Vertex:
    return ("b", i)


def _f(r: int, k: int) -> Vertex:
    return ("f", r, k)


def _h(r: int, k: int) -> Vertex:
    return ("h", r, k)


T_VERTEX: Vertex = ("T",)
L_VERTEX: Vertex = ("L",)


def face_label(n: int, face: FaceId) -> Partition:
    if face == TOP:
        return (n,) * n
    k, r = face
    return normalize((n,) * k + (r,) * (n - k))


def vertex_name(v: Vertex) -> str:
    kind = v[0]
    if kind == "b":
        return str(v[1])
    if kind in ("f", "h"):
        return f"{kind}({v[1]},{v[2]})"
    return kind


class PlabicGraph:
    """Immutable-by-convention plabic graph with per-edge face sides."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.colors: dict[Vertex, str] = {}
        self.left_face: dict[Dart, FaceId] = {}
        self.faces: dict[FaceId, Partition] = {}
        self._build()

    # -- construction -------------------------------------------------

    def _add_edge(self, tail: Vertex, head: Vertex, left: FaceId, right: FaceId):
        self.left_face[(tail, head)] = left
        self.left_face[(head, tail)] = right

    def _build(self):
        n = self.n
        for r in range(1, n):
            for k in range(1, n):
                self.colors[_f(r, k)] = "filled"
                self.colors[_h(r, k)] = "hollow"
        self.colors[T_VERTEX] = "filled"
        self.colors[L_VERTEX] = "hollow"

        for k in range(1, n):
            self._add_edge(_b(k), _f(1, k), (k, 0), (k - 1, 0))
            for r in range(1, n):
                self._add_edge(_f(r, k), _h(r, k), (k, r), (k - 1, r - 1))
            for r in range(1, n - 1):
                self._add_edge(_h(r, k), _f(r + 1, k), (k, r), (k - 1, r))
            self._add_edge(_h(n - 1, k), T_VERTEX, (k, n - 1), (k - 1, n - 1))
        for r in range(1, n):
            self._add_edge(L_VERTEX, _f(r, n - 1), (n - 1, r), (n - 1, r - 1))
            for k in range(2, n):
                self._add_edge(_h(r, k), _f(r, k - 1), (k - 1, r), (k - 1, r - 1))
            self._add_edge(_h(r, 1), _b(2 * n + 1 - r), (0, r), (0, r - 1))
        self._add_edge(L_VERTEX, T_VERTEX, TOP, (n - 1, n - 1))
        self._add_edge(T_VERTEX, _b(n + 1), TOP, (0, n - 1))
        self._add_edge(L_VERTEX, _b(n), (n - 1, 0), TOP)

        for k in range(n):
            for r in range(n):
                self.faces[(k, r)] = face_label(n, (k, r))
        self.faces[TOP] = face_label(n, TOP)

        seen = {frozenset(d) for d in self.left_face}
        self._edges = tuple(sorted(seen, key=lambda e: tuple(sorted(e))))
        self._face_edges: dict[FaceId, list[frozenset]] = {f: [] for f in self.faces}
        for e in self._edges:
            for side in self.face_sides(e):
                self._face_edges[side].append(e)

    # -- derived structure ---------------------------------------------

    @property
    def boundary(self) -> tuple[Vertex, ...]:
        return tuple(_b(i) for i in range(1, 2 * self.n + 1))

    @property
    def edges(self) -> tuple[frozenset, ...]:
        return self._edges

    def internal_vertices(self) -> tuple[Vertex, ...]:
        return tuple(sorted(self.colors))

    def face_sides(self, edge: frozenset) -> tuple[FaceId, FaceId]:
        u, v = sorted(edge)
        return self.left_face[(u, v)], self.left_face[(v, u)]

    def face_edges(self, face: FaceId) -> tuple[frozenset, ...]:
        return tuple(self._face_edges[face])

    def face_boundary(self, face: FaceId) -> tuple[Vertex, ...]:
        """Boundary walk of a face: a cycle for interior faces, a path whose
        endpoints are boundary vertices for disk-adjacent faces."""
        edges = [e for e in self.edges if face in self.face_sides(e)]
        adj: dict[Vertex, list[Vertex]] = {}
        for e in edges:
            u, v = sorted(e)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        odd = sorted(v for v, ws in adj.items() if len(ws) == 1)
        walk = [odd[0] if odd else min(adj)]
        prev = None
        while True:
            options = sorted(w for w in adj[walk[-1]] if w != prev)
            if not options:
                break
            prev = walk[-1]
            walk.append(options[0])
            if not odd and walk[-1] == walk[0]:
                walk.pop()
                break
            if odd and len(walk) == len(edges) + 1:
                break
        return tuple(walk)

    def boundary_adjacent_faces(self) -> frozenset[FaceId]:
        out = set()
        for (u, v), face in self.left_face.items():
            if u[0] == "b" or v[0] == "b":
                out.add(face)
        return frozenset(out)


@cache
def build_corect_graph(n: int) -> PlabicGraph:
    """Co-rectangles graph on 2n boundary vertices; n = 1 is the degenerate
    two-face triangle through L and T."""
    return PlabicGraph(n)


# -- perfect orientations ----------------------------------------------


@dataclass(frozen=True)
class PerfectOrientation:
    direction: tuple[Dart, ...]  # one (tail, head) per edge
    source_set: tuple[int, ...]

    def out_neighbors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        adj: dict[Vertex, list[Vertex]] = {}
        for (t, h) in self.direction:
            adj.setdefault(t, []).append(h)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def _all_perfect_orientations(G: PlabicGraph, sources):
    """Backtracking over edge directions with unit propagation, stopped at
    the second solution: enough to tell a unique orientation from others.

    Filled internal vertices need exactly one outgoing edge, hollow ones
    exactly one incoming; boundary sources point in, sinks point out.
    """
    src = set(sources)
    edges = G.edges
    index = {e: i for i, e in enumerate(edges)}
    incident: dict[Vertex, list[int]] = {}
    for e in edges:
        for v in e:
            incident.setdefault(v, []).append(index[e])

    assign: list[Dart | None] = [None] * len(edges)
    solutions: list[tuple[Dart, ...]] = []

    def force(i: int, dart: Dart, queue: list[int]) -> bool:
        if assign[i] is not None:
            return assign[i] == dart
        assign[i] = dart
        queue.append(i)
        return True

    def propagate(changed: list[int]) -> tuple[bool, list[int]]:
        queue = list(changed)
        touched: list[int] = list(changed)
        while queue:
            i = queue.pop()
            for v in edges[i]:
                if v not in G.colors:
                    continue
                want_out = G.colors[v] == "filled"
                outs = ins = 0
                open_edges = []
                for j in incident[v]:
                    d = assign[j]
                    if d is None:
                        open_edges.append(j)
                    elif d[0] == v:
                        outs += 1
                    else:
                        ins += 1
                have = outs if want_out else ins
                if have > 1 or (have == 0 and not open_edges):
                    return False, touched
                if have == 1:
                    for j in open_edges:
                        u, w = sorted(edges[j])
                        other = w if u == v else u
                        dart = (other, v) if want_out else (v, other)
                        if not force(j, dart, queue):
                            return False, touched
                        touched.append(j)
                elif len(open_edges) == 1:
                    j = open_edges[0]
                    u, w = sorted(edges[j])
                    other = w if u == v else u
                    dart = (v, other) if want_out else (other, v)
                    if not force(j, dart, queue):
                        return False, touched
                    touched.append(j)
        return True, touched

    def undo(touched: list[int], keep: int):
        for i in touched[keep:]:
            assign[i] = None

    seed: list[int] = []
    for b in G.boundary:
        (i,) = incident[b]
        other = next(v for v in edges[i] if v != b)
        dart = (b, other) if b[1] in src else (other, b)
        if not force(i, dart, seed):
            return solutions
    ok, touched = propagate(seed)
    if not ok:
        undo(touched, 0)
        return solutions

    def search() -> bool:
        """True once the second solution is found."""
        try:
            i = assign.index(None)
        except ValueError:
            solutions.append(tuple(assign))  # type: ignore[arg-type]
            return len(solutions) == 2
        u, w = sorted(edges[i])
        for dart in ((u, w), (w, u)):
            marker: list[int] = []
            if force(i, dart, marker):
                ok, touched = propagate(marker)
                if ok and search():
                    return True
                undo(touched, 0)
            else:
                undo(marker, 0)
        return False

    search()
    return solutions


def find_perfect_orientation(G: PlabicGraph, sources) -> PerfectOrientation:
    """The unique perfect orientation with the given boundary source set."""
    sources = tuple(sorted(sources))
    solutions = _all_perfect_orientations(G, sources)
    if len(solutions) != 1:
        raise ValueError(
            f"expected a unique perfect orientation for sources {sources}, "
            f"found {len(solutions)}"
        )
    return PerfectOrientation(direction=solutions[0], source_set=sources)


@cache
def corect_network(n: int) -> tuple[PlabicGraph, PerfectOrientation]:
    """Graph plus its perfect orientation with sources {1,...,n}."""
    G = build_corect_graph(n)
    return G, find_perfect_orientation(G, range(1, n + 1))


# -- flows ---------------------------------------------------------------


@dataclass(frozen=True)
class Flow:
    """Vertex-disjoint directed paths; left_faces[i] collects every face on
    the left of paths[i], not just the faces it borders."""

    paths: tuple[tuple[Vertex, ...], ...]
    left_faces: tuple[frozenset, ...]

    def monomial(self, G: PlabicGraph) -> Counter:
        weight: Counter = Counter()
        for faces in self.left_faces:
            for f in faces:
                weight[G.faces[f]] += 1
        return weight


@cache
def path_left_faces(G: PlabicGraph, path: tuple[Vertex, ...]) -> frozenset:
    """All faces on the left of a boundary-to-boundary path.

    The path cuts the disk in two; flood-fill the left side through every
    edge the path does not use.  Cached, since the flows to different
    targets share most of their paths.
    """
    darts = list(zip(path, path[1:]))
    blocked = {frozenset(d) for d in darts}
    region = {G.left_face[d] for d in darts}
    frontier = list(region)
    while frontier:
        face = frontier.pop()
        for edge in G.face_edges(face):
            if edge in blocked:
                continue
            sides = G.face_sides(edge)
            other = sides[1] if sides[0] == face else sides[0]
            if other not in region:
                region.add(other)
                frontier.append(other)
    return frozenset(region)


@cache
def _path_table(G: PlabicGraph, O: PerfectOrientation) -> dict[int, tuple[tuple, ...]]:
    """Every directed path from each boundary source of O to the boundary,
    in lexicographic order: (vertices, mask, end, left faces) per path,
    keyed by the source's label.

    The mask has the bits of the path's internal vertices, one bit per
    vertex of `sorted(G.colors)`; `end` is the label of the boundary vertex
    the path stops at, the first one it reaches.  No path repeats a vertex,
    whether or not the network is acyclic.  Built on first use, once per
    network.
    """
    adj = O.out_neighbors()
    bit = {v: 1 << k for k, v in enumerate(sorted(G.colors))}
    table = {}
    for s in O.source_set:
        paths = []

        def walk(path: tuple[Vertex, ...], mask: int):
            for w in adj.get(path[-1], ()):
                longer = path + (w,)
                if w not in bit:
                    paths.append((longer, mask, w[1], path_left_faces(G, longer)))
                elif not mask & bit[w]:
                    walk(longer, mask | bit[w])

        walk((_b(s),), 0)
        table[s] = tuple(paths)
    return table


def enumerate_flows(G: PlabicGraph, O: PerfectOrientation, J) -> tuple[Flow, ...]:
    """All flows from the orientation's source set to J, in lexicographic
    order of their path vertex sequences.

    A flow joins each source outside J to its own target of J outside the
    source set, by vertex-disjoint paths; every matching of sources to
    targets is tried.  The paths come whole from `_path_table`, grouped per
    source by their end: the sources are placed in ascending order, each
    taking a path to a free target whose mask misses the union of the
    masks taken so far.  A boundary vertex has one edge, so the masks alone
    keep the ends apart; tracking the free targets skips whole groups.
    """
    J = tuple(sorted(J))
    n = G.n
    if len(J) != n or len(set(J)) != n or any(j < 1 or j > 2 * n for j in J):
        raise ValueError(f"{J} is not an n-subset of [2n] for n={n}")
    table = _path_table(G, O)
    targets = frozenset(J) - set(O.source_set)
    by_end: list[dict[int, list]] = []
    for s in sorted(set(O.source_set) - set(J)):
        ends: dict[int, list] = {}
        for path, mask, end, left in table[s]:
            if end in targets:
                ends.setdefault(end, []).append((mask, (path, left)))
        by_end.append(ends)
    systems = []

    def place(i: int, used: int, free: frozenset, acc: tuple):
        if i == len(by_end):
            systems.append(acc)
            return
        for end in free:
            rest = free - {end}
            for mask, entry in by_end[i].get(end, ()):
                if not mask & used:
                    place(i + 1, used | mask, rest, acc + (entry,))

    place(0, 0, targets, ())
    systems.sort(key=lambda acc: [path for path, _ in acc])
    return tuple(Flow(paths=tuple(path for path, _ in acc), left_faces=tuple(left for _, left in acc))
                 for acc in systems)


# -- exports --------------------------------------------------------------


def graph_to_dot(G: PlabicGraph, O: PerfectOrientation | None = None) -> str:
    lines = ["digraph corect {" if O else "graph corect {"]
    for v in G.boundary:
        lines.append(f'  "{vertex_name(v)}" [shape=plaintext];')
    for v in G.internal_vertices():
        fill = "black" if G.colors[v] == "filled" else "white"
        lines.append(
            f'  "{vertex_name(v)}" [shape=circle, style=filled, '
            f'fillcolor={fill}, label=""];'
        )
    if O:
        for (t, h) in sorted(O.direction):
            lines.append(f'  "{vertex_name(t)}" -> "{vertex_name(h)}";')
    else:
        for e in G.edges:
            u, v = sorted(e)
            lines.append(f'  "{vertex_name(u)}" -- "{vertex_name(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def faces_json(G: PlabicGraph) -> list[dict]:
    from .partitions import format_partition

    out = []
    for face in sorted(G.faces, key=lambda f: (f == TOP, f)):
        out.append(
            {
                "label": format_partition(G.faces[face]),
                "boundary": [vertex_name(v) for v in G.face_boundary(face)],
            }
        )
    return out
