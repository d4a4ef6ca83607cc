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

The perfect orientation with sources {1..n} is not searched for: the
boundary edges and the one-edge rule at each vertex force every edge, so
the orientation found is the only one.

A flow to an index set J is a family of vertex-disjoint directed paths, one
from each boundary source outside J to its own boundary target in J.  The
whole network has few source-to-boundary paths (251 at n=5, 923 at n=6;
C(2n, n) - 1 for every n <= 8 tested), so they are listed once per
network, grouped by source and by end, each with a bitmask of its internal
vertices and one of its left faces.  The left faces come from the dual BFS
tree rooted at the face of the empty label, which lies right of every
path: it gives each dart a weight (`dual_cuts`), and the walk that lists
the paths adds one weight per step.  One placement routine, `flow_systems`,
chooses a flow path by path from a table laid out like that one, with one
value per path: a path fits when its end is free and its mask misses the
others, and a flow streams as a start value plus its paths' values.
`enumerate_flows` sums 1-tuples of vertices and left faces onto () and wraps
each in a `Flow`; the flow oracle in `valuation` reads one row table per n
of packed counts, summed onto 0, so no flow is listed.
Each group of the table is in lexicographic order, so the flows come out
in lexicographic order too.
"""

from __future__ import annotations

import gc
from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import cache
from types import MappingProxyType

from .budget import armed, polled
from .partitions import Partition, normalize

Vertex = tuple
FaceId = tuple  # (k, r) or ("top",)
Dart = tuple[Vertex, Vertex]

TOP: FaceId = ("top",)
# The face of the empty label, right of every path from 1..n to n+1..2n.
BASE: FaceId = (0, 0)


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


@cache
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
        """The graph, with the deadline polled once per row or column of
        the grid and once per POLL_EVERY edges."""
        n = self.n
        for r in range(1, n):
            for k in range(1, n):
                self.colors[_f(r, k)] = "filled"
                self.colors[_h(r, k)] = "hollow"
        self.colors[T_VERTEX] = "filled"
        self.colors[L_VERTEX] = "hollow"

        for k in range(1, n):
            armed().check()
            self._add_edge(_b(k), _f(1, k), (k, 0), (k - 1, 0))
            for r in range(1, n):
                self._add_edge(_f(r, k), _h(r, k), (k, r), (k - 1, r - 1))
            for r in range(1, n - 1):
                self._add_edge(_h(r, k), _f(r + 1, k), (k, r), (k - 1, r))
            self._add_edge(_h(n - 1, k), T_VERTEX, (k, n - 1), (k - 1, n - 1))
        for r in range(1, n):
            armed().check()
            self._add_edge(L_VERTEX, _f(r, n - 1), (n - 1, r), (n - 1, r - 1))
            for k in range(2, n):
                self._add_edge(_h(r, k), _f(r, k - 1), (k - 1, r), (k - 1, r - 1))
            self._add_edge(_h(r, 1), _b(2 * n + 1 - r), (0, r), (0, r - 1))
        self._add_edge(L_VERTEX, T_VERTEX, TOP, (n - 1, n - 1))
        self._add_edge(T_VERTEX, _b(n + 1), TOP, (0, n - 1))
        self._add_edge(L_VERTEX, _b(n), (n - 1, 0), TOP)

        for k in range(n):
            armed().check()
            for r in range(n):
                self.faces[(k, r)] = face_label(n, (k, r))
        self.faces[TOP] = face_label(n, TOP)

        seen = {frozenset(d) for d in polled(self.left_face)}
        self._edges = tuple(sorted(seen, key=lambda e: tuple(sorted(e))))
        neighbours: dict[FaceId, list] = {f: [] for f in self.faces}
        for e in polled(self._edges):
            left, right = self.face_sides(e)
            neighbours[left].append((e, right))
            neighbours[right].append((e, left))
        self._face_neighbours = {f: tuple(pairs) for f, pairs in neighbours.items()}

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

    def face_neighbours(self, face: FaceId) -> tuple[tuple[frozenset, FaceId], ...]:
        """(edge, face across it) for each edge of the face, in edge order."""
        return self._face_neighbours[face]

    def face_boundary(self, face: FaceId) -> tuple[Vertex, ...]:
        """Boundary walk of a face: a cycle for interior faces, a path whose
        endpoints are boundary vertices for disk-adjacent faces."""
        edges = [e for e, _ in self.face_neighbours(face)]
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


class PerfectOrientation(namedtuple("PerfectOrientation", "direction source_set")):
    """direction holds one (tail, head) dart per edge."""

    __slots__ = ()

    def out_neighbors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        adj: dict[Vertex, list[Vertex]] = {}
        for (t, h) in self.direction:
            adj.setdefault(t, []).append(h)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def find_perfect_orientation(G: PlabicGraph, sources) -> PerfectOrientation:
    """The perfect orientation with the given boundary source set, forced
    edge by edge from the boundary.

    Boundary sources point in, sinks point out.  A filled internal vertex
    has exactly one outgoing edge and a hollow one exactly one incoming:
    once a vertex has its one edge, its open edges take the other way; a
    vertex with none and one open edge gives it that edge.  Every step is
    forced, so an orientation found this way is the only one.  Raises
    ValueError at an edge forced both ways, at a vertex that cannot meet
    its rule, or when edges are left open.  The deadline is polled every
    POLL_EVERY forced edges.
    """
    sources = tuple(sorted(sources))
    edges = G.edges
    incident: dict[Vertex, list[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(i)
    assign: list[Dart | None] = [None] * len(edges)
    queue: list[int] = []
    tick = armed().tick

    def force(i: int, dart: Dart):
        if assign[i] is None:
            assign[i] = dart
            queue.append(i)
        elif assign[i] != dart:
            u, w = map(vertex_name, dart)
            raise ValueError(f"edge {u}-{w} is forced both ways for sources {sources}")

    for b in G.boundary:
        (i,) = incident[b]
        (v,) = edges[i] - {b}
        force(i, (b, v) if b[1] in sources else (v, b))
    while queue:
        tick()
        for v in edges[queue.pop()]:
            color = G.colors.get(v)
            if color is None:
                continue
            side = 0 if color == "filled" else 1  # where v sits in its one dart
            have = sum(1 for j in incident[v] if assign[j] and assign[j][side] == v)
            open_edges = [j for j in incident[v] if assign[j] is None]
            if have > 1 or not (have or open_edges):
                raise ValueError(f"{color} vertex {vertex_name(v)} cannot have exactly one "
                                 f"{('out', 'in')[side]}-edge for sources {sources}")
            if have or len(open_edges) == 1:
                for j in open_edges:
                    (w,) = edges[j] - {v}
                    dart = (v, w) if color == "filled" else (w, v)
                    force(j, dart[::-1] if have else dart)
    if None in assign:
        raise ValueError(f"{assign.count(None)} edges are not forced for sources {sources}")
    return PerfectOrientation(direction=tuple(assign), source_set=sources)


@cache
def corect_network(n: int) -> tuple[PlabicGraph, PerfectOrientation]:
    """Graph plus its perfect orientation with sources {1,...,n}."""
    G = build_corect_graph(n)
    return G, find_perfect_orientation(G, range(1, n + 1))


# -- flows ---------------------------------------------------------------


class Flow(namedtuple("Flow", "paths left_faces")):
    """Vertex-disjoint directed paths; left_faces[i] collects every face on
    the left of paths[i], not just the faces it borders."""

    __slots__ = ()

    def monomial(self, G: PlabicGraph) -> Counter:
        return Counter(G.faces[f] for faces in self.left_faces for f in faces)


@cache
def dual_cuts(G: PlabicGraph) -> tuple[tuple[FaceId, ...], MappingProxyType[Dart, int]]:
    """The face order of the left-face bitmasks, and the weight of each dart,
    from the dual BFS tree rooted at BASE; read-only, as they are shared.

    A face lies left of a boundary-to-boundary path exactly when its tree
    path from BASE, which lies right of every path, crosses the path's
    edges an odd number of times; the crossings alternate in direction, so
    their signed count is that side, 0 or 1.  So each dart weighs +2**i for
    each face i whose tree path crosses it from its right face to its left
    face and -2**i for each that crosses it the other way: the faces below
    a tree edge, summed child by child up the tree, and 0 off the tree.  A
    path's darts then sum to its left-face bitmask.  BASE is the last face,
    so a path that had it on its left would sum to a negative number.
    """
    order, parent = [BASE], {BASE: None}
    for face in order:  # grows in BFS order while it is read
        for edge, other in G.face_neighbours(face):
            if other not in parent:
                parent[other] = edge, face
                order.append(other)
    faces = (*order[1:], BASE)
    below = {face: 1 << i for i, face in enumerate(faces)}
    weight = dict.fromkeys(G.left_face, 0)
    for face in reversed(order[1:]):  # each face after every face below it
        edge, up = parent[face]
        u, v = edge
        if G.left_face[u, v] != face:
            u, v = v, u
        weight[u, v], weight[v, u] = below[face], -below[face]
        if up != BASE:
            below[up] += below[face]
    return faces, MappingProxyType(weight)


@cache
def path_left_faces(G: PlabicGraph, left: int) -> frozenset:
    """The faces on the left of a path, decoded from the left-face bitmask
    its darts' weights sum to: bit i stands for face i of `dual_cuts`."""
    faces, _ = dual_cuts(G)
    return frozenset(face for i, face in enumerate(faces) if left >> i & 1)


@cache
def _path_table(G: PlabicGraph, O: PerfectOrientation) -> dict[int, dict[int, tuple]]:
    """Every directed path from each boundary source of O to the boundary,
    keyed by the source's label and then by the label of the path's end,
    the first boundary vertex it reaches; each group in lexicographic
    order, as (mask, vertices, left) per path.

    The mask has the bits of the path's internal vertices, one bit per
    vertex of `sorted(G.colors)`.  No path repeats a vertex, whether or
    not the network is acyclic.  `left` is the path's left-face bitmask,
    one add of a dart weight per step of the walk; a path whose sum is
    negative or sets the base face's bit raises ValueError, since the
    weights assume the base face lies right of every path.  Built on first use,
    once per network; the deadline ticks once per step of the walk.
    """
    adj = O.out_neighbors()
    bit = {v: 1 << k for k, v in enumerate(sorted(G.colors))}
    faces, weight = dual_cuts(G)
    base = len(faces) - 1
    tick = armed().tick
    table = {}
    for s in O.source_set:
        by_end: dict[int, list] = {}

        def walk(path: tuple[Vertex, ...], mask: int, left: int):
            tick()
            v = path[-1]
            for w in adj.get(v, ()):
                longer, on_left = path + (w,), left + weight[v, w]
                if w not in bit:
                    if on_left >> base:
                        raise ValueError(f"path {'-'.join(map(vertex_name, longer))} does not "
                                         "have the base face on its right")
                    by_end.setdefault(w[1], []).append((mask, longer, on_left))
                elif not mask & bit[w]:
                    walk(longer, mask | bit[w], on_left)

        walk((_b(s),), 0, 0)
        table[s] = {end: tuple(paths) for end, paths in by_end.items()}
    return table


def flow_systems(G: PlabicGraph, O: PerfectOrientation, J, rows: dict, start) -> Iterator:
    """For each flow from the orientation's source set to J, in
    lexicographic order of its path vertex sequences, the sum start +
    value + ... of its paths' values by ascending source, streamed; `rows`
    holds them laid out like `_path_table`, (mask, value) per path.

    A flow joins each source outside J to its own target of J outside the
    source set, by vertex-disjoint paths.  The matching is forced: the
    sources are 1..n and the targets lie in n+1..2n, and disjoint paths in
    the disk cannot cross, so the i-th smallest source goes to the i-th
    largest target.  Raises ValueError if the source set is not 1..n.
    Each source in ascending order takes a path to its target whose mask
    misses the union of the masks taken so far, in its group's order.  A
    boundary vertex has one edge, so the masks alone keep the ends apart.
    The deadline ticks once per flow.
    """
    J = tuple(sorted(J))
    n = G.n
    if len(J) != n or len(set(J)) != n or any(j < 1 or j > 2 * n for j in J):
        raise ValueError(f"{J} is not an n-subset of [2n] for n={n}")
    if sorted(O.source_set) != list(range(1, n + 1)):
        raise ValueError(f"source set {sorted(O.source_set)} is not 1..{n}: "
                         "the source-to-target matching is not forced")
    tick = armed().tick
    sources = [s for s in range(1, n + 1) if s not in J]
    targets = [t for t in reversed(J) if t > n]
    groups = [rows[s].get(t, ()) for s, t in zip(sources, targets)]
    *first, last = groups or [()]

    def prefixes(i: int, used: int, acc) -> Iterator:
        if i == len(first):
            yield used, acc
            return
        for mask, part in first[i]:
            if not mask & used:
                yield from prefixes(i + 1, used | mask, acc + part)

    def place() -> Iterator:
        if not groups:  # J holds every source: the one flow is empty
            tick()
            yield start
            return
        for used, acc in prefixes(0, 0, start):
            for mask, part in last:
                if not mask & used:
                    tick()
                    yield acc + part

    return place()


def enumerate_flows(G: PlabicGraph, O: PerfectOrientation, J) -> tuple[Flow, ...]:
    """All flows from the orientation's source set to J (`flow_systems` on
    the paths of `_path_table` from outside J into J, each valued as the
    1-tuple of its vertices and left faces), in lexicographic order of their
    path vertex sequences; the deadline is polled by both and every POLL_EVERY flows.

    The cyclic garbage collector is paused while the flows are built, and
    restored after: they hold no cycle, and at n=8 (990,648 flows to
    1,2,4,6,9,11,13,15) its full collections of the growing tuple took
    about half the time."""
    rows = {s: {t: [(mask, ((path, path_left_faces(G, left)),)) for mask, path, left in group]
                for t, group in ends.items() if t in J}
            for s, ends in _path_table(G, O).items() if s not in J}
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(Flow(paths=tuple(path for path, _ in acc),
                          left_faces=tuple(left for _, left in acc))
                     for acc in polled(flow_systems(G, O, J, rows, ())))
    finally:
        if enabled:
            gc.enable()


# -- exports --------------------------------------------------------------


def graph_to_dot(G: PlabicGraph, O: PerfectOrientation | None = None) -> Iterator[str]:
    """The graph, or the network with O, as the lines of a dot file, made
    as they are read."""
    yield "digraph corect {" if O else "graph corect {"
    for v in G.boundary:
        yield f'  "{vertex_name(v)}" [shape=plaintext];'
    for v in G.internal_vertices():
        fill = "black" if G.colors[v] == "filled" else "white"
        yield f'  "{vertex_name(v)}" [shape=circle, style=filled, fillcolor={fill}, label=""];'
    if O:
        for (t, h) in sorted(O.direction):
            yield f'  "{vertex_name(t)}" -> "{vertex_name(h)}";'
    else:
        for e in G.edges:
            u, v = sorted(e)
            yield f'  "{vertex_name(u)}" -- "{vertex_name(v)}";'
    yield "}"


def faces_json(G: PlabicGraph) -> list[dict]:
    from .partitions import format_partition

    out = []
    for face in polled(sorted(G.faces, key=lambda f: (f == TOP, f))):
        out.append(
            {
                "label": format_partition(G.faces[face]),
                "boundary": [vertex_name(v) for v in G.face_boundary(face)],
            }
        )
    return out
