"""Reference definitions that the lattice-path code, the volume and the
f-vector in lgrnok are tested against.

lgrnok reads diagonal balances, transpose classes, diagonal lengths and the
hooks of a complement off the index set of a partition in O(n).  The
definitions here work cell by cell and hook by hook instead: slow, and
checkable by eye.  Likewise lgrnok finds every face of a polytope from one
facet run and takes a volume by unit-height pyramids, with no simplex; the
reference triangulation hulls each face again from its own points, its
simplices summed by determinant, and the reference f-vector closes the
vertex sets of the facets under intersection and ranks each face by its
vertices.  And lgrnok enumerates flows from one table of whole paths per
network; the reference walks the network vertex by vertex for every
target.  lgrnok sums each path's left faces from dart weights along the
walk; the reference flood-fills the left side of each path face by face.
lgrnok forces the perfect orientation from the boundary; the
reference searches every orientation by backtracking and stops at the
second.
And lgrnok evaluates a valuation's max-plus product on one packed integer
per class; the reference takes one short max-plus row per vector.  Its
flow valuation streams packed left-face counts summed over each path
system as it is placed; the reference counts the faces of each sorted `Flow`.  And its
antichain indicators are the bytes of a mask built during enumeration; the
reference tests every cell for membership.
And lgrnok proves M_n unimodular by its determinant alone; the paper's
column operations, which take M_n to a unit lower triangular matrix, are
replayed here as a lemma, with the integer matrix product they need.
And lgrnok folds the exchange matrix in one pass over the quiver's
arrows; the reference sums each exchange entry over each row orbit, for
every member of every column orbit.

The additivity lemmas, of the valuation and of maxdiag face by face,
split a class over the hooks of its complement read cell by cell; lgrnok
checks the valuation's additivity only as part of the main theorem's
vertex level, through the walk's own hook map.

The last few helpers have no caller in lgrnok: a matrix times a vector,
M_n applied to a vector, the rows of Gamma pulled back through M_n (the
hull level certifies Gamma's rows on Gamma's own points; the tests
compare these with the facets that `lgrnok delta` prints), flow
polynomials and their monomials, the order of P_n as the closure of
its covers (lgrnok reads the covers off a closed form of the order), a
vertex's neighbours, antichains, down-sets and the Dyck path of an
antichain and its inverse, a graph with one vertex recoloured, the
Euler relation of an f-vector, and a sweep that empties every cached
table.  Only the tests read them.
"""

import copy
import sys
from collections import Counter
from functools import cache
from itertools import combinations, islice
from operator import mul

from lgrnok import equivalence, plabic, quiverfold
from lgrnok.linalg import affine_pivot_columns, dot, invert, rref
from lgrnok.partitions import (
    cells,
    complement,
    diagonal_lengths,
    hook_partition,
    maxdiag,
    normalize,
    partition_to_indexset,
    skew_cells,
    transpose,
)
from lgrnok.plabic import Flow
from lgrnok.polytope import _facets_full_dim, normalize_row
from lgrnok.superpotential import build_poset, gamma_hrep, lex_cells
from lgrnok.valuation import (
    _corners,
    all_plucker_valuations,
    coordinate_system,
    face_coordinates,
    valuation_maxdiag,
)


def parse_partition(text):
    """A partition from its comma-separated parts; "", "0" or "-" is empty."""
    text = text.strip()
    if text in ("", "0", "-"):
        return ()
    return normalize(int(p) for p in text.split(","))


def partition_above_path(indexset, n):
    """Row r has one box per horizontal step after the r-th vertical step."""
    I = tuple(sorted(indexset))
    horizontals = sorted(set(range(1, 2 * n + 1)) - set(I))
    return normalize(sum(1 for h in horizontals if h > I[r]) for r in range(n))


@cache
def partitions_in_box(n):
    """All partitions inside the n x n square, ordered by their index sets."""
    return tuple(partition_above_path(I, n) for I in combinations(range(1, 2 * n + 1), n))


def diagonal_balance(lam):
    """(boxes strictly right of the main diagonal, boxes strictly below it)."""
    above = sum(1 for (r, c) in cells(lam) if c > r)
    below = sum(1 for (r, c) in cells(lam) if c < r)
    return above, below


def cell_diagonal_lengths(lam, n):
    """Cells of lam on each diagonal c - r = d, for d = 1-n, ..., n-1."""
    lengths = [0] * (2 * n - 1)
    for r, c in cells(lam):
        lengths[c - r + n - 1] += 1
    return tuple(lengths)


def orbit_representative(lam):
    """Canonical member of {lam, lam^T}: more boxes right of the diagonal."""
    t = transpose(lam)
    above, below = diagonal_balance(lam)
    if above > below:
        return lam
    if above < below:
        return t
    return max(lam, t)


def transpose_classes(n):
    """One representative per transpose class, in order of first appearance."""
    return tuple(dict.fromkeys(orbit_representative(lam) for lam in partitions_in_box(n)))


def as_runs(batches, items):
    """The batches and items cut into consecutive runs as long as the
    batches, each run as a multiset; the items must run out with the last
    batch.  Equal lists of runs say that each batch holds its run of the
    items, in whatever order."""
    items = iter(items)
    cut = [list(islice(items, len(batch))) for batch in batches]
    assert next(items, cut) is cut, "items left after the last batch"
    return list(map(Counter, batches)), list(map(Counter, cut))


def hook_decomposition(lam):
    """Principal hooks (arm, leg) along the main diagonal, outermost first."""
    lam = normalize(lam)
    t = transpose(lam)
    hooks = []
    k = 1
    while k <= len(lam) and lam[k - 1] >= k:
        hooks.append((lam[k - 1] - k + 1, t[k - 1] - k))
        k += 1
    return tuple(hooks)


def hook_complements(n, lam):
    """The complements in the n x n square of the principal hooks of lam's
    complement, the hooks read cell by cell."""
    return [complement(hook_partition(*hook), n) for hook in hook_decomposition(complement(lam, n))]


def maxdiag_additivity(n):
    """maxdiag(mu \\ lam) is the sum of maxdiag(mu \\ piece) over the hook
    complements of lam, at every class lam and every face label mu.
    Returns (ok, witness), the witness naming the first failing class."""
    labels = sorted(set(plabic.build_corect_graph(n).faces.values()))
    for lam in all_plucker_valuations(n):
        pieces = hook_complements(n, lam)
        for mu in labels:
            whole = maxdiag(skew_cells(mu, lam))
            split = sum(maxdiag(skew_cells(mu, piece)) for piece in pieces)
            if whole != split:
                return False, f"maxdiag over {mu} at {lam} is {whole}, its hooks sum to {split}"
    return True, ""


def valuation_additivity(n):
    """The valuation of p_lam is the coordinatewise sum of the valuations
    of lam's hook complements, at every class.  Returns (ok, witness), the
    witness naming the first failing class."""
    zero = (0,) * (n * (n + 1) // 2)
    for lam, value in all_plucker_valuations(n).items():
        pieces = [valuation_maxdiag(n, piece) for piece in hook_complements(n, lam)]
        split = tuple(map(sum, zip(zero, *pieces)))
        if split != value:
            return False, f"the valuation of {lam} is {value}, its hooks sum to {split}"
    return True, ""


def assemble_hooks(hooks):
    """Rebuild the partition whose principal hooks are `hooks`."""
    boxes = set()
    for k, (arm, leg) in enumerate(hooks, start=1):
        boxes.update((k, c) for c in range(k, k + arm))
        boxes.update((r, k) for r in range(k + 1, k + leg + 1))
    rows = {}
    for (r, c) in boxes:
        rows[r] = max(rows.get(r, 0), c)
    if set(rows) != set(range(1, len(rows) + 1)):
        raise ValueError("hooks do not assemble to a partition")
    lam = normalize(rows[r] for r in sorted(rows))
    if set(cells(lam)) != boxes:
        raise ValueError("hooks do not assemble to a partition")
    return lam


def antichain_from_partition(n, lam):
    """Hooks of the complement of lam as poset elements (n+1-a, b+n+1-a),
    a hook with arm <= leg transposed first; checked to be an antichain."""
    lam = normalize(lam)
    above, below = diagonal_balance(lam)
    if above < below:
        raise ValueError(f"{lam} has more boxes below the diagonal than right of it")
    hooks = hook_decomposition(complement(lam, n))
    balanced = [(b + 1, a - 1) if a <= b else (a, b) for (a, b) in hooks]
    members = frozenset((n + 1 - a, b + n + 1 - a) for (a, b) in balanced)
    P = build_poset(n)
    if len(members) != len(balanced) or not members <= set(P.elements):
        raise AssertionError(f"hooks of {lam} do not land in the poset: {sorted(members)}")
    if not is_antichain(P, members):
        raise AssertionError(f"hooks of {lam} do not form an antichain: {sorted(members)}")
    return members


def triangulate_by_face_hulls(points, memo):
    """Simplices (as point tuples) triangulating conv(points), the integer
    points sorted.

    Cones the least point over triangulations of the facets that avoid it,
    each face hulled again from its own points in the coordinates of its
    affine hull; memoized on the point set so shared faces are hulled once.
    """
    if points in memo:
        return memo[points]
    pivots = affine_pivot_columns(points)
    if len(points) == len(pivots) + 1:
        memo[points] = [points]
        return memo[points]
    projected = tuple(tuple(p[c] for c in pivots) for p in points)
    proj_rows = _facets_full_dim(tuple(sorted(set(projected))))
    apex = points[0]
    apex_proj = projected[0]
    simplices = []
    for coeffs, const in proj_rows:
        if dot(coeffs, apex_proj) + const == 0:
            continue
        on_facet = tuple(
            p for p, q in zip(points, projected) if dot(coeffs, q) + const == 0
        )
        for s in triangulate_by_face_hulls(on_facet, memo):
            simplices.append((apex,) + s)
    memo[points] = simplices
    return simplices


def f_vector_by_face_ranks(V):
    """(f_0, ..., f_{d-1}) of a full-dimensional conv(points).

    A point is a vertex when the normals of the facets through it span the
    space.  The vertex sets of the facets are closed under intersection,
    and each face is ranked by the affine rank of its vertices.
    """
    points = V.points
    rows = _facets_full_dim(points)
    verts = []
    for p in points:
        normals = [c for c, d in rows if dot(c, p) + d == 0]
        if normals and len(rref(normals)[1]) == V.dim:
            verts.append(p)
    facet_sets = [frozenset(i for i, p in enumerate(verts) if dot(c, p) + d == 0)
                  for c, d in rows]
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        fresh = set()
        for face in frontier:
            for fs in facet_sets:
                cut = face & fs
                if cut and cut != face and cut not in faces:
                    fresh.add(cut)
        faces |= fresh
        frontier = fresh
    counts = [0] * V.dim
    for face in faces:
        counts[len(affine_pivot_columns([verts[i] for i in face]))] += 1
    return tuple(counts)


@cache
def flood_left_faces(G, path):
    """All faces on the left of a boundary-to-boundary path.

    The path cuts the disk in two; flood-fill the left side through every
    edge the path does not use.
    """
    darts = list(zip(path, path[1:]))
    blocked = {frozenset(d) for d in darts}
    region = {G.left_face[d] for d in darts}
    frontier = list(region)
    while frontier:
        for edge, other in G.face_neighbours(frontier.pop()):
            if other not in region and edge not in blocked:
                region.add(other)
                frontier.append(other)
    return frozenset(region)


def enumerate_flows_by_dfs(G, O, J):
    """All flows from the orientation's source set to J, sorted, by a
    depth-first walk from each source in turn, one vertex at a time, to any
    free target of J."""
    J = tuple(sorted(J))
    n = G.n
    if len(J) != n or len(set(J)) != n or any(j < 1 or j > 2 * n for j in J):
        raise ValueError(f"{J} is not an n-subset of [2n] for n={n}")
    starts = sorted(set(O.source_set) - set(J))
    targets = {("b", t) for t in set(J) - set(O.source_set)}
    adj = O.out_neighbors()
    systems = []

    def extend(v, path, used, acc, i):
        for w in adj.get(v, ()):
            if w in used:
                continue
            if w[0] == "b":
                if w in targets:
                    place(i + 1, used | set(path) | {w}, acc + [tuple(path) + (w,)])
                continue
            path.append(w)
            used.add(w)
            extend(w, path, used, acc, i)
            used.discard(w)
            path.pop()

    def place(i, used, acc):
        if i == len(starts):
            systems.append(tuple(acc))
            return
        s = ("b", starts[i])
        extend(s, [s], used | {s}, acc, i)

    place(0, {("b", t) for t in J if t in O.source_set}, [])
    return tuple(Flow(paths=paths, left_faces=tuple(flood_left_faces(G, p) for p in paths))
                 for paths in sorted(systems))


def flow_vector(n, flow):
    """Exponent vector of a flow's monomial: the coordinate counts of every
    path's left faces, added up over the flow."""
    coords = face_coordinates(n)
    totals = [0] * len(coordinate_system(n))
    for faces in flow.left_faces:
        for face in faces:
            if coords[face] is not None:
                totals[coords[face]] += 1
    return tuple(totals)


def antichain_indicator(n, antichain):
    """0/1 vector of the antichain over the cells of P_n in lexicographic
    order, cell by cell."""
    return tuple(1 if c in antichain else 0 for c in lex_cells(n))


def perfect_orientations_by_search(G, sources):
    """Backtracking over edge directions with unit propagation, stopped at
    the second solution: enough to tell a unique orientation from others.

    Filled internal vertices need exactly one outgoing edge, hollow ones
    exactly one incoming; boundary sources point in, sinks point out.
    Returns the solutions found, each one dart per edge of `G.edges`.
    """
    src = set(sources)
    edges = G.edges
    index = {e: i for i, e in enumerate(edges)}
    incident = {}
    for e in edges:
        for v in e:
            incident.setdefault(v, []).append(index[e])

    assign = [None] * len(edges)
    solutions = []

    def force(i, dart, queue):
        if assign[i] is not None:
            return assign[i] == dart
        assign[i] = dart
        queue.append(i)
        return True

    def propagate(changed):
        queue = list(changed)
        touched = list(changed)
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

    def undo(touched):
        for i in touched:
            assign[i] = None

    seed = []
    for b in G.boundary:
        (i,) = incident[b]
        other = next(v for v in edges[i] if v != b)
        dart = (b, other) if b[1] in src else (other, b)
        if not force(i, dart, seed):
            return solutions
    ok, touched = propagate(seed)
    if not ok:
        return solutions

    def search():
        """True once the second solution is found."""
        try:
            i = assign.index(None)
        except ValueError:
            solutions.append(tuple(assign))
            return len(solutions) == 2
        u, w = sorted(edges[i])
        for dart in ((u, w), (w, u)):
            marker = []
            if force(i, dart, marker):
                ok, touched = propagate(marker)
                if ok and search():
                    return True
                undo(touched)
            else:
                undo(marker)
        return False

    search()
    return solutions


@cache
def orbit_table(n):
    """Every l_mu and l_{mu^T} at its corner diagonals, one row per vector:
    (the lengths there, their diagonals, the coordinate of {mu, mu^T})."""
    lengths = [diagonal_lengths(partition_to_indexset(mu, n), n) for mu in coordinate_system(n)]
    vectors = [(ell, k) for k, ell in enumerate(lengths)]
    vectors += [(ell[::-1], k) for k, ell in enumerate(lengths) if ell[::-1] != ell]
    return tuple((tuple(ell[d] for d in _corners(ell)), _corners(ell), k) for ell, k in vectors)


def maxplus_by_vector(n, low):
    """The closed-form valuation from diagonal lengths `low`, one short
    max-plus row per vector of `orbit_table`."""
    out = [0] * (n * (n + 1) // 2)
    for lengths, corners, k in orbit_table(n):
        out[k] += max(0, *(ell - low[d] for ell, d in zip(lengths, corners)))
    return tuple(out)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def block_diag(a, b):
    na, nb = len(a), len(b)
    return tuple(tuple(a[i][j] if i < na and j < na else
                       b[i - na][j - na] if i >= na and j >= na else 0
                       for j in range(na + nb)) for i in range(na + nb))


def corner_transform(n):
    """Column operations sending the upper left block of M_n to the
    identity: subtract each column from its right neighbour, subtract all
    later columns from the first, then reverse the column order."""
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


def reduction_matrix(n):
    """The paper's unimodular column operations R, meant to make M_n R
    lower triangular with unit diagonal.  Built blockwise: the corner
    transform upstairs, the (n-1) reduction downstairs, then column
    clean-up of the upper right block."""
    if n == 1:
        return ((1,),)
    M = equivalence.build_valuation_matrix(n).entries
    R = [list(row) for row in block_diag(corner_transform(n), reduction_matrix(n - 1))]
    prod = [list(row) for row in mat_mul(M, R)]
    for r in range(n - 1):
        for c in range(n, len(M)):
            coef = prod[r][c]
            if coef:
                for row_p, row_r in zip(prod, R):
                    row_p[c] -= coef * row_p[r]
                    row_r[c] -= coef * row_r[r]
    return tuple(tuple(row) for row in R)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def apply(M, vector):
    """M_n applied to a vector."""
    return mat_vec(M.entries, tuple(vector))


def pulled_back_gamma_rows(n):
    """Rows of Gamma carried to the coordinates of Delta = M_n(Gamma).

    With M.adj = det.I, the row c.x + d >= 0 on Gamma becomes
    sign(det).(c.adj).y + d.|det| >= 0 on y = M.x.
    """
    adj, det = invert(equivalence.build_valuation_matrix(n).entries)
    sign = 1 if det > 0 else -1
    adj_t = tuple(zip(*adj))
    return frozenset(
        normalize_row(tuple(sign * x for x in mat_vec(adj_t, c)), d * abs(det))
        for c, d in gamma_hrep(n).rows
    )


def exchange_entry(counts, mu, nu):
    """B_{mu,nu} = arrows mu -> nu minus arrows nu -> mu, counted in
    `Quiver.arrow_counter()`."""
    return counts.get((mu, nu), 0) - counts.get((nu, mu), 0)


def fold_by_orbit_pairs(Q):
    """The folded exchange matrix summed orbit pair by orbit pair: each
    row orbit against each member of each column orbit, B re-summed over
    the row orbit's members.  Raises as `quiverfold.fold` does, with the
    same witnesses."""
    counts = Q.arrow_counter()
    for (a, b), c in counts.items():
        if counts.get((transpose(a), transpose(b)), 0) != c:
            raise ValueError(f"transpose involution breaks at arrow {a} -> {b}")
    cols = quiverfold.mutable_orbit_order(Q.n)
    rows = cols + quiverfold.frozen_orbit_order(Q.n)
    entries = []
    for row_orbit in rows:
        row = []
        for col_orbit in cols:
            sums = {nu: sum(exchange_entry(counts, mu, nu) for mu in row_orbit) for nu in col_orbit}
            if len(set(sums.values())) != 1:
                raise ValueError(f"fold ill-defined at rows {row_orbit} x columns {col_orbit}: {sums}")
            row.append(next(iter(sums.values())))
        entries.append(tuple(row))
    return tuple(entries)


def flow_polynomial(G, O, J):
    """Flow monomials in the face variables, one per flow (coefficients are
    all 1 before any identification of faces)."""
    return tuple(flow.monomial(G) for flow in plabic.enumerate_flows(G, O, J))


def order_pairs(P):
    """The pairs (x, y) with x <= y in P: the reflexive and transitive
    closure of its cover relations, searched down from each element."""
    lower = {}
    for upper, low in P.covers():
        lower.setdefault(upper, []).append(low)
    pairs = set()
    for y in P.elements:
        stack = [y]
        while stack:
            x = stack.pop()
            if (x, y) not in pairs:
                pairs.add((x, y))
                stack.extend(lower.get(x, ()))
    return frozenset(pairs)


def monomial_key(mono):
    return tuple(sorted(mono.items()))


def neighbors(G, v):
    """The vertices joined to v by an edge, sorted."""
    return tuple(sorted(w for (u, w) in G.left_face if u == v))


def is_antichain(P, members):
    members = list(members)
    return all(
        not P.comparable(members[a], members[b])
        for a in range(len(members))
        for b in range(a + 1, len(members))
    )


def down_set(P, elements):
    """The elements of P below some element of `elements`."""
    return frozenset(x for x in P.elements if any(P.below(x, a) for a in elements))


def antichain_to_dyck(P, antichain):
    """Dyck path of length 2n+2 passing over exactly the down-set of the
    antichain, drawn over the tilted staircase of boxes b_ij.

    Box b_ij sits at abscissa n+j-2i+2 and is passed over when the path
    height there is at least n+2-j.
    """
    n = P.n
    if not is_antichain(P, antichain):
        raise ValueError(f"{sorted(antichain)} is not an antichain")
    ideal = down_set(P, antichain)
    heights = [0] * (2 * n + 3)
    for c in range(1, 2 * n + 2):
        covered = [j for (i, j) in ideal if n + j - 2 * i + 2 == c]
        heights[c] = (n + 2 - min(covered)) if covered else c % 2
    steps = tuple(heights[c + 1] - heights[c] for c in range(2 * n + 2))
    if any(s not in (-1, 1) for s in steps) or any(h < 0 for h in heights):
        raise AssertionError(f"ideal {sorted(ideal)} produced a broken path")
    return steps


def dyck_to_antichain(P, steps):
    """Inverse of antichain_to_dyck: maximal elements of the covered boxes."""
    n = P.n
    heights = [0]
    for s in steps:
        heights.append(heights[-1] + s)
    covered = {
        (i, j)
        for (i, j) in P.elements
        if heights[n + j - 2 * i + 2] >= n + 2 - j
    }
    leq = order_pairs(P)
    return frozenset(
        x for x in covered
        if not any(y != x and (x, y) in leq for y in covered)
    )


def recoloured(G, v):
    """A copy of G with the internal vertex v in the other colour."""
    planted = copy.copy(G)
    planted.colors = dict(G.colors)
    planted.colors[v] = "hollow" if G.colors[v] == "filled" else "filled"
    return planted


def euler_characteristic_ok(fvec):
    d = len(fvec)
    return sum((-1) ** i * f for i, f in enumerate(fvec)) == 1 - (-1) ** d


def clear_tables():
    """Empties every table lgrnok keeps: `cache_clear` on each attribute of
    an lgrnok module that has one, so that the next call builds afresh."""
    for name, module in list(sys.modules.items()):
        if name.startswith("lgrnok."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
