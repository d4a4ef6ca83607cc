import gc
import math
import random
from functools import lru_cache
from itertools import combinations, product

import pytest

from lgrnok import plabic, valuation
from lgrnok.budget import POLL_EVERY, Deadline, TimeBudgetExceeded, arm
from lgrnok.partitions import partition_to_indexset, transpose
from lgrnok.valuation import orbit_vector
from oracles import (
    enumerate_flows_by_dfs,
    flood_left_faces,
    flow_polynomial,
    monomial_key,
    neighbors,
    partitions_in_box,
    perfect_orientations_by_search,
    recoloured,
)
from test_superpotential import CountingDeadline


def test_face_labels_n3():
    G = plabic.build_corect_graph(3)
    assert set(G.faces.values()) == {
        (), (3,), (3, 3), (3, 3, 3), (1, 1, 1), (2, 2, 2),
        (3, 1, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2),
    }


def test_face_labels_n4():
    G = plabic.build_corect_graph(4)
    assert set(G.faces.values()) == {
        (), (4,), (4, 4), (4, 4, 4), (4, 4, 4, 4),
        (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3),
        (4, 1, 1, 1), (4, 2, 2, 2), (4, 3, 3, 3),
        (4, 4, 1, 1), (4, 4, 2, 2), (4, 4, 3, 3),
        (4, 4, 4, 1), (4, 4, 4, 2), (4, 4, 4, 3),
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_counts(n):
    G = plabic.build_corect_graph(n)
    assert len(G.faces) == n * n + 1
    assert len(G.colors) == 2 * (n - 1) ** 2 + 2
    labels = set(G.faces.values())
    assert labels == {transpose(l) for l in labels}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_degrees(n):
    G = plabic.build_corect_graph(n)
    for v in G.colors:
        expected = n + 1 if v in (("T",), ("L",)) else 3
        assert len(neighbors(G, v)) == expected
    for b in G.boundary:
        assert len(neighbors(G, b)) == 1


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        plabic.build_corect_graph(0)


def _brute_force_orientations(G, sources):
    """Ground truth by trying all 2^|E| edge directions."""
    src = set(sources)
    edges = G.edges
    found = []
    for bits in product((0, 1), repeat=len(edges)):
        darts = []
        for e, bit in zip(edges, bits):
            u, v = sorted(e)
            darts.append((u, v) if bit else (v, u))
        ok = True
        for b in G.boundary:
            (d,) = [d for d in darts if b in d]
            if (d[0] == b) != (b[1] in src):
                ok = False
                break
        if ok:
            for v, color in G.colors.items():
                outs = sum(1 for d in darts if d[0] == v)
                ins = sum(1 for d in darts if d[1] == v)
                if color == "filled" and outs != 1:
                    ok = False
                    break
                if color == "hollow" and ins != 1:
                    ok = False
                    break
        if ok:
            found.append(tuple(darts))
    return found


def test_orientation_matches_brute_force_n2():
    G = plabic.build_corect_graph(2)
    brute = _brute_force_orientations(G, (1, 2))
    assert len(brute) == 1
    O = plabic.find_perfect_orientation(G, (1, 2))
    assert set(O.direction) == set(brute[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_forcing_agrees_with_search_for_every_source_set(n):
    # Where the search finds exactly one orientation the forcing pass
    # returns it, dart for dart; everywhere else the pass raises.
    G = plabic.build_corect_graph(n)
    for sources in combinations(range(1, 2 * n + 1), n):
        found = perfect_orientations_by_search(G, sources)
        if len(found) == 1:
            assert plabic.find_perfect_orientation(G, sources).direction == found[0], sources
        else:
            with pytest.raises(ValueError):
                plabic.find_perfect_orientation(G, sources)


def test_two_orientations_are_not_forced():
    G = plabic.build_corect_graph(3)
    assert len(perfect_orientations_by_search(G, (1, 2, 4))) == 2
    with pytest.raises(ValueError, match="edges are not forced for sources \\(1, 2, 4\\)"):
        plabic.find_perfect_orientation(G, (1, 2, 4))


def test_recoloured_vertex_is_named():
    G = recoloured(plabic.build_corect_graph(3), ("f", 1, 2))
    with pytest.raises(ValueError, match="hollow vertex f\\(1,2\\) cannot have exactly one in-edge"):
        plabic.find_perfect_orientation(G, (1, 2, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orientation_exists_and_unique(n):
    G, O = plabic.corect_network(n)
    assert O.source_set == tuple(range(1, n + 1))
    outs = {v: 0 for v in G.colors}
    ins = {v: 0 for v in G.colors}
    for t, h in O.direction:
        if t in outs:
            outs[t] += 1
        if h in ins:
            ins[h] += 1
    for v, color in G.colors.items():
        if color == "filled":
            assert outs[v] == 1
        else:
            assert ins[v] == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_orientation_is_acyclic(n):
    _, O = plabic.corect_network(n)
    adj = O.out_neighbors()
    seen, done = set(), set()

    def visit(v):
        seen.add(v)
        for w in adj.get(v, ()):
            assert w not in seen or w in done, f"cycle through {w}"
            if w not in done:
                visit(w)
        done.add(v)

    for v in list(adj):
        if v not in done:
            visit(v)


def test_empty_flow():
    for n in (1, 2, 3, 4):
        G, O = plabic.corect_network(n)
        flows = plabic.enumerate_flows(G, O, tuple(range(1, n + 1)))
        assert len(flows) == 1 and flows[0].paths == ()


@pytest.mark.parametrize("n", range(1, 6))
def test_flows_match_dfs_oracle_for_every_target(n):
    G, O = plabic.corect_network(n)
    for J in combinations(range(1, 2 * n + 1), n):
        assert plabic.enumerate_flows(G, O, J) == enumerate_flows_by_dfs(G, O, J), J


def test_flows_match_dfs_oracle_on_sampled_targets_n6():
    G, O = plabic.corect_network(6)
    targets = random.Random(6).sample(list(combinations(range(1, 13), 6)), 20)
    for J in targets:
        assert plabic.enumerate_flows(G, O, J) == enumerate_flows_by_dfs(G, O, J), J


@pytest.mark.parametrize("n", range(1, 9))
def test_dual_cut_sums_match_the_flood_fill_on_every_path(n):
    # each path's left faces, summed from dart weights one step at a time
    # by the path table's walk, against the flood fill of its left side
    G, O = plabic.corect_network(n)
    rows = [row for ends in plabic._path_table(G, O).values()
            for group in ends.values() for row in group]
    assert len(rows) == math.comb(2 * n, n) - 1  # 12,869 at n=8
    for _, path, left in rows:
        assert plabic.path_left_faces(G, left) == flood_left_faces(G, path), path


def test_a_dual_tree_rooted_off_the_base_face_fails_the_walk(monkeypatch):
    # rooted at the top face, which lies left of every path, each path's
    # sum is negative: the walk reads the base face's bit as set and raises
    monkeypatch.setattr(plabic, "BASE", plabic.TOP)
    G = plabic.PlabicGraph(3)
    assert plabic.dual_cuts(G)[0][-1] == plabic.TOP
    O = plabic.find_perfect_orientation(G, range(1, 4))
    kept = plabic._path_table.cache_info().currsize
    with pytest.raises(ValueError, match="does not have the base face on its right"):
        plabic._path_table(G, O)
    assert plabic._path_table.cache_info().currsize == kept


@pytest.mark.parametrize("J", [(1, 1, 2), (4, 5, 5), (0, 1, 2), (1, 2, 7), (1, 2), (1, 2, 3, 4)],
                         ids=["repeated", "repeated-target", "zero", "above-2n", "short", "long"])
def test_enumerate_flows_rejects_a_bad_target(J):
    G, O = plabic.corect_network(3)
    with pytest.raises(ValueError, match="not an n-subset"):
        plabic.enumerate_flows(G, O, J)


@pytest.mark.parametrize("enabled", [True, False])
def test_enumerate_flows_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    # the collector is off while the flows are placed, and comes back as it
    # was, also when the budget runs out part way
    G, O = plabic.corect_network(4)
    real, seen = plabic.flow_systems, []

    def watched(*args):
        for system in real(*args):
            seen.append(gc.isenabled())
            yield system

    monkeypatch.setattr(plabic, "flow_systems", watched)
    (gc.enable if enabled else gc.disable)()
    try:
        assert plabic.enumerate_flows(G, O, (1, 2, 6, 8))
        assert gc.isenabled() is enabled
        with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
            plabic.enumerate_flows(G, O, (1, 2, 6, 8))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen and not any(seen)


def _rows(G, O):
    """The path table as `flow_systems` reads it, each path's value the
    1-tuple of its vertices and left-face bitmask."""
    return {s: {end: tuple((mask, ((path, left),)) for mask, path, left in group)
                for end, group in ends.items()} for s, ends in plabic._path_table(G, O).items()}


def test_flow_systems_refuse_sources_that_do_not_force_the_matching():
    # the i-th smallest source goes to the i-th largest target only when
    # the sources are 1..n and so every target lies in n+1..2n
    G, O = plabic.corect_network(3)
    assert sorted(O.source_set) == [1, 2, 3]
    with pytest.raises(ValueError, match="is not 1..3"):
        plabic.flow_systems(G, O._replace(source_set=(1, 2, 4)), (1, 5, 6), _rows(G, O), ())


def test_flows_poll_the_deadline_in_the_path_table_and_the_placement():
    # a network of its own, so that its path table is built here
    G = plabic.PlabicGraph(6)
    O = plabic.find_perfect_orientation(G, range(1, 7))
    J = (1, 2, 4, 7, 9, 11)
    kept = plabic._path_table.cache_info().currsize
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        plabic.enumerate_flows(G, O, J)
    assert plabic._path_table.cache_info().currsize == kept
    with arm(CountingDeadline()) as cold:
        flows = plabic.enumerate_flows(G, O, J)
    rows = _rows(G, O)
    with arm(CountingDeadline()) as warm:
        systems = list(plabic.flow_systems(G, O, J, rows, ()))
    assert len(systems) == len(flows) > POLL_EVERY
    assert [tuple(path for path, _ in system) for system in systems] == [f.paths for f in flows]
    assert warm.polls == math.ceil(len(systems) / POLL_EVERY)
    with arm(CountingDeadline()) as again:
        assert plabic.enumerate_flows(G, O, J) == flows
    assert again.polls == 2 * warm.polls < cold.polls


def test_the_flow_row_table_polls_the_deadline_and_keeps_no_entry_when_stopped():
    # every table it reads built first, so that the build itself must poll
    assert valuation._flow_rows(4)
    valuation._flow_rows.cache_clear()
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        valuation._flow_rows(4)
    assert valuation._flow_rows.cache_info().currsize == 0
    with arm(CountingDeadline()) as deadline:
        rows = valuation._flow_rows(4)
    assert deadline.polls == sum(map(len, rows.values()))  # once per group


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_no_edge_has_one_face_on_both_sides(n):
    # so each face's own edges, read from face_neighbours, are the edges
    # that a scan of the whole graph would find
    G = plabic.build_corect_graph(n)
    assert all(len(set(G.face_sides(e))) == 2 for e in G.edges)


def _lgv_flow_count(n, J):
    """Independent oracle: path-count determinant for the nested pairing."""
    G, O = plabic.corect_network(n)
    adj = O.out_neighbors()
    sources = sorted(set(O.source_set) - set(J))
    sinks = sorted(set(J) - set(O.source_set), reverse=True)

    def paths(a, b):
        @lru_cache(maxsize=None)
        def count(v):
            if v == ("b", b):
                return 1
            if v[0] == "b" and v != ("b", a):
                return 0
            return sum(count(w) for w in adj.get(v, ()))

        return count(("b", a))

    m = [[paths(a, b) for b in sinks] for a in sources]

    def det(mat):
        if not mat:
            return 1
        return sum(
            (-1) ** i * mat[0][i] * det([r[:i] + r[i + 1:] for r in mat[1:]])
            for i in range(len(mat))
        )

    return abs(det(m))


def test_three_flows_to_145():
    # the unique perfect orientation admits a third flow through
    # L -> f(2,2) -> h(2,2) -> T; LGV determinant confirms the count
    G, O = plabic.corect_network(3)
    flows = plabic.enumerate_flows(G, O, (1, 4, 5))
    assert len(flows) == 3
    assert _lgv_flow_count(3, (1, 4, 5)) == 3


def test_flow_145_worked_example_face_sets():
    """Two of the three path systems to {1,4,5}, the minimal one and
    minimal * x_(3,1,1), appear as in the worked LGr(3,6) example."""
    G, O = plabic.corect_network(3)
    flows = plabic.enumerate_flows(G, O, (1, 4, 5))
    by_paths = {f.paths: f for f in flows}

    def faces(flow, i):
        return sorted(G.faces[x] for x in flow.left_faces[i])

    top = by_paths[(
        (("b", 2), ("f", 1, 2), ("h", 1, 2), ("f", 2, 2), ("h", 2, 2),
         ("f", 2, 1), ("h", 2, 1), ("b", 5)),
        (("b", 3), ("L",), ("T",), ("b", 4)),
    )]
    assert faces(top, 0) == sorted(
        [(3, 3), (3, 3, 1), (3, 3, 2), (3, 2, 2), (2, 2, 2), (3, 3, 3)]
    )
    assert faces(top, 1) == [(3, 3, 3)]

    bottom = by_paths[(
        (("b", 2), ("f", 1, 2), ("h", 1, 2), ("f", 1, 1), ("h", 1, 1),
         ("f", 2, 1), ("h", 2, 1), ("b", 5)),
        (("b", 3), ("L",), ("T",), ("b", 4)),
    )]
    assert faces(bottom, 0) == sorted(
        [(3, 3), (3, 3, 1), (3, 1, 1), (3, 2, 2), (2, 2, 2), (3, 3, 2), (3, 3, 3)]
    )
    assert faces(bottom, 1) == [(3, 3, 3)]


def test_flow_polynomial_145_orbit_form():
    G, O = plabic.corect_network(3)
    vectors = sorted(orbit_vector(3, m) for m in flow_polynomial(G, O, (1, 4, 5)))
    minimal = (0, 2, 0, 2, 1, 2)
    assert vectors == [minimal,
                       (0, 2, 1, 2, 1, 2),   # minimal * x_(3,1,1)
                       (0, 2, 1, 2, 2, 2)]   # minimal * x_(3,1,1) x_(3,3,2)


def test_flow_counts_against_lgv_oracle_n3():
    G, O = plabic.corect_network(3)
    for J in combinations(range(1, 7), 3):
        assert len(plabic.enumerate_flows(G, O, J)) == _lgv_flow_count(3, J)


def test_n2_golden_flow_polynomials():
    G, O = plabic.corect_network(2)
    golden = {
        (1, 2): [(0, 0, 0)],
        (1, 3): [(0, 0, 1), (0, 1, 1)],
        (1, 4): [(1, 1, 1)],
        (2, 3): [(1, 1, 1)],
        (2, 4): [(2, 1, 1)],
        (3, 4): [(2, 1, 2)],
    }
    for J, expected in golden.items():
        got = sorted(orbit_vector(2, m) for m in flow_polynomial(G, O, J))
        assert got == sorted(expected), J


@pytest.mark.parametrize("n", [2, 3])
def test_distinct_flows_have_distinct_raw_monomials(n):
    G, O = plabic.corect_network(n)
    for J in combinations(range(1, 2 * n + 1), n):
        monos = [monomial_key(m) for m in flow_polynomial(G, O, J)]
        assert len(monos) == len(set(monos)), J


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_polynomial_transpose_symmetric(n):
    # symmetric weighting: p_lam and p_{lam^T} get identical expressions
    G, O = plabic.corect_network(n)
    for lam in partitions_in_box(n):
        t = transpose(lam)
        if t <= lam:
            continue
        p1 = sorted(orbit_vector(n, m) for m in flow_polynomial(
            G, O, partition_to_indexset(lam, n)))
        p2 = sorted(orbit_vector(n, m) for m in flow_polynomial(
            G, O, partition_to_indexset(t, n)))
        assert p1 == p2, lam


def test_n1_degenerate_graph():
    G, O = plabic.corect_network(1)
    assert set(G.faces.values()) == {(), (1,)}
    flows = plabic.enumerate_flows(G, O, (2,))
    assert len(flows) == 1
    assert flows[0].monomial(G) == {(1,): 1}


def test_face_boundaries_and_exports():
    G = plabic.build_corect_graph(3)
    entries = plabic.faces_json(G)
    assert len(entries) == 10
    interior = next(e for e in entries if e["label"] == "3,1,1")
    assert len(interior["boundary"]) == 6  # hexagonal interior cell
    dot = "\n".join(plabic.graph_to_dot(G, plabic.corect_network(3)[1]))
    assert dot.startswith("digraph") and '"T"' in dot
