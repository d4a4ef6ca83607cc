import math
from collections import Counter
from functools import cache
from itertools import combinations
from types import MappingProxyType

import pytest

from lgrnok import partitions, plabic, valuation
from lgrnok.equivalence import build_valuation_matrix
from lgrnok.partitions import (
    diagonal_lengths,
    maxdiag,
    orbit_representative,
    partition_to_indexset,
    skew_cells,
    transpose,
)
from lgrnok.valuation import (
    BIAS,
    FIELD_BITS,
    MAX_PACKED_N,
    all_plucker_valuations,
    class_valuations,
    coordinate_system,
    delta_vertices,
    face_coordinates,
    orbit_vector,
    valuation_from_flows,
    valuation_maxdiag,
)
from oracles import (
    flood_left_faces,
    flow_vector,
    maxplus_by_vector,
    partitions_in_box,
    transpose_classes,
)


def class_indexsets(n):
    """The index sets of the reference representatives, in their order."""
    return [partition_to_indexset(lam, n) for lam in transpose_classes(n)]

# the full LGr(3,6) table, keyed by class representative
TABLE_N3 = {
    (3, 3, 3): (0, 0, 0, 0, 0, 0),
    (3, 3, 2): (0, 0, 0, 0, 0, 1),
    (3, 3, 1): (0, 1, 0, 1, 1, 1),
    (3, 3): (1, 1, 1, 2, 1, 1),
    (3, 2, 1): (0, 2, 0, 2, 1, 1),
    (3, 2): (1, 2, 1, 2, 1, 1),
    (3, 1, 1): (0, 2, 0, 2, 1, 2),
    (3, 1): (1, 2, 1, 2, 1, 2),
    (3,): (1, 3, 1, 3, 2, 2),
    (2, 2): (2, 2, 1, 2, 1, 1),
    (2, 1): (2, 2, 1, 2, 1, 2),
    (2,): (2, 3, 1, 3, 2, 2),
    (1,): (2, 4, 1, 4, 2, 2),
    (): (2, 4, 1, 4, 2, 3),
}


def test_coordinate_system_pinned():
    assert coordinate_system(3) == ((3,), (3, 3), (3, 1, 1), (3, 3, 1), (3, 3, 2), (3, 3, 3))
    assert coordinate_system(2) == ((2,), (2, 1), (2, 2))
    assert coordinate_system(1) == ((1,),)
    for n in range(1, 7):
        assert len(coordinate_system(n)) == n * (n + 1) // 2


def test_coordinate_system_refuses_an_orbit_count_off_n_n_plus_1_over_2(monkeypatch):
    # an orbit map that does not merge transposes leaves more orbits than
    # n(n+1)/2; the count is checked by a raise that python -O keeps
    coordinate_system.cache_clear()
    monkeypatch.setattr(valuation, "orbit_representative", lambda label: label)
    try:
        with pytest.raises(AssertionError, match=r"face orbits at n=3, expected n\(n\+1\)/2 = 6"):
            coordinate_system(3)
    finally:
        coordinate_system.cache_clear()


def test_valuation_table_n3():
    assert all_plucker_valuations(3) == TABLE_N3


def test_maxdiag_examples():
    assert valuation_maxdiag(3, (3, 3, 2)) == (0, 0, 0, 0, 0, 1)
    assert valuation_maxdiag(3, (2,)) == (2, 3, 1, 3, 2, 2)
    for n in (1, 2, 3, 4):
        assert valuation_maxdiag(n, (n,) * n) == (0,) * (n * (n + 1) // 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_diagonal_lengths_match_skew_cell_oracle(n):
    # every partition in the box, not only the class representatives
    for lam in partitions_in_box(n):
        expected = []
        for mu in coordinate_system(n):
            entry = maxdiag(skew_cells(mu, lam))
            if transpose(mu) != mu:
                entry += maxdiag(skew_cells(transpose(mu), lam))
            expected.append(entry)
        assert valuation_maxdiag(n, lam) == tuple(expected), lam


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_packed_maxplus_matches_the_vector_by_vector_oracle(n):
    for indexset in class_indexsets(n):
        low = diagonal_lengths(indexset, n)
        assert valuation._maxplus(n, low) == maxplus_by_vector(n, low), indexset


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_valuation_matches_skew_cells_at_every_face_label(n):
    G = plabic.build_corect_graph(n)
    coords = face_coordinates(n)
    for lam in transpose_classes(n):
        value = valuation_maxdiag(n, lam)
        for face, mu in G.faces.items():
            if not mu:
                continue
            orbit = {mu, transpose(mu)}
            assert value[coords[face]] == sum(maxdiag(skew_cells(nu, lam)) for nu in orbit), (lam, mu)
            assert coordinate_system(n)[coords[face]] == orbit_representative(mu)


def test_packing_bound(monkeypatch):
    # up to the bound a field, BIAS + l_mu(d) - l_lam(d) with each length at
    # most n, stays under the guard bit and above 0, and an orbit's sum, at
    # most 2n, fits the field; past it every evaluation refuses before any
    # graph or table is built
    n = MAX_PACKED_N
    assert 0 < BIAS - n and BIAS + n < 2 ** (FIELD_BITS - 1) and 2 * n < 2 ** FIELD_BITS

    def no_graph(n):
        raise AssertionError("a graph was built")

    def no_classes(n):
        raise AssertionError("the classes were enumerated")

    monkeypatch.setattr(plabic, "build_corect_graph", no_graph)
    monkeypatch.setattr(valuation, "transpose_classes", no_classes)
    tables = valuation._packed_table.cache_info().currsize
    n = MAX_PACKED_N + 1
    for evaluate in (lambda: valuation_maxdiag(n, ()),
                     lambda: valuation._maxplus(n, (0,) * (2 * n - 1)),
                     lambda: all_plucker_valuations(n),
                     lambda: build_valuation_matrix(n)):
        with pytest.raises(ValueError, match="packed max-plus"):
            evaluate()
    assert valuation._packed_table.cache_info().currsize == tables


def test_flow_examples():
    assert valuation_from_flows(3, (3, 2, 1)) == (0, 2, 0, 2, 1, 1)
    assert valuation_from_flows(3, (3, 3, 3)) == (0,) * 6
    assert valuation_from_flows(3, ()) == (2, 4, 1, 4, 2, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_equivalence_exhaustive(n):
    for lam in partitions_in_box(n):
        assert valuation_from_flows(n, lam) == valuation_maxdiag(n, lam), lam


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transpose_invariance(n):
    for lam in partitions_in_box(n):
        assert valuation_maxdiag(n, lam) == valuation_maxdiag(n, transpose(lam))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_empty_partition_is_coordinatewise_maximal(n):
    top = valuation_maxdiag(n, ())
    for lam in partitions_in_box(n):
        assert all(a <= b for a, b in zip(valuation_maxdiag(n, lam), top))


def test_n1_table():
    assert all_plucker_valuations(1) == {(1,): (0,), (): (1,)}


def test_n2_table_golden():
    assert all_plucker_valuations(2) == {
        (2, 2): (0, 0, 0),
        (2, 1): (0, 0, 1),
        (2,): (1, 1, 1),
        (1,): (2, 1, 1),
        (): (2, 1, 2),
    }


def test_table_sizes_and_value_collapse():
    # one row per transpose class; distinct values number C_{n+1}
    for n, classes, values in [(1, 2, 2), (2, 5, 5), (3, 14, 14), (4, 43, 42)]:
        table = all_plucker_valuations(n, cross_check=False)
        assert len(table) == classes
        assert len(set(table.values())) == values
    t4 = all_plucker_valuations(4, cross_check=False)
    assert t4[(4, 3, 1)] == t4[(4, 2, 2)]


def test_delta_vertices():
    assert len(delta_vertices(3)) == 14
    assert len(delta_vertices(4)) == 42
    assert set(delta_vertices(3)) == set(TABLE_N3.values())


def test_cross_check_flag(monkeypatch):
    # the flow replay agrees with the closed form, and is off by default
    checked = all_plucker_valuations(2, cross_check=True)

    def no_flows(n, lam):
        raise AssertionError("the flow model was replayed")

    monkeypatch.setattr(valuation, "valuation_from_flows", no_flows)
    assert all_plucker_valuations(2) == checked


def test_all_plucker_valuations_reads_the_classes_once(monkeypatch):
    calls = []
    real = partitions.transpose_classes

    def counted(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(partitions, "transpose_classes", counted)
    monkeypatch.setattr(valuation, "transpose_classes", counted)
    assert all_plucker_valuations(3) == TABLE_N3
    assert calls == [3]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_class_valuations_follow_the_reference_classes(n):
    # the walk's rows: the reference representatives in their order, each
    # with its index set and its closed-form valuation
    rows = list(class_valuations(n))
    assert [lam for _, lam, _ in rows] == list(transpose_classes(n))
    for indexset, lam, value in rows:
        assert indexset == partition_to_indexset(lam, n)
        assert value == valuation_maxdiag(n, lam), lam


@pytest.mark.parametrize("n", [2, 3])
def test_minimum_monomial_unique(n):
    # valuation_from_flows raises when the coordinatewise minimum is shared
    for lam in transpose_classes(n):
        valuation_from_flows(n, lam)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_flow_vector_matches_monomial_route(n):
    # the packed sums streamed as the flows are placed against the sorted
    # flows, each counted face by face and collapsed from its monomial:
    # every target up to n=4, every class at n=5
    G, O = plabic.corect_network(n)
    N = len(coordinate_system(n))
    targets = combinations(range(1, 2 * n + 1), n) if n <= 4 else class_indexsets(n)
    for J in targets:
        flows = plabic.enumerate_flows(G, O, J)
        for flow in flows:
            assert flow_vector(n, flow) == orbit_vector(n, flow.monomial(G)), (J, flow)
        packed = [tuple(x.to_bytes(N, "little")) for x in valuation._flow_sums(n, J)]
        assert packed == [orbit_vector(n, flow.monomial(G)) for flow in flows], J


def test_orbit_vector_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown face orbit"):
        orbit_vector(3, {(1,): 1})


def planted_group(plant, n, lam, group):
    """The path table with the group of the minimal flow's first path (its
    source and end) replaced by group(rows, path) for the test's length."""
    G, O = plabic.corect_network(n)
    low = valuation_from_flows(n, lam)
    (minimal,) = [f for f in plabic.enumerate_flows(G, O, partition_to_indexset(lam, n))
                  if flow_vector(n, f) == low]
    path = minimal.paths[0]
    s, t = path[0][1], path[-1][1]
    real = plabic._path_table
    table = real(G, O)
    planted = {**table, s: {**table[s], t: group(table[s][t], path)}}
    plant(plabic, "_path_table",
          lambda *network: planted if network == (G, O) else real(*network))


def test_shared_minimum_raises(plant):
    # the minimal flow's first path twice in its group: every flow through
    # it, the minimal one too, is placed twice
    planted_group(plant, 3, (3, 2, 1),
                  lambda rows, path: rows + tuple(row for row in rows if row[1] == path))
    with pytest.raises(ValueError, match="attained by 2 monomials"):
        valuation_from_flows(3, (3, 2, 1))


def test_a_minimum_no_flow_attains_raises(plant):
    # +1 on the weight of the dart f(2,2) -> h(2,2) at n=3 moves the flows
    # to (3,3,1) apart, so that no flow attains their bytewise minimum
    G, _ = plabic.corect_network(3)
    faces, weight = plabic.dual_cuts(G)
    dart = (("f", 2, 2), ("h", 2, 2))
    planted = faces, MappingProxyType(dict(weight) | {dart: weight[dart] + 1})
    plant(plabic, "dual_cuts", lambda graph: planted)
    plant(plabic, "_path_table", cache(plabic._path_table.__wrapped__))
    with pytest.raises(ValueError, match="attained by 0 monomials"):
        valuation_from_flows(3, (3, 3, 1))


def test_no_flow_raises(plant):
    planted_group(plant, 3, (3, 2, 1), lambda rows, path: ())
    with pytest.raises(ValueError, match="no flow realizes"):
        valuation_from_flows(3, (3, 2, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_each_flow_row_is_the_decode_of_its_path_s_flood_filled_left_faces(n):
    # the oracle's table against the path table, row by row: the same
    # groups, masks and order, and the coordinate counts of the faces that
    # the flood fill finds left of the path (12,869 paths at n=8)
    G, O = plabic.corect_network(n)
    N = len(coordinate_system(n))
    table, rows = plabic._path_table(G, O), valuation._flow_rows(n)
    assert rows.keys() == table.keys()
    assert all(rows[s].keys() == ends.keys() for s, ends in table.items())
    pairs = [(row, path) for s, ends in table.items() for end, group in ends.items()
             for row, path in zip(rows[s][end], group, strict=True)]
    assert len(pairs) == math.comb(2 * n, n) - 1
    for (mask, counts), (path_mask, path, _) in pairs:
        assert mask == path_mask
        faces = flood_left_faces(G, path)
        assert tuple(counts.to_bytes(N, "little")) == orbit_vector(
            n, Counter(G.faces[face] for face in faces)), path


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
def test_left_face_counts_decode_each_face_and_count_the_empty_label_0(n):
    # n^2 + 1 faces, never a multiple of 8: at n=8 the empty label's face,
    # last in the order, is alone in the mask's ninth byte
    G = plabic.build_corect_graph(n)
    faces, _ = plabic.dual_cuts(G)
    assert len(faces) == n * n + 1 and G.faces[faces[-1]] == ()
    counts, N = valuation._left_face_counts(n), len(coordinate_system(n))
    assert counts(1 << len(faces) - 1) == 0
    for i, face in enumerate(faces):
        single = orbit_vector(n, {G.faces[face]: 1})
        assert tuple(counts(1 << i).to_bytes(N, "little")) == single, face
    whole = orbit_vector(n, Counter(G.faces.values()))
    assert tuple(counts((1 << len(faces)) - 1).to_bytes(N, "little")) == whole


@pytest.mark.parametrize("n, classes", [(5, 142), (6, 494)])
def test_the_cross_check_calls_the_flow_oracle_once_per_class(monkeypatch, n, classes):
    # through the module attribute, where the benchmark's oracle-n5 counts
    # the calls: an oracle inlined past it would read 0 cross-checks
    real, calls = valuation.valuation_from_flows, []

    def counted(n, lam):
        calls.append(lam)
        return real(n, lam)

    monkeypatch.setattr(valuation, "valuation_from_flows", counted)
    assert all_plucker_valuations(n, cross_check=True) == all_plucker_valuations(n)
    assert calls == list(transpose_classes(n)) and len(calls) == classes


def test_flow_oracle_n5():
    assert all_plucker_valuations(5, cross_check=True) == all_plucker_valuations(5, cross_check=False)


def test_flow_oracle_on_every_tenth_class_n6():
    for rep in transpose_classes(6)[::10]:
        assert valuation_from_flows(6, rep) == valuation_maxdiag(6, rep), rep
