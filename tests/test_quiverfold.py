import pytest

import oracles
from lgrnok import plabic, quiverfold
from lgrnok.budget import POLL_EVERY, arm, armed
from lgrnok.partitions import transpose
from lgrnok.quiverfold import (
    dual_quiver,
    fold,
    folded_matrix,
    frozen_orbit_order,
    mutable_orbit_order,
    quiver_to_dot,
)
from test_superpotential import CountingDeadline

# arrows of the dual quiver for n=4, one per internal edge
ARROWS_N4 = {
    ((4, 4, 4, 3), (4, 4, 4, 4)), ((4, 4, 4, 3), (4, 4, 2, 2)),
    ((4, 4, 2, 2), (4, 1, 1, 1)), ((4, 1, 1, 1), ()),
    ((4, 4, 3, 3), (4, 4, 4, 3)), ((4, 3, 3, 3), (4, 4, 3, 3)),
    ((3, 3, 3, 3), (4, 3, 3, 3)), ((4, 4, 4, 2), (4, 4, 4, 3)),
    ((4, 4, 4, 1), (4, 4, 4, 2)), ((4, 4, 4), (4, 4, 4, 1)),
    ((4, 4), (4, 4, 1, 1)), ((4, 4, 1, 1), (4, 4, 2, 2)),
    ((4, 4, 2, 2), (4, 4, 3, 3)), ((4,), (4, 1, 1, 1)),
    ((4, 1, 1, 1), (4, 2, 2, 2)), ((4, 2, 2, 2), (4, 3, 3, 3)),
    ((2, 2, 2, 2), (4, 2, 2, 2)), ((4, 2, 2, 2), (4, 4, 2, 2)),
    ((4, 4, 2, 2), (4, 4, 4, 2)), ((1, 1, 1, 1), (4, 1, 1, 1)),
    ((4, 1, 1, 1), (4, 4, 1, 1)), ((4, 4, 1, 1), (4, 4, 4, 1)),
    ((4, 4, 4, 2), (4, 4, 1, 1)), ((4, 4, 1, 1), (4,)),
    ((4, 4, 4, 1), (4, 4)), ((4, 4, 3, 3), (4, 2, 2, 2)),
    ((4, 2, 2, 2), (1, 1, 1, 1)), ((4, 3, 3, 3), (2, 2, 2, 2)),
}

FOLDED_N4 = (
    (0, 1, 0, -1, 0, 0),
    (-1, 0, 1, 1, 0, -1),
    (0, -1, 0, 0, 0, 1),
    (2, -2, 0, 0, -1, 1),
    (0, 0, 0, 1, 0, -1),
    (0, 2, -2, -1, 1, 0),
    (-1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, -1, 1),
    (0, 0, 2, 0, 0, -1),
    (0, 0, -1, 0, 0, 0),
)


def test_quiver_n4_matches_reference():
    Q = dual_quiver(plabic.build_corect_graph(4))
    assert set(Q.arrows) == ARROWS_N4
    assert len(Q.arrows) == 28  # no multiplicities here
    assert len(Q.vertices) == 17
    assert len(Q.frozen) == 8
    assert Q.frozen == frozenset(
        {(4, 4, 4, 4), (4, 4, 4), (4, 4), (4,), (), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)}
    )


def test_quiver_small_sizes():
    Q3 = dual_quiver(plabic.build_corect_graph(3))
    assert len(Q3.vertices) == 10 and len(Q3.frozen) == 6
    Q2 = dual_quiver(plabic.build_corect_graph(2))
    assert len(Q2.vertices) == 5 and len(Q2.frozen) == 4
    assert set(Q2.arrows) == {
        ((2,), (2, 1)), ((1, 1), (2, 1)), ((2, 1), ()), ((2, 1), (2, 2)),
    }


def test_no_loops_or_two_cycles():
    for n in (2, 3, 4):
        Q = dual_quiver(plabic.build_corect_graph(n))
        counts = Q.arrow_counter()
        for (a, b) in counts:
            assert a != b
            assert (b, a) not in counts


@pytest.mark.parametrize("n", [2, 3, 4])
def test_involution_is_quiver_automorphism(n):
    Q = dual_quiver(plabic.build_corect_graph(n))
    counts = Q.arrow_counter()
    for (a, b), k in counts.items():
        assert counts.get((transpose(a), transpose(b)), 0) == k


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mutable_block_skew_symmetric(n):
    Q = dual_quiver(plabic.build_corect_graph(n))
    counts = Q.arrow_counter()
    mutable = [v for v in Q.vertices if v not in Q.frozen]
    for a in mutable:
        for b in mutable:
            assert oracles.exchange_entry(counts, a, b) == -oracles.exchange_entry(counts, b, a)


def test_exchange_entries_are_signs():
    Q = dual_quiver(plabic.build_corect_graph(4))
    counts = Q.arrow_counter()
    for a in Q.vertices:
        for b in set(Q.vertices) - Q.frozen:
            assert oracles.exchange_entry(counts, a, b) in (-1, 0, 1)


def test_orbit_orders_n4():
    assert mutable_orbit_order(4) == (
        ((4, 4, 4, 3),), ((4, 4, 2, 2),), ((4, 1, 1, 1),),
        ((4, 4, 4, 2), (4, 4, 3, 3)),
        ((4, 4, 4, 1), (4, 3, 3, 3)),
        ((4, 4, 1, 1), (4, 2, 2, 2)),
    )
    assert frozen_orbit_order(4) == (
        ((4, 4, 4, 4),),
        ((4, 4, 4), (3, 3, 3, 3)),
        ((4, 4), (2, 2, 2, 2)),
        ((4,), (1, 1, 1, 1)),
        ((),),
    )


def test_folded_matrix_n4_all_entries():
    assert folded_matrix(4).entries == FOLDED_N4


def test_folded_matrix_small_goldens():
    assert folded_matrix(2).entries == ((0,), (-1,), (2,), (-1,))
    assert folded_matrix(3).entries == (
        (0, 1, -1), (-1, 0, 1), (2, -2, 0),
        (-1, 0, 0), (0, 0, 1), (0, 2, -1), (0, -1, 0),
    )


def test_fold_well_defined_even_n():
    for n in (2, 3, 4, 5):
        fold(dual_quiver(plabic.build_corect_graph(n)))  # raises if ill-defined


@pytest.mark.parametrize("n", range(1, 8))
def test_fold_in_one_pass_equals_the_sums_over_orbit_pairs(n):
    Q = dual_quiver(plabic.build_corect_graph(n))
    assert fold(Q).entries == oracles.fold_by_orbit_pairs(Q)


def raised(build, Q):
    with pytest.raises(ValueError) as info:
        build(Q)
    return str(info.value)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_an_arrow_without_its_transpose_names_the_arrow(n):
    Q = dual_quiver(plabic.build_corect_graph(n))
    Q = Q._replace(arrows=Q.arrows[1:])
    message = raised(fold, Q)
    assert message.startswith("transpose involution breaks at arrow ")
    assert message == raised(oracles.fold_by_orbit_pairs, Q)


@pytest.mark.parametrize("n", [4, 6])
def test_a_column_orbit_that_is_no_transpose_pair_names_the_ill_defined_sum(monkeypatch, n):
    # the second members of the first two pair orbits swapped: each column
    # orbit now holds a face and another face's transpose
    real = quiverfold.mutable_orbit_order(n)
    single = sum(len(orbit) == 1 for orbit in real)
    (a, b), (c, d) = real[single:single + 2]
    monkeypatch.setattr(quiverfold, "mutable_orbit_order",
                        lambda n: real[:single] + ((a, d), (c, b)) + real[single + 2:])
    Q = dual_quiver(plabic.build_corect_graph(n))
    message = raised(fold, Q)
    assert message.startswith("fold ill-defined at rows ")
    assert message == raised(oracles.fold_by_orbit_pairs, Q)


def test_dot_export():
    Q = dual_quiver(plabic.build_corect_graph(3))
    dot = "\n".join(quiver_to_dot(Q))
    assert "shape=box" in dot and "->" in dot


def test_the_graph_quiver_and_orientation_poll_the_budget(monkeypatch):
    # fold, graph and orientation build these before their own first poll:
    # at n=70 the graph takes about 0.2 s and the quiver 0.25 s
    n = 40
    with arm(CountingDeadline()) as graph:
        G = plabic.PlabicGraph(n)
    with arm(CountingDeadline()) as quiver:
        dual_quiver(G)
    with arm(CountingDeadline()) as orientation:
        plabic.find_perfect_orientation(G, range(1, n + 1))
    assert graph.polls >= 3 * n - 2  # each row and column of the grid, each strip of faces
    assert quiver.polls > len(G.edges) // POLL_EVERY
    assert orientation.polls == -(-len(G.edges) // POLL_EVERY)  # every edge is forced once
    # folded_matrix builds both under the armed deadline, the graph uncached here
    before_fold = []
    real = quiverfold.fold
    monkeypatch.setattr(plabic, "build_corect_graph", plabic.build_corect_graph.__wrapped__)
    monkeypatch.setattr(quiverfold, "fold", lambda Q: before_fold.append(armed().polls) or real(Q))
    with arm(CountingDeadline()):
        folded_matrix(n)
    assert before_fold == [graph.polls + quiver.polls]


def test_fold_polls_the_budget_before_and_after_its_loops():
    # at n=70 the orbit orders with the transposes before the arrow loop,
    # and the zero matrix and its rows as tuples after it, went 0.07-0.15 s
    # unpolled, and the pair orbits about 0.03 s: each now polls every
    # POLL_EVERY pairs, row orbits, vertices or rows
    with arm(CountingDeadline()) as orders:
        pairs = mutable_orbit_order(50)[49:]
    assert orders.polls == -(-len(pairs) // POLL_EVERY) == 2
    Q = dual_quiver(plabic.build_corect_graph(40))
    with arm(CountingDeadline()) as empty:
        F = fold(Q._replace(arrows=()))
    assert len(F.row_orbits) < POLL_EVERY and not any(map(any, F.entries))
    assert empty.polls == 4  # the pair orbits, the row orbits, the zero rows, the rows as tuples
    vertices = {v for arrow in Q.arrows for v in arrow}
    with arm(CountingDeadline()) as full:
        fold(Q)
    assert full.polls > 3 + -(-len(vertices) // POLL_EVERY) + len(set(Q.arrows))
