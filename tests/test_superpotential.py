import math
import time
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

import oracles
from lgrnok import superpotential, verify
from lgrnok.budget import POLL_EVERY, Deadline, TimeBudgetExceeded, arm
from lgrnok.partitions import catalan, staircase_syt_count
from lgrnok.superpotential import (
    build_poset,
    build_superpotential,
    chain_polytope_points,
    chain_polytope_rows,
    enumerate_antichains,
    gamma_hrep,
    gamma_vertex_set,
    lex_cells,
    linear_extension_count,
    maximal_chains,
    quantum_denominator,
    strict_staircase_partitions,
    tropicalize,
)


def test_poset_n3():
    P = build_poset(3)
    assert len(P.elements) == 6
    assert len(P.covers()) == 6  # n(n-1) cover relations
    assert sorted(maximal_chains(P)) == sorted([
        ((1, 1), (1, 2), (1, 3)),
        ((1, 1), (1, 2), (2, 3)),
        ((1, 1), (2, 2), (2, 3)),
        ((1, 1), (2, 2), (3, 3)),
    ])


def test_poset_n1():
    P = build_poset(1)
    assert P.elements == ((1, 1),)
    assert P.covers() == ()


def test_poset_order():
    P = build_poset(4)
    assert P.below((3, 3), (1, 1))            # b_33 <= b_11
    assert P.below((2, 4), (1, 2))
    assert not P.comparable((1, 3), (3, 3))   # the antichain of (4,3,1)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14), (4, 42), (5, 132), (6, 429)])
def test_antichain_counts(n, count):
    P = build_poset(n)
    antichains = enumerate_antichains(P)
    assert len(antichains) == count == catalan(n + 1)
    assert frozenset() in antichains
    assert all(oracles.is_antichain(P, a) for a in antichains)


def test_antichain_count_lists_nothing(monkeypatch):
    # the Catalan check counts the lattice points of Gamma, and no check of
    # the vertex level lists the antichains
    monkeypatch.setattr(superpotential, "_antichain_masks",
                        lambda *args: pytest.fail("the antichains were listed"))
    for n in range(7, 11):
        assert verify.catalan(n) == (True, str(catalan(n + 1)))
    assert {r["status"] for r in verify.run_checks(7, "vertex")} == {"pass", "skip"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_order_is_the_closure_of_the_covers(n):
    P = build_poset(n)
    below = {(x, y) for x in P.elements for y in P.elements if P.below(x, y)}
    assert below == oracles.order_pairs(P)


def test_dyck_figure_example():
    P = build_poset(3)
    assert oracles.antichain_to_dyck(P, {(1, 2)}) == (1, -1, 1, 1, 1, -1, -1, -1)
    assert oracles.antichain_to_dyck(P, frozenset()) == (1, -1) * 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dyck_bijection(n):
    P = build_poset(n)
    paths = set()
    for a in enumerate_antichains(P):
        steps = oracles.antichain_to_dyck(P, a)
        assert len(steps) == 2 * n + 2
        assert oracles.dyck_to_antichain(P, steps) == a
        paths.add(steps)
    assert len(paths) == catalan(n + 1)


def test_dyck_rejects_non_antichain():
    P = build_poset(3)
    with pytest.raises(ValueError):
        oracles.antichain_to_dyck(P, {(1, 1), (2, 2)})


def _linear_extensions_brute(P):
    from itertools import permutations

    leq = oracles.order_pairs(P)
    count = 0
    for perm in permutations(P.elements):
        pos = {x: i for i, x in enumerate(perm)}
        # listing must go bottom-up
        if all(pos[x] <= pos[y] for (x, y) in leq):
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_extensions_against_brute_force(n):
    P = build_poset(n)
    assert linear_extension_count(P) == _linear_extensions_brute(P)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_linear_extensions_equal_staircase_syt(n):
    assert linear_extension_count(build_poset(n)) == staircase_syt_count(n)


def test_linear_extensions_equal_staircase_syt_n6_n7():
    # the order-ideal program has no size bound; n=7 has 1430 ideals
    for n in (6, 7):
        assert linear_extension_count(build_poset(n)) == staircase_syt_count(n)


class CountingDeadline(Deadline):
    def __init__(self):
        super().__init__()
        self.polls = 0

    def check(self):
        self.polls += 1
        super().check()


# P_8 has catalan(9) = 4862 antichains and as many order ideals.
POLLS_P8 = math.ceil(catalan(9) / POLL_EVERY)


def test_antichains_and_ideals_poll_the_deadline():
    P = build_poset(8)
    with arm(CountingDeadline()) as deadline:
        assert len(enumerate_antichains(P)) == catalan(9)
    assert deadline.polls == POLLS_P8
    with arm(CountingDeadline()) as deadline:
        assert linear_extension_count(P) == staircase_syt_count(8)
    assert deadline.polls == POLLS_P8


# The lattice count of P_8 at k = 1: one poll per prefix sweep, 0 + 1 + ...
# + 7 of them, and one for each level's 2^j <= 256 states.
@pytest.mark.parametrize("check, polls", [(verify.catalan, 28 + 8), (verify.extensions, POLLS_P8)],
                         ids=["catalan", "extensions"])
def test_poset_checks_pass_their_deadline(check, polls):
    with arm(CountingDeadline()) as deadline:
        assert check(8)[0]
    assert deadline.polls == polls
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        check(8)


def test_superpotential_n3():
    terms = build_superpotential(3)
    assert len(terms) == 10
    quantum = [t.cells for t in terms if t.kind == "quantum"]
    assert quantum == [
        ((1, 1), (1, 2), (1, 3)),
        ((1, 1), (1, 2), (2, 3)),
        ((1, 1), (2, 2), (2, 3)),
        ((1, 1), (2, 2), (3, 3)),
    ]


def test_superpotential_sizes():
    assert len(build_superpotential(1)) == 2
    assert len(build_superpotential(4)) == 18
    assert len(list(strict_staircase_partitions(5))) == 2 ** 4


@pytest.mark.parametrize("n", range(1, 13))
def test_strict_partitions_come_in_lexicographic_order(n):
    # n followed by each subset of 1..n-1 in descending order, sorted
    expected = sorted((n, *sorted(rest, reverse=True))
                      for k in range(n) for rest in combinations(range(1, n), k))
    assert list(strict_staircase_partitions(n)) == expected


def test_the_quantum_terms_poll_before_the_partitions_are_listed():
    build_superpotential.cache_clear()  # the terms are one table per n
    with arm(CountingDeadline()) as deadline:
        assert len(build_superpotential(12)) == 78 + 2 ** 11
    assert deadline.polls == 2 ** 11 // POLL_EVERY
    # the first partition is polled before the next is made: listing all
    # 2^19 of them first takes most of a second
    start = time.monotonic()
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        build_superpotential(20)
    assert time.monotonic() - start < 0.2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quantum_terms_are_maximal_chains(n):
    P = build_poset(n)
    chains = {tuple(sorted(c)) for c in maximal_chains(P)}
    denominators = {
        tuple(sorted(quantum_denominator(n, lam)))
        for lam in strict_staircase_partitions(n)
    }
    assert denominators == chains


def test_tropicalize_n3():
    cells = lex_cells(3)
    rows = set(tropicalize(3, build_superpotential(3)))
    positivity = {(tuple(1 if c == cell else 0 for c in cells), 0) for cell in cells}
    chain = {
        (tuple(-1 if c in chain else 0 for c in cells), 1)
        for chain in [
            ((1, 1), (1, 2), (1, 3)),
            ((1, 1), (1, 2), (2, 3)),
            ((1, 1), (2, 2), (2, 3)),
            ((1, 1), (2, 2), (3, 3)),
        ]
    }
    assert rows == positivity | chain


def test_gamma_routes_agree():
    for n in (1, 2, 3, 4):
        H = gamma_hrep(n)
        assert set(H.rows) == set(chain_polytope_rows(build_poset(n)))
        assert len(H.rows) == n * (n + 1) // 2 + 2 ** (n - 1)


def test_gamma_n1_is_unit_segment():
    H = gamma_hrep(1)
    assert set(H.rows) == {((1,), 0), ((-1,), 1)}


def test_gamma_vertices_are_indicators():
    vertices = gamma_vertex_set(3)
    assert len(vertices) == 14
    assert all(set(v) <= {0, 1} for v in vertices)
    assert oracles.antichain_indicator(3, frozenset()) in vertices
    for n in range(1, 7):
        expected = sorted(oracles.antichain_indicator(n, a)
                          for a in enumerate_antichains(build_poset(n)))
        assert gamma_vertex_set(n) == tuple(expected)


@given(st.integers(min_value=1, max_value=5))
def test_ideal_of_antichain_is_downward_closed(n):
    P = build_poset(n)
    for a in enumerate_antichains(P)[:40]:
        ideal = oracles.down_set(P, a)
        assert all(y in ideal for x in ideal for y in P.elements if P.below(y, x))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_polytope_points_match_a_count_over_the_rows(n):
    # every integer point of the box [0, k]^d on which the rows of Gamma,
    # dilated by k, hold
    P, H = build_poset(n), gamma_hrep(n)
    for k in range(4):
        box = product(range(k + 1), repeat=H.dim)
        counted = sum(all(sum(map(math.prod, zip(c, x))) + d * k >= 0 for c, d in H.rows)
                      for x in box)
        assert chain_polytope_points(P, k) == counted


@pytest.mark.parametrize("n", range(1, 13))
def test_chain_polytope_points_at_k1_are_the_antichains(n):
    P = build_poset(n)
    assert chain_polytope_points(P, 0) == 1
    assert chain_polytope_points(P, 1) == catalan(n + 1)


def test_chain_polytope_points_poll_the_deadline():
    with arm(CountingDeadline()) as deadline:
        assert chain_polytope_points(build_poset(6), 2) == 40898
    # one poll per prefix sweep, 0 + 1 + ... + 5 of them, and one per
    # POLL_EVERY of the 3^j states of each level j
    assert deadline.polls == 15 + sum(-(-3 ** j // POLL_EVERY) for j in range(1, 7)) == 21
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        chain_polytope_points(build_poset(6), 2)
