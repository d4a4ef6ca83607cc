"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything is exact; no tolerances anywhere.  Criterion 3 pins the flow
polynomial over {1,2,3} -> {1,4,5} at n=3 to its three terms (the worked
example's two printed flows plus the third system the unique perfect
orientation admits) and checks the count against the three-term Plücker
relations satisfied by the flow polynomials of all 20 targets at n=3.
"""

from itertools import combinations
from math import prod

from lgrnok import plabic, polytope
from lgrnok.budget import Deadline, TimeBudgetExceeded, arm
from lgrnok.equivalence import (
    build_valuation_matrix,
    check_blocks,
    image_of_antichains,
    is_unimodular,
    verify_main_theorem,
    verify_singleton_images,
)
from lgrnok.partitions import (
    complement,
    indexset_to_partition,
    partition_to_indexset,
    staircase_syt_count,
    transpose,
)
from lgrnok.superpotential import (
    build_poset,
    chain_polytope_rows,
    build_superpotential,
    enumerate_antichains,
    gamma_hrep,
    gamma_vertex_set,
    lex_cells,
    linear_extension_count,
    tropicalize,
)
from lgrnok.valuation import (
    all_plucker_valuations,
    delta_vertices,
    orbit_vector,
    valuation_from_flows,
    valuation_maxdiag,
)
from oracles import (
    antichain_from_partition,
    flow_polynomial,
    maxdiag_additivity,
    partitions_in_box,
    transpose_classes,
    valuation_additivity,
)

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

DELTA3_ROWS = frozenset({
    ((0, -1, 0, 1, 0, 0), 0), ((-1, 1, 2, -1, 0, 0), 0), ((1, 0, -1, 0, 0, 0), 0),
    ((0, 0, 0, -1, 2, 0), 0), ((0, 0, -1, 1, -1, 0), 0), ((0, 0, 0, 0, -1, 1), 0),
    ((0, 0, -1, 0, 0, 0), 1), ((1, 0, -1, -1, 1, 0), 1), ((0, 1, 1, -1, -1, 0), 1),
    ((0, 1, 0, 0, -1, -1), 1),
})

M3 = (
    (1, 1, 2, 0, 0, 0), (1, 2, 2, 1, 2, 0), (1, 1, 1, 0, 0, 0),
    (2, 2, 2, 1, 2, 0), (1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1),
)
M2 = ((1, 2, 0), (1, 1, 0), (1, 1, 1))

FOLDED_N4 = (
    (0, 1, 0, -1, 0, 0), (-1, 0, 1, 1, 0, -1), (0, -1, 0, 0, 0, 1),
    (2, -2, 0, 0, -1, 1), (0, 0, 0, 1, 0, -1), (0, 2, -2, -1, 1, 0),
    (-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, -1, 1),
    (0, 0, 2, 0, 0, -1), (0, 0, -1, 0, 0, 0),
)


def _report(num: int, ok: bool, summary: str):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {num}: {summary}"


def test_criterion_1_valuation_table_n3():
    table = all_plucker_valuations(3, cross_check=False)
    _report(1, table == TABLE_N3, "all 14 valuation vectors at n=3 equal the reference table")


def test_criterion_2_oracle_equivalence():
    ok = True
    for n in (1, 2, 3, 4):
        for lam in transpose_classes(n):
            if valuation_from_flows(n, lam) != valuation_maxdiag(n, lam):
                ok = False
    _report(2, ok, "flow and maxdiag valuations agree on every class, n <= 4")


def _plucker_violations(n: int) -> tuple[int, list]:
    """Check the flow polynomials of every n-subset of [2n] against the
    three-term Plücker relations p_Sac p_Sbd = p_Sab p_Scd + p_Sad p_Sbc
    (S an (n-2)-subset, a < b < c < d outside it), with each face variable
    set to its own integer >= 2.  Flow polynomials are Plücker coordinates
    (Postnikov's boundary measurements), so a dropped, invented or
    mis-weighted flow breaks some relation.  Returns the number of
    relations and the failing ones."""
    G, O = plabic.corect_network(n)
    weight = {label: i + 2 for i, label in enumerate(sorted(set(G.faces.values())))}
    p = {
        J: sum(
            prod(weight[label] ** e for label, e in mono.items())
            for mono in flow_polynomial(G, O, J)
        )
        for J in combinations(range(1, 2 * n + 1), n)
    }
    relations, failing = 0, []
    for S in combinations(range(1, 2 * n + 1), n - 2):
        def q(x, y):
            return p[tuple(sorted(S + (x, y)))]
        rest = [x for x in range(1, 2 * n + 1) if x not in S]
        for a, b, c, d in combinations(rest, 4):
            relations += 1
            if q(a, c) * q(b, d) != q(a, b) * q(c, d) + q(a, d) * q(b, c):
                failing.append((S, (a, b, c, d)))
    return relations, failing


def test_criterion_3_flow_polynomial_145():
    G, O = plabic.corect_network(3)
    flows = plabic.enumerate_flows(G, O, (1, 4, 5))
    vectors = sorted(orbit_vector(3, f.monomial(G)) for f in flows)
    minimal = (0, 2, 0, 2, 1, 2)
    # the worked example's two flows and valuation are present and correct
    assert minimal in vectors
    assert (0, 2, 1, 2, 1, 2) in vectors  # minimal times x_(3,1,1)
    assert vectors.count(minimal) == 1
    assert tuple(min(col) for col in zip(*vectors)) == minimal
    assert minimal == valuation_maxdiag(3, (3, 1, 1)) == TABLE_N3[(3, 1, 1)]
    three_term = [minimal,
                  (0, 2, 1, 2, 1, 2),   # minimal * x_(3,1,1)
                  (0, 2, 1, 2, 2, 2)]   # minimal * x_(3,1,1) x_(3,3,2)
    # the count of three is not taken on trust: the n=3 flow polynomials,
    # {1,4,5} among them, must satisfy every three-term Plücker relation
    relations, failing = _plucker_violations(3)
    ok = len(flows) == 3 and vectors == three_term and relations == 30 and not failing
    _report(
        3,
        ok,
        "flow polynomial to {1,4,5} is exactly the three terms minimal, "
        "minimal*x_(3,1,1), minimal*x_(3,1,1)*x_(3,3,2); the n=3 flow "
        f"polynomials satisfy all 30 three-term Plücker relations ({len(failing)} "
        f"of {relations} fail)",
    )


def test_criterion_4_gamma_n3():
    cells = lex_cells(3)
    trop = set(tropicalize(3, build_superpotential(3)))
    printed = {(tuple(1 if c == cell else 0 for c in cells), 0) for cell in cells} | {
        (tuple(-1 if c in chain else 0 for c in cells), 1)
        for chain in [
            ((1, 1), (1, 2), (1, 3)), ((1, 1), (1, 2), (2, 3)),
            ((1, 1), (2, 2), (2, 3)), ((1, 1), (2, 2), (3, 3)),
        ]
    }
    chain_route = set(chain_polytope_rows(build_poset(3)))
    indicators = gamma_vertex_set(3)
    hull = polytope.facets(polytope.VPolytope.from_points(indicators)).row_set()
    ok = trop == printed and chain_route == printed and hull == printed \
        and gamma_hrep(3).row_set() == printed and len(indicators) == 14
    _report(4, ok, "the 10 printed inequalities, both routes, and the facets of the 14 indicator vertices")


def test_criterion_5_counting_suite():
    ok = True
    for n, count in [(3, 14), (4, 42), (5, 132), (6, 429)]:
        ok &= len(enumerate_antichains(build_poset(n))) == count
    for n, count in [(3, 16), (4, 768)]:
        ok &= linear_extension_count(build_poset(n)) == count
        ok &= staircase_syt_count(n) == count
    _report(5, ok, "antichain counts 14/42/132/429 and linear extensions 16/768 = SYT")


def test_criterion_6_matrices_and_blocks():
    ok = build_valuation_matrix(3).entries == M3
    ok &= build_valuation_matrix(2).entries == M2
    for n in (1, 2, 3, 4, 5):
        ok &= is_unimodular(build_valuation_matrix(n))[0]
    for n in (2, 3, 4, 5):
        ok &= check_blocks(build_valuation_matrix(n))[0]
    _report(6, ok, "printed matrices, |det| = 1 for n <= 5, block structure for 2 <= n <= 5")


def test_criterion_7_main_theorem_vertex_level():
    ok = True
    for n in (1, 2, 3, 4, 5):
        ok &= verify_main_theorem(n)[0]
        images = image_of_antichains(n)
        values = {valuation_maxdiag(n, lam) for lam in transpose_classes(n)}
        ok &= set(images.values()) == values and len(set(images.values())) == len(images)
        for lam in transpose_classes(n):
            ok &= images[antichain_from_partition(n, lam)] == valuation_maxdiag(n, lam)
    _report(7, ok, "antichain indicators map bijectively onto the valuation set, n <= 5, "
                   "matched by the hook bijection")


def test_criterion_8_main_theorem_hull_level():
    image3 = polytope.VPolytope.from_points(image_of_antichains(3).values())
    delta3 = polytope.VPolytope.from_points(delta_vertices(3))
    ok = polytope.facets(image3).row_set() == DELTA3_ROWS
    ok &= polytope.facets(delta3).row_set() == DELTA3_ROWS
    ok &= polytope.f_vector(delta3) == (14, 51, 86, 78, 39, 10)
    ok &= polytope.normalized_volume(delta3) == 16
    ok &= polytope.normalized_volume(
        polytope.VPolytope.from_points(gamma_vertex_set(3))) == 16
    # n=4, inside the 30 minute budget (runs in seconds)
    gamma4 = polytope.VPolytope.from_points(gamma_vertex_set(4))
    delta4 = polytope.VPolytope.from_points(delta_vertices(4))
    try:
        with arm(Deadline(1800.0)):
            ok &= polytope.normalized_volume(gamma4) == 768
            ok &= polytope.normalized_volume(delta4) == 768
        n4 = "n=4 volumes 768"
    except TimeBudgetExceeded:
        n4 = "n=4 volume budget exceeded (not a mathematical failure)"
    _report(8, ok, f"n=3 facets/f-vector/volume match; {n4}")


def test_criterion_9_folded_exchange_matrix():
    from lgrnok.quiverfold import folded_matrix

    F = folded_matrix(4)
    _report(9, F.entries == FOLDED_N4, "all 66 entries of the folded 11x6 matrix")


def test_criterion_10_property_suites():
    ok = True
    for n in (1, 2, 3, 4, 5):
        from itertools import combinations

        for I in combinations(range(1, 2 * n + 1), n):
            ok &= partition_to_indexset(indexset_to_partition(I, n), n) == I
    for n in (1, 2, 3, 4, 5):
        for lam in partitions_in_box(n):
            ok &= transpose(transpose(lam)) == lam
            ok &= complement(complement(lam, n), n) == lam
        ok &= maxdiag_additivity(n)[0]
        ok &= valuation_additivity(n)[0]
        plabic.corect_network(n)  # raises unless unique orientation exists
        ok &= verify_singleton_images(n)[0]
    _report(10, ok, "involutions, subset round trip, additivity lemmas, orientation uniqueness")
