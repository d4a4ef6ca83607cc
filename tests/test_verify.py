"""The verification registry `lgrnok.verify` and its one run loop."""

import hashlib
import math
import re
import time
from functools import cache
from pathlib import Path
from types import MappingProxyType

import pytest

from lgrnok import equivalence, partitions, plabic, polytope, superpotential, valuation, verify
from lgrnok.budget import Deadline, TimeBudgetExceeded, arm
from lgrnok.cli import main
from lgrnok.linalg import bareiss_det
from oracles import clear_tables, recoloured

BASELINE = Path(__file__).resolve().parents[1] / "benchmark" / "baseline"

EXPECTED_N1 = (
    "  [PASS] partition-bijection-roundtrip\n"
    "  [PASS] perfect-orientation-unique\n"
    "  [PASS] valuation-oracle-equivalence\n"
    "  [skip] valuation-table-lgr36  (reference table is for n=3)\n"
    "  [skip] flow-polynomial-145  (worked example is for n=3)\n"
    "  [PASS] superpotential-term-count\n"
    "  [PASS] gamma-tropicalization-vs-chain-polytope\n"
    "  [PASS] antichain-count-catalan\n"
    "  [PASS] linear-extensions-equal-syt\n"
    "  [skip] matrix-block-lemmas  (blocks need n >= 2)\n"
    "  [PASS] matrix-unimodular\n"
    "  [PASS] singleton-antichain-images\n"
    "  [PASS] main-theorem-vertex-level\n"
    "  [PASS] folded-exchange-matrix\n"
    "  [PASS] gamma-vertex-enumeration\n"
    "  [PASS] lattice-points-vs-weyl-dimension\n"
    "  [skip] delta-facets-match-printed  (printed system is for n=3)\n"
    "  [skip] f-vector  (reference f-vector is for n=3)\n"
    "  [PASS] main-theorem-hull-level\n"
    "all checks passed (n=1, level=all)\n"
)


def test_verify_n1_skip_witnesses(capsys):
    assert main(["verify", "--n", "1", "--level", "all"]) == 0
    assert capsys.readouterr().out == EXPECTED_N1


def test_one_time_budget_per_run(monkeypatch, capsys):
    real = equivalence.verify_singleton_images

    def slow(n):
        time.sleep(0.5)
        return real(n)

    monkeypatch.setattr(equivalence, "verify_singleton_images", slow)
    start = time.monotonic()
    code = main(["verify", "--n", "3", "--level", "all", "--time-budget", "0.2"])
    assert code == 3
    assert time.monotonic() - start < 1.5
    # stderr names the check that used up the budget
    assert "singleton-antichain-images" in capsys.readouterr().err


@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_flow_polynomial_145_fails_without_one_flow(monkeypatch, capsys, dropped):
    real = plabic.enumerate_flows

    def one_flow_fewer(G, O, J):
        flows = real(G, O, J)
        if tuple(sorted(J)) == (1, 4, 5):
            flows = flows[:dropped] + flows[dropped + 1:]
        return flows

    monkeypatch.setattr(plabic, "enumerate_flows", one_flow_fewer)
    assert main(["verify", "--n", "3", "--level", "vertex"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("  [FAIL] flow-polynomial-145  (vectors ") for line in lines)


def test_recoloured_vertex_fails_the_orientation_check(monkeypatch, capsys):
    planted = recoloured(plabic.build_corect_graph(3), ("f", 1, 2))
    monkeypatch.setattr(plabic, "build_corect_graph", lambda n: planted)
    monkeypatch.setattr(plabic, "corect_network", plabic.corect_network.__wrapped__)
    assert main(["verify", "--n", "3", "--level", "vertex"]) == 1
    assert ("  [FAIL] perfect-orientation-unique  (ValueError: hollow vertex f(1,2) cannot "
            "have exactly one in-edge for sources (1, 2, 3))\n") in capsys.readouterr().out


def test_table_lgr36_names_the_rows_that_differ(monkeypatch):
    real = valuation.all_plucker_valuations

    def planted(n, **options):
        table = dict(real(n, **options))
        table[()] = (0,) * 6
        return table

    monkeypatch.setattr(valuation, "all_plucker_valuations", planted)
    assert verify.table_lgr36(3) == (
        False, "(3,2,1) -> (0, 2, 0, 2, 1, 1), () -> (0, 0, 0, 0, 0, 0), 14 classes")


def test_delta_printed_names_the_rows_that_differ(monkeypatch):
    real_row = ((0, 0, -1, 0, 0, 0), 1)
    wrong_row = ((0, 0, -1, 0, 0, 0), 2)
    monkeypatch.setattr(verify, "PRINTED_DELTA3", verify.PRINTED_DELTA3 - {real_row} | {wrong_row})
    assert verify.delta_printed(3) == (
        False, f"missing {[wrong_row]}, extra {[real_row]}")


def failures(n, level):
    return {r["name"]: r["witness"] for r in verify.run_checks(n, level)
            if r["status"] == "fail"}


def test_a_dropped_chain_row_fails_only_the_gamma_routes_check(monkeypatch):
    # gamma_hrep builds the tropicalized rows only, so the chain polytope
    # is read by this one check, and the facet run and the hull level see
    # the right Gamma
    real = superpotential.chain_polytope_rows
    dropped = list(real(superpotential.build_poset(3)))[-1]
    monkeypatch.setattr(superpotential, "chain_polytope_rows",
                        lambda P: [row for row in real(P) if row != dropped])
    assert failures(3, "all") == {
        "gamma-tropicalization-vs-chain-polytope": f"missing [], extra {[dropped]}"}


def test_an_extra_quantum_term_fails_the_gamma_routes_check(monkeypatch):
    # gamma_hrep keeps one table per n, so the plant reads a fresh, empty
    # one, and the real table is back untouched after the test
    real = superpotential.build_superpotential
    extra = superpotential.SuperpotentialTerm("quantum", ((1, 1), (1, 2)))
    monkeypatch.setattr(superpotential, "build_superpotential", lambda n: real(n) + (extra,))
    monkeypatch.setattr(superpotential, "gamma_hrep", cache(superpotential.gamma_hrep.__wrapped__))
    row = ((-1, -1, 0, 0, 0, 0), 1)
    assert verify.gamma_routes(3) == (False, f"missing [], extra {[row]}")


def test_a_wrong_entry_of_m5_fails_the_hull_level(monkeypatch, capsys):
    # the hull level runs at n=5, so a planted entry of M_5 fails it there
    real = equivalence.build_valuation_matrix
    M = real(5)
    wrong = M._replace(entries=((M.entries[0][0] + 1,) + M.entries[0][1:],) + M.entries[1:])
    monkeypatch.setattr(equivalence, "build_valuation_matrix", lambda n: wrong if n == 5 else real(n))
    assert main(["verify", "--n", "5", "--level", "hull"]) == 1
    assert "  [FAIL] main-theorem-hull-level  (" in capsys.readouterr().out


def hull_level(n):
    """The registry's main-theorem-hull-level run alone at n, inside its gate."""
    check = next(check for check in verify.CHECKS if check.name == "main-theorem-hull-level")
    assert check.n_min <= n <= check.n_max
    return check.run(n)


def test_a_wrong_entry_of_m6_fails_the_hull_level(monkeypatch):
    real = equivalence.build_valuation_matrix
    M = real(6)
    wrong = M._replace(entries=((M.entries[0][0] + 1,) + M.entries[0][1:],) + M.entries[1:])
    monkeypatch.setattr(equivalence, "build_valuation_matrix", lambda n: wrong if n == 6 else real(n))
    ok, witness = hull_level(6)
    assert not ok and witness.startswith("hook bijection fails at "), witness


def redundant_row_added(rows):
    # the sum of the first two rows, x_0 >= 0 and x_1 >= 0: valid on Gamma,
    # tight on the face where both are, which is not a facet
    (c0, d0), (c1, d1) = rows[:2]
    return rows + ((tuple(map(sum, zip(c0, c1))), d0 + d1),)


def row_0_constant_plus_1(rows):
    # x_0 + 1 >= 0 is tight at no indicator, and lets x_0 = -1 in
    (c0, d0), *rest = rows
    return ((c0, d0 + 1), *rest)


def middle_chain_row_dropped(rows):
    # a chain in the middle of the rows: every element keeps a bound, so
    # Gamma stays bounded, but it grows, and so does its vertex set
    chains = [row for row in rows if row[1] == 1]
    return tuple(row for row in rows if row != chains[len(chains) // 2])


def coordinate_row_dropped(rows):
    # x_0 >= 0 is a facet through the origin, the least point, so no
    # pyramid of the volume pass stands on it, and without it Gamma is
    # unbounded
    coordinate = next(row for row in rows if row[1] == 0)
    return tuple(row for row in rows if row != coordinate)


# A planted fault in Gamma's row system against the failing checks of the
# hull level.  The hull level certifies its rows by itself: the coordinate
# rows looked up, and the volume pass's leaf check, volume and cut count.
# The facet run of gamma-vertex-enumeration is a second route to the same
# rows.
ROW_PLANTS = {
    redundant_row_added: {"gamma-vertex-enumeration", "main-theorem-hull-level"},
    row_0_constant_plus_1: {"gamma-vertex-enumeration", "main-theorem-hull-level"},
    middle_chain_row_dropped: {"gamma-vertex-enumeration", "main-theorem-hull-level"},
    coordinate_row_dropped: {"gamma-vertex-enumeration", "main-theorem-hull-level"},
}
NO_X11 = "no coordinate row x_(1, 1) >= 0 among Gamma's rows"
ROW_WITNESSES = {
    (redundant_row_added, 3): "11 distinct rows of Gamma against 10 facets",
    (row_0_constant_plus_1, 3): f"{NO_X11}; 10 distinct rows of Gamma against 9 facets",
    (middle_chain_row_dropped, 3): "volume of Gamma 8, expected 16",
    (coordinate_row_dropped, 3): NO_X11,
    (redundant_row_added, 6): "54 distinct rows of Gamma against 53 facets",
    (row_0_constant_plus_1, 6): f"{NO_X11}; 53 distinct rows of Gamma against 52 facets",
    (middle_chain_row_dropped, 6): "volume of Gamma 891551744, expected 1100742656",
    (coordinate_row_dropped, 6): NO_X11,
}


@pytest.mark.parametrize("plant, n", list(ROW_WITNESSES), ids=lambda p: getattr(p, "__name__", p))
def test_a_planted_row_fault_fails_exactly_its_catchers(monkeypatch, plant, n):
    real = superpotential.gamma_hrep(n)
    wrong = real._replace(rows=plant(real.rows))
    monkeypatch.setattr(equivalence, "gamma_hrep", lambda k, *args: wrong)
    got = failures(n, "hull")
    assert got.keys() == ROW_PLANTS[plant]
    assert got["main-theorem-hull-level"] == ROW_WITNESSES[plant, n]


@pytest.mark.parametrize("plant", list(ROW_PLANTS), ids=lambda p: p.__name__)
def test_a_planted_row_fault_fails_the_hull_level_alone(monkeypatch, plant):
    # no double description runs, gamma-vertex-enumeration's or another
    real = superpotential.gamma_hrep(3)
    wrong = real._replace(rows=plant(real.rows))
    monkeypatch.setattr(equivalence, "gamma_hrep", lambda k, *args: wrong)
    monkeypatch.setattr(polytope, "_facets_full_dim", lambda *args: pytest.fail("a double description ran"))
    assert hull_level(3) == (False, ROW_WITNESSES[plant, 3])


def test_a_determinant_of_2_fails_the_hull_level(monkeypatch):
    # the hull level reads |det M_n| itself: matrix-unimodular is a vertex check
    monkeypatch.setattr(equivalence, "bareiss_det", lambda matrix: 2)
    assert failures(4, "hull") == {"main-theorem-hull-level": "M_n has det 2"}


@pytest.mark.parametrize("n", [3, 5])
def test_a_dropped_walk_hook_fails_only_the_main_theorem(monkeypatch, n):
    # The walk's step pairing is the one map from an index set to its
    # complement's hooks.  The hook (n, n-1), closed by the last step with
    # the first, drops out of every class that has it; the first to fail
    # is (n-1)^(n-1), whose complement is that hook alone.  The hull level
    # fails too because it runs the vertex level first.
    real = equivalence._walk_table

    def dropped(n):
        hooks = real(n)
        hooks[2 * n][1] = (0, 0, 0, 0)
        return hooks

    monkeypatch.setattr(equivalence, "_walk_table", dropped)
    witness = f"hook bijection fails at {(n - 1,) * (n - 1)}"
    assert failures(n, "all") == {"main-theorem-vertex-level": witness,
                                  "main-theorem-hull-level": witness}


def test_a_wrong_entry_of_m3_names_the_column_that_fails_the_singletons(monkeypatch):
    real = equivalence.build_valuation_matrix
    M = real(3)
    wrong = M._replace(entries=((M.entries[0][0] + 1,) + M.entries[0][1:],) + M.entries[1:])
    monkeypatch.setattr(equivalence, "build_valuation_matrix", lambda n: wrong if n == 3 else real(n))
    assert verify.singletons(3) == (
        False, "column 0 of (1, 1) is (2, 1, 1, 2, 1, 1), expected (1, 1, 1, 2, 1, 1)")


def planted_matrix(M, plant):
    """M_n with one planted fault."""
    e = [list(row) for row in M.entries]
    if plant == "entry-0-0-plus-1":
        e[0][0] += 1
    elif plant == "columns-0-1-swapped":
        for row in e:
            row[0], row[1] = row[1], row[0]
    elif plant == "row-0-doubled":
        e[0] = [2 * x for x in e[0]]
    else:  # the (0, 1) column built from the (1, 1) partition
        t = M.col_pairs.index((0, 1))
        for row, x in zip(e, valuation.valuation_maxdiag(M.n, equivalence.column_partition(M.n, 1, 1))):
            row[t] = x
    return M._replace(entries=tuple(map(tuple, e)))


SINGLETON_3 = "column 0 of (1, 1) is {}, expected (1, 1, 1, 2, 1, 1)"
SINGLETON_5 = "column 0 of (1, 1) is {}, expected (1, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 1, 2, 1, 1)"

# Each plant of M_n against the checks that catch it, with their witnesses.
# The first two plants keep M_n unimodular (det 1 and det -1), so
# matrix-unimodular is an expected non-catcher there; every column of M_n
# is pinned by the vertex level through the classes whose complement is a
# single hook, and by the block lemmas and the singleton images.
PLANTS = {
    ("entry-0-0-plus-1", 3): {
        "matrix-block-lemmas": "upper left (0, 0, 2, 1)",
        "singleton-antichain-images": SINGLETON_3.format((2, 1, 1, 2, 1, 1)),
        "main-theorem-vertex-level": "hook bijection fails at (3, 3)",
    },
    ("entry-0-0-plus-1", 5): {
        "matrix-block-lemmas": "upper left (0, 0, 2, 1)",
        "singleton-antichain-images": SINGLETON_5.format((2, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 1, 2, 1, 1)),
        "main-theorem-vertex-level": "hook bijection fails at (5, 5, 5, 5)",
    },
    ("columns-0-1-swapped", 3): {
        "matrix-block-lemmas": "upper left (1, 0, 2, 1)",
        "singleton-antichain-images": SINGLETON_3.format((1, 2, 1, 2, 1, 1)),
        "main-theorem-vertex-level": "hook bijection fails at (3, 3)",
    },
    ("columns-0-1-swapped", 5): {
        "matrix-block-lemmas": "upper left (3, 0, 2, 1)",
        "singleton-antichain-images": SINGLETON_5.format((1, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 1, 2, 1, 1)),
        "main-theorem-vertex-level": "hook bijection fails at (5, 5, 5, 5)",
    },
    ("row-0-doubled", 3): {
        "matrix-block-lemmas": "upper left (0, 0, 2, 1)",
        "matrix-unimodular": "det 2",
        "singleton-antichain-images": SINGLETON_3.format((2, 1, 1, 2, 1, 1)),
        "main-theorem-vertex-level": "hook bijection fails at (3, 3)",
    },
    ("row-0-doubled", 5): {
        "matrix-block-lemmas": "upper left (0, 0, 2, 1)",
        "matrix-unimodular": "det 2",
        "singleton-antichain-images": SINGLETON_5.format((2, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 1, 2, 1, 1)),
        "main-theorem-vertex-level": "hook bijection fails at (5, 5, 5, 5)",
    },
    ("column-0-1-from-partition-1-1", 3): {
        "matrix-block-lemmas": "upper left (0, 1, 0, 1)",
        "matrix-unimodular": "det 0",
        "singleton-antichain-images": "column 1 of (1, 2) is (0, 2, 0, 2, 1, 1), expected (1, 2, 1, 2, 1, 1)",
        "main-theorem-vertex-level": "hook bijection fails at (3, 2)",
    },
    ("column-0-1-from-partition-1-1", 5): {
        "matrix-block-lemmas": "upper left (0, 3, 0, 1)",
        "matrix-unimodular": "det 0",
        "singleton-antichain-images": "column 3 of (1, 4) is (0, 2, 2, 2, 0, 2, 2, 2, 1, 2, 2, 1, 2, 1, 1), "
                                      "expected (1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 1, 2, 1, 1)",
        "main-theorem-vertex-level": "hook bijection fails at (5, 4, 4, 4)",
    },
}


@pytest.mark.parametrize("plant, n", list(PLANTS))
def test_a_planted_fault_of_m_fails_exactly_its_catchers(monkeypatch, plant, n):
    # The hull level runs the vertex level first and fails with its witness.
    real = equivalence.build_valuation_matrix
    wrong = planted_matrix(real(n), plant)
    monkeypatch.setattr(equivalence, "build_valuation_matrix", lambda k: wrong if k == n else real(k))
    expected = PLANTS[plant, n]
    assert failures(n, "all") == {**expected,
                                  "main-theorem-hull-level": expected["main-theorem-vertex-level"]}


def test_a_doubled_row_of_m4_names_the_determinant():
    M = equivalence.build_valuation_matrix(4)
    wrong = M._replace(entries=(tuple(2 * x for x in M.entries[0]),) + M.entries[1:])
    assert equivalence.is_unimodular(wrong) == (False, f"det {2 * bareiss_det(M.entries)}")


@pytest.mark.parametrize("n, witness", [
    (3, "ArithmeticError: 5040 does not divide 118800"),
    (4, "ArithmeticError: 12700800 does not divide 179625600"),
])
def test_the_lattice_count_fails_with_rho_shifted_by_one(monkeypatch, n, witness):
    # (n+1, ..., 2) is no rho: its formula does not even give integers
    real = partitions.symplectic_dimension
    monkeypatch.setattr(partitions, "symplectic_dimension",
                        lambda k, rho: real(k, tuple(r + 1 for r in rho)))
    assert failures(n, "hull") == {"lattice-points-vs-weyl-dimension": witness}


@pytest.mark.parametrize("n", [3, 6])
def test_a_dropped_cover_fails_the_lattice_counts_and_the_chains(monkeypatch, n):
    # b_11 no longer covers b_12: both lattice counts walk the covers, and
    # the chain polytope's rows are the chains down the covers from b_11,
    # which lose the two through b_12
    real = superpotential.PosetPn.covers
    monkeypatch.setattr(superpotential.PosetPn, "covers", lambda P: real(P)[1:])
    if n == 3:
        assert failures(3, "all") == {
            "gamma-tropicalization-vs-chain-polytope":
                "missing [], extra [((-1, -1, -1, 0, 0, 0), 1), ((-1, -1, 0, 0, -1, 0), 1)]",
            "antichain-count-catalan": "16",
            "lattice-points-vs-weyl-dimension": "[16, 104, 430] points against dimensions [14, 84, 330]",
        }
    for check in (verify.gamma_routes, verify.catalan, verify.lattice_points):
        assert check(n)[0] is False


@pytest.mark.parametrize("n, level, failing", [
    (3, "all", {"gamma-tropicalization-vs-chain-polytope", "antichain-count-catalan",
                "linear-extensions-equal-syt", "gamma-vertex-enumeration",
                "lattice-points-vs-weyl-dimension", "f-vector", "main-theorem-hull-level"}),
    (7, "vertex", {"gamma-tropicalization-vs-chain-polytope", "antichain-count-catalan",
                   "linear-extensions-equal-syt"}),
])
def test_a_pair_dropped_from_below_fails_the_chains_and_the_catalan_count(monkeypatch, n, level, failing):
    # b_23 no longer below b_22: the covers, the chains and both lattice
    # counts read the order of P_n off `below`
    real = superpotential.PosetPn.below
    monkeypatch.setattr(superpotential.PosetPn, "below",
                        lambda P, x, y: (x, y) != ((2, 3), (2, 2)) and real(P, x, y))
    got = failures(n, level)
    assert set(got) == failing
    if n == 3:
        # {b_22, b_23} is now read as an antichain, and its indicator is -1
        # on the superpotential's row for the chain b_11 > b_22 > b_23, so
        # that row is no facet of the indicators' hull
        assert got["gamma-vertex-enumeration"] == "missing None, extra ((-1, 0, 0, -1, -1, 0), 1)"


def last_row_plus_one(monkeypatch):
    # +1 on the last row of each partition the path map returns, where the
    # row above is longer, so that it stays a partition in the square
    real = partitions._path_partition

    def planted(I, n):
        lam = real(I, n)
        return lam[:-1] + (lam[-1] + 1,) if len(lam) > 1 and lam[-2] > lam[-1] else lam

    monkeypatch.setattr(partitions, "_path_partition", planted)


def zero_row_kept(monkeypatch):
    # one zero row more than the square has is kept: the row n + 1, of
    # width 0, adds the step 2n + 1, which a map that stops at the shorter
    # of its rows and steps would drop unseen; planted in the unchecked
    # inverse, which the public partition_to_indexset calls
    real = partitions._partition_path
    monkeypatch.setattr(partitions, "_partition_path", lambda lam, n: real(lam, n) + (2 * n + 1,))


def both_maps_transposed(monkeypatch):
    # the path map returns lam's transpose and its inverse transposes
    # first: each is still a bijection and undoes the other, so only a
    # check of the forward map against the box sees it
    forward, inverse = partitions._path_partition, partitions._partition_path
    monkeypatch.setattr(partitions, "_path_partition", lambda I, n: partitions.transpose(forward(I, n)))
    monkeypatch.setattr(partitions, "_partition_path", lambda lam, n: inverse(partitions.transpose(lam), n))


def cover_dropped_from_below(monkeypatch):
    # b_12 no longer below b_11: the cover that
    # test_a_dropped_cover_fails_the_lattice_counts_and_the_chains drops
    # from `covers()`, dropped from the order itself, which the
    # linear-extension DP reduces to its own covers
    real = superpotential.PosetPn.below
    monkeypatch.setattr(superpotential.PosetPn, "below",
                        lambda P, x, y: (x, y) != ((1, 2), (1, 1)) and real(P, x, y))


# A planted fault in each loop that runs over C-level map and filter, and in
# the order the linear-extension DP reads, against the failing checks of
# the vertex level, with their witnesses (None: the chain rows, too long to
# pin).  The transposed maps are each other's inverse, so a round trip that
# only asked inverse(forward(I)) == I passed them.
OUT_OF_RANGE = "IndexError: list assignment index out of range"
LOOP_PLANTS = {
    (last_row_plus_one, 3): {"partition-bijection-roundtrip": "round trip fails at (1, 2, 4)"},
    (last_row_plus_one, 7): {"partition-bijection-roundtrip": "round trip fails at (1, 2, 3, 4, 5, 6, 8)"},
    (zero_row_kept, 3): {"partition-bijection-roundtrip": "round trip fails at (1, 2, 3)",
                         "valuation-oracle-equivalence": "ValueError: (1, 2, 3, 7) is not an n-subset "
                                                         "of [2n] for n=3",
                         "flow-polynomial-145": OUT_OF_RANGE,
                         "singleton-antichain-images": OUT_OF_RANGE},
    (zero_row_kept, 7): {"partition-bijection-roundtrip": "round trip fails at (1, 2, 3, 4, 5, 6, 7)",
                         "singleton-antichain-images": OUT_OF_RANGE},
    (both_maps_transposed, 3): {"partition-bijection-roundtrip": "round trip fails at (1, 2, 5)"},
    (both_maps_transposed, 7): {"partition-bijection-roundtrip": "round trip fails at (1, 2, 3, 4, 5, 6, 9)"},
    (cover_dropped_from_below, 3): {"gamma-tropicalization-vs-chain-polytope": None,
                                    "antichain-count-catalan": "16",
                                    "linear-extensions-equal-syt": "24"},
    (cover_dropped_from_below, 7): {"gamma-tropicalization-vs-chain-polytope": None,
                                    "antichain-count-catalan": "1436",
                                    "linear-extensions-equal-syt": "72913193533440"},
}


@pytest.mark.parametrize("plant, n", list(LOOP_PLANTS), ids=lambda p: getattr(p, "__name__", p))
def test_a_planted_fault_in_a_rewritten_loop_fails_exactly_its_catchers(monkeypatch, plant, n):
    # an unplanted run passes and fills every cache the level reads, so the
    # plant is seen by the code that runs on every call, whatever ran before
    assert failures(n, "vertex") == {}
    plant(monkeypatch)
    got = failures(n, "vertex")
    expected = LOOP_PLANTS[plant, n]
    assert got.keys() == expected.keys()
    assert all(witness in (None, got[name]) for name, witness in expected.items())


@pytest.mark.parametrize("n, witness", [
    (5, "141 classes against 142, 131 values against 132"),
    (6, "493 classes against 494, 428 values against 429"),
    (7, None),  # the flow oracle is gated to n <= 6
])
def test_a_dropped_class_fails_the_vertex_level(monkeypatch, n, witness):
    # The valuation table, Delta's points and the main theorem read one
    # walk, so a class it drops is missed by the main theorem's count of
    # its records as well as by the flow oracle's count of the table.
    real = partitions.transpose_classes

    def one_class_fewer(n, *args):
        for first, batch in enumerate(real(n, *args)):
            yield batch[1:] if first == 1 else batch

    monkeypatch.setattr(valuation, "transpose_classes", one_class_fewer)
    monkeypatch.setattr(equivalence, "transpose_classes", one_class_fewer)
    got = failures(n, "vertex")
    classes = (math.comb(2 * n, n) + 2 ** n) // 2
    assert got.pop("main-theorem-vertex-level").startswith(f"{classes - 1} classes against {classes}, ")
    assert got == ({"valuation-oracle-equivalence": witness} if witness else {})


# Checks taken out of the registry that a benchmark baseline still lists,
# by workload.  The two additivity checks were implied by the vertex level;
# `vertex-n7` lists them as skip lines, which the gate does not read.
RETIRED = {
    "vertex-n7": {"maxdiag-additivity", "valuation-additivity"},
    "hull-n4": set(),
}


@pytest.mark.parametrize("workload, level", [("vertex-n7", "vertex"), ("hull-n4", "hull")])
def test_benchmark_check_names_are_registered(workload, level):
    # The benchmark gate matches PASS lines by check name in `lgrnok verify`
    # output; a renamed check would drop out of it silently.  Every name the
    # baseline lists is registered at its level, except the retired ones,
    # and each of those is a skip line there.
    text = (BASELINE / f"{workload}.out").read_text()
    statuses = {name: status for status, name in
                re.findall(r"^  \[(PASS|FAIL|skip)\] (\S+)", text, re.MULTILINE)}
    levels = {check.name: check.level for check in verify.CHECKS}
    assert statuses
    registered = [name for name in statuses if name in levels]
    assert {name: levels[name] for name in registered} == {name: level for name in registered}
    assert set(statuses) - set(registered) == RETIRED[workload]
    assert all(statuses[name] == "skip" for name in RETIRED[workload])


def test_flow_oracle_runs_at_n5(capsys):
    assert main(["verify", "--n", "5", "--level", "vertex"]) == 0
    assert "  [PASS] valuation-oracle-equivalence\n" in capsys.readouterr().out


def test_swapped_face_coordinates_fail_the_flow_oracle_at_n6(monkeypatch, capsys):
    # two faces of different orbits trade coordinates; only the flow model
    # reads the face table, and it now runs at n=6
    assert main(["verify", "--n", "6", "--level", "vertex"]) == 0
    assert "  [PASS] valuation-oracle-equivalence\n" in capsys.readouterr().out
    real = valuation.face_coordinates(6)
    a, b = [face for face, i in real.items() if i is not None][:2]
    assert real[a] != real[b]
    planted = MappingProxyType(dict(real) | {a: real[b], b: real[a]})
    monkeypatch.setattr(valuation, "face_coordinates", lambda n: planted)
    clear_tables()
    try:
        assert main(["verify", "--n", "6", "--level", "vertex"]) == 1
    finally:
        clear_tables()
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  [FAIL]")]
    assert len(failed) == 1 and failed[0].startswith(
        "  [FAIL] valuation-oracle-equivalence  (AssertionError: valuation oracle mismatch at ")


@pytest.mark.parametrize("n, level, expected", [
    (3, "all", {
        "valuation-oracle-equivalence": "AssertionError: valuation oracle mismatch at (3, 3): "
                                        "flows (2, 1, 1, 2, 1, 1), maxdiag (1, 1, 1, 2, 1, 1)",
        "flow-polynomial-145": "vectors [(1, 2, 0, 2, 1, 2), (1, 2, 1, 2, 1, 2), (1, 2, 1, 2, 2, 2)]",
    }),
    (6, "vertex", {
        "valuation-oracle-equivalence": "AssertionError: valuation oracle mismatch at (6, 6, 6, 6, 6): ",
    }),
])
def test_a_dart_weight_plus_one_fails_the_flow_checks(plant, n, level, expected):
    # +1 on the weight of the dart f(1,2) -> h(1,2): every path through it
    # sums to a wrong left-face bitmask, read by the flows alone
    G, _ = plabic.corect_network(n)
    real = plabic.dual_cuts
    faces, weight = real(G)
    dart = (("f", 1, 2), ("h", 1, 2))
    planted = faces, MappingProxyType(dict(weight) | {dart: weight[dart] + 1})
    plant(plabic, "dual_cuts", lambda graph: planted if graph is G else real(graph))
    plant(plabic, "_path_table", cache(plabic._path_table.__wrapped__))
    got = failures(n, level)
    assert got.keys() == expected.keys()
    assert all(got[name].startswith(witness) for name, witness in expected.items())


def test_gamma_vertex_enumeration_runs_to_n6(capsys):
    assert main(["verify", "--n", "6", "--level", "hull"]) == 0
    out = capsys.readouterr().out
    assert "  [PASS] gamma-vertex-enumeration\n" in out
    assert "  [PASS] main-theorem-hull-level\n" in out
    assert main(["verify", "--n", "8", "--level", "hull"]) == 0
    out = capsys.readouterr().out
    assert "  [skip] gamma-vertex-enumeration  (vertex enumeration gated to n <= 7)\n" in out
    assert "  [skip] main-theorem-hull-level  (hull level gated to n <= 7)\n" in out


def test_vertex_level_budget_holds_at_n9(capsys):
    # the whole command takes about 0.4 s at n=9, so a 0.1 s budget expires
    start = time.monotonic()
    assert main(["verify", "--n", "9", "--level", "vertex", "--time-budget", "0.1"]) == 3
    assert time.monotonic() - start < 1.5
    assert "exceeded its time budget" in capsys.readouterr().err


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_every_check_stops_at_an_expired_budget_on_cold_tables(check):
    # no check reaches an answer, a table built before the budget or a loop
    # that reads none: every one polls the deadline armed for the run
    clear_tables()
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        check.run(3)


@pytest.mark.parametrize("check, n", [(verify.orientation_unique, 90), (verify.blocks, 40)],
                         ids=["orientation", "blocks"])
def test_a_large_table_stops_at_an_expired_budget_before_it_is_built(check, n):
    # unpolled, the network at n=90 and M_40 take a third of a second and more
    clear_tables()
    start = time.monotonic()
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        check(n)
    assert time.monotonic() - start < 0.2


def test_roundtrip_polls_the_deadline():
    # the whole round trip at n=10 (184,756 index sets) takes far longer
    start = time.monotonic()
    with arm(Deadline(0.05)), pytest.raises(TimeBudgetExceeded):
        verify.roundtrip(10)
    assert time.monotonic() - start < 0.5


def test_vertex_level_loop_polls_the_deadline():
    # The walk over the 184,756 lattice paths at n=10 takes far longer; the
    # valuation matrix and the packed table come before it, unpolled, and
    # are made ready first, so that only the walk is timed.
    equivalence.build_valuation_matrix(10)
    start = time.monotonic()
    with arm(Deadline(0.05)), pytest.raises(TimeBudgetExceeded):
        equivalence.verify_main_theorem(10)
    assert time.monotonic() - start < 0.5


# sha256 of stdout: n=8 and the valuations recorded from the cell-by-cell
# implementation that the lattice-path code replaced, n=9 from the vertex
# level that compared a class table with a dict of antichain images; the
# two verify runs re-pinned when the flow oracle's skip line moved from
# n <= 5 to n <= 6, their only change, and again when the two additivity
# checks left the registry: a diff against the run before showed their two
# skip lines as the only change.
PINNED_STDOUT = {
    "verify --n 9 --level vertex": "17047d8c98b5194dd312964eff7383b9d8074fe77f2d6ea8c756dd8b799304bb",
    "verify --n 8 --level vertex": "901b481f9070d8ad9e5b7b96c76b0567892c356695bf6888580191c222cb2b45",
    "valuations --n 6": "765d9af3cea661711ee719f0a53c6d82fc62074267363b5567e4b3f7948f3ce9",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]
