import os
import subprocess
import sys
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest

from lgrnok import equivalence, polytope, superpotential, valuation
from lgrnok.cli import main
from lgrnok.equivalence import (
    build_valuation_matrix,
    check_blocks,
    column_pairs,
    column_partition,
    gamma_facets_match_hrep,
    image_of_antichains,
    is_unimodular,
    singleton_column_pair,
    upper_left_closed_form,
    verify_hull_level,
    verify_main_theorem,
    verify_singleton_images,
)
from lgrnok.budget import POLL_EVERY, arm
from lgrnok.linalg import bareiss_det
from lgrnok.partitions import (
    catalan,
    complement,
    diagonal_lengths,
    indexset_to_partition,
    partition_to_indexset,
    transpose_indexset,
)
from lgrnok.superpotential import (
    gamma_hrep,
    lex_cells,
)
from lgrnok.valuation import FIELD_BITS, delta_vertices, valuation_maxdiag
from test_superpotential import CountingDeadline
import oracles

M3 = (
    (1, 1, 2, 0, 0, 0),
    (1, 2, 2, 1, 2, 0),
    (1, 1, 1, 0, 0, 0),
    (2, 2, 2, 1, 2, 0),
    (1, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1, 1),
)
M2 = ((1, 2, 0), (1, 1, 0), (1, 1, 1))

DELTA3_ROWS = frozenset({
    ((0, -1, 0, 1, 0, 0), 0), ((-1, 1, 2, -1, 0, 0), 0), ((1, 0, -1, 0, 0, 0), 0),
    ((0, 0, 0, -1, 2, 0), 0), ((0, 0, -1, 1, -1, 0), 0), ((0, 0, 0, 0, -1, 1), 0),
    ((0, 0, -1, 0, 0, 0), 1), ((1, 0, -1, -1, 1, 0), 1), ((0, 1, 1, -1, -1, 0), 1),
    ((0, 1, 0, 0, -1, -1), 1),
})


def test_column_orders():
    assert column_pairs(3) == ((0, 2), (0, 1), (0, 0), (1, 2), (1, 1), (2, 2))
    assert column_partition(3, 0, 2) == (3, 3)
    assert column_partition(3, 1, 1) == (3, 2, 1)
    assert column_partition(3, 2, 2) == (3, 3, 2)
    assert column_partition(1, 0, 0) == ()
    with pytest.raises(ValueError):
        column_partition(3, 2, 1)


def test_matrices_match_reference():
    assert build_valuation_matrix(3).entries == M3
    assert build_valuation_matrix(2).entries == M2
    assert build_valuation_matrix(1).entries == ((1,),)
    M = build_valuation_matrix(3)
    assert M.row_labels == ((3,), (3, 3), (3, 1, 1), (3, 3, 1), (3, 3, 2), (3, 3, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_structure(n):
    ok, witness = check_blocks(build_valuation_matrix(n))
    assert ok, witness


def test_upper_left_closed_form():
    assert upper_left_closed_form(2) == ((1, 2), (1, 1))
    assert upper_left_closed_form(3) == ((1, 1, 2), (1, 2, 2), (1, 1, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unimodular(n):
    ok, witness = is_unimodular(build_valuation_matrix(n))
    assert ok, witness


def test_constructive_reduction_worked_example():
    assert oracles.reduction_matrix(2) == ((-1, 2, 0), (1, -1, 0), (0, 0, 1))
    inter = oracles.mat_mul(
        M3, oracles.block_diag(oracles.corner_transform(3), oracles.reduction_matrix(2)))
    assert inter == (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 2, 1, 0, 0),
        (0, 0, 1, 0, 1, 0),
        (0, 0, 1, 0, 1, 1),
    )


def test_corner_transform_n3():
    # the three elementary factors compose to the worked 3x3 product
    assert oracles.corner_transform(3) == ((0, -1, 2), (-1, 1, 0), (1, 0, -1))


@pytest.mark.parametrize("n", range(1, 9))
def test_column_operations_reduce_m_to_unit_lower_triangular(n):
    # The paper's proof of unimodularity: M_n R is unit lower triangular,
    # and R is a product of unimodular column operations.
    R = oracles.reduction_matrix(n)
    reduced = oracles.mat_mul(build_valuation_matrix(n).entries, R)
    assert all(reduced[i][j] == (i == j) for i in range(len(R)) for j in range(i, len(R)))
    assert abs(bareiss_det(R)) == 1


def hook_elements(n, lam):
    """The poset elements of the complement's hooks, read cell by cell."""
    return frozenset(equivalence._hook_element(n, a, b)
                     for a, b in oracles.hook_decomposition(complement(lam, n)))


def test_antichain_from_partition_examples():
    assert hook_elements(3, (1,)) == frozenset({(1, 3), (2, 3)})
    assert hook_elements(3, (2,)) == frozenset({(1, 3), (2, 2)})
    assert hook_elements(3, (3, 3, 3)) == frozenset()
    # the class that needs a hook transposed to land inside the poset
    assert hook_elements(4, (4, 2, 2)) == frozenset({(1, 3), (3, 3)})
    assert hook_elements(4, (4, 3, 1)) == frozenset({(1, 3), (3, 3)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_antichain_map_matches_hook_oracle(n):
    # every partition in the box with no more boxes below the diagonal than
    # right of it; the oracle reads the hooks cell by cell and checks that
    # they form an antichain of the poset
    for lam in oracles.partitions_in_box(n):
        above, below = oracles.diagonal_balance(lam)
        if above >= below:
            assert hook_elements(n, lam) == oracles.antichain_from_partition(n, lam), lam


def test_singleton_column_pair():
    assert singleton_column_pair(1, 1, 3) == (0, 2)
    assert singleton_column_pair(1, 3, 3) == (0, 0)
    assert singleton_column_pair(2, 2, 3) == (1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_singleton_images(n):
    # also pins the order-preserving pair bijection onto the column order
    ok, witness = verify_singleton_images(n)
    assert ok, witness


# The two additivity lemmas over the complement's hooks.  The vertex level
# checks the valuation's additivity through the walk's hook map; these read
# the hooks cell by cell.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_maxdiag_additivity(n):
    ok, witness = oracles.maxdiag_additivity(n)
    assert ok, witness


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_valuation_additivity(n):
    ok, witness = oracles.valuation_additivity(n)
    assert ok, witness


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_main_theorem_vertex_level(n):
    ok, witness = verify_main_theorem(n)
    assert ok, witness


def test_image_count_matches_catalan():
    for n in (1, 2, 3, 4):
        images = image_of_antichains(n)
        assert len(images) == catalan(n + 1)
        assert len(set(images.values())) == len(images)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_image_of_antichains_is_matrix_image(n):
    M = build_valuation_matrix(n)
    images = image_of_antichains(n)
    assert images[frozenset()] == (0,) * M.size
    for a, image in images.items():
        assert image == oracles.apply(M, oracles.antichain_indicator(n, a))


def test_image_of_antichains_polls_the_deadline():
    # P_7 has catalan(8) = 1430 antichains; M_7 is built before the count
    build_valuation_matrix(7)
    with arm(CountingDeadline()) as deadline:
        assert len(image_of_antichains(7)) == catalan(8) == 1430
    assert deadline.polls == -(-catalan(8) // POLL_EVERY)


def test_main_theorem_hull_n1_and_n2():
    for n in (1, 2):
        ok, witness = verify_hull_level(n)
        assert ok, witness


def test_main_theorem_hull_n3_matches_printed_rows():
    ok, witness = verify_hull_level(3)
    assert ok, witness
    V = polytope.VPolytope.from_points(delta_vertices(3))
    assert polytope.facets(V).row_set() == DELTA3_ROWS
    image = polytope.VPolytope.from_points(image_of_antichains(3).values())
    assert polytope.facets(image).row_set() == DELTA3_ROWS


def test_hull_level_runs_no_double_description(monkeypatch):
    # Gamma's volume and the facet certificate read one pass of row masks
    # on the antichain indicators; Delta's facets and volume are not
    # computed, and the row system is the one of gamma_hrep
    monkeypatch.setattr(polytope, "_facets_full_dim", lambda *args: pytest.fail("a double description ran"))
    passes = []
    real = polytope._facet_masks
    monkeypatch.setattr(polytope, "_facet_masks",
                        lambda points, rows: passes.append((points, rows)) or real(points, rows))
    assert verify_hull_level(3) == (True, "")
    assert passes == [(superpotential.gamma_vertex_set(3), gamma_hrep(3).rows)]


def test_pulled_back_gamma_rows_are_the_printed_facets():
    assert oracles.pulled_back_gamma_rows(3) == DELTA3_ROWS
    assert [len(oracles.pulled_back_gamma_rows(n)) for n in (2, 3, 4)] == [5, 10, 18]


def test_hull_level_reports_a_walk_fault_and_stops(monkeypatch):
    # The _hook_element plant of the vertex level at n=3: the innermost
    # hook (1, 0) sent to (2, 2) instead of (3, 3), column and all.  The
    # hull level returns the walk's witness and reads no row of Gamma.
    real = equivalence._hook_element
    monkeypatch.setattr(equivalence, "_hook_element",
                        lambda n, arm, leg: (2, 2) if (arm, leg) == (1, 0) else real(n, arm, leg))
    monkeypatch.setattr(polytope, "_facet_masks", lambda *args: pytest.fail("the hull ran"))
    ok, witness = verify_hull_level(3)
    assert not ok and witness.startswith("hook bijection fails at"), witness


def test_gamma_vertex_enumeration(monkeypatch):
    # the check keeps its registry name: the facets of the indicators' hull
    # are the rows of gamma_hrep, none missing and none extra
    for n in (1, 2, 3, 4):
        assert gamma_facets_match_hrep(n) == (True, "missing None, extra None")
    real = gamma_hrep(3)
    for rows, witness in ((real.rows[1:], f"missing {real.rows[0]}, extra None"),
                          (real.rows + (((1,) * 6, 0),), "missing None, extra ((1, 1, 1, 1, 1, 1), 0)")):
        monkeypatch.setattr(equivalence, "gamma_hrep", lambda n, rows=rows: real._replace(rows=rows))
        assert gamma_facets_match_hrep(3) == (False, witness)


def test_hull_round_trip_on_both_polytopes():
    # the facet run's rows, read back by the volume pass on the same
    # points: one maximal cut per row and the known volume
    from lgrnok.superpotential import gamma_vertex_set

    for points in (delta_vertices(3), gamma_vertex_set(3)):
        body = polytope.VPolytope.from_points(points)
        assert polytope.volume_and_cuts(body, polytope.facets(body)) == (16, 10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_facets_of_indicator_hull_close_the_loop(n):
    # hulling the antichain indicators recovers the tropicalization rows
    from lgrnok.superpotential import gamma_hrep, gamma_vertex_set

    body = polytope.VPolytope.from_points(gamma_vertex_set(n))
    assert polytope.facets(body).row_set() == gamma_hrep(n).row_set()


def test_gamma3_facets_irredundant():
    # Removing any facet row of Delta_3 lowers the volume that the pass
    # takes from Delta_3's least point or from that of its reflection -Delta_3:
    # a missing facet shows from an apex off it
    body = polytope.VPolytope.from_points(delta_vertices(3))
    reflected = polytope.VPolytope.from_points(tuple(-x for x in p) for p in body.points)
    H = polytope.facets(body)
    for skip in range(len(H.rows)):
        rows = H.rows[:skip] + H.rows[skip + 1:]
        volumes = (polytope.volume_and_cuts(body, H._replace(rows=rows))[0],
                   polytope.volume_and_cuts(reflected, H._replace(
                       rows=tuple((tuple(-x for x in c), d) for c, d in rows)))[0])
        assert min(volumes) < 16, (H.rows[skip], volumes)


# -- the vertex level can fail ------------------------------------------------


def vertex_level_fails(capsys) -> str:
    """Runs `lgrnok verify --n 5 --level vertex`, which must fail the
    main theorem's vertex level; returns that check's line."""
    assert main(["verify", "--n", "5", "--level", "vertex"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("  [FAIL] main-theorem-vertex-level")]
    assert failed, lines
    return failed[0]


def test_vertex_level_fails_on_a_transposed_representative(monkeypatch, capsys):
    # Every class named by its other member: the member with more boxes
    # below the diagonal.  Its hook antichain and its valuation are its
    # transpose's, so only the section count can see it: such a member
    # never decodes back to itself.
    real = equivalence.transpose_classes

    def transposed(n, *args):
        for batch in real(n, *args):
            yield [(other(rep, n), *rest) for rep, *rest in batch]

    def other(rep, n):
        T = transpose_indexset([k for k in range(1, 2 * n + 1) if rep >> k & 1], n)
        return sum(1 << k for k in T)

    monkeypatch.setattr(equivalence, "transpose_classes", transposed)
    assert "section classes against 132 antichains" in vertex_level_fails(capsys)


@pytest.fixture
def fresh_matrices():
    """Valuation matrices built inside the test are dropped after it."""
    equivalence.build_valuation_matrix.cache_clear()
    yield
    equivalence.build_valuation_matrix.cache_clear()


@pytest.mark.parametrize("orbit", [0, 7, 14])
def test_vertex_level_fails_on_an_off_by_one_orbit(monkeypatch, capsys, fresh_matrices, orbit):
    # M_5 is rebuilt from the same wrong table, so its columns carry the
    # error too; the hook bijection still breaks.  +1 in the orbit's mu and
    # mu^T fields of every slot: each live field reads l + 1 at its corner,
    # a dead one (0) stays below the bias.
    real = valuation._packed_table

    def off_by_one(n):
        base, masks, shifts, *rest, N = real(n)
        if n == 5:
            base += sum(1 << shift + FIELD_BITS * f for shift in shifts for f in (orbit, N + orbit))
        return (base, masks, shifts, *rest, N)

    monkeypatch.setattr(valuation, "_packed_table", off_by_one)
    assert "hook bijection fails at" in vertex_level_fails(capsys)


def plant_elements(monkeypatch, wrong, right):
    """Runs the walk with every hook of poset element `wrong` carrying
    element `right` instead (its bit, clash mask and decoded steps), each
    hook's own column kept, so that every image still equals its value."""
    real = equivalence._walk_table

    def planted(n):
        cells = lex_cells(n)
        bit, clash, _, decode = next(entry for row in real(n) for entry in row
                                     if entry[0] == 1 << cells.index(right))
        return [[(bit, clash, entry[2], decode) if entry[0] == 1 << cells.index(wrong)
                 else entry for entry in row] for row in real(n)]

    monkeypatch.setattr(equivalence, "_walk_table", planted)


@pytest.mark.parametrize("wrong", ["another-antichain", "a-chain"])
def test_vertex_level_fails_on_a_wrong_hook_map(monkeypatch, capsys, wrong):
    if wrong == "another-antichain":
        # The innermost hook (1, 0), one cell, sent to (4, 4) instead of
        # (5, 5), column and all: first met alone, in the complement of
        # (5, 5, 5, 5, 4).
        real = equivalence._hook_element
        monkeypatch.setattr(equivalence, "_hook_element",
                            lambda n, arm, leg: (4, 4) if (arm, leg) == (1, 0) else real(n, arm, leg))
        assert "hook bijection fails at (5, 5, 5, 5, 4)" in vertex_level_fails(capsys)
    else:
        # The hook (1, 0) made (4, 4), which lies above (4, 5), the element
        # of the hook (2, 1) around it.
        plant_elements(monkeypatch, (5, 5), (4, 4))
        assert "do not form an antichain" in vertex_level_fails(capsys)


def test_vertex_level_fails_when_two_sections_share_an_antichain(monkeypatch, capsys):
    # The hook (5, 0), a full row, made the element (1, 2) of the hook
    # (5, 1): both section classes now land on {(1, 2)}.  Only the section
    # count can see it: (1, 1) is the top, alone in every antichain it is
    # in, so every hook set stays an antichain.
    plant_elements(monkeypatch, (1, 1), (1, 2))
    assert "131 section classes against 132 antichains" in vertex_level_fails(capsys)


def test_vertex_level_fails_on_a_wrong_clash_table(monkeypatch, capsys):
    # (1, 5) and (2, 5) marked comparable: both are in the antichain of the
    # empty partition, the hooks of the whole square.
    real = superpotential._clash_masks

    def planted(P):
        clash = real(P)
        if P.n == 5:
            a, b = lex_cells(5).index((1, 5)), lex_cells(5).index((2, 5))
            clash[a] |= 1 << b
            clash[b] |= 1 << a
        return clash

    monkeypatch.setattr(superpotential, "_clash_masks", planted)
    assert "do not form an antichain" in vertex_level_fails(capsys)


@pytest.mark.parametrize("n", [4, 5])
def test_a_wrong_column_names_the_first_class_in_lexicographic_order(monkeypatch, n):
    # One hook's column off by one fails every class whose complement has
    # that hook, several of them in one batch of the walk, which comes in
    # no fixed order within a batch.  The witness is the first of them in
    # the order of the lex-first index sets, read cell by cell.
    real = equivalence._walk_table
    first_with = {}
    for lam in oracles.transpose_classes(n):
        I = partition_to_indexset(lam, n)
        I = min(I, transpose_indexset(I, n))
        for arm, leg in oracles.hook_decomposition(complement(indexset_to_partition(I, n), n)):
            first_with.setdefault((n + arm, n - leg), lam)
    for (j, h), lam in first_with.items():
        def planted(n):
            hooks = real(n)
            bit, mask, column, decode = hooks[j][h]
            hooks[j][h] = (bit, mask, column + 1, decode)
            return hooks

        monkeypatch.setattr(equivalence, "_walk_table", planted)
        assert verify_main_theorem(n) == (False, f"hook bijection fails at {lam}"), (j, h)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_vertex_walk_keeps_one_representative_per_class(monkeypatch, n):
    # The walk evaluates exactly the reference classes, each once, at its
    # lex-first member: the same packed operands, base - sum l(d) masks[d],
    # each batch those of its run of the reference classes.
    base, masks, *_ = valuation._packed_table(n)
    build_valuation_matrix(n)  # evaluated before the count starts
    operands, batches = [], []
    real, walk = valuation._packed_maxplus, equivalence.transpose_classes
    monkeypatch.setattr(valuation, "_packed_maxplus",
                        lambda table, x: operands.append(x) or real(table, x))
    monkeypatch.setattr(equivalence, "transpose_classes",
                        lambda *args: (batches.append(batch) or batch for batch in walk(*args)))
    assert verify_main_theorem(n)[0]
    members = [partition_to_indexset(lam, n) for lam in oracles.transpose_classes(n)]
    members = [min(I, transpose_indexset(I, n)) for I in members]
    expected = [base - sum(map(mul, diagonal_lengths(I, n), masks)) for I in members]
    assert operands == [x for batch in batches for _, x, *_ in batch]
    got, expected = oracles.as_runs([[x for _, x, *_ in batch] for batch in batches], expected)
    assert got == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_both_members_of_a_class_agree(n):
    # The main theorem checks each class at its lex-first member: the
    # valuation and the poset elements of the complement's hooks are the
    # same at the other member, on every path.
    for I in combinations(range(1, 2 * n + 1), n):
        lam, lam_t = indexset_to_partition(I, n), indexset_to_partition(transpose_indexset(I, n), n)
        assert valuation_maxdiag(n, lam) == valuation_maxdiag(n, lam_t), I
        assert hook_elements(n, lam) == hook_elements(n, lam_t), I


@pytest.mark.parametrize("entry, guarded", [(51, False), (52, True), (-1, True)])
def test_walk_refuses_columns_too_wide_to_pack(monkeypatch, entry, guarded):
    # Five columns of entries up to 51 sum to at most 255, one byte; past
    # that, or below 0, a carry could alias a wrong image onto the value.
    M = build_valuation_matrix(5)
    wide = M._replace(entries=((entry, *M.entries[0][1:]), *M.entries[1:]))
    monkeypatch.setattr(equivalence, "build_valuation_matrix", lambda n: wide)
    if guarded:
        with pytest.raises(ValueError, match="too wide"):
            verify_main_theorem(5)
    else:
        ok, witness = verify_main_theorem(5)
        assert not ok and "hook bijection fails" in witness


def test_vertex_level_polls_once_per_first_half():
    build_valuation_matrix(7)  # built before the count
    with arm(CountingDeadline()) as deadline:
        assert verify_main_theorem(7)[0]
    assert deadline.polls == 2 ** 7


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the child's own peak resident size from /proc")
def test_vertex_level_n10_peaks_small():
    # No table of classes or antichains: the n=10 vertex level peaks under
    # 40 MB resident (the two tables took 127 MB).  VmHWM, not ru_maxrss,
    # which a child inherits from the process that started it.
    code = ("from lgrnok.equivalence import verify_main_theorem\n"
            "assert verify_main_theorem(10)[0]\n"
            "print(*[line.split()[1] for line in open('/proc/self/status')\n"
            "        if line.startswith('VmHWM:')])\n")
    src = str(Path(equivalence.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024  # kB
