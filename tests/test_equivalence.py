import pytest

from lgrnok import equivalence, polytope, valuation
from lgrnok.cli import main
from lgrnok.equivalence import (
    antichain_from_partition,
    build_valuation_matrix,
    check_blocks,
    column_pairs,
    column_partition,
    corner_transform,
    gamma_vertices_match_hrep,
    image_of_antichains,
    is_unimodular,
    pulled_back_gamma_rows,
    reduction_matrix,
    singleton_column_pair,
    upper_left_closed_form,
    verify_main_theorem,
    verify_maxdiag_additivity,
    verify_singleton_images,
    verify_valuation_additivity,
)
from lgrnok.linalg import mat_mul
from lgrnok.partitions import (
    catalan,
    class_indexsets,
    diagonal_excess,
    partition_to_indexset,
    transpose,
    transpose_classes,
)
from lgrnok.superpotential import (
    POLL_EVERY,
    antichain_count_formula,
    antichain_indicator,
    gamma_hrep,
)
from lgrnok.valuation import FIELD_BITS, delta_vertices
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
    report = check_blocks(build_valuation_matrix(n))
    assert report.all_ok, report.witness


def test_upper_left_closed_form():
    assert upper_left_closed_form(2) == ((1, 2), (1, 1))
    assert upper_left_closed_form(3) == ((1, 1, 2), (1, 2, 2), (1, 1, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unimodular(n):
    ok, det = is_unimodular(build_valuation_matrix(n))
    assert ok and det in (1, -1)


def test_constructive_reduction_worked_example():
    from lgrnok.equivalence import _block_diag

    assert reduction_matrix(2) == ((-1, 2, 0), (1, -1, 0), (0, 0, 1))
    inter = mat_mul(M3, _block_diag(corner_transform(3), reduction_matrix(2)))
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
    assert corner_transform(3) == ((0, -1, 2), (-1, 1, 0), (1, 0, -1))


def test_antichain_from_partition_examples():
    assert antichain_from_partition(3, (1,)) == frozenset({(1, 3), (2, 3)})
    assert antichain_from_partition(3, (2,)) == frozenset({(1, 3), (2, 2)})
    assert antichain_from_partition(3, (3, 3, 3)) == frozenset()
    # the class that needs a hook transposed to land inside the poset
    assert antichain_from_partition(4, (4, 2, 2)) == frozenset({(1, 3), (3, 3)})
    assert antichain_from_partition(4, (4, 3, 1)) == frozenset({(1, 3), (3, 3)})
    with pytest.raises(ValueError):
        antichain_from_partition(3, (1, 1))  # below-heavy member of the orbit


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_antichain_map_matches_hook_oracle(n):
    # every partition in the box; the oracle reads the hooks cell by cell
    # and checks that they form an antichain of the poset
    for lam in oracles.partitions_in_box(n):
        above, below = oracles.diagonal_balance(lam)
        if above < below:
            with pytest.raises(ValueError):
                antichain_from_partition(n, lam)
        else:
            assert antichain_from_partition(n, lam) == oracles.antichain_from_partition(n, lam)


def test_singleton_column_pair():
    assert singleton_column_pair(1, 1, 3) == (0, 2)
    assert singleton_column_pair(1, 3, 3) == (0, 0)
    assert singleton_column_pair(2, 2, 3) == (1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_singleton_images(n):
    # also pins the order-preserving pair bijection onto the column order
    assert verify_singleton_images(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maxdiag_additivity(n):
    assert verify_maxdiag_additivity(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_valuation_additivity(n):
    assert verify_valuation_additivity(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_main_theorem_vertex_level(n):
    report = verify_main_theorem(n, "vertex")
    assert report.vertex_ok, report.detail


def test_image_count_matches_catalan():
    for n in (1, 2, 3, 4):
        images = image_of_antichains(n)
        assert len(images) == antichain_count_formula(n)
        assert len(set(images.values())) == len(images)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_image_of_antichains_is_matrix_image(n):
    M = build_valuation_matrix(n)
    images = image_of_antichains(n)
    assert images[frozenset()] == (0,) * M.size
    for a, image in images.items():
        assert image == M.apply(antichain_indicator(n, a))


def test_image_of_antichains_polls_the_deadline():
    # P_7 has catalan(8) = 1430 antichains
    deadline = CountingDeadline()
    assert len(image_of_antichains(7, deadline)) == catalan(8) == 1430
    assert deadline.polls == -(-catalan(8) // POLL_EVERY)


def test_main_theorem_hull_n1_and_n2():
    for n in (1, 2):
        report = verify_main_theorem(n, "hull")
        assert report.all_ok, report.detail


def test_main_theorem_hull_n3_matches_printed_rows():
    report = verify_main_theorem(3, "hull")
    assert report.all_ok, report.detail
    V = polytope.VPolytope.from_points(delta_vertices(3))
    assert polytope.facets(V).row_set() == DELTA3_ROWS
    image = polytope.VPolytope.from_points(image_of_antichains(3).values())
    assert polytope.facets(image).row_set() == DELTA3_ROWS


def test_hull_level_runs_one_double_description_per_point_set(monkeypatch):
    # the volume of Delta reuses the facets the hull comparison needs
    runs = []
    real = polytope._facets_full_dim
    monkeypatch.setattr(polytope, "_facets_full_dim",
                        lambda points, deadline: runs.append(points) or real(points, deadline))
    assert verify_main_theorem(3, "hull").all_ok
    assert len(runs) == len(set(runs)) == 2


def test_pulled_back_gamma_rows_are_the_printed_facets():
    assert pulled_back_gamma_rows(3) == DELTA3_ROWS
    assert [len(pulled_back_gamma_rows(n)) for n in (2, 3, 4)] == [5, 10, 18]


@pytest.mark.parametrize("tamper", ["drop-chain-row", "perturb-row"])
def test_hull_check_fails_on_a_wrong_gamma_row_system(monkeypatch, tamper):
    H = gamma_hrep(3)
    rows = list(H.rows)
    if tamper == "drop-chain-row":
        rows.remove(next(row for row in rows if row[1] == 1))
    else:
        coeffs, const = rows[0]
        rows[0] = (coeffs, const + 1)
    wrong = polytope.HPolytope(dim=H.dim, rows=tuple(rows))
    monkeypatch.setattr(equivalence, "gamma_hrep", lambda n: wrong)
    report = verify_main_theorem(3, "hull")
    assert report.vertex_ok and report.volume_ok
    assert report.hull_ok is False and not report.all_ok


def test_gamma_vertex_enumeration():
    for n in (1, 2, 3):
        assert gamma_vertices_match_hrep(n)


def test_hull_round_trip_on_both_polytopes():
    from lgrnok.superpotential import gamma_vertex_set

    for points in (delta_vertices(3), gamma_vertex_set(3)):
        body = polytope.VPolytope.from_points(points)
        assert polytope.vertices(polytope.facets(body)).points == body.points


@pytest.mark.parametrize("n", [1, 2, 3])
def test_facets_of_indicator_hull_close_the_loop(n):
    # hulling the antichain indicators recovers the tropicalization rows
    from lgrnok.superpotential import gamma_hrep, gamma_vertex_set

    body = polytope.VPolytope.from_points(gamma_vertex_set(n))
    assert polytope.facets(body).row_set() == gamma_hrep(n).row_set()


def test_gamma3_facets_irredundant():
    body = polytope.VPolytope.from_points(delta_vertices(3))
    H = polytope.facets(body)
    base = set(polytope.vertices(H).points)
    for skip in range(len(H.rows)):
        rows = tuple(r for i, r in enumerate(H.rows) if i != skip)
        try:
            trimmed = set(polytope.vertices(polytope.HPolytope(dim=H.dim, rows=rows)).points)
        except polytope.UnboundedError:
            continue
        assert trimmed != base


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
    table = list(class_indexsets(5))
    t = next(i for i, lam in enumerate(transpose_classes(5)) if diagonal_excess(lam) > 0)
    table[t] = partition_to_indexset(transpose(transpose_classes(5)[t]), 5)
    monkeypatch.setattr(equivalence, "class_indexsets",
                        lambda n: tuple(table) if n == 5 else class_indexsets(n))
    assert "more boxes below the diagonal" in vertex_level_fails(capsys)


@pytest.fixture
def fresh_matrices():
    """Valuation matrices built inside the test are dropped after it."""
    for cached in (equivalence.build_valuation_matrix, equivalence.reduction_matrix):
        cached.cache_clear()
    yield
    for cached in (equivalence.build_valuation_matrix, equivalence.reduction_matrix):
        cached.cache_clear()


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
    vertex_level_fails(capsys)


@pytest.mark.parametrize("wrong", [frozenset(), frozenset({(1, 1), (1, 2)})],
                         ids=["another-antichain", "a-chain"])
def test_vertex_level_fails_on_a_wrong_hook_map(monkeypatch, capsys, wrong):
    real = equivalence._hook_antichain
    empty = partition_to_indexset((), 5)
    monkeypatch.setattr(equivalence, "_hook_antichain",
                        lambda n, indexset: wrong if indexset == empty else real(n, indexset))
    assert "hook bijection fails at ()" in vertex_level_fails(capsys)
