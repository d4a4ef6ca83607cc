import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from lgrnok import polytope, superpotential, valuation
from lgrnok.budget import Deadline, TimeBudgetExceeded, arm, armed
from lgrnok.linalg import affine_pivot_columns, bareiss_det, dot
from lgrnok.partitions import staircase_syt_count
from lgrnok.polytope import (
    HPolytope,
    UnboundedError,
    VPolytope,
    f_vector,
    facets,
    normalized_volume,
    vertices,
    volume_and_cuts,
)


def cube(d):
    return VPolytope.from_points(list(product((0, 1), repeat=d)))


def simplex(d):
    pts = [(0,) * d] + [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    return VPolytope.from_points(pts)


def test_cube_3d():
    c = cube(3)
    H = facets(c)
    assert len(H.rows) == 6
    assert vertices(H).points == c.points
    assert f_vector(c) == (8, 12, 6)
    assert normalized_volume(c) == 6


def test_simplex():
    s = simplex(3)
    assert len(facets(s).rows) == 4
    assert normalized_volume(s) == 1
    assert f_vector(s) == (4, 6, 4)
    assert normalized_volume(simplex(5)) == 1


def test_vertices_drops_non_extreme_points():
    sq = VPolytope.from_points(
        [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)]
    )
    H = facets(sq)
    assert len(H.rows) == 4
    assert set(vertices(H).points) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    # the edge point (1, 0) and the centre are not vertices
    assert f_vector(sq) == oracles.f_vector_by_face_ranks(sq) == (4, 4)


def test_rational_coordinates():
    # the triangle on (1/2, 0), (0, 1/3) and (-1/5, -1/7), scaled by 210 to
    # the lattice
    tri = VPolytope.from_points([(105, 0), (0, 70), (-42, -30)])
    H = facets(tri)
    assert len(H.rows) == 3
    assert vertices(H).points == tri.points
    # the lines 2x + 3y = 210, 50x - 21y + 1470 = 0 and 10x - 49y = 1050
    # through pairs of the corners
    assert H.row_set() == {((-2, -3), 210), ((50, -21), 1470), ((-10, 49), 1050)}
    # the least corner is 384 above the first line, so the volume pass,
    # which takes unit-height pyramids only, refuses the triangle
    with pytest.raises(ValueError, match=r"the row \(\(-2, -3\), 210\) is 384 at the apex \(-42, -30\)"):
        normalized_volume(tri)


def test_scaled_simplex_is_exact():
    double = VPolytope.from_points([tuple(2 * x for x in p) for p in simplex(3).points])
    assert facets(double).row_set() == {
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 2)
    }
    # its volume 8 is one pyramid of height 2, which the pass refuses
    with pytest.raises(ValueError, match=r"the row \(\(-1, -1, -1\), 2\) is 2 at the apex \(0, 0, 0\)"):
        normalized_volume(double)
    flat = VPolytope.from_points([(2, 0), (0, 2)])
    with pytest.raises(ValueError, match="full-dimensional"):
        facets(flat)


@pytest.mark.parametrize("coordinate", [Fraction(1, 2), Fraction(2, 1), 0.5, 1.0])
def test_non_integer_coordinates_are_refused(coordinate):
    # a coordinate must be an int; nothing is truncated or rounded
    with pytest.raises(TypeError):
        VPolytope.from_points([(0, 0), (coordinate, 0), (0, 1)])


def test_vertex_off_the_lattice_is_refused():
    # x, y >= 0 and 2x + 2y <= 1: the corners (1/2, 0) and (0, 1/2)
    H = HPolytope(dim=2, rows=(((1, 0), 0), ((0, 1), 0), ((-2, -2), 1)))
    with pytest.raises(ValueError, match="not a lattice point"):
        vertices(H)
    # twice as large, every corner is a lattice point
    doubled = HPolytope(dim=2, rows=(((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)))
    assert vertices(doubled).points == ((0, 0), (0, 1), (1, 0))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=4))
def test_facet_rows_are_certified(data, dim):
    """Every row is valid on all points and tight on an affinely spanning
    subset of a facet; points that do not span their space are refused."""
    coords = st.integers(min_value=-3, max_value=3)
    pts = data.draw(
        st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=dim + 5)
    )
    body = VPolytope.from_points(pts)
    if len(affine_pivot_columns(pts)) < dim:
        with pytest.raises(ValueError, match="full-dimensional"):
            facets(body)
        return
    H = facets(body)
    assert len(set(H.rows)) == len(H.rows)
    for c, d in H.rows:
        assert all(dot(c, p) + d >= 0 for p in pts)
        tight = [p for p in pts if dot(c, p) + d == 0]
        assert len(affine_pivot_columns(tight)) == dim - 1


def test_f_vector_bounds_the_facet_run(monkeypatch):
    bounded = []
    real = polytope._extreme_rays

    def recording(rows):
        bounded.append(armed().expires is not None)
        return real(rows)

    monkeypatch.setattr(polytope, "_extreme_rays", recording)
    with arm(Deadline(5.0)):
        assert f_vector(cube(4)) == (16, 32, 24, 8)
    assert bounded and all(bounded)


class CountingDeadline(Deadline):
    def __init__(self):
        super().__init__()
        self.polls = 0

    def check(self):
        self.polls += 1
        super().check()


def test_facet_run_polls_inside_an_insertion():
    # the polar cone of the 4-cube has 5 basis rows and 12 inserted ones
    with arm(CountingDeadline()) as deadline:
        assert len(facets(cube(4)).rows) == 8
    inserted = len(cube(4).points) + 1 - 5
    assert deadline.polls > inserted


def face_hull_volume(body):
    """The normalized volume of the reference triangulation that hulls
    every face again."""
    simplices = oracles.triangulate_by_face_hulls(body.points, {})
    return sum(abs(bareiss_det([[x - b for x, b in zip(p, s[0])] for p in s[1:]]))
               for s in simplices)


def is_compressed(body):
    """Every facet row is 0 or 1 at every point."""
    return all(dot(c, p) + d <= 1 for c, d in facets(body).rows for p in body.points)


@pytest.mark.parametrize("points, refusal", [
    (list(product(range(3), repeat=3)), r"the row \(\(-1, 0, 0\), 2\) is 2 at the apex \(0, 0, 0\)"),
    ([p for p in product(range(4), repeat=3) if sum(p) <= 3],
     r"the row \(\(-1, -1, -1\), 3\) is 3 at the apex \(0, 0, 0\)"),
    # a 3-face and a facet that meet in an edge, not a ridge
    ([(0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1),
      (1, 1, 1, 1)], None),
], ids=["cube-grid", "simplex-grid", "0/1-polytope"])
def test_triangulation_with_boundary_points_matches_oracle(points, refusal):
    # the grids have a facet at height 2 or 3 above their least point, and
    # the pass refuses them; the 0/1-polytope is compressed
    body = VPolytope.from_points(points)
    if refusal:
        with pytest.raises(ValueError, match=refusal):
            normalized_volume(body)
    else:
        assert normalized_volume(body) == face_hull_volume(body)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=5))
def test_triangulation_matches_oracle(data, dim):
    """Wherever the volume pass does not refuse a body, it is the oracle's
    volume, and it refuses none whose facet rows are all 0/1 at its points."""
    # few distinct coordinates, so faces are often not simplices: 0/1
    # points, or the shapes of [-1, -1/2, 0, 1/3, 1] scaled by 6 to the
    # lattice
    coords = st.sampled_from(data.draw(st.sampled_from([(0, 1), (-6, -3, 0, 2, 6)])))
    points = data.draw(
        st.lists(st.tuples(*[coords] * dim), min_size=dim + 2, max_size=dim + 8)
    )
    body = VPolytope.from_points(points)
    assume(len(affine_pivot_columns(body.points)) == dim)
    try:
        volume = normalized_volume(body)
    except ValueError as refused:
        assert "not a unit-height pyramid" in str(refused)
        assert not is_compressed(body)
    else:
        assert volume == face_hull_volume(body)


def test_unbounded_detection():
    with pytest.raises(UnboundedError):
        vertices(HPolytope(dim=2, rows=(((1, 0), 0), ((0, 1), 0))))
    with pytest.raises(UnboundedError):
        vertices(HPolytope(dim=1, rows=(((1,), 0),)))


def test_empty_polytope_reported():
    with pytest.raises(ValueError):
        vertices(HPolytope(dim=1, rows=(((1,), -1), ((-1,), 0))))


def test_degenerate_input_is_refused():
    flat = VPolytope.from_points([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    for engine in (facets, f_vector, normalized_volume):
        with pytest.raises(ValueError, match="full-dimensional"):
            engine(flat)
    # the square's rows, with z = 1 as two opposite rows, still give its corners
    H = HPolytope(dim=3, rows=(((1, 0, 0), 0), ((-1, 0, 0), 1), ((0, 1, 0), 0),
                               ((0, -1, 0), 1), ((0, 0, 1), -1), ((0, 0, -1), 1)))
    assert set(vertices(H).points) == set(flat.points)


def test_single_point():
    pt = VPolytope.from_points([(3, 4)])
    with pytest.raises(ValueError, match="full-dimensional"):
        facets(pt)
    H = HPolytope(dim=2, rows=(((1, 0), -3), ((-1, 0), 3), ((0, 1), -4), ((0, -1), 4)))
    assert vertices(H).points == pt.points


def test_facets_irredundant():
    # removing any facet row changes the vertex set
    for body in (cube(3), simplex(3)):
        H = facets(body)
        base = set(vertices(H).points)
        for skip in range(len(H.rows)):
            rows = tuple(r for i, r in enumerate(H.rows) if i != skip)
            try:
                got = set(vertices(HPolytope(dim=H.dim, rows=rows)).points)
            except UnboundedError:
                continue
            assert got != base


def test_euler_relation():
    for body in (cube(3), cube(4), simplex(4)):
        assert oracles.euler_characteristic_ok(f_vector(body))


def test_round_trip_on_cross_polytope():
    pts = [tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (1, -1)]
    body = VPolytope.from_points(pts)
    H = facets(body)
    assert len(H.rows) == 8
    assert vertices(H).points == body.points
    assert f_vector(body) == (6, 12, 8)
    # its volume 8 = 2^d has pyramids of height 2 from every vertex
    with pytest.raises(ValueError, match=r"the row \(\(-1, -1, -1\), 1\) is 2 at the apex \(-1, 0, 0\)"):
        normalized_volume(body)


def mapped(body, matrix, translation=None):
    """The image of a V-polytope under x -> matrix.x + translation."""
    translation = translation or (0,) * body.dim
    return VPolytope.from_points(
        tuple(dot(row, p) + t for row, t in zip(matrix, translation)) for p in body.points
    )


@st.composite
def unimodular_matrix(draw, dim):
    rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["add", "swap", "neg"]))
        i = draw(st.integers(min_value=0, max_value=dim - 1))
        j = draw(st.integers(min_value=0, max_value=dim - 1))
        if kind == "add" and i != j:
            c = draw(st.integers(min_value=-3, max_value=3))
            for r in rows:
                r[j] += c * r[i]
        elif kind == "swap":
            for r in rows:
                r[i], r[j] = r[j], r[i]
        elif kind == "neg":
            for r in rows:
                r[i] = -r[i]
    return tuple(tuple(r) for r in rows)


COMPRESSED = [
    (cube(3), 6),
    (VPolytope.from_points(superpotential.gamma_vertex_set(3)), 16),
    (VPolytope.from_points(valuation.delta_vertices(3)), 16),
]


@settings(max_examples=25, deadline=None)
@given(st.data(), st.sampled_from(COMPRESSED))
def test_volume_invariant_under_unimodular_maps(data, known):
    # a unimodular map and a translation keep a body compressed, but move
    # its least points, and with them the pyramids the pass takes
    body, volume = known
    matrix = data.draw(unimodular_matrix(body.dim))
    trans = tuple(data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(body.dim))
    image = mapped(body, matrix, trans)
    assert normalized_volume(image) == face_hull_volume(image) == volume


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_cube_volume_invariant(data):
    matrix = data.draw(unimodular_matrix(3))
    trans = tuple(data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(3))
    image = mapped(cube(3), matrix, trans)
    assert normalized_volume(image) == 6


@pytest.mark.parametrize("body, volume", [
    (cube(3), 6),
    (VPolytope.from_points(superpotential.gamma_vertex_set(3)), 16),
])
def test_volume_reads_any_valid_rows_that_include_the_facets(body, volume):
    # Every facet row doubled, a redundant row tight on a smaller face, and
    # rows tight at no point change nothing, placed before the facets or
    # after them: a doubled row is 2 at an apex off its facet, and counts
    # as its primitive row, which is 1 there.
    d = body.dim
    rows = facets(body).rows
    extra = tuple((tuple(2 * x for x in c), 2 * e) for c, e in rows) + (
        ((1, 1) + (0,) * (d - 2), 0),
        ((-1,) * d, d),
        ((1,) + (0,) * (d - 1), 1),
        ((0,) * d, 1),
    )
    for H in (HPolytope(d, extra + rows), HPolytope(d, rows + extra)):
        assert volume_and_cuts(body, H)[0] == volume


@pytest.mark.parametrize("body, volume", [
    (cube(3), 6),
    (VPolytope.from_points(superpotential.gamma_vertex_set(3)), 16),
])
def test_the_cuts_of_the_volume_pass_count_the_facets(body, volume):
    # one maximal cut per facet, whatever else the rows hold: a doubled
    # facet row, a row tight on a smaller face or at no point adds none
    d, rows = body.dim, facets(body).rows
    extra = (((2,) + (0,) * (d - 1), 0), ((1, 1) + (0,) * (d - 2), 0), ((1,) + (0,) * (d - 1), 1))
    assert volume_and_cuts(body, HPolytope(d, rows)) == (volume, len(rows))
    assert volume_and_cuts(body, HPolytope(d, extra + rows)) == (volume, len(rows))


def test_a_row_negative_at_a_point_fails_the_volume_pass():
    body = cube(3)
    rows = facets(body).rows + (((-1, 0, 0), 0),)
    with pytest.raises(ValueError, match=r"the row \(\(-1, 0, 0\), 0\) is -1 at \(1, 0, 0\)"):
        volume_and_cuts(body, HPolytope(3, rows))[0]


def test_an_invalid_cut_is_refused():
    # x >= 0, y >= 0 and 5 - 2x - 3y >= 0 are valid on the unit square and
    # cut it in as many maximal cuts as rows, but miss two facets; the
    # third row is 5 at the apex, and taken as a height it gives a volume
    # of 5 against the square's 2
    H = HPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-2, -3), 5)))
    with pytest.raises(ValueError, match=r"the row \(\(-2, -3\), 5\) is 5 at the apex \(0, 0\)"):
        volume_and_cuts(cube(2), H)


@pytest.mark.parametrize("body, n", [("gamma", n) for n in range(3, 7)]
                         + [("delta", n) for n in range(3, 6)])
def test_gamma_and_delta_volumes_take_unit_height_pyramids(body, n):
    # Gamma is compressed, its rows 0/1 at its points, and so is Delta =
    # M_n(Gamma): the pass refuses neither, on the rows the hull level and
    # `lgrnok volume` give it
    if body == "gamma":
        V, H = VPolytope.from_points(superpotential.gamma_vertex_set(n)), superpotential.gamma_hrep(n)
    else:
        V = VPolytope.from_points(valuation.delta_vertices(n))
        H = facets(V)
    assert volume_and_cuts(V, H)[0] == staircase_syt_count(n)


def test_volume_polls_the_budget_per_face():
    """The deadline is the only bound, so the face recursion polls it, once
    per face: a budget that runs out at the hundredth face stops the volume
    there, inside the recursion."""
    delta4 = VPolytope.from_points(valuation.delta_vertices(4))
    H = facets(delta4)
    with arm(CountingDeadline()) as counted:
        assert volume_and_cuts(delta4, H)[0] == 768
    assert 100 < counted.polls <= sum(F_VECTOR_4)

    class ExpiresAtPoll100(CountingDeadline):
        def check(self):
            if self.polls == 99:
                self.expires = time.monotonic() - 1.0
            super().check()

    with arm(ExpiresAtPoll100()) as expiring, pytest.raises(TimeBudgetExceeded) as raised:
        volume_and_cuts(delta4, H)[0]
    assert expiring.polls == 100
    names = [entry.name for entry in raised.traceback]
    assert "volume_and_cuts" in names and names[names.index("check") - 1] == "volume"


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=5))
def test_f_vector_matches_face_rank_oracle(data, dim):
    # few distinct coordinates, so many points lie inside faces
    # the shapes of [-1, -1/2, 0, 1/3, 1], scaled by 6 to the lattice
    coords = st.sampled_from([-6, -3, 0, 2, 6])
    points = data.draw(
        st.lists(st.tuples(*[coords] * dim), min_size=dim + 1, max_size=dim + 8)
    )
    body = VPolytope.from_points(points)
    assume(len(affine_pivot_columns(body.points)) == dim)
    assert f_vector(body) == oracles.f_vector_by_face_ranks(body)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_f_vector_matches_face_rank_oracle_on_delta_and_gamma(n):
    delta = VPolytope.from_points(valuation.delta_vertices(n))
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(n))
    fv = oracles.f_vector_by_face_ranks(delta)
    assert oracles.f_vector_by_face_ranks(gamma) == fv
    assert f_vector(delta) == f_vector(gamma) == fv
    if n == 3:
        assert fv == (14, 51, 86, 78, 39, 10)


F_VECTOR_4 = (42, 313, 1094, 2236, 2923, 2539, 1477, 565, 135, 18)


def test_f_vector_at_n4():
    delta = VPolytope.from_points(valuation.delta_vertices(4))
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(4))
    assert f_vector(delta) == f_vector(gamma) == F_VECTOR_4
    assert oracles.euler_characteristic_ok(F_VECTOR_4)
