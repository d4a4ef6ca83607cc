"""Valuations of Pluecker coordinates in the co-rectangles coordinate system.

Coordinates are indexed by transpose-orbits of face labels of the graph
(the orbit of the empty label is dropped: no flow ever has that face on its
left, so the coordinate is identically zero).  `face_coordinates` maps each
face of the graph to its coordinate once per n.  Each Pluecker coordinate
gets an integer vector two independent ways: the coordinatewise-minimal
exponent vector over its flows, and the closed form

    entry at orbit {mu, mu^T}  =  maxdiag(mu \\ lam) + maxdiag(mu^T \\ lam)

(one summand when mu is self-transpose).  The cells of a diagram on the
diagonal c - r = d form an initial run, so the cells of mu \\ lam on that
diagonal form one run of length l_mu(d) - l_lam(d) (when positive), where
l_lam(d) counts the cells of lam on it.  The closed form is therefore a
max-plus product of diagonal-length vectors,

    maxdiag(mu \\ lam)  =  max_d (l_mu(d) - l_lam(d))_+ ,

with l_{mu^T}(d) = l_mu(-d).  `valuation_maxdiag` evaluates this;
`partitions.maxdiag` on skew cells stays as its oracle.

A flow's exponent vector is the sum over its paths of the coordinate counts
of the path's left faces.  Many flows share a path, so the counts are
cached per left-face set, and the flows cost little more than enumerating
them.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from operator import sub
from types import MappingProxyType

from . import plabic
from .partitions import (
    Partition,
    check_in_box,
    orbit_representative,
    partition_to_indexset,
    transpose_classes,
)


@cache
def coordinate_system(n: int) -> tuple[Partition, ...]:
    """Orbit representatives of the nonempty face labels, ordered by
    descending reverse-lexicographic comparison of their index sets."""
    G = plabic.build_corect_graph(n)
    reps = {orbit_representative(label) for label in G.faces.values() if label}

    def key(rep: Partition):
        return tuple(reversed(partition_to_indexset(rep, n)))

    order = tuple(sorted(reps, key=key, reverse=True))
    assert len(order) == n * (n + 1) // 2
    return order


@cache
def face_coordinates(n: int) -> MappingProxyType[plabic.FaceId, int | None]:
    """Index in `coordinate_system(n)` of each face's orbit, None for the
    face labelled by the empty partition; read-only, as it is shared."""
    G = plabic.build_corect_graph(n)
    index = {rep: i for i, rep in enumerate(coordinate_system(n))}
    return MappingProxyType({face: index[orbit_representative(label)] if label else None
                             for face, label in G.faces.items()})


def orbit_vector(n: int, monomial: Counter) -> tuple[int, ...]:
    """Collapse a face-variable monomial to exponents per coordinate orbit."""
    G = plabic.build_corect_graph(n)
    index = {G.faces[face]: i for face, i in face_coordinates(n).items()}
    totals = [0] * len(coordinate_system(n))
    for label, exp in monomial.items():
        if label not in index:
            raise ValueError("monomial mentions an unknown face orbit")
        if index[label] is not None:
            totals[index[label]] += exp
    return tuple(totals)


@cache
def _left_faces_vector(n: int, faces: frozenset) -> tuple[int, ...]:
    """Coordinate counts of one path's left faces."""
    coords = face_coordinates(n)
    totals = [0] * len(coordinate_system(n))
    for face in faces:
        if coords[face] is not None:
            totals[coords[face]] += 1
    return tuple(totals)


def flow_vector(n: int, flow: plabic.Flow) -> tuple[int, ...]:
    """Exponent vector of a flow's monomial: the sum over its paths of the
    cached coordinate counts of their left faces."""
    zero = (0,) * len(coordinate_system(n))
    return tuple(map(sum, zip(zero, *(_left_faces_vector(n, f) for f in flow.left_faces))))


def valuation_from_flows(n: int, lam: Partition) -> tuple[int, ...]:
    """Coordinatewise minimum over the flow vectors for p_lam, which must
    be attained by exactly one flow.  Each flow's vector is summed from
    `face_coordinates` over its paths' left-face sets, one count per
    distinct set (`flow_vector`)."""
    lam = check_in_box(lam, n)
    G, O = plabic.corect_network(n)
    J = partition_to_indexset(lam, n)
    vectors = [flow_vector(n, flow) for flow in plabic.enumerate_flows(G, O, J)]
    if not vectors:
        raise ValueError(f"no flow realizes the Pluecker coordinate of {lam}")
    low = tuple(min(col) for col in zip(*vectors))
    hits = vectors.count(low)
    if hits != 1:
        raise ValueError(
            f"coordinatewise minimum for {lam} attained by {hits} monomials; "
            "a unique minimal flow was expected"
        )
    return low


def _diagonal_lengths(lam: Partition, n: int) -> tuple[int, ...]:
    """Cells of lam on each diagonal c - r = d, for d = 1-n, ..., n-1."""
    lengths = [0] * (2 * n - 1)
    for r, width in enumerate(lam, start=1):
        for k in range(n - r, n - r + width):
            lengths[k] += 1
    return tuple(lengths)


@cache
def _coordinate_diagonals(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per coordinate orbit {mu, mu^T}: the diagonal lengths of mu, and of
    mu^T (l_mu reversed) when mu is not self-transpose.  The lengths
    determine the diagram, so they equal their reversal exactly when
    mu = mu^T."""
    out = []
    for mu in coordinate_system(n):
        lengths = _diagonal_lengths(mu, n)
        flipped = lengths[::-1]
        out.append((lengths,) if flipped == lengths else (lengths, flipped))
    return tuple(out)


def valuation_maxdiag(n: int, lam: Partition) -> tuple[int, ...]:
    """Closed-form valuation: per orbit, max_d (l_mu(d) - l_lam(d))_+ summed
    over mu and mu^T."""
    low = _diagonal_lengths(check_in_box(lam, n), n)
    return tuple(
        sum(max(0, max(map(sub, lengths, low))) for lengths in orbit)
        for orbit in _coordinate_diagonals(n)
    )


def all_plucker_valuations(n: int, cross_check: bool | None = None) -> dict[Partition, tuple[int, ...]]:
    """Valuation of one representative per transpose class, keyed by the
    representative, in ascending index-set order.

    By default the flow model is replayed against the closed form for
    n <= 4; a mismatch raises.
    """
    if cross_check is None:
        cross_check = n <= 4
    table: dict[Partition, tuple[int, ...]] = {}
    for rep in transpose_classes(n):
        value = valuation_maxdiag(n, rep)
        if cross_check:
            flows = valuation_from_flows(n, rep)
            if flows != value:
                raise AssertionError(
                    f"valuation oracle mismatch at {rep}: flows {flows}, "
                    f"maxdiag {value}"
                )
        table[rep] = value
    return table


def delta_vertices(n: int) -> tuple[tuple[int, ...], ...]:
    """Value set of the Pluecker valuations: the generators whose convex
    hull is the Newton-Okounkov body."""
    return tuple(sorted(set(all_plucker_valuations(n, cross_check=False).values())))
