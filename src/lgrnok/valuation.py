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

with l_{mu^T}(d) = l_mu(-d).  Partitions enter as index sets: their
diagonal-length vectors are read off the lattice path
(`partitions.diagonal_lengths`).  One flat table per n holds every l_mu and
l_{mu^T}, kept at the few diagonals where the maximum can peak, with the
coordinate it adds to, so a valuation costs one short max-plus row per
vector; `valuation_maxdiag` checks its input and evaluates it, and
`partitions.maxdiag` on skew cells stays as its oracle.

A flow's exponent vector is the sum over its paths of the coordinate counts
of the path's left faces.  Many flows share a path, so the counts are
cached per left-face set, and the flows cost little more than enumerating
them.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from operator import itemgetter, sub
from types import MappingProxyType

from . import plabic
from .partitions import (
    Partition,
    check_in_box,
    diagonal_lengths,
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


def _corners(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of the diagonals where max_d (l_mu(d) - l_lam(d)) peaks,
    whatever lam: the main diagonal, and each diagonal where l_mu, read
    outward from it, ends a flat stretch with a drop.

    Outward from the main diagonal, l_lam and l_mu each shrink by 0 or 1
    per diagonal, so the difference cannot fall along a flat stretch of
    l_mu and cannot rise where l_mu drops."""
    c = len(lengths) // 2
    padded = (0, *lengths, 0)  # padded[k + 1] = lengths[k], zero off the square
    left = [k for k in range(c) if padded[k + 2] == padded[k + 1] > padded[k]]
    right = [k for k in range(c + 1, len(lengths)) if padded[k] == padded[k + 1] > padded[k + 2]]
    return (c, *left, *right)


@cache
def _orbit_table(n: int) -> tuple[tuple[tuple[int, ...], itemgetter, int], ...]:
    """Every l_mu and l_{mu^T}, each kept at its corner diagonals, with the
    getter of those diagonals and the coordinate of its orbit {mu, mu^T}:
    each mu of `coordinate_system(n)` in order, then l_mu reversed, which is
    l_{mu^T}, for each mu that is not self-transpose.  The lengths
    determine the diagram, so they equal their reversal exactly when
    mu = mu^T."""
    lengths = [diagonal_lengths(partition_to_indexset(mu, n), n) for mu in coordinate_system(n)]
    vectors = [(ell, k) for k, ell in enumerate(lengths)]
    vectors += [(ell[::-1], k) for k, ell in enumerate(lengths) if ell[::-1] != ell]
    table = []
    for ell, k in vectors:
        corners = _corners(ell)
        if len(corners) == 1:  # a getter of one position returns a bare int
            corners *= 2
        table.append((tuple(ell[d] for d in corners), itemgetter(*corners), k))
    return tuple(table)


def _maxplus(n: int, low: tuple[int, ...]) -> tuple[int, ...]:
    """The closed-form valuation of the partition with diagonal lengths
    `low`: per orbit, max_d (l_mu(d) - low(d))_+ summed over mu and mu^T,
    the maximum taken over the corner diagonals of mu."""
    out = [0] * (n * (n + 1) // 2)
    for lengths, at, k in _orbit_table(n):
        out[k] += max(0, *map(sub, lengths, at(low)))
    return tuple(out)


def valuation_maxdiag(n: int, lam: Partition) -> tuple[int, ...]:
    """Closed-form valuation: per orbit, max_d (l_mu(d) - l_lam(d))_+ summed
    over mu and mu^T."""
    return _maxplus(n, diagonal_lengths(partition_to_indexset(lam, n), n))


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
