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
(`partitions.diagonal_lengths`).  One packed table per n, built on first
use, holds every l_mu and l_{mu^T} at the few diagonals where the maximum
can peak, biased, one byte per vector and peak in a few Python ints
(`_packed_table`).  A valuation then costs a few big-integer operations
whatever the number of vectors: a multiply-subtract per diagonal, a
guard-bit fieldwise maximum against the bias per peak, one add of the
mu^T half onto the mu half (`_maxplus`).  The bytes are exact for
n <= MAX_PACKED_N; past it the table refuses to be built.
`valuation_maxdiag` and the valuation matrix evaluate this way.  The
valuation table and Delta's points read the lattice-path walk
(`partitions.transpose_classes`) instead, which subtracts the diagonals one
step at a time and leaves each class's operand for the same slot merge
(`_packed_maxplus`); the main theorem in `equivalence` reads the same walk.
In the program, the flow model below is the closed form's one independent
oracle (`valuation-oracle-equivalence`, to n = 6).  `partitions.maxdiag` on
skew cells and a vector-by-vector max-plus are its oracles in the tests
only; no check of the program reads them.

A flow's exponent vector is the sum over its paths of the coordinate counts
of the path's left faces.  Each path of the network's table carries its
left faces as a bitmask, summed from dart weights along the path
(`plabic.dual_cuts`).  The oracle's row table (`_flow_rows`, once per n)
keeps each path's mask and counts, one packed int with a byte per orbit like
`_packed_table`'s, decoded eight faces per lookup.  `plabic.flow_systems`
streams each flow's vector as the int sum of its paths' counts, and the
minimum over the flows is merged bytewise as they come, with the number of
flows that attain it: no `Flow` and no list of flows is built.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from functools import cache
from operator import getitem, mul
from types import MappingProxyType

from . import plabic
from .budget import polled
from .partitions import (
    Partition,
    _path_partition,
    check_in_box,
    diagonal_lengths,
    orbit_representative,
    partition_to_indexset,
    transpose_classes,
)


@cache
def coordinate_system(n: int) -> tuple[Partition, ...]:
    """Orbit representatives of the nonempty face labels, ordered by
    descending reverse-lexicographic comparison of their index sets.  The
    deadline is polled every POLL_EVERY labels."""
    G = plabic.build_corect_graph(n)
    reps = {orbit_representative(label) for label in polled(G.faces.values()) if label}

    def key(rep: Partition):
        return tuple(reversed(partition_to_indexset(rep, n)))

    order = tuple(sorted(reps, key=key, reverse=True))
    expected = n * (n + 1) // 2
    if len(order) != expected:
        raise AssertionError(f"{len(order)} face orbits at n={n}, expected n(n+1)/2 = {expected}")
    return order


@cache
def face_coordinates(n: int) -> MappingProxyType[plabic.FaceId, int | None]:
    """Index in `coordinate_system(n)` of each face's orbit, None for the
    face labelled by the empty partition; read-only, as it is shared."""
    G = plabic.build_corect_graph(n)
    index = {rep: i for i, rep in enumerate(coordinate_system(n))}
    return MappingProxyType({face: index[orbit_representative(label)] if label else None
                             for face, label in G.faces.items()})


@cache
def _label_coordinates(n: int) -> MappingProxyType[Partition, int | None]:
    """Index in `coordinate_system(n)` of each face label's orbit, None for
    the empty label; read-only, as it is shared."""
    G = plabic.build_corect_graph(n)
    return MappingProxyType({G.faces[face]: i for face, i in face_coordinates(n).items()})


def orbit_vector(n: int, monomial: Counter) -> tuple[int, ...]:
    """Collapse a face-variable monomial to exponents per coordinate orbit."""
    index = _label_coordinates(n)
    totals = [0] * len(coordinate_system(n))
    for label, exp in monomial.items():
        if label not in index:
            raise ValueError("monomial mentions an unknown face orbit")
        if index[label] is not None:
            totals[index[label]] += exp
    return tuple(totals)


def _left_face_counts(n: int) -> Callable[[int], int]:
    """The coordinate counts of a left-face bitmask (`plabic.dual_cuts`),
    one byte per orbit, read eight faces per lookup: table k maps byte k
    of the mask to the counts of faces 8k..8k+7, the empty label's face 0."""
    faces, _ = plabic.dual_cuts(plabic.build_corect_graph(n))
    coords = face_coordinates(n)
    fields = [0 if coords[face] is None else 1 << FIELD_BITS * coords[face] for face in faces]
    tables = []
    for k in range(0, len(fields), 8):
        tables.append([0])
        for field in fields[k:k + 8]:  # each face of the byte doubles its table
            tables[-1] += [counts + field for counts in tables[-1]]
    return lambda left: sum(map(getitem, tables, left.to_bytes(len(tables), "little")))


# A flow has at most n paths and an orbit at most two faces, each on the
# left of a path at most once, so a coordinate of a flow's vector is at
# most 2n: below the guard bit 2**7 of a FIELD_BITS byte for n <= MAX_PACKED_N.
@cache
def _flow_rows(n: int) -> dict[int, dict[int, tuple[tuple[int, int], ...]]]:
    """The oracle's row table: `plabic._path_table` of the network with
    (mask, `_left_face_counts` of its left faces) per path, in the same
    groups and order; polled once per group."""
    counts, table = _left_face_counts(n), plabic._path_table(*plabic.corect_network(n))
    return {s: {end: tuple([(mask, counts(left)) for mask, _, left in polled(group)])
                for end, group in ends.items()} for s, ends in table.items()}


def _flow_sums(n: int, J) -> Iterator[int]:
    """The exponent vector of every flow to J, packed one byte per orbit,
    streamed by `plabic.flow_systems` as the sum of its paths' packed counts."""
    return plabic.flow_systems(*plabic.corect_network(n), J, _flow_rows(n), 0)


def valuation_from_flows(n: int, lam: Partition) -> tuple[int, ...]:
    """Coordinatewise minimum over the flow vectors for p_lam, which must
    be attained by exactly one flow.  The minimum is merged bytewise over
    the packed sums of `_flow_sums` as they stream in (a field's guard bit
    survives low + 2**7 - x exactly when x <= low), along with the number
    of flows so far that equal it."""
    lam = check_in_box(lam, n)
    sums = _flow_sums(n, partition_to_indexset(lam, n))
    low = next(sums, None)
    if low is None:
        raise ValueError(f"no flow realizes the Pluecker coordinate of {lam}")
    N = len(coordinate_system(n))
    guards = int.from_bytes(bytes([1 << FIELD_BITS - 1]) * N, "little")
    hits = 1
    for x in sums:
        kept = ((low | guards) - x) & guards
        merged = low ^ (low ^ x) & (kept - (kept >> FIELD_BITS - 1))
        if merged != low:
            low, hits = merged, int(merged == x)
        elif x == low:
            hits += 1
    if hits != 1:
        raise ValueError(
            f"coordinatewise minimum for {lam} attained by {hits} monomials; "
            "a unique minimal flow was expected"
        )
    return tuple(low.to_bytes(N, "little"))


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


# One byte per field of the packed table.  A live field holds
# BIAS + l_mu(d) - l_lam(d), between BIAS - n and BIAS + n: it stays clear
# of the guard bit 2**7 and above 0 for n <= MAX_PACKED_N, and two maxima
# summed, at most 2n, fit the byte.
FIELD_BITS = 8
BIAS = 64
MAX_PACKED_N = BIAS - 1


def _check_packed_range(n: int):
    if not 1 <= n <= MAX_PACKED_N:
        raise ValueError(f"n={n} is outside the packed max-plus table's range 1..{MAX_PACKED_N}")


@cache
def _packed_table(n: int) -> tuple:
    """Every l_mu and l_{mu^T} at its corner diagonals, packed; raises
    ValueError past MAX_PACKED_N, where a field could wrap.

    With N = n(n+1)/2 coordinates, a slot is 2N one-byte fields: field k
    holds l_mu and field N + k holds l_{mu^T} for the k-th mu of
    `coordinate_system(n)`, field N + k dead when mu = mu^T.  Slot s keeps
    each vector at its s-th corner diagonal (`_corners`); a vector with
    fewer corners leaves its later slots dead.  The table is

      base    all slots, slot s from bit s * 16N up: BIAS + l(d) in each
              live field, 0 in each dead one;
      masks   per diagonal d, laid out like base: 1 in each live field
              kept at d;
      shifts  the bit offset of each slot;
      slot    all bits of one slot;
      guards  the top bit of each field of a slot;
      floor   BIAS in each field of a slot, (.)_+ in biased form;
      N.
    """
    _check_packed_range(n)
    lengths = [diagonal_lengths(partition_to_indexset(mu, n), n) for mu in coordinate_system(n)]
    N = len(lengths)
    # The lengths determine the diagram, so they equal their reversal, which
    # is l_{mu^T}, exactly when mu = mu^T.
    vectors = [(k, ell) for k, ell in enumerate(lengths)]
    vectors += [(N + k, ell[::-1]) for k, ell in enumerate(lengths) if ell[::-1] != ell]
    corners = [(field, ell, _corners(ell)) for field, ell in vectors]
    slots = max(len(at) for _, _, at in corners)
    base = bytearray(2 * N * slots)
    masks = [bytearray(2 * N * slots) for _ in range(2 * n - 1)]
    for field, ell, at in corners:
        for s, d in enumerate(at):
            base[2 * N * s + field] = BIAS + ell[d]
            masks[d][2 * N * s + field] = 1
    width = 2 * N * FIELD_BITS
    return (
        int.from_bytes(base, "little"),
        tuple(int.from_bytes(mask, "little") for mask in masks),
        tuple(width * s for s in range(slots)),
        (1 << width) - 1,
        int.from_bytes(bytes([1 << FIELD_BITS - 1]) * (2 * N), "little"),
        int.from_bytes(bytes([BIAS]) * (2 * N), "little"),
        N,
    )


def _packed_maxplus(table: tuple, x: int) -> int:
    """The slot merge of `_maxplus` on x = base - sum_d low(d) * masks[d]:
    the valuation as an int, one byte per orbit.

    Each slot is merged into the running fieldwise maximum, which starts at
    the bias (the (.)_+): a field's guard bit survives y + 2**7 - best
    exactly when y >= best.  With the bias taken off, adding the mu^T half
    onto the mu half sums each orbit.
    """
    base, masks, shifts, slot, guards, floor, N = table
    best = floor
    for shift in shifts:
        y = (x >> shift) & slot
        won = ((y | guards) - best) & guards
        best ^= (best ^ y) & (won - (won >> FIELD_BITS - 1))
    best -= floor
    return (best + (best >> N * FIELD_BITS)) & (slot >> N * FIELD_BITS)


def _maxplus(n: int, low: tuple[int, ...]) -> tuple[int, ...]:
    """The closed-form valuation of the partition with diagonal lengths
    `low`: per orbit, max_d (l_mu(d) - low(d))_+ summed over mu and mu^T,
    the maximum taken over the corner diagonals of mu.

    One multiply-subtract per diagonal takes low off every field of the
    packed table at once; `_packed_maxplus` does the rest.
    """
    table = _packed_table(n)
    base, masks, *_, N = table
    return tuple(_packed_maxplus(table, base - sum(map(mul, low, masks))).to_bytes(N, "little"))


def valuation_maxdiag(n: int, lam: Partition) -> tuple[int, ...]:
    """Closed-form valuation: per orbit, max_d (l_mu(d) - l_lam(d))_+ summed
    over mu and mu^T."""
    return _maxplus(n, diagonal_lengths(partition_to_indexset(lam, n), n))


def _indexset(bits: int, n: int) -> tuple[int, ...]:
    """The index set of a bitmask over the steps 1..2n."""
    return tuple([k for k in range(1, 2 * n + 1) if bits >> k & 1])


def class_valuations(n: int, cross_check: bool = False,
                     ) -> Iterator[tuple[tuple[int, ...], Partition, tuple[int, ...]]]:
    """(index set, representative, valuation) of each transpose class, in
    ascending index-set order, streamed from the lattice-path walk
    (`partitions.transpose_classes`): the slot merge of the walk's operand
    at the lex-first member, which the closed form, invariant under
    transposition, gives the representative too.  The deadline is polled
    once per first half of a path, so a caller's work on the rows between
    two polls is polled too.

    With cross_check, the flow model is replayed against the closed form
    at every class; a mismatch raises.
    """
    table = _packed_table(n)  # past MAX_PACKED_N, raise before the walk
    base, masks, *_, N = table
    for batch in transpose_classes(n, base, masks):
        for rep, x, *_ in batch:
            indexset = _indexset(rep, n)
            lam = _path_partition(indexset, n)
            value = tuple(_packed_maxplus(table, x).to_bytes(N, "little"))
            if cross_check:
                flows = valuation_from_flows(n, lam)
                if flows != value:
                    raise AssertionError(
                        f"valuation oracle mismatch at {lam}: flows {flows}, "
                        f"maxdiag {value}"
                    )
            yield indexset, lam, value


def all_plucker_valuations(n: int, cross_check: bool = False) -> dict[Partition, tuple[int, ...]]:
    """Valuation of one representative per transpose class, keyed by the
    representative, in ascending index-set order (`class_valuations`)."""
    return {rep: value for _, rep, value in class_valuations(n, cross_check)}


def delta_vertices(n: int) -> tuple[tuple[int, ...], ...]:
    """Value set of the Pluecker valuations: the generators whose convex
    hull is the Newton-Okounkov body.  Only the distinct packed values of
    the walk's operands are kept and decoded; sorted as bytes, they come
    in the order of their tuples.  The deadline is polled once per first
    half of a path."""
    table = _packed_table(n)
    base, masks, *_, N = table
    values = {_packed_maxplus(table, x)
              for batch in transpose_classes(n, base, masks) for _, x, *_ in batch}
    return tuple(map(tuple, sorted(value.to_bytes(N, "little") for value in values)))
