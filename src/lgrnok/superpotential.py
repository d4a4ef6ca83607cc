"""The staircase poset, its chain polytope, and the superpotential route to it.

P_n has elements b_ij for 1 <= i <= j <= n with b_ij covering b_{i+1,j+1}
and b_{i,j+1}.  The superpotential on the mirror torus is

    W_q = sum a_ij  +  sum over Lambda of q / prod_j a_{lam_j, j}

where Lambda is the set of strict partitions with first part n inside the
right-justified staircase; tropicalizing termwise (q -> 1) cuts out the
chain polytope of P_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count

from .partitions import catalan
from .polytope import POLL_EVERY, Deadline, HPolytope

Element = tuple[int, int]


@dataclass(frozen=True)
class PosetPn:
    n: int
    elements: tuple[Element, ...]
    leq: frozenset[tuple[Element, Element]]  # (x, y) with x <= y

    def covers(self) -> tuple[tuple[Element, Element], ...]:
        """Pairs (upper, lower) with upper covering lower."""
        out = []
        for (i, j) in self.elements:
            for low in ((i + 1, j + 1), (i, j + 1)):
                if low in set(self.elements):
                    out.append(((i, j), low))
        return tuple(sorted(out))

    def comparable(self, x: Element, y: Element) -> bool:
        return (x, y) in self.leq or (y, x) in self.leq

    def down_set(self, elements) -> frozenset[Element]:
        return frozenset(x for x in self.elements
                         if any((x, a) in self.leq for a in elements))


@cache
def build_poset(n: int) -> PosetPn:
    if n < 1:
        raise ValueError("n must be positive")
    elements = tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))
    leq = set()
    for (i, j) in elements:
        for (k, l) in elements:
            # (k,l) below (i,j): reachable by steps (i,j)->(i,j+1)/(i+1,j+1)
            if l >= j and i <= k <= i + (l - j):
                leq.add(((k, l), (i, j)))
    return PosetPn(n=n, elements=elements, leq=frozenset(leq))


def is_antichain(P: PosetPn, members) -> bool:
    members = list(members)
    return all(
        not P.comparable(members[a], members[b])
        for a in range(len(members))
        for b in range(a + 1, len(members))
    )


def _clash_masks(P: PosetPn) -> list[int]:
    """Bit t of the k-th mask: the t-th element of P in sorted order is
    comparable to the k-th (each element to itself too)."""
    elems = sorted(P.elements)
    return [sum(1 << t for t, y in enumerate(elems) if P.comparable(x, y)) for x in elems]


def enumerate_antichains(P: PosetPn, deadline: Deadline | None = None) -> tuple[frozenset[Element], ...]:
    """Every antichain including the empty one, in a fixed order; the
    deadline, if any, is polled every POLL_EVERY antichains."""
    elems = sorted(P.elements)
    clash = _clash_masks(P)
    out: list[frozenset[Element]] = []

    def grow(start: int, chosen: tuple[Element, ...], blocked: int):
        if deadline is not None and not len(out) % POLL_EVERY:
            deadline.check()
        out.append(frozenset(chosen))
        for t in range(start, len(elems)):
            if not blocked >> t & 1:
                grow(t + 1, chosen + (elems[t],), blocked | clash[t])

    grow(0, (), 0)
    return tuple(out)


def antichain_count(P: PosetPn, deadline: Deadline | None = None) -> int:
    """The number of antichains, the empty one included: the recursion of
    `enumerate_antichains`, with nothing built.  The deadline, if any, is
    polled every POLL_EVERY antichains."""
    clash = _clash_masks(P)
    counted = count()

    def grow(start: int, blocked: int) -> int:
        if deadline is not None and not next(counted) % POLL_EVERY:
            deadline.check()
        total = 1
        for t in range(start, len(clash)):
            if not blocked >> t & 1:
                total += grow(t + 1, blocked | clash[t])
        return total

    return grow(0, 0)


def maximal_chains(P: PosetPn) -> tuple[tuple[Element, ...], ...]:
    """Maximal chains listed top-down from b_11; all have length n."""
    chains: list[tuple[Element, ...]] = []

    def walk(chain: tuple[Element, ...]):
        i, j = chain[-1]
        if j == P.n:
            chains.append(chain)
            return
        for nxt in ((i, j + 1), (i + 1, j + 1)):
            walk(chain + (nxt,))

    walk(((1, 1),))
    return tuple(sorted(chains))


# -- Dyck paths -----------------------------------------------------------


def antichain_to_dyck(P: PosetPn, antichain) -> tuple[int, ...]:
    """Dyck path of length 2n+2 passing over exactly the down-set of the
    antichain, drawn over the tilted staircase of boxes b_ij.

    Box b_ij sits at abscissa n+j-2i+2 and is passed over when the path
    height there is at least n+2-j.
    """
    n = P.n
    if not is_antichain(P, antichain):
        raise ValueError(f"{sorted(antichain)} is not an antichain")
    ideal = P.down_set(antichain)
    heights = [0] * (2 * n + 3)
    for c in range(1, 2 * n + 2):
        covered = [j for (i, j) in ideal if n + j - 2 * i + 2 == c]
        heights[c] = (n + 2 - min(covered)) if covered else c % 2
    steps = tuple(heights[c + 1] - heights[c] for c in range(2 * n + 2))
    if any(s not in (-1, 1) for s in steps) or any(h < 0 for h in heights):
        raise AssertionError(f"ideal {sorted(ideal)} produced a broken path")
    return steps


# -- linear extensions ----------------------------------------------------


def linear_extension_count(P: PosetPn, deadline: Deadline | None = None) -> int:
    """Exact count by dynamic programming over order ideals, each held as
    a bitmask over P.elements; the deadline, if any, is polled every
    POLL_EVERY ideals counted."""
    bit = {x: 1 << k for k, x in enumerate(P.elements)}
    down = [sum(bit[y] for y in P.elements if (y, x) in P.leq and y != x)
            for x in P.elements]

    ideals = count()

    @cache
    def extensions(ideal: int) -> int:
        if deadline is not None and not next(ideals) % POLL_EVERY:
            deadline.check()
        if not ideal:
            return 1
        total = 0
        for k, below in enumerate(down):
            if ideal >> k & 1 and not below & ideal:  # minimal elements can come first
                total += extensions(ideal & ~(1 << k))
        return total

    return extensions((1 << len(down)) - 1)


# -- the superpotential ----------------------------------------------------


@dataclass(frozen=True)
class SuperpotentialTerm:
    """A linear term a_ij, or a quantum term q / prod a_{cell} with one
    denominator cell per column."""

    kind: str  # "linear" | "quantum"
    cells: tuple[Element, ...]

    def __str__(self) -> str:
        if self.kind == "linear":
            (i, j), = self.cells
            return f"a{i}{j}"
        return "q/(" + " ".join(f"a{i}{j}" for (i, j) in self.cells) + ")"


def strict_staircase_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Strict partitions with first part n inside the staircase (n,...,1),
    in ascending lexicographic order; there are 2^(n-1) of them."""
    out = []

    def grow(prefix: tuple[int, ...]):
        out.append(prefix)
        for nxt in range(prefix[-1] - 1, 0, -1):
            grow(prefix + (nxt,))

    grow((n,))
    return tuple(sorted(out))


def quantum_denominator(n: int, lam: tuple[int, ...]) -> tuple[Element, ...]:
    """Cells (lam_j, j): lam_j is the deepest row meeting column j when the
    rows of lam are right-justified in the square."""
    cells = []
    for j in range(1, n + 1):
        deepest = max(i for i, part in enumerate(lam, start=1) if part >= n + 1 - j)
        cells.append((deepest, j))
    return tuple(cells)


def lex_cells(n: int) -> tuple[Element, ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def build_superpotential(n: int) -> tuple[SuperpotentialTerm, ...]:
    terms = [SuperpotentialTerm("linear", (c,)) for c in lex_cells(n)]
    for lam in strict_staircase_partitions(n):
        terms.append(SuperpotentialTerm("quantum", quantum_denominator(n, lam)))
    return tuple(terms)


@dataclass(frozen=True)
class TropicalInequality:
    """coeffs . A + const >= 0 over the coordinates A_ij."""

    coeffs: tuple[tuple[Element, int], ...]
    const: int

    def as_row(self, cells: tuple[Element, ...]) -> tuple[tuple[int, ...], int]:
        lookup = dict(self.coeffs)
        return tuple(lookup.get(c, 0) for c in cells), self.const


def tropicalize(terms) -> tuple[TropicalInequality, ...]:
    """One inequality per term: a_ij >= 0 becomes A_ij >= 0, and each
    quantum term q/prod a becomes 1 - sum A >= 0 (q tropicalizes to 1)."""
    out = []
    for term in terms:
        if term.kind == "linear":
            out.append(TropicalInequality(((term.cells[0], 1),), 0))
        else:
            out.append(TropicalInequality(tuple((c, -1) for c in term.cells), 1))
    return tuple(out)


def chain_polytope_rows(P: PosetPn) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Stanley's chain polytope of P_n: positivity plus 'at most 1 along
    every maximal chain'."""
    cells = lex_cells(P.n)
    rows = [(tuple(1 if c == cell else 0 for c in cells), 0) for cell in cells]
    for chain in maximal_chains(P):
        rows.append((tuple(-1 if c in chain else 0 for c in cells), 1))
    return tuple(rows)


def gamma_hrep(n: int) -> HPolytope:
    """H-representation of the superpotential polytope in coordinates A_ij
    ordered lexicographically.  The tropicalization route and the chain
    polytope of P_n must produce the same normalized rows."""
    cells = lex_cells(n)
    trop_rows = tuple(ineq.as_row(cells) for ineq in tropicalize(build_superpotential(n)))
    chain_rows = chain_polytope_rows(build_poset(n))
    if set(trop_rows) != set(chain_rows):
        raise AssertionError(
            "tropicalized superpotential and chain polytope disagree: "
            f"{sorted(set(trop_rows) ^ set(chain_rows))}"
        )
    return HPolytope(dim=len(cells), rows=trop_rows)


def antichain_indicator(n: int, antichain) -> tuple[int, ...]:
    return tuple(1 if c in antichain else 0 for c in lex_cells(n))


def gamma_vertex_set(n: int) -> tuple[tuple[int, ...], ...]:
    """Indicator vectors of the antichains of P_n, sorted."""
    P = build_poset(n)
    return tuple(sorted(antichain_indicator(n, a) for a in enumerate_antichains(P)))


def antichain_count_formula(n: int) -> int:
    return catalan(n + 1)
