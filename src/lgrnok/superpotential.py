"""The staircase poset, its chain polytope, and the superpotential route to it.

P_n has elements b_ij for 1 <= i <= j <= n with b_ij covering b_{i+1,j+1}
and b_{i,j+1} (`PosetPn.below`).  The superpotential on the mirror torus is

    W_q = sum a_ij  +  sum over Lambda of q / prod_j a_{lam_j, j}

where Lambda is the set of strict partitions with first part n inside the
right-justified staircase; tropicalizing termwise (q -> 1) cuts out the
chain polytope of P_n.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cache, reduce
from itertools import compress, product
from operator import or_

from .budget import armed, polled
from .polytope import HPolytope

Element = tuple[int, int]


class PosetPn(namedtuple("PosetPn", "n elements")):
    """elements in lexicographic order, the coordinate order of Gamma."""

    __slots__ = ()

    def below(self, x: Element, y: Element) -> bool:
        """x <= y: x = (k, l) is reached from y = (i, j) by l - j steps
        (i, j) -> (i, j+1) or (i+1, j+1), of which k - i are diagonal.  The
        one statement of the order of P_n; its covers and chains are read
        off it."""
        (k, l), (i, j) = x, y
        return l >= j and i <= k <= i + l - j

    def comparable(self, x: Element, y: Element) -> bool:
        return self.below(x, y) or self.below(y, x)

    def covers(self) -> tuple[tuple[Element, Element], ...]:
        """Pairs (upper, lower) with upper covering lower, sorted: the
        comparable pairs one level apart, level j holding the elements
        (i, j)."""
        return tuple((x, y) for x in self.elements for y in self.elements
                     if y[1] == x[1] + 1 and self.below(y, x))


@cache
def build_poset(n: int) -> PosetPn:
    if n < 1:
        raise ValueError("n must be positive")
    elements = tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))
    return PosetPn(n=n, elements=elements)


def _lower_covers(P: PosetPn) -> dict[Element, list[Element]]:
    """The elements each element covers, in sorted order."""
    lower: dict[Element, list[Element]] = {}
    for upper, low in P.covers():
        lower.setdefault(upper, []).append(low)
    return lower


def _clash_masks(P: PosetPn) -> list[int]:
    """Bit t of the k-th mask: the t-th element of P is comparable to the
    k-th (each element to itself too)."""
    return [sum(1 << t for t, y in enumerate(P.elements) if P.comparable(x, y))
            for x in P.elements]


def _antichain_masks(P: PosetPn) -> list[int]:
    """Every antichain including the empty one, in a fixed order, as an int
    with one byte per element of P: 1 for a member, 0 for the rest.  The
    deadline ticks once per antichain."""
    clash = _clash_masks(P)
    out: list[int] = []
    tick = armed().tick

    def grow(start: int, chosen: int, blocked: int):
        tick()
        out.append(chosen)
        for t in range(start, len(clash)):
            if not blocked >> t & 1:
                grow(t + 1, chosen | 1 << 8 * t, blocked | clash[t])

    grow(0, 0, 0)
    return out


def enumerate_antichains(P: PosetPn) -> tuple[frozenset[Element], ...]:
    """Every antichain including the empty one, in a fixed order; the
    deadline is polled every POLL_EVERY antichains."""
    return tuple(frozenset(compress(P.elements, mask.to_bytes(len(P.elements), "little")))
                 for mask in _antichain_masks(P))


def maximal_chains(P: PosetPn) -> tuple[tuple[Element, ...], ...]:
    """Maximal chains, listed top-down from b_11, the top of P_n, along
    the covers; all have length n."""
    lower, chains = _lower_covers(P), []

    def walk(chain: tuple[Element, ...]):
        steps = lower.get(chain[-1], ())
        if not steps:
            chains.append(chain)
        for nxt in steps:
            walk(chain + (nxt,))

    walk((P.elements[0],))
    return tuple(sorted(chains))


# -- linear extensions ----------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first, each as an int of its own."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def linear_extension_count(P: PosetPn) -> int:
    """Exact count by dynamic programming over the sets of elements still
    to place, each held as a bitmask over P.elements with the mask of its
    minimal elements: a linear extension places one of them at each step.
    Placing x leaves x's upper covers minimal once none of their own lower
    covers is left; the covers are the transitive reduction of the strict
    down-sets read off `PosetPn.below`.  Only one step's sets are kept,
    each with one int: its number of ways shifted above the N = |P| bits
    of its minima, so that adding ways leaves the minima as they are.  The
    deadline ticks once per set."""
    bit = {x: 1 << k for k, x in enumerate(P.elements)}
    down = [sum(bit[y] for y in P.elements if y != x and P.below(y, x))
            for x in P.elements]
    # x's lower covers: its strict down-set less what lies below a member of it
    lower = [d & ~reduce(or_, [down[low.bit_length() - 1] for low in _bits(d)], 0) for d in down]
    # ups[x]: (bit of u, lower covers of u) for each upper cover u of x
    ups: dict[int, list[tuple[int, int]]] = {1 << k: [] for k in range(len(down))}
    for k, covered in enumerate(lower):
        for low in _bits(covered):
            ups[low].append((1 << k, covered))

    N = len(down)
    full = (1 << N) - 1
    ways = {full: 1 << N | sum(1 << k for k, below in enumerate(down) if not below)}
    tick = armed().tick
    for _ in down:
        fewer: dict[int, int] = {}
        for rest, state in ways.items():
            tick()
            minima = state & full
            lifted = state ^ minima  # the ways, still shifted
            left = minima  # _bits(minima), inlined: this is the DP's inner loop
            while left:
                low = left & -left
                left ^= low
                key = rest ^ low
                known = fewer.get(key)
                if known is None:
                    fresh = minima ^ low
                    for up, covered in ups[low]:
                        if not covered & key:
                            fresh |= up
                    fewer[key] = lifted | fresh
                else:
                    fewer[key] = known + lifted
        ways = fewer
    return ways[0] >> N


# -- lattice points -------------------------------------------------------


def chain_polytope_points(P: PosetPn, k: int) -> int:
    """The lattice points of k times the chain polytope of P: the integer
    x >= 0 with every chain sum at most k, counted level by level down the
    covers of P, level j holding the elements (i, j); each cover goes down
    one level, as in P_n.

    A point is one to one with its chain maxima, m_y the largest sum of x
    along a chain from a top element down to y: any m over 0..k that does
    not drop down a cover, x_y being m_y less the largest m of y's upper
    covers.  With f_j(m) the number of points on levels 1..j with maxima m
    on level j, f_{j+1}(m') is the sum of f_j(m) over the m with each m_p
    at most the least m'_q over the lower covers q of p (k if it has
    none): f_j summed in one prefix sweep per coordinate, then read there.
    Level j has (k+1)^j states; the deadline is polled once per sweep and
    every POLL_EVERY states.
    """
    lower = _lower_covers(P)
    base = k + 1
    level: tuple[Element, ...] = ()
    counts = [1]  # one state, the empty one, above the top level
    for j in range(1, P.n + 1):
        stride = 1
        for _ in level:
            armed().check()
            for state in range(stride, len(counts)):
                if state // stride % base:
                    counts[state] += counts[state - stride]
            stride *= base
        below = tuple(x for x in P.elements if x[1] == j)
        position = {x: t for t, x in enumerate(below)}
        bounds = [[position[q] for q in lower.get(p, ())] for p in level]
        reach = []
        for m in polled(product(range(base), repeat=len(below))):
            state = 0
            for qs in bounds:
                state = state * base + (min(map(m.__getitem__, qs)) if qs else k)
            reach.append(counts[state])
        level, counts = below, reach
    return sum(counts)


# -- the superpotential ----------------------------------------------------


class SuperpotentialTerm(namedtuple("SuperpotentialTerm", "kind cells")):
    """A linear term a_ij, or a quantum term q / prod a_{cell} with one
    denominator cell per column; kind is "linear" or "quantum"."""

    __slots__ = ()


def strict_staircase_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Strict partitions with first part n inside the staircase (n,...,1),
    in ascending lexicographic order; there are 2^(n-1) of them.  A
    depth-first walk that tries the next part in ascending order yields
    each partition before its extensions and these in order, so nothing is
    listed or sorted."""

    def grow(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield prefix
        for nxt in range(1, prefix[-1]):
            yield from grow(prefix + (nxt,))

    return grow((n,))


def quantum_denominator(n: int, lam: tuple[int, ...]) -> tuple[Element, ...]:
    """Cells (lam_j, j): lam_j is the deepest row meeting column j when the
    rows of lam are right-justified in the square."""
    cells = []
    for j in range(1, n + 1):
        deepest = max(i for i, part in enumerate(lam, start=1) if part >= n + 1 - j)
        cells.append((deepest, j))
    return tuple(cells)


def lex_cells(n: int) -> tuple[Element, ...]:
    """The coordinates A_ij of Gamma: the elements of P_n, in their order."""
    return build_poset(n).elements


@cache
def build_superpotential(n: int) -> tuple[SuperpotentialTerm, ...]:
    """The linear terms, then one quantum term per strict partition; the
    deadline is polled every POLL_EVERY quantum terms."""
    terms = [SuperpotentialTerm("linear", (c,)) for c in lex_cells(n)]
    for lam in polled(strict_staircase_partitions(n)):
        terms.append(SuperpotentialTerm("quantum", quantum_denominator(n, lam)))
    return tuple(terms)


def tropicalize(n: int, terms) -> Iterator[tuple[tuple[int, ...], int]]:
    """One row (coefficients over lex_cells(n), constant) per term: a_ij
    >= 0 becomes A_ij >= 0, and each quantum term q/prod a becomes
    1 - sum A >= 0 (q tropicalizes to 1)."""
    cells = lex_cells(n)
    for term in terms:
        sign, const = (1, 0) if term.kind == "linear" else (-1, 1)
        members = set(term.cells)
        yield tuple(sign if c in members else 0 for c in cells), const


def chain_polytope_rows(P: PosetPn) -> Iterator[tuple[tuple[int, ...], int]]:
    """Stanley's chain polytope of P_n: positivity plus 'at most 1 along
    every maximal chain'."""
    cells = lex_cells(P.n)
    for cell in cells:
        yield tuple(1 if c == cell else 0 for c in cells), 0
    for chain in maximal_chains(P):
        yield tuple(-1 if c in chain else 0 for c in cells), 1


@cache
def gamma_hrep(n: int) -> HPolytope:
    """H-representation of the superpotential polytope in coordinates A_ij
    ordered lexicographically: the tropicalized rows, one per term of the
    superpotential.  The check gamma-tropicalization-vs-chain-polytope
    compares them with `chain_polytope_rows`.  The deadline is polled every
    POLL_EVERY terms and every POLL_EVERY rows."""
    rows = tuple(polled(tropicalize(n, build_superpotential(n))))
    return HPolytope(dim=n * (n + 1) // 2, rows=rows)


def gamma_vertex_set(n: int) -> tuple[tuple[int, ...], ...]:
    """Indicator vectors of the antichains of P_n, sorted: the bytes of
    each antichain's mask (`_antichain_masks`), whose elements come in the
    order of `lex_cells(n)`; sorted as bytes, they come in the order of
    their tuples.  The deadline is polled every POLL_EVERY antichains, as
    they are enumerated, decoded and turned into tuples."""
    masks, size = _antichain_masks(build_poset(n)), n * (n + 1) // 2
    indicators = sorted(mask.to_bytes(size, "little") for mask in polled(masks))
    return tuple(map(tuple, polled(indicators)))
