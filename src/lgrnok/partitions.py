"""Young diagrams in the n x n square and the index-set dictionary.

Partitions are plain tuples of weakly decreasing positive ints (trailing
zeros stripped, so `==` is semantic equality).  An "index set" is the
n-subset of {1,...,2n} labelling the vertical steps of the lattice path
from the upper-right to the lower-left corner of the square; the partition
lies above that path, with lam_r = n + r + 1 - I_r for 0-based rows r.

The transpose classes are enumerated by one walk over the lattice paths,
`transpose_classes`, which the valuation table, Delta's points and the
main theorem all read.  The path gives each index set in O(n) its
diagonal-length vector (`diagonal_lengths`), and the diagonal balance of a
partition (`diagonal_excess`) takes one pass over the rows.  The walk pairs
each vertical step of a path's second half with the horizontal step of its
first half that the step closes; those pairs are the principal hooks of the
complement, and the walk is the one place that reads them off.  The
cell-based helpers `skew_cells` and `maxdiag` are the definitions the
closed form is checked against in the tests; no program code calls them,
and they stay because the benchmark's per-layer metrics count their calls.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate
from math import factorial
from operator import lt

from .budget import Deadline

Partition = tuple[int, ...]
Cell = tuple[int, int]  # (row, column), 1-based


def normalize(parts) -> Partition:
    """Canonical form: weakly decreasing tuple without trailing zeros."""
    out = tuple([int(p) for p in parts if p != 0])
    if any(map(lt, out, out[1:])):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    if out and out[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return out


def fits_in_box(lam: Partition, n: int) -> bool:
    return len(lam) <= n and (not lam or lam[0] <= n)


def check_in_box(lam: Partition, n: int) -> Partition:
    lam = normalize(lam)
    if not fits_in_box(lam, n):
        raise ValueError(f"partition {lam} does not fit in the {n}x{n} square")
    return lam


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def cells(lam: Partition):
    """All (row, column) cells of the diagram, 1-based."""
    for r, width in enumerate(lam, start=1):
        for c in range(1, width + 1):
            yield (r, c)


def size(lam: Partition) -> int:
    return sum(lam)


def _path_partition(I: tuple[int, ...], n: int) -> Partition:
    """lam_r = n + r - I_r over the 1-based rows r, zero rows dropped."""
    return tuple([n + r - i for r, i in enumerate(I, start=1) if i != n + r])


def indexset_to_partition(indexset, n: int) -> Partition:
    """Partition above the lattice path whose vertical steps carry `indexset`."""
    I = tuple(sorted(indexset))
    if len(I) != n or len(set(I)) != n or I[0] < 1 or I[-1] > 2 * n:
        raise ValueError(f"{indexset} is not an n-subset of [2n] for n={n}")
    return _path_partition(I, n)


def partition_to_indexset(lam: Partition, n: int) -> tuple[int, ...]:
    """Inverse of indexset_to_partition."""
    lam = check_in_box(lam, n)
    return tuple([n + r - w for r, w in enumerate(lam + (0,) * (n - len(lam)), start=1)])


def transpose(lam: Partition) -> Partition:
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def complement(lam: Partition, n: int) -> Partition:
    """Complement inside the n x n square: parts n - lam[n+1-i]."""
    lam = check_in_box(lam, n)
    padded = lam + (0,) * (n - len(lam))
    return normalize(n - padded[n - 1 - i] for i in range(n))


def skew_cells(mu: Partition, lam: Partition) -> frozenset[Cell]:
    """Cells of mu not in lam (lam need not be contained in mu)."""
    return frozenset(set(cells(mu)) - set(cells(lam)))


def maxdiag(region) -> int:
    """Longest run of cells (i,j),(i+1,j+1),... all inside the region."""
    region = frozenset(region)
    best = 0
    for (r, c) in region:
        if (r - 1, c - 1) in region:
            continue
        length = 1
        while (r + length, c + length) in region:
            length += 1
        best = max(best, length)
    return best


# -- the lattice path --------------------------------------------------------
#
# Along the path of an index set I, the vertical steps j <= n end the rows
# that reach across the main diagonal (arm n - j to the right of it), and
# the horizontal steps h > n end the columns that reach below it (leg
# h - n - 1 under it).


def diagonal_lengths(indexset: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Cells of the partition on each diagonal c - r = d, for d = 1-n, ...,
    n-1: the vertical steps among the first n - d steps when d >= 0, the
    horizontal steps among the last n + d when d < 0."""
    vertical = [0] * (2 * n + 1)
    for j in indexset:
        vertical[j] = 1
    below = accumulate(1 - vertical[h] for h in range(2 * n, n + 1, -1))
    above = list(accumulate(vertical[1:n + 1]))
    return (*below, *reversed(above))


def diagonal_excess(lam: Partition) -> int:
    """Boxes strictly right of the main diagonal minus boxes strictly below
    it, sum_{d>0} l(d) - sum_{d<0} l(d), row by row: a row r of width
    w >= r has w - r boxes right of the diagonal and r - 1 below it, a
    shorter row has all w below it."""
    return sum(w - 2 * r + 1 if w >= r else -w for r, w in enumerate(lam, start=1))


def hook_partition(arm: int, leg: int) -> Partition:
    """The hook (arm, 1^leg) as a partition."""
    if arm < 1 or leg < 0:
        raise ValueError(f"bad hook ({arm}, {leg})")
    return (arm,) + (1,) * leg


def orbit_representative(lam: Partition) -> Partition:
    """Canonical member of {lam, lam^T}: more boxes right of the diagonal,
    the larger tuple on a tie."""
    t = transpose(lam)
    excess = diagonal_excess(lam)
    return lam if excess > 0 else t if excess < 0 else max(lam, t)


def transpose_indexset(I: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Index set of the transpose: T = {2n+1-h : h not in I}, ascending."""
    steps = set(I)
    return tuple([2 * n + 1 - h for h in range(2 * n, 0, -1) if h not in steps])


def transpose_classes(n: int, deadline: Deadline = Deadline(), base: int = 0,
                      weights: Sequence[int] = (), hooks=None) -> Iterator[list[tuple[int, ...]]]:
    """The one enumerator of the transpose classes: every lattice path of
    the n x n square walked depth first, one record per class at its
    lex-first member I (I <= T = `transpose_indexset` of I), so in order of
    first appearance along the index sets in lexicographic order.

    A record (rep, x, image, clash, decoded) holds, as bitmasks with bit k
    for step k, the representative: I when I's diagonal excess is >= 0,
    else T (the smaller index set carries the larger partition, so a tie
    goes to I, as in `orbit_representative`); x = base - sum_d l(d)
    weights[d + n - 1] over I's diagonal lengths (`diagonal_lengths`); and
    over the principal hooks of I's complement the sum of their columns,
    whether a hook's bit meets the clash masks of those before it
    (nonzero), and the union of their decode masks, taken from
    hooks[j][h] = (bit, clash, column, decode) for the hook (j-n, n-h) that
    the vertical step j > n closes with the horizontal step h <= n.  With
    no weights x is base, and with no hooks the last three are 0.

    Each vertical step j > n closes the latest horizontal step h <= n still
    open.  The complement's path is I's reversed, so its arms are j - n over
    those vertical steps and its legs n - h over those horizontal ones,
    paired outermost first: the pairs are the complement's principal hooks,
    and this pairing is the program's one map from an index set to them.

    A vertical step k <= n lengthens the diagonals 0..n-k, and a horizontal
    step k >= n+2 the diagonals n+1-k..-1; x, the excess, I, T and the hook
    sums move forward one step at a time.  The records come in lists, one
    per first half of a path (the steps 1..n), and the deadline is polled
    once per list.
    """
    last = 2 * n
    weights = weights or (0,) * (2 * n - 1)
    hooks = hooks or [[(0, 0, 0, 0)] * (n + 1)] * (last + 1)
    vertical = [(sum(weights[n - 1:last - k]), n - k) for k in range(n + 1)]
    horizontal = [(sum(weights[last - k:n - 1]), n + 1 - k) for k in range(last + 1)]
    # tail[k]: the horizontal steps k..2n taken together, with T's bits of them
    tail = [(0, 0, 0)] * (last + 2)
    for k in range(last, n, -1):
        cells, below, bits = tail[k + 1]
        tail[k] = (cells + horizontal[k][0], below + horizontal[k][1], bits | 1 << last + 1 - k)

    def first(k, opened, x, excess, I, T):
        if k > n:
            yield opened, x, excess, I, T
            return
        cells, right = vertical[k]
        yield from first(k + 1, opened, x - cells, excess + right, I | 1 << k, T)
        yield from first(k + 1, opened + (k,), x, excess, I, T | 1 << last + 1 - k)

    def second(k, opened, r, x, excess, I, T, image, blocked, clash, decoded):
        if not r:  # every step left is horizontal
            cells, below, bits = tail[k]
            T |= bits
            diff = I ^ T  # I <= T exactly when their lowest differing step is I's
            if not diff & -diff & T:
                batch.append((I if excess + below >= 0 else T, x - cells, image, clash, decoded))
            return
        # a vertical step closes the latest open horizontal step
        bit, mask, column, decode = hooks[k][opened[r - 1]]
        second(k + 1, opened, r - 1, x, excess, I | 1 << k, T, image + column,
               blocked | mask, clash | blocked & bit, decoded | decode)
        if r <= last - k:
            cells, below = horizontal[k]
            second(k + 1, opened, r, x - cells, excess + below, I, T | 1 << last + 1 - k,
                   image, blocked, clash, decoded)

    for opened, x, excess, I, T in first(1, (), base, 0, 0, 0):
        deadline.check()
        batch = []
        second(n + 1, opened, len(opened), x, excess, I, T, 0, 0, 0, 0)
        yield batch


def syt_count(shape: Partition) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    shape = normalize(shape)
    if not shape:
        return 1
    t = transpose(shape)
    count = factorial(size(shape))
    for (r, c) in cells(shape):
        count //= shape[r - 1] - c + t[c - 1] - r + 1
    return count


def staircase_syt_count(n: int) -> int:
    """SYT count of the staircase (n, n-1, ..., 1); the degree of LGr(n,2n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return syt_count(tuple(range(n, 0, -1)))


def symplectic_dimension(k: int, rho: tuple[int, ...]) -> int:
    """dim V(k omega_n) of Sp(2n), by the Weyl dimension formula of type C
    at rho = (n, ..., 1): prod_i (k + rho_i) / rho_i times
    prod_{i<j} (2k + rho_i + rho_j) / (rho_i + rho_j), the factors over
    rho_i - rho_j being 1 at a multiple of omega_n = (1, ..., 1).  One
    numerator and one denominator; raises ArithmeticError unless the
    denominator divides."""
    num = den = 1
    for i, r in enumerate(rho):
        num, den = num * (k + r), den * r
        for s in rho[i + 1:]:
            num, den = num * (2 * k + r + s), den * (r + s)
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"{den} does not divide {num}")
    return dim


def catalan(m: int) -> int:
    return factorial(2 * m) // (factorial(m) * factorial(m + 1))
