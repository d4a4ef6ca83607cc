"""Young diagrams in the n x n square and the index-set dictionary.

Partitions are plain tuples of weakly decreasing positive ints (trailing
zeros stripped, so `==` is semantic equality).  An "index set" is the
n-subset of {1,...,2n} labelling the vertical steps of the lattice path
from the upper-right to the lower-left corner of the square; the partition
lies above that path, with lam_r = n + r + 1 - I_r for 0-based rows r.
The unchecked maps `_path_partition` and `_partition_path` take one side
to the other; the public `indexset_to_partition` and
`partition_to_indexset` validate their input first.  The round trip check
(`verify.roundtrip`) calls the two unchecked maps on both sides of the
dictionary listed in lockstep: the k-th index set in lexicographic order
goes with the k-th partition in the order in which
`combinations_with_replacement` lists the weakly decreasing n-tuples over
n, ..., 0, because I_r - r (1-based r) runs over the weakly increasing
n-tuples over 0..n in that same order, and lam_r = n - (I_r - r).

The transpose classes are enumerated by one walk over the lattice paths,
`transpose_classes`, which the valuation table, Delta's points and the
main theorem all read.  It walks each class once: the second half of a
path runs from its last step inward, so that I <= T is decided at the
outermost pair of steps that tells I from its transpose T, and the paths
of the lex-later members are cut there.  The path gives each index set in
O(n) its diagonal-length vector (`diagonal_lengths`), and the diagonal
balance of a partition (`diagonal_excess`) takes one pass over the rows.
The walk pairs each vertical step of a path's second half with the
horizontal step of its first half that the step closes; those pairs are
the principal hooks of the complement, and the walk is the one place that
reads them off.  The
cell-based helpers `skew_cells` and `maxdiag` are the definitions the
closed form is checked against in the tests; no program code calls them,
and they stay because the benchmark's per-layer metrics count their calls.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate
from math import factorial
from operator import index, lt, sub

from .budget import armed

Partition = tuple[int, ...]
Cell = tuple[int, int]  # (row, column), 1-based


def normalize(parts) -> Partition:
    """Canonical form: weakly decreasing tuple without trailing zeros.
    Raises TypeError on a part that is not an int, and ValueError unless
    the parts decrease weakly to zero: a zero followed by a positive part
    is not a partition."""
    out = tuple(map(index, parts))
    if any(map(lt, out, out[1:])):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    if out and out[-1] <= 0:
        if out[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        out = out[:out.index(0)]
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
    return tuple(filter(None, map(sub, range(n + 1, 2 * n + 1), I)))


def indexset_to_partition(indexset, n: int) -> Partition:
    """Partition above the lattice path whose vertical steps carry `indexset`."""
    I = tuple(sorted(indexset))
    if len(I) != n or len(set(I)) != n or I[0] < 1 or I[-1] > 2 * n:
        raise ValueError(f"{indexset} is not an n-subset of [2n] for n={n}")
    return _path_partition(I, n)


def _partition_path(lam: Partition, n: int) -> tuple[int, ...]:
    """I_r = n + r - lam_r over the 1-based rows r, lam padded with zero
    rows to n; unchecked, so lam must be a partition in the box."""
    return tuple(map(sub, range(n + 1, 2 * n + 1), lam + (0,) * (n - len(lam))))


def partition_to_indexset(lam: Partition, n: int) -> tuple[int, ...]:
    """Inverse of indexset_to_partition."""
    return _partition_path(check_in_box(lam, n), n)


def transpose(lam: Partition) -> Partition:
    """Column heights, left to right: the rows of width >= c, counted by
    walking up from the last row as c grows."""
    lam = normalize(lam)
    heights, rows = [], len(lam)
    for c in range(1, lam[0] + 1 if lam else 1):
        while lam[rows - 1] < c:
            rows -= 1
        heights.append(rows)
    return tuple(heights)


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


def transpose_classes(n: int, base: int = 0, weights: Sequence[int] = (),
                      hooks=None) -> Iterator[list[tuple[int, ...]]]:
    """The one enumerator of the transpose classes: the lattice paths of
    the n x n square walked depth first, one record per class at its
    lex-first member I (I <= T = `transpose_indexset` of I).  No record of
    a lex-later member is built: the walk cuts that half of the paths.

    A record (rep, x, image, clash, decoded, T) holds, as bitmasks with bit
    k for step k, the representative: I when I's diagonal excess is >= 0,
    else T (the smaller index set carries the larger partition, so a tie
    goes to I, as in `orbit_representative`); x = base - sum_d l(d)
    weights[d + n - 1] over I's diagonal lengths (`diagonal_lengths`); over
    the principal hooks of I's complement the sum of their columns, whether
    a hook's bit meets the clash mask of a hook met before it (nonzero),
    and the union of their decode masks, taken from hooks[j][h] = (bit,
    clash, column, decode) for the hook (j-n, n-h) that the vertical step
    j > n closes with the horizontal step h <= n; and T.  With no weights x
    is base, and with no hooks the middle three are 0.  Which bits of clash
    are set depends on the order in which the hooks are met; whether any is
    set does not, as long as the clash masks are symmetric, which those of
    `superpotential._clash_masks` are.

    The first half of a path (the steps 1..n) is walked forward, the second
    half backward, from step 2n down to step n+1, so that the pairs of
    steps (m, 2n+1-m) that decide I <= T come outermost first.  I and T
    differ first at the least m whose pair is two steps of one kind: two
    vertical steps put m in I only (I < T), two horizontal ones in T only
    (I > T), and a path with no such pair is its own transpose (I = T).  So
    a subtree is cut at its first pair of horizontal steps, and after its
    first pair of vertical steps it is walked without further test.

    The complement's path is I's reversed, so its arms are j - n over the
    vertical steps j > n and its legs n - h over the horizontal steps
    h <= n, paired outermost first: the v-th vertical step met from the end
    closes the v-th horizontal step of the first half.  Those pairs are the
    complement's principal hooks, and this pairing is the program's one map
    from an index set to them.

    A vertical step k <= n lengthens the diagonals 0..n-k, and a horizontal
    step k >= n+2 the diagonals n+1-k..-1; x, the excess, I, T and the hook
    sums move one step at a time.  The records come in lists, one per first
    half of a path, unordered within a list: there, ascending T is the
    lexicographic order of I.  The deadline is polled once per list.
    """
    last = 2 * n
    weights = weights or (0,) * (2 * n - 1)
    hooks = hooks or [[(0, 0, 0, 0)] * (n + 1)] * (last + 1)
    vertical = [(sum(weights[n - 1:last - k]), n - k) for k in range(n + 1)]
    horizontal = [(sum(weights[last - k:n - 1]), n + 1 - k) for k in range(last + 1)]
    # head[k]: the horizontal steps n+1..k taken together, with T's bits of them
    head = [(0, 0, 0)] * (last + 1)
    for k in range(n + 1, last + 1):
        cells, below, bits = head[k - 1]
        head[k] = (cells + horizontal[k][0], below + horizontal[k][1], bits | 1 << last + 1 - k)

    def first(k, opened, x, excess, I, T):
        if k > n:
            yield opened, x, excess, I, T
            return
        cells, right = vertical[k]
        yield from first(k + 1, opened, x - cells, excess + right, I | 1 << k, T)
        yield from first(k + 1, opened + (k,), x, excess, I, T | 1 << last + 1 - k)

    def second(k, opened, r, x, excess, I, T, image, blocked, clash, decoded):
        # the steps k down to n+1, r of them vertical, of a path with I < T
        # or, when r is 0 on the tied walk, I = T
        if not r:  # every step left is horizontal
            cells, below, bits = head[k]
            T |= bits
            batch.append((I if excess + below >= 0 else T, x - cells, image, clash, decoded, T))
            return
        # a vertical step closes the outermost open horizontal step
        bit, mask, column, decode = hooks[k][opened[-r]]
        second(k - 1, opened, r - 1, x, excess, I | 1 << k, T, image + column,
               blocked | mask, clash | blocked & bit, decoded | decode)
        if r < k - n:
            cells, below = horizontal[k]
            second(k - 1, opened, r, x - cells, excess + below, I, T | 1 << last + 1 - k,
                   image, blocked, clash, decoded)

    def tied(k, opened, r, x, excess, I, T, image, blocked, clash, decoded):
        # as second, on a path where I and T agree so far: each pair of
        # steps (2n+1-j, j) with j > k is one vertical and one horizontal step
        if not r:  # every partner left is vertical: I = T
            return second(k, opened, r, x, excess, I, T, image, blocked, clash, decoded)
        partner = I >> last + 1 - k & 1  # step 2n+1-k is vertical
        bit, mask, column, decode = hooks[k][opened[-r]]
        # a vertical step k: I < T from here on when its partner is vertical too
        (second if partner else tied)(k - 1, opened, r - 1, x, excess, I | 1 << k, T,
                                      image + column, blocked | mask, clash | blocked & bit,
                                      decoded | decode)
        if partner:  # a horizontal step k; with a horizontal partner I > T
            cells, below = horizontal[k]
            tied(k - 1, opened, r, x - cells, excess + below, I, T | 1 << last + 1 - k,
                 image, blocked, clash, decoded)

    for opened, x, excess, I, T in first(1, (), base, 0, 0, 0):
        armed().check()
        batch = []
        tied(last, opened, len(opened), x, excess, I, T, 0, 0, 0, 0)
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
