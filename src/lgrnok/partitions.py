"""Young diagrams in the n x n square and the index-set dictionary.

Partitions are plain tuples of weakly decreasing positive ints (trailing
zeros stripped, so `==` is semantic equality).  An "index set" is the
n-subset of {1,...,2n} labelling the vertical steps of the lattice path
from the upper-right to the lower-left corner of the square; the partition
lies above that path.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import factorial

Partition = tuple[int, ...]
Cell = tuple[int, int]  # (row, column), 1-based


def normalize(parts) -> Partition:
    """Canonical form: weakly decreasing tuple without trailing zeros."""
    out = tuple(int(p) for p in parts if p != 0)
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    if any(p < 0 for p in out):
        raise ValueError(f"negative part in {parts}")
    return out


def fits_in_box(lam: Partition, n: int) -> bool:
    return len(lam) <= n and (not lam or lam[0] <= n)


def check_in_box(lam: Partition, n: int) -> Partition:
    lam = normalize(lam)
    if not fits_in_box(lam, n):
        raise ValueError(f"partition {lam} does not fit in the {n}x{n} square")
    return lam


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "0", "-"):
        return ()
    return normalize(int(p) for p in text.split(","))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def cells(lam: Partition):
    """All (row, column) cells of the diagram, 1-based."""
    for r, width in enumerate(lam, start=1):
        for c in range(1, width + 1):
            yield (r, c)


def size(lam: Partition) -> int:
    return sum(lam)


def indexset_to_partition(indexset, n: int) -> Partition:
    """Partition above the lattice path whose vertical steps carry `indexset`."""
    I = tuple(sorted(indexset))
    if len(I) != n or len(set(I)) != n or I[0] < 1 or I[-1] > 2 * n:
        raise ValueError(f"{indexset} is not an n-subset of [2n] for n={n}")
    horizontals = sorted(set(range(1, 2 * n + 1)) - set(I))
    # row r has one box per horizontal step after the r-th vertical step
    return normalize(sum(1 for h in horizontals if h > I[r]) for r in range(n))


def partition_to_indexset(lam: Partition, n: int) -> tuple[int, ...]:
    """Inverse of indexset_to_partition."""
    lam = check_in_box(lam, n)
    padded = lam + (0,) * (n - len(lam))
    return tuple(n - padded[r] + r + 1 for r in range(n))


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


Hook = tuple[int, int]  # (arm, leg); arm counts the corner box


def hook_partition(arm: int, leg: int) -> Partition:
    """The hook (arm, 1^leg) as a partition."""
    if arm < 1 or leg < 0:
        raise ValueError(f"bad hook ({arm}, {leg})")
    return (arm,) + (1,) * leg


def hook_decomposition(lam: Partition) -> tuple[Hook, ...]:
    """Principal hooks along the main diagonal, outermost first.

    Hook k covers the cells (k, k..lam_k) and (k+1..col_k, k); the nesting
    a_{k+1} < a_k, b_{k+1} < b_k is automatic from the diagram shape.
    """
    lam = normalize(lam)
    t = transpose(lam)
    hooks = []
    k = 1
    while k <= len(lam) and lam[k - 1] >= k:
        hooks.append((lam[k - 1] - k + 1, t[k - 1] - k))
        k += 1
    return tuple(hooks)


def assemble_hooks(hooks) -> Partition:
    """Rebuild the partition whose principal hooks are `hooks`."""
    boxes: set[Cell] = set()
    for k, (arm, leg) in enumerate(hooks, start=1):
        boxes.update((k, c) for c in range(k, k + arm))
        boxes.update((r, k) for r in range(k + 1, k + leg + 1))
    rows: dict[int, int] = {}
    for (r, c) in boxes:
        rows[r] = max(rows.get(r, 0), c)
    if set(rows) != set(range(1, len(rows) + 1)):
        raise ValueError("hooks do not assemble to a partition")
    lam = normalize(rows[r] for r in sorted(rows))
    if set(cells(lam)) != boxes:
        raise ValueError("hooks do not assemble to a partition")
    return lam


def diagonal_balance(lam: Partition) -> tuple[int, int]:
    """(boxes strictly right of the main diagonal, boxes strictly below it)."""
    above = sum(1 for (r, c) in cells(lam) if c > r)
    below = sum(1 for (r, c) in cells(lam) if c < r)
    return above, below


def orbit_representative(lam: Partition) -> Partition:
    """Canonical member of {lam, lam^T}: more boxes right of the diagonal."""
    t = transpose(lam)
    above, below = diagonal_balance(lam)
    if above > below:
        return lam
    if above < below:
        return t
    return max(lam, t)


@cache
def partitions_in_box(n: int) -> tuple[Partition, ...]:
    """All partitions inside the n x n square, ordered by their index sets."""
    out = [indexset_to_partition(I, n) for I in combinations(range(1, 2 * n + 1), n)]
    return tuple(out)


@cache
def transpose_classes(n: int) -> tuple[Partition, ...]:
    """One representative (orbit_representative) per transpose class in n x n,
    in order of first appearance."""
    return tuple(dict.fromkeys(orbit_representative(lam) for lam in partitions_in_box(n)))


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


def catalan(m: int) -> int:
    return factorial(2 * m) // (factorial(m) * factorial(m + 1))
