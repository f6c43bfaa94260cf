"""Integer partitions, cells, hooks, cores, and k-boundary profiles.

A partition is a trimmed tuple of weakly decreasing positive integers.
Cells are (row, col) pairs, 1-based, in French convention: row 1 is the
bottom row and rows grow upward, so "above" means larger row index.
"""
from __future__ import annotations

from functools import lru_cache
from operator import le, lt
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Cell = tuple[int, int]

# The canonical table: one object per shape, profile, cell and cell set
# that enters a memo table.  Unbounded, like the lru tables.  Never
# cleared: the lru tables would keep the old objects, and a second copy
# of each value would come in beside them.
_CANONICAL: dict = {}


def _storable(value) -> bool:
    """An integer tuple, or a frozenset of integer tuples.  A bool equals
    1 and hashes like it, so a tuple holding one would stand in for the
    integer tuple from then on."""
    if type(value) is frozenset:
        return all(type(c) is tuple and _storable(c) for c in value)
    if type(value) is not tuple:
        return False
    for x in value:
        if type(x) is not int:
            return False
    return True


def canonical(value):
    """The stored value equal to ``value``: an integer tuple (a shape, a
    profile or a cell) or a frozenset of cells, stored on first sight
    with its cells made canonical.  Any other value is handed back
    unstored."""
    stored = _CANONICAL.get(value)
    if stored is not None:
        return stored
    if not _storable(value):
        return value
    if type(value) is frozenset:
        value = frozenset(map(canonical, value))
    _CANONICAL[value] = value
    return value


def _require_partition(p: tuple[int, ...]) -> None:
    """Raise ValueError unless p is weakly decreasing with positive parts:
    one pass when it is, since a weakly decreasing p is positive iff its
    last part is."""
    rises = any(map(lt, p, p[1:]))
    if p and (min(p) if rises else p[-1]) <= 0:
        raise ValueError(f"partition parts must be positive: {p!r}")
    if rises:
        raise ValueError(f"parts must be weakly decreasing: {p!r}")


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize a weakly decreasing sequence into a partition tuple,
    the one ``canonical`` object of its value."""
    p = tuple(map(int, parts))
    while p and p[-1] == 0:
        p = p[:-1]
    _require_partition(p)
    return canonical(p)


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form; '' and '-' mean the empty partition."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    return partition(int(t) for t in text.split(","))


def format_partition(lam: Partition) -> str:
    return ",".join(str(x) for x in lam) if lam else "-"


@lru_cache(maxsize=None)
def conjugate(lam: Partition) -> Partition:
    _require_partition(lam)
    if not lam:
        return ()
    out = [0] * lam[0]
    for part in lam:
        for j in range(part):
            out[j] += 1
    return canonical(tuple(out))


def contains(outer: Partition, inner: Partition) -> bool:
    """True iff inner fits inside outer componentwise."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


@lru_cache(maxsize=None)
def _row_cells(i: int, width: int) -> tuple[Cell, ...]:
    """Cells (i, 1) .. (i, width), each the canonical one, which every
    string held by the cover and move memo tables shares."""
    return tuple(canonical((i, j)) for j in range(1, width + 1))


def skew_cells(outer: Partition, inner: Partition) -> tuple[Cell, ...]:
    """Cells of outer/inner, rows bottom-up; raises ValueError unless inner
    fits inside outer."""
    if not contains(outer, inner):
        raise ValueError(f"{inner} is not contained in {outer}")
    out = []
    for i, part in enumerate(outer, start=1):
        lo = inner[i - 1] if i <= len(inner) else 0
        if lo < part:  # rows that inner fills add nothing
            out += _row_cells(i, part)[lo:]
    return tuple(out)


def diag(cell: Cell) -> int:
    """Diagonal index col - row (negative below the main diagonal)."""
    return cell[1] - cell[0]


@lru_cache(maxsize=None)
def is_p_core(lam: Partition, p: int) -> bool:
    """True iff no cell of lam has hook length exactly p.

    On the abacus with beads b_i = lam_i + len(lam) - i, the hooks of
    lam are the pairs of a bead b and a free position c < b, of length
    b - c; so lam has a p-hook iff some bead b >= p has b - p free.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2: {p}")
    _require_partition(lam)
    n = len(lam)
    beads = {part + n - i for i, part in enumerate(lam, start=1)}
    return all(b < p or b - p in beads for b in beads)


@lru_cache(maxsize=None)
def k_interior(lam: Partition, k: int) -> Partition:
    """Subpartition of cells with hook length larger than k."""
    if k < 1:
        raise ValueError(f"k must be at least 1: {k}")
    # Hooks strictly decrease left to right along a row and bottom to top
    # up a column, so the interior is a staircase: each row's width is at
    # most the width of the row below, and one walk down the widths finds
    # every row.
    conj = conjugate(lam)
    rows = []
    j = lam[0] if lam else 0
    for i, part in enumerate(lam, start=1):
        j = min(j, part)
        while j and part - j + conj[j - 1] - i + 1 <= k:
            j -= 1
        if not j:
            break
        rows.append(j)
    return canonical(tuple(rows))


@lru_cache(maxsize=None)
def row_shape(lam: Partition, k: int) -> tuple[int, ...]:
    """Cells of the k-boundary per row, bottom-up; not always a partition."""
    interior = k_interior(lam, k)
    return canonical(tuple(
        lam[i] - (interior[i] if i < len(interior) else 0) for i in range(len(lam))
    ))


def col_shape(lam: Partition, k: int) -> tuple[int, ...]:
    """Cells of the k-boundary per column, left to right."""
    return row_shape(conjugate(lam), k)


def boundary_size(lam: Partition, k: int) -> int:
    return sum(lam) - sum(k_interior(lam, k))


def residue(cell: Cell, k: int) -> int:
    """(col - row) mod (k+1), normalized to 0..k."""
    if k < 1:
        raise ValueError(f"k must be at least 1: {k}")
    return (cell[1] - cell[0]) % (k + 1)


def diag_count(b1: Cell, b2: Cell, e: int, k: int) -> int:
    """Number of diagonals of residue e strictly between cells b1 and b2.

    b2 must be weakly below b1; the count ranges over diagonal indices
    strictly between diag(b1) and diag(b2), exclusive at both ends.
    """
    if not 0 <= e <= k:
        raise ValueError(f"residue {e} out of range 0..{k}")
    if b2[0] > b1[0]:
        raise ValueError(f"{b2} is above {b1}")
    lo, hi = sorted((diag(b1), diag(b2)))
    m = k + 1
    # count d with lo < d < hi and d == e (mod m)
    return (hi - 1 - e) // m - (lo - e) // m if hi - lo > 1 else 0


@lru_cache(maxsize=None)
def addable_corners(lam: Partition) -> tuple[Cell, ...]:
    """Cells whose addition keeps a partition, sorted bottom-up."""
    _require_partition(lam)
    out = []
    for i in range(1, len(lam) + 2):
        j = lam[i - 1] + 1 if i <= len(lam) else 1
        if i == 1 or j <= lam[i - 2]:
            out.append(canonical((i, j)))
    return tuple(out)


@lru_cache(maxsize=None)
def removable_corners(lam: Partition) -> tuple[Cell, ...]:
    """Cells whose removal keeps a partition, sorted bottom-up."""
    _require_partition(lam)
    out = []
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] < lam[i - 1]:
            out.append(canonical((i, lam[i - 1])))
    return tuple(out)


def add_cells(lam: Partition, new: Iterable[Cell]) -> Partition:
    """Add a set of cells to lam; the result must be a partition shape."""
    rows = list(lam)
    for i, j in sorted(new):
        while len(rows) < i:
            rows.append(0)
        if j != rows[i - 1] + 1:
            raise ValueError(f"cell ({i},{j}) does not extend row of length {rows[i - 1]}")
        rows[i - 1] = j
    return partition(rows)


def union_shape(a: Partition, b: Partition) -> Partition:
    """Componentwise max; its cells are exactly those of a and of b."""
    n = max(len(a), len(b))
    return partition(
        max(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)
    )


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest

