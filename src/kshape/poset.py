"""The poset of k-shapes: strings, moves, paths, and diamond equivalence.

Strings are chains of addable corners at diagonal distance k or k+1;
moves stack translated row-type (or column-type) strings with top cells
in consecutive columns (rows).  Moves are the edges of the poset (the
order is their transitive closure; a move may itself factor through a
vertex, and is then diamond-equivalent to its factorization).  Paths
are move sequences and carry a charge (cells of column moves) and a
cocharge (cells of row moves).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import takewhile
from operator import ge
from typing import Iterator

from .errors import IntegrityError
from .partitions import (
    Cell,
    Partition,
    addable_corners,
    boundary_size,
    canonical,
    col_shape,
    conjugate,
    diag,
    format_partition,
    is_p_core,
    k_interior,
    require_k,
    require_size,
    row_shape,
    skew_cells,
)
from .weak_tableaux import standard_shapes

ROW = "row"
COLUMN = "column"
COVER = "cover"
COCOVER = "cocover"


@dataclass(frozen=True, slots=True)
class StringOfCells:
    """A contiguity chain of cells between two shapes, with its type."""

    cells: tuple[Cell, ...]  # top to bottom
    inner: Partition
    outer: Partition
    kind: str

    @property
    def top(self) -> Cell:
        return self.cells[0]

    @property
    def bottom(self) -> Cell:
        return self.cells[-1]


def _weakly_decreasing(profile) -> bool:
    return all(map(ge, profile, profile[1:]))


@lru_cache(maxsize=None)
def is_k_shape(lam: Partition, k: int) -> bool:
    """True iff both k-boundary profiles of lam are partitions."""
    require_k(k, 2)
    return _weakly_decreasing(row_shape(lam, k)) and _weakly_decreasing(col_shape(lam, k))


def _push(cell: Cell, prof: int, heights, k: int) -> int:
    """The column of the cell that adding the addable corner ``cell`` =
    (i, c), with cells only in lower rows, pushes out of the k-boundary of
    row i; 0 when it pushes none out.  ``prof`` is the boundary count of
    row i and ``heights`` lists the column heights h_1, h_2, ...

    The cells of row i left of ``cell`` gain exactly 1 in hook, and hooks
    fall along a row, so only the first boundary cell, in column
    j = c - prof, can reach k + 1: it does iff its hook
    c - j + h_j - i = prof + h_j - i is exactly k.
    """
    i, c = cell
    return c - prof if prof and prof + heights[c - prof - 1] - i == k else 0


def _pushed_column(lam: Partition, cell: Cell, k: int) -> int:
    """``_push`` of an addable corner of lam, read off the memo tables."""
    interior = k_interior(lam, k)
    width = interior[cell[0] - 1] if cell[0] <= len(interior) else 0
    return _push(cell, cell[1] - 1 - width, conjugate(lam), k)


def classify_string(inner: Partition, outer: Partition, k: int) -> StringOfCells | None:
    """Classify outer/inner as a string, or return None if it is not one.

    The cells must form a chain, top to bottom, with consecutive cells in
    strictly lower rows at diagonal distance k or k+1.  No two then share
    a column (they would be adjacent, one diagonal apart), so each is an
    addable corner of inner, and columns grow from the top cell t to the
    bottom cell b.  The kind is read off two boundary pushes.

    An inner cell gains 1 in hook for each chain cell right of it in its
    row or above it in its column; chain cells have hook 1.  For chain
    cells (r, c) above (r', c'), x = (r', c) gains 2 from hook
    diag(r', c') - diag(r, c) - 1: k - 1 or k if the two are consecutive,
    so x leaves the boundary, else at least 2k - 1 > k.  Cells left of or
    below x have hook at least hook(x) + 2 (column c - 1 is taller than
    column c, row r' - 1 longer than row r'), and cells between x and the
    chain gain 1 from a hook below hook(x): all stay put.  So every chain
    row but t's and every chain column but b's trades x for its chain
    cell.  Left of t only the push of ``_pushed_column(inner, t)`` (P_t)
    drops a cell, in column j of the row's first boundary cell, left of
    every chain column; by conjugation, below b only the push of b
    transposed on inner' (P_b), in row i of the column's first boundary
    cell:

        row profile:    [not P_t] e_row(t) - [P_b] e_i
        column profile: [not P_b] e_col(b) - [P_t] e_j

    So (P_t, P_b) is (T, F) for a row string, (F, T) for a column string,
    (F, F) for a cover and (T, T) for a cocover: exactly one type.
    """
    try:
        cs = skew_cells(outer, inner)
    except ValueError:  # inner does not fit inside outer
        return None
    if not cs:
        return None
    ordered = cs[::-1]  # skew_cells lists rows bottom-up
    for a, b in zip(ordered, ordered[1:]):
        if b[0] >= a[0]:
            return None  # two cells share a row
        if abs(diag(a) - diag(b)) not in (k, k + 1):
            return None
    br, bc = ordered[-1]
    p_t = _pushed_column(inner, ordered[0], k) > 0
    p_b = _pushed_column(conjugate(inner), (bc, br), k) > 0
    kind = (COVER, COLUMN, ROW, COCOVER)[2 * p_t + p_b]
    return StringOfCells(cells=ordered, inner=inner, outer=outer, kind=kind)


def next_corner(corners, cell: Cell, k: int, down: bool = True) -> Cell | None:
    """The corner contiguous to ``cell`` below it (or above it), if any.

    Contiguous means at diagonal distance k or k+1.  ``corners`` are the
    addable or the removable corners of one partition; these sit at least
    two diagonals apart, so at most one of them qualifies.  The step is
    hot and does not check k; its callers ``corner_run`` and
    ``cover_status`` do.
    """
    lo = cell[1] - cell[0] + k if down else cell[1] - cell[0] - k - 1
    for c in corners:
        d = c[1] - c[0]
        if d == lo or d == lo + 1:
            return c
    return None


def corner_run(corners, cell: Cell, k: int, down: bool = True) -> tuple[Cell, ...]:
    """The corners reached from ``cell`` by repeated ``next_corner`` steps,
    nearest first, excluding ``cell`` itself.  k is checked first: at
    k = 0 or -1 a step can return its own cell, and the walk never ends."""
    require_k(k, 2)
    run = []
    while (cell := next_corner(corners, cell, k, down)) is not None:
        run.append(cell)
    return tuple(run)


def corner_chains(lam: Partition, k: int) -> Iterator[tuple[Cell, ...]]:
    """All strings over lam, as chains of addable corners, top to bottom."""
    corners = addable_corners(lam)
    for start in corners:
        chain = (start,) + corner_run(corners, start, k)
        for end in range(1, len(chain) + 1):
            yield chain[:end]


def _translate_signature(s: StringOfCells, row_prof, col_prof):
    """Translation-invariant diagram of a row string s, read off the
    boundary profiles of its inner shape (``col_prof`` padded with a 0,
    for a bottom cell in a new column).  Two row strings are translates
    exactly when these agree.

    Relative to the top cell t it records: the added cells; the inner
    cells that leave the boundary (``classify_string``: for consecutive
    cells the one in the lower cell's row and the upper cell's column,
    and the cell (row(t), j) that t pushes out); and, in every touched
    row and column, the boundary cells that stay: its profile entry less
    the cells that leave, one in every row, in column j and in every
    chain column but the bottom cell's.
    """
    cells, (tr, tc), bc = s.cells, s.top, s.bottom[1]
    j = tc - row_prof[tr - 1]
    circles = [(r - tr, c - tc) for (_, c), (r, _) in zip(cells, cells[1:])]
    return (
        tuple((r - tr, c - tc) for r, c in reversed(cells)),
        tuple(sorted(circles + [(0, j - tc)])),
        tuple((r - tr, row_prof[r - 1] - 1) for r, _ in reversed(cells)),
        tuple((c - tc, col_prof[c - 1] - (c != bc)) for c in (j, *(c for _, c in cells))),
    )


@dataclass(frozen=True, slots=True)
class Move:
    """A rank-r stack of translated strings joining two k-shapes.

    A move is determined by its orientation, source and added cells;
    the other fields follow from these and take no part in equality.
    """

    orientation: str  # ROW or COLUMN
    source: Partition
    cells: frozenset[Cell]
    rank: int = field(compare=False)
    length: int = field(compare=False)
    strings: tuple[StringOfCells, ...] = field(compare=False)
    target: Partition = field(compare=False)

    def sort_key(self):
        s1 = self.strings[0]
        return (0 if self.orientation == ROW else 1, s1.top, self.rank, self.length)


def move_charge(m: Move) -> int:
    """Zero for row moves, rank*length (the cell count) for column moves."""
    return 0 if m.orientation == ROW else m.rank * m.length


def move_cocharge(m: Move) -> int:
    return 0 if m.orientation == COLUMN else m.rank * m.length


def _conjugate_cells(cs) -> tuple[Cell, ...]:
    return tuple(canonical((j, i)) for i, j in cs)


def _conjugate_string(s: StringOfCells) -> StringOfCells:
    flipped = {ROW: COLUMN, COLUMN: ROW, COVER: COVER, COCOVER: COCOVER}[s.kind]
    return StringOfCells(
        cells=tuple(sorted(_conjugate_cells(s.cells), key=lambda c: -c[0])),
        inner=conjugate(s.inner),
        outer=conjugate(s.outer),
        kind=flipped,
    )


def _conjugate_move(m: Move) -> Move:
    return Move(
        orientation=COLUMN if m.orientation == ROW else ROW,
        source=conjugate(m.source),
        cells=canonical(frozenset(_conjugate_cells(m.cells))),
        rank=m.rank,
        length=m.length,
        strings=tuple(_conjugate_string(s) for s in m.strings),
        target=conjugate(m.target),
    )


def _grow_row_move(
    lam: Partition, s1_cells: tuple[Cell, ...], k: int, max_rank: int | None = None
) -> Iterator[Move]:
    """Extend the corner chain s1_cells of the k-shape lam (top first, as
    from ``corner_chains``) to moves of ranks 1..max_rank and yield the
    valid ones (the default cap k-1 is the proven bound on ranks).

    The i-th string is forced: its top cell is the unique addable corner
    of the intermediate shape in the next column over, and the chain from
    it must be a row string and a translate of the first.  A row string
    keeps the row profile and moves one column count, from the column j
    its top cell pushes out to its bottom cell's column
    (``classify_string``).  So every intermediate shape has lam's row
    profile, and the grower carries only its column heights and column
    profile: the two pushes (``_push``), the translate test
    (``_translate_signature``) and the k-shape test, that the column
    profile be weakly decreasing, all read these.  Intermediate shapes
    need not be k-shapes; a move is emitted whenever the final shape is
    one.
    """
    ell = len(s1_cells)
    # each padded with one 0, so that a corner in a new row or column finds its entries
    row_prof = (*row_shape(lam, k), 0)
    heights, col_prof = [*conjugate(lam), 0], [*col_shape(lam, k), 0]
    inner, chain, strings, sig = lam, s1_cells, [], None
    for r in range(1, (k - 1 if max_rank is None else max_rank) + 1):
        if r > 1:
            corners = addable_corners(inner)
            tops = [c for c in corners if c[1] == strings[-1].top[1] + 1]
            if not tops:
                return
            chain = (tops[0],) + corner_run(corners, tops[0], k)[: ell - 1]
            if len(chain) < ell:
                return
        br, bc = chain[-1]
        j = _push(chain[0], row_prof[chain[0][0] - 1], heights, k)
        if not j or _push((bc, br), col_prof[bc - 1], inner, k):
            return  # not a row string (``classify_string``)
        outer = list(inner)
        for i, c in chain:  # no row string adds a row
            outer[i - 1] = c
        s = StringOfCells(cells=chain, inner=inner, outer=canonical(tuple(outer)), kind=ROW)
        if r > 1:
            if sig is None:  # computed once a second string is tried
                sig = _translate_signature(strings[0], row_prof, [*col_shape(lam, k), 0])
            if _translate_signature(s, row_prof, col_prof) != sig:
                return
        strings.append(s)
        inner = s.outer
        col_prof[j - 1] -= 1
        col_prof[bc - 1] += 1
        for _, c in chain:
            heights[c - 1] += 1
        if heights[-1]:
            heights.append(0)
            col_prof.append(0)
        if _weakly_decreasing(col_prof):
            yield Move(
                orientation=ROW,
                source=lam,
                cells=canonical(frozenset(c for x in strings for c in x.cells)),
                rank=r,
                length=ell,
                strings=tuple(strings),
                target=inner,
            )


@lru_cache(maxsize=None)
def enumerate_row_moves(lam: Partition, k: int) -> tuple[Move, ...]:
    """All row moves with source lam, duplicate-free: the corner chains
    are grown by ``_grow_row_move``, which turns away all but the row
    strings before it builds a shape."""
    if not is_k_shape(lam, k):
        raise ValueError(f"{lam} is not a {k}-shape")
    corners = addable_corners(lam)
    seen: dict[frozenset[Cell], Move] = {}
    for start in corners:
        if not _pushed_column(lam, start, k):
            continue  # no chain from start is a row string (``classify_string``)
        chain = (start,) + corner_run(corners, start, k)
        for end in range(1, len(chain) + 1):
            for m in _grow_row_move(lam, chain[:end], k):
                seen.setdefault(m.cells, m)
    return tuple(sorted(seen.values(), key=Move.sort_key))


@lru_cache(maxsize=None)
def enumerate_moves(lam: Partition, k: int) -> tuple[Move, ...]:
    """All row and column moves with source lam, duplicate-free."""
    rows = enumerate_row_moves(lam, k)
    cols = tuple(
        _conjugate_move(m) for m in enumerate_row_moves(conjugate(lam), k)
    )
    return tuple(sorted(rows + cols, key=Move.sort_key))


@lru_cache(maxsize=None)
def _parse_move(source: Partition, cells: frozenset[Cell], orientation: str, k: int) -> Move:
    """Reconstruct a move from its cell set, validating every condition.

    A column move is the conjugate of the row move over the conjugate
    shape, which the same table holds, so a shape and its conjugate
    share one parse.
    """
    if orientation != ROW:
        cs = canonical(frozenset(_conjugate_cells(cells)))
        return _conjugate_move(_parse_move(conjugate(source), cs, ROW, k))
    n = len(cells)
    # a move leaves a k-shape, and its leftmost cell, the top of its first
    # string, is an addable corner
    start = min(cells, key=lambda c: (c[1], c[0]))
    corners = addable_corners(source) if is_k_shape(source, k) else ()
    run = (start,) + corner_run(corners, start, k) if start in corners else ()
    chain = tuple(takewhile(cells.__contains__, run))
    # the first string is the prefix of length ell, for ell dividing n,
    # and a match has rank n // ell, which is below k
    for ell in range(min(n, len(chain)), 0, -1):
        if n % ell or n // ell > k - 1:
            continue
        for m in _grow_row_move(source, chain[:ell], k, n // ell):
            if m.cells == cells:
                return m
    raise IntegrityError(f"cells {sorted(cells)} do not form a row move over {source}")


def move_from_cells(source: Partition, cells, orientation: str, k: int) -> Move:
    if orientation not in (ROW, COLUMN):
        raise ValueError(f"orientation must be {ROW!r} or {COLUMN!r}: {orientation!r}")
    cells = canonical(frozenset(cells))
    if not cells:
        raise ValueError("a move adds at least one cell; got no cells")
    return _parse_move(source, cells, orientation, k)


@dataclass(frozen=True, slots=True)
class Path:
    """A composable sequence of moves in the poset of k-shapes."""

    start: Partition
    moves: tuple[Move, ...] = ()

    def __post_init__(self):
        cur = self.start
        for m in self.moves:
            if m.source != cur:
                raise ValueError(f"move from {m.source} does not compose at {cur}")
            cur = m.target

    def charge(self) -> int:
        return sum(map(move_charge, self.moves))

    def cocharge(self) -> int:
        return sum(map(move_cocharge, self.moves))

    def sort_key(self):
        return tuple(m.sort_key() + (m.target,) for m in self.moves)

    def text(self) -> str:
        head = format_partition(self.start)
        parts = [head]
        for m in self.moves:
            o = "r" if m.orientation == ROW else "c"
            r, c = m.strings[0].top
            parts.append(f"{o}:{m.rank}:{m.length}@({r},{c})")
        return "; ".join(parts)


@lru_cache(maxsize=None)
def kshapes_of_size(k: int, size: int) -> tuple[Partition, ...]:
    """All k-shapes with k-boundary of the given size.

    The maximal elements of the poset of k-shapes are exactly the
    (k+1)-cores (Lam-Lapointe-Morse-Shimozono, *The poset of k-shapes and
    branching rules for k-Schur functions*), so every k-shape of this
    size is reached by moves from a (k+1)-core of the same boundary size.
    The vertex set is built as that closure, at a cost that tracks the
    vertices and edges returned.
    """
    require_k(k, 2)
    require_size(size, "size")
    found = set(standard_shapes(k, size))
    frontier = list(found)
    while frontier:
        for m in enumerate_moves(frontier.pop(), k):
            if m.target in found:
                continue
            if boundary_size(m.target, k) != size:
                raise IntegrityError(
                    f"move {m.source} -> {m.target} changed the {k}-boundary size"
                )
            found.add(m.target)
            frontier.append(m.target)
    return tuple(sorted(found))


def poset_dot(k: int, size: int) -> str:
    """The poset of k-shapes of one boundary size in Graphviz DOT: the
    vertices ``kshapes_of_size``, and each vertex's ``enumerate_moves`` as
    edges labelled with orientation, rank and length."""
    vertices = kshapes_of_size(k, size)
    lines = ["digraph kshapes {"]
    for v in vertices:
        lines.append(f'  "{format_partition(v)}";')
    for v in vertices:
        for m in enumerate_moves(v, k):
            o = "r" if m.orientation == ROW else "c"
            lines.append(
                f'  "{format_partition(v)}" -> "{format_partition(m.target)}"'
                f' [label="{o} ({m.rank},{m.length})"];'
            )
    lines.append("}")
    return "\n".join(lines)


def _suffixes_by_end(lam: Partition, k: int) -> dict[Partition, list[tuple[Move, ...]]]:
    """Every move sequence from lam, grouped by its end: one walk, memoized
    per vertex in a dict of its own, taking each vertex's moves in
    ``enumerate_moves`` order."""
    memo: dict[Partition, dict[Partition, list[tuple[Move, ...]]]] = {}

    def suffixes(nu: Partition) -> dict[Partition, list[tuple[Move, ...]]]:
        if nu in memo:
            return memo[nu]
        out = memo[nu] = {nu: [()]}
        for m in enumerate_moves(nu, k):
            for end, rests in suffixes(m.target).items():
                out.setdefault(end, []).extend((m,) + r for r in rests)
        return out

    return suffixes(lam)


def enumerate_paths(lam: Partition, mu: Partition, k: int) -> tuple[Path, ...]:
    """All move sequences from lam to mu; the empty path iff lam == mu."""
    for shape in (lam, mu):
        if not is_k_shape(shape, k):
            raise ValueError(f"{shape} is not a {k}-shape")
    if boundary_size(lam, k) != boundary_size(mu, k):
        raise ValueError(f"boundary sizes differ: {lam} vs {mu} at k={k}")
    return tuple(Path(start=lam, moves=ms) for ms in _suffixes_by_end(lam, k).get(mu, ()))


def _diamond_groups(seqs: list[tuple[Move, ...]]) -> tuple[tuple[tuple[Move, ...], ...], ...]:
    """Group distinct move sequences with common endpoints under the
    closure of single diamond rewrites (``equivalence_classes``), in the
    order of their first members."""
    if len(seqs) == 1:
        return ((seqs[0],),)
    parent = list(range(len(seqs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    first: dict[tuple, int] = {}
    for i, ms in enumerate(seqs):
        for j in range(len(ms)):
            for w in (1, 2):
                if j + w <= len(ms):
                    key = (ms[:j], ms[j + w :], sum(map(move_charge, ms[j : j + w])))
                    parent[find(i)] = find(first.setdefault(key, i))
    groups: dict[int, list[tuple[Move, ...]]] = {}
    for i, ms in enumerate(seqs):
        groups.setdefault(find(i), []).append(ms)
    return tuple(map(tuple, groups.values()))


def equivalence_classes(lam: Partition, mu: Partition, k: int) -> tuple[tuple[Path, ...], ...]:
    """The paths from lam to mu, as ``enumerate_paths`` lists them, under
    the closure of single diamond rewrites.  A rewrite replaces a window
    of one or two moves by another window with the same endpoints and the
    same charge, so two paths are one rewrite apart exactly when they
    agree before and after a window and have the same charge inside it:
    each path files itself under (prefix, suffix, window charge) for
    every window, and paths that share a key are joined
    (``_diamond_groups``).  Classes and their members keep the order of
    ``enumerate_paths``."""
    by_moves = {p.moves: p for p in enumerate_paths(lam, mu, k)}
    return tuple(tuple(map(by_moves.__getitem__, g)) for g in _diamond_groups(list(by_moves)))


def path_class_groups(
    lam: Partition, k: int
) -> dict[Partition, tuple[tuple[tuple[Move, ...], ...], ...]]:
    """The diamond classes of the paths from lam to each k-core it
    reaches, as tuples of move sequences in the order of their first
    members; these ends are the shapes of standard (k-1)-tableaux.  A
    rewrite keeps the window charge, so every member of a class has the
    charge of its first."""
    return {
        mu: _diamond_groups(seqs)
        for mu, seqs in _suffixes_by_end(lam, k).items()
        if is_p_core(mu, k)
    }
