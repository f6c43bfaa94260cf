"""Weak (k-)tableaux: chains of (k+1)-cores, charge, cocharge, and the
symmetric-group action that sorts weights.

A weak tableau of weight (a_1,...,a_N) is a chain of (k+1)-cores whose
row profile grows by horizontal strips and column profile by vertical
strips, the i-th of size a_i.  Standard means every step adds a strip
that is both horizontal and vertical and grows the boundary by one.

Steps are generated by the affine symmetric group acting on (k+1)-cores
(Lam, *Affine Stanley symmetric functions*, 2006; Lam-Lapointe-Morse-
Shimozono, *Affine insertion and Pieri rules for the affine
Grassmannian*).  The cell (i, j) has residue (j - i) mod (k+1), and s_r
adds every addable cell of residue r; on a core it never has both
addable and removable cells of one residue.  A standard step is one s_r
that adds cells, so a core has one standard successor per residue among
its addable corners, and one predecessor per residue among its
removable corners.  A weak strip of size m is s_A for a set A of m
residues, A not all of them, applied once each in cyclically
decreasing word order: first the residue just above one left out of A,
then upward cyclically, each step adding cells.  Residue blocks split
by a left-out residue commute, so any left-out residue may start; the
code starts above the largest.  The empty set is the strip of size 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import IntegrityError
from .partitions import (
    Cell,
    Partition,
    addable_corners,
    boundary_size,
    canonical,
    contains,
    diag_count,
    is_p_core,
    partition,
    removable_corners,
    require_k,
    require_size,
    residue,
    row_shape,
    skew_cells,
    conjugate,
)
from .tpoly import TPoly


def _is_horizontal_strip(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """big/small has at most one cell per column: the padded profiles
    interlace, big_i >= small_i >= big_{i+1}."""
    n = max(len(big), len(small))
    b, s = (*big, *[0] * (n + 1 - len(big))), (*small, *[0] * (n - len(small)))
    return all(b[i] >= s[i] >= b[i + 1] for i in range(n))


@lru_cache(maxsize=None)
def is_weak_strip(inner: Partition, outer: Partition, k: int) -> bool:
    """True iff outer/inner is a valid single-letter step between cores."""
    require_k(k, 1)
    if not contains(outer, inner):
        return False
    if not is_p_core(outer, k + 1):
        return False
    rs_o, rs_i = row_shape(outer, k), row_shape(inner, k)
    if not _is_horizontal_strip(rs_o, rs_i):
        return False
    cs_o = row_shape(conjugate(outer), k)
    cs_i = row_shape(conjugate(inner), k)
    return all(0 <= x - y <= 1 for x, y in zip_longest(cs_o, cs_i, fillvalue=0))


@dataclass(frozen=True)
class ChainTableau:
    """A tableau as a chain of partitions from the empty one: letter n
    fills the cells of chain[n] / chain[n-1]."""

    k: int
    chain: tuple[Partition, ...]  # starts at the empty partition

    @property
    def shape(self) -> Partition:
        return self.chain[-1]

    @property
    def letters(self) -> int:
        return len(self.chain) - 1

    def cells_of_letter(self, n: int) -> tuple[Cell, ...]:
        return skew_cells(self.chain[n], self.chain[n - 1])

    def filling(self) -> tuple[tuple[int, ...], ...]:
        """Letter grid, rows bottom to top."""
        shape = self.shape
        grid = [[0] * shape[i] for i in range(len(shape))]
        for n in range(1, self.letters + 1):
            for (i, j) in self.cells_of_letter(n):
                grid[i - 1][j - 1] = n
        return tuple(tuple(r) for r in grid)

    def text(self) -> str:
        return " / ".join(" ".join(str(x) for x in row) for row in self.filling())


@dataclass(frozen=True)
class WeakTableau(ChainTableau):
    """A chain of (k+1)-cores grown by weak strips; weight[n-1] is the
    boundary growth of letter n."""

    weight: tuple[int, ...]

    def is_standard(self) -> bool:
        """One letter per step of the chain, each of weight 1."""
        return self.weight == (1,) * self.letters


def _chain_weight(k: int, chain: tuple[Partition, ...]) -> tuple[int, ...]:
    """The weight of a chain of (k+1)-cores grown by weak strips from the
    empty partition; ValueError for any other chain."""
    require_k(k, 1)
    if not chain or chain[0] != ():
        raise ValueError("chain must start at the empty partition")
    for inner, outer in zip(chain, chain[1:]):
        if not is_weak_strip(inner, outer, k):
            raise ValueError(f"invalid weak strip {outer}/{inner} at k={k}")
    sizes = [boundary_size(nu, k) for nu in chain]
    return tuple(b - a for a, b in zip(sizes, sizes[1:]))


def make_weak_tableau(k: int, chain: Sequence[Partition]) -> WeakTableau:
    """Validate a chain of (k+1)-cores and derive its weight."""
    chain = tuple(map(partition, chain))
    return WeakTableau(k=k, chain=chain, weight=_chain_weight(k, chain))


def chain_of_filling(rows: Sequence[Sequence[int]]) -> tuple[Partition, ...]:
    """The chain of shapes filled by letters 1..n of a grid, bottom row first.

    Rejects entries below 1, rows that are not weakly increasing, and grids
    where the cells of letters 1..m do not form a partition for some m,
    such as an empty row below a non-empty one.
    """
    rows = [list(r) for r in rows]
    for r in rows:
        if any(x < 1 for x in r):
            raise ValueError(f"row {r} has an entry below 1")
        if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
            raise ValueError(f"row {r} is not weakly increasing")
    n = max((x for r in rows for x in r), default=0)
    chain: list[Partition] = [()]
    for letter in range(1, n + 1):
        lengths = tuple(sum(1 for x in r if x <= letter) for r in rows)
        try:
            chain.append(partition(lengths))
        except ValueError:
            grid = " / ".join(" ".join(str(x) for x in r) for r in rows)
            raise ValueError(
                f"letter {letter}: the cells of letters 1..{letter} in {grid!r}"
                f" do not form a partition (row lengths {lengths}, bottom row first)"
            ) from None
    return tuple(chain)


def split_tableau_text(text: str) -> list[list[int]]:
    """Rows of the text form "1 2 3 / 4 5", bottom row first.  Empty rows
    at the top are dropped; an empty row below a non-empty one is kept, for
    ``chain_of_filling`` to reject."""
    rows = [[int(tok) for tok in part.split()] for part in text.split("/")]
    while rows and not rows[-1]:
        rows.pop()
    return rows


def parse_tableau_text(k: int, text: str) -> WeakTableau:
    return make_weak_tableau(k, chain_of_filling(split_tableau_text(text)))


@lru_cache(maxsize=None)
def is_standard_step(inner: Partition, outer: Partition, k: int) -> bool:
    """Vertical-and-horizontal strip between cores growing the boundary by 1."""
    require_k(k, 1)
    if not contains(outer, inner) or inner == outer:
        return False
    if not (is_p_core(inner, k + 1) and is_p_core(outer, k + 1)):
        return False
    if boundary_size(outer, k) != boundary_size(inner, k) + 1:
        return False
    added = skew_cells(outer, inner)
    rows = [c[0] for c in added]
    cols = [c[1] for c in added]
    return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


def _require_core(nu: Partition, k: int) -> None:
    require_k(k, 1)
    if not is_p_core(nu, k + 1):
        raise ValueError(f"{nu} is not a {k + 1}-core")


def _add_residue(nu: Partition, r: int, k: int) -> Partition | None:
    """s_r on a (k+1)-core: nu with every addable cell of residue r added,
    or None when nu has no such cell."""
    rows = list(nu)
    for i, j in addable_corners(nu):
        if residue((i, j), k) == r:
            if i > len(rows):
                rows.append(j)
            else:
                rows[i - 1] = j
    xi = tuple(rows)
    return canonical(xi) if xi != nu else None


def _residues_of(cells: Sequence[Cell], k: int) -> list[int]:
    return sorted({residue(c, k) for c in cells})


@lru_cache(maxsize=None)
def standard_successors(nu: Partition, k: int) -> tuple[Partition, ...]:
    """Cores one standard step above the (k+1)-core nu: one s_r for each
    residue r among its addable corners."""
    _require_core(nu, k)
    out = sorted(_add_residue(nu, r, k) for r in _residues_of(addable_corners(nu), k))
    for xi in out:
        if not is_standard_step(nu, xi, k):
            raise IntegrityError(f"s_r step {xi}/{nu} is not standard at k={k}")
    return tuple(out)


@lru_cache(maxsize=None)
def standard_predecessors(nu: Partition, k: int) -> tuple[Partition, ...]:
    """Cores one standard step below the (k+1)-core nu: for each residue r
    among its removable corners, nu with all of them removed."""
    _require_core(nu, k)
    out = []
    corners = removable_corners(nu)
    for r in _residues_of(corners, k):
        rows = list(nu)
        for i, j in corners:
            if residue((i, j), k) == r:
                rows[i - 1] = j - 1
        out.append(canonical(tuple(x for x in rows if x)))
    out.sort()
    for prev in out:
        if not is_standard_step(prev, nu, k):
            raise IntegrityError(f"s_r step {nu}/{prev} is not standard at k={k}")
    return tuple(out)


def _grow_chains(
    start: Partition, depth: int, steps: Callable[[int, Partition], Sequence[Partition]]
) -> list[tuple[Partition, ...]]:
    """Every chain of depth steps from start, the step at level i from nu
    being one of ``steps(i, nu)``: grown a level at a time in step order,
    which is the order of a depth-first walk."""
    chains = [(start,)]
    for i in range(depth):
        chains = [ch + (nxt,) for ch in chains for nxt in steps(i, ch[-1])]
    return chains


def enumerate_standard_k_tableaux(lam: Partition, k: int) -> tuple[WeakTableau, ...]:
    """All standard k-tableaux of shape lam, a (k+1)-core: the chains grown
    downward one standard predecessor per letter, in predecessor order."""
    _require_core(lam, k)
    n = boundary_size(lam, k)
    chains = _grow_chains(lam, n, lambda _, nu: standard_predecessors(nu, k))
    return tuple(WeakTableau(k=k, chain=ch[::-1], weight=(1,) * n) for ch in chains)


@lru_cache(maxsize=None)
def count_standard_k_tableaux(lam: Partition, k: int) -> int:
    """The number of standard k-tableaux of shape lam, a (k+1)-core: the
    chains down to the empty core, counted through ``standard_predecessors``."""
    require_k(k, 1)
    if lam == ():
        return 1
    return sum(count_standard_k_tableaux(prev, k) for prev in standard_predecessors(lam, k))


def standard_shapes(k: int, n: int) -> tuple[Partition, ...]:
    """Shapes of standard k-tableaux on n letters ((k+1)-cores, boundary n)."""
    require_k(k, 1)
    require_size(n, "n")
    shapes = {()}
    for _ in range(n):
        shapes = {nxt for nu in shapes for nxt in standard_successors(nu, k)}
    return tuple(sorted(shapes))


@lru_cache(maxsize=None)
def _strips_over(nu: Partition, k: int) -> Mapping[frozenset[int], Partition]:
    """Every weak strip s_A nu over the (k+1)-core nu, nu itself included,
    keyed by its residue set A and ordered by strip.

    A depth-first walk over residue sets in their order of application:
    for each largest left-out residue g, apply s_{g+1}..s_k, then every
    increasing run of residues below g.  A prefix that adds no cells ends
    its branch, so the walk visits only strips, each A at most once.
    """
    _require_core(nu, k)
    out: dict[frozenset[int], Partition] = {}

    def grow(shape: Partition, applied: frozenset[int], lo: int, hi: int) -> None:
        out[applied] = shape
        for r in range(lo, hi):
            nxt = _add_residue(shape, r, k)
            if nxt is not None:
                grow(nxt, applied | {r}, r + 1, hi)

    for g in range(k + 1):
        shape: Partition | None = nu
        for r in range(g + 1, k + 1):
            shape = _add_residue(shape, r, k)
            if shape is None:
                break
        else:
            grow(shape, frozenset(range(g + 1, k + 1)), 0, g)
    for xi in out.values():
        if not is_weak_strip(nu, xi, k):
            raise IntegrityError(f"residue strip {xi}/{nu} is not a weak strip at k={k}")
    return MappingProxyType(dict(sorted(out.items(), key=lambda item: item[1])))


def enumerate_weak_tableaux(
    lam: Partition, k: int, weight: Sequence[int]
) -> tuple[WeakTableau, ...]:
    """All weak tableaux of shape lam, a (k+1)-core, and the given weight:
    letter i is each strip s_A over the core below it with |A| = weight[i]
    that lies inside lam.  A weight part is a nonnegative integer; a part
    0 is an empty letter, and a part above k gives no tableau."""
    _require_core(lam, k)
    weight = tuple(weight)
    if any(type(w) is not int or w < 0 for w in weight):
        raise ValueError(f"weight parts must be nonnegative integers: {weight!r}")

    def strips(i: int, nu: Partition) -> list[Partition]:
        over = _strips_over(nu, k).items()
        return [xi for a, xi in over if len(a) == weight[i] and contains(lam, xi)]

    chains = _grow_chains((), len(weight), strips)
    return tuple(WeakTableau(k=k, chain=ch, weight=weight) for ch in chains if ch[-1] == lam)


@lru_cache(maxsize=None)
def kostka_k(lam: Partition, mu: Partition, k: int) -> TPoly:
    """K^{(k)}_{lam mu}(t): the sum of t^charge over the weak tableaux of
    shape lam, a (k+1)-core, and partition weight mu; a weight that is not
    a partition raises before the table stores anything."""
    if partition(mu) != mu:  # partition() raises for a part below 1 or a rise
        raise ValueError(f"{mu} is not a partition")
    return TPoly.from_powers(
        charge_dominant_semistandard(t) for t in enumerate_weak_tableaux(lam, k, mu)
    )


# ---------------------------------------------------------------------------
# charge and cocharge, standard case: ``skew_cells`` lists rows bottom-up,
# and a standard letter, like each residue class of a weak letter, has at
# most one cell per row, so its last cell is its uppermost marker and its
# first cell its lowermost.


def _marker_term(k: int, prev: Cell, cur: Cell) -> int:
    """The charge term of a marker after the marker before it: one plus
    the diagonals of the earlier marker's residue between the two when
    the later marker is weakly below, minus the diagonals of the later
    marker's residue when it is above."""
    if prev[0] >= cur[0]:  # weakly above
        return diag_count(prev, cur, residue(prev, k), k) + 1
    return -diag_count(cur, prev, residue(cur, k), k)


def _fold(terms: Iterable[int]) -> int:
    """The sum over letters of each letter's statistic, the running sum
    of the terms up to it."""
    return sum(accumulate(terms))


def _up_marker_charge(k: int, ups: Sequence[Cell]) -> int:
    """The fold of the marker terms of consecutive uppermost markers."""
    require_k(k, 1)
    return _fold(_marker_term(k, prev, cur) for prev, cur in zip(ups, ups[1:]))


def charge_standard(t: WeakTableau) -> int:
    """Sum of the per-letter charges driven by the uppermost markers."""
    if not t.is_standard():
        raise ValueError("charge_standard requires a standard tableau")
    return _up_marker_charge(t.k, [t.cells_of_letter(n)[-1] for n in range(1, t.letters + 1)])


def cocharge_standard(t: WeakTableau) -> int:
    """n(n-1)/2 minus the up-marker charge run over the lowermost markers."""
    if not t.is_standard():
        raise ValueError("cocharge_standard requires a standard tableau")
    n = t.letters
    downs = [t.cells_of_letter(m)[0] for m in range(1, n + 1)]
    return n * (n - 1) // 2 - _up_marker_charge(t.k, downs)


# ---------------------------------------------------------------------------
# dominant-weight charge via word extraction


def _letter_classes(t: WeakTableau) -> list[dict[int, tuple[Cell, ...]]]:
    """classes[n-1] maps residue -> cells of letter n at that residue."""
    out = []
    for n in range(1, t.letters + 1):
        by_res: dict[int, list[Cell]] = {}
        for c in t.cells_of_letter(n):
            by_res.setdefault(residue(c, t.k), []).append(c)
        if len(by_res) != t.weight[n - 1]:
            raise IntegrityError(
                f"letter {n} occupies {len(by_res)} residues, weight says {t.weight[n - 1]}"
            )
        out.append({r: tuple(cs) for r, cs in by_res.items()})
    return out


def _extract_words(t: WeakTableau):
    """``_letter_classes`` of a dominant-weight tableau, and its
    residue-marked words w_1, w_2, ...

    Each word is a sequence (letter, residue).  A word starts at the
    rightmost remaining 1 and repeatedly appends the next letter at the
    residue farthest along the cyclic order that starts just above the
    current residue; it stops when the next letter is exhausted.
    """
    if any(t.weight[i] < t.weight[i + 1] for i in range(len(t.weight) - 1)):
        raise ValueError("word extraction requires a dominant weight")
    classes = _letter_classes(t)
    available = [set(c.keys()) for c in classes]
    m = t.k + 1
    words = []
    for _ in range(t.weight[0] if t.weight else 0):
        j = max(available[0])  # rightmost remaining 1
        available[0].discard(j)
        word = [(1, j)]
        n = 1
        while n < t.letters and available[n]:
            candidates = [r for r in available[n] if r != j]
            if not candidates:
                raise IntegrityError(
                    f"letter {n + 1} only available at the current residue {j}"
                )
            nxt = max(candidates, key=lambda r: (r - j - 1) % m)
            available[n].discard(nxt)
            word.append((n + 1, nxt))
            j = nxt
            n += 1
        words.append(tuple(word))
    return classes, tuple(words)


def charge_dominant_semistandard(t: WeakTableau) -> int:
    """Charge of a dominant-weight tableau: sum of its word charges."""
    return sum(word_charges(t))


def word_charges(t: WeakTableau) -> tuple[int, ...]:
    """The charge of the subtableau that each word picks out, read from
    the top cell of each of its (letter, residue) classes."""
    classes, words = _extract_words(t)
    return tuple(
        _up_marker_charge(t.k, [classes[letter - 1][res][-1] for letter, res in word])
        for word in words
    )


# ---------------------------------------------------------------------------
# the elementary weight-swapping involution


@lru_cache(maxsize=None)
def _sigma_window(inner: Partition, mid: Partition, outer: Partition, k: int) -> Partition:
    """The new middle core of sigma_i on the window chain[i-1..i+1]: the
    cores inner < mid < outer below, between and above letters i and i+1.

    sigma_i reads only these three cores and k, and it changes only
    chain[i]: letter i fills mid/inner, letter i+1 fills outer/mid, and
    the new middle core is s_A inner for the residue set A found below.
    So one window gives one middle core wherever it occurs in a chain.

    Occurrences of i+1 whose residue class has some cell with no i
    directly below are kept in place, the others are shifted one residue
    up.  After sorting by residue (shifted i+1 before i at equal residue)
    and pairing each i with the nearest unpaired i+1 before it, the
    unpaired block a^r b^s becomes a^s b^r on the same residue slots.
    The new core must be a weak strip below outer, and the two boundary
    growths must swap.
    """
    m = k + 1
    a_cells = skew_cells(mid, inner)
    b_classes: dict[int, list[Cell]] = {}
    for c in skew_cells(outer, mid):
        b_classes.setdefault(residue(c, k), []).append(c)
    a_residues = _residues_of(a_cells, k)
    a_set = set(a_cells)

    relabeled: list[int] = []
    for r, cls in sorted(b_classes.items()):
        on_floor = any((c[0] - 1, c[1]) not in a_set for c in cls)
        relabeled.append(r if on_floor else (r + 1) % m)
    if len(set(relabeled)) != len(relabeled):
        raise IntegrityError("relabeled residues of the upper letter collide")

    items = [(r, 1) for r in a_residues] + [(r, 0) for r in relabeled]
    items.sort()  # (residue, type): shifted b before a at equal residue
    # bracket matching: each a closes the nearest open b before it, so the
    # unpaired letters are a^r (closing nothing) then b^s (left open)
    open_b: list[int] = []
    unpaired_a: list[int] = []
    paired_a: list[int] = []
    for r, typ in items:
        if typ == 0:
            open_b.append(r)
        elif open_b:
            open_b.pop()
            paired_a.append(r)
        else:
            unpaired_a.append(r)
    new_a = frozenset(paired_a + (unpaired_a + open_b)[: len(open_b)])

    xi = _strips_over(inner, k).get(new_a)
    if xi is None or not is_weak_strip(xi, outer, k):
        raise IntegrityError(
            f"no weak strip over {inner} at residues {sorted(new_a)} lies below {outer}"
        )
    b_inner, b_mid, b_xi, b_outer = (boundary_size(nu, k) for nu in (inner, mid, xi, outer))
    if b_xi - b_inner != b_outer - b_mid:
        raise IntegrityError(f"s_A at residues {sorted(new_a)} does not swap the two letters")
    return xi


def sigma_involution(t: WeakTableau, i: int) -> WeakTableau:
    """Swap the multiplicities of letters i and i+1.

    The input chain is validated as ``make_weak_tableau`` validates one,
    and its weight must be the boundary growth (ValueError otherwise);
    then ``_sigma_step`` swaps the letters.
    """
    _require_chain_weight(t)
    return _sigma_step(t, i)


def _require_chain_weight(t: WeakTableau) -> None:
    """ValueError unless t's chain is valid and its weight the boundary growth."""
    if _chain_weight(t.k, t.chain) != t.weight:
        raise ValueError(f"weight {t.weight} is not the boundary growth of {t.chain}")


def _sigma_step(t: WeakTableau, i: int) -> WeakTableau:
    """``sigma_involution`` on a tableau whose chain is already valid:
    chain[i] becomes the ``_sigma_window`` core and weights i, i+1 swap."""
    if type(i) is not int or not 1 <= i < t.letters:
        raise ValueError(f"index {i} out of range 1..{t.letters - 1}")
    chain, weight = list(t.chain), list(t.weight)
    chain[i] = _sigma_window(*t.chain[i - 1 : i + 2], t.k)
    weight[i - 1], weight[i] = weight[i], weight[i - 1]
    return WeakTableau(k=t.k, chain=tuple(chain), weight=tuple(weight))


def sort_to_dominant(t: WeakTableau) -> WeakTableau:
    """Apply adjacent swaps, leftmost inversion first, until dominant.  The
    first swap validates t, and the later ones act on its checked chain; a
    t with no inversion is validated as that swap would validate it."""
    cur, swap = t, sigma_involution
    while True:
        w = cur.weight
        idx = next((i for i in range(len(w) - 1) if w[i] < w[i + 1]), None)
        if idx is None:
            if cur is t:
                _require_chain_weight(t)
            return cur
        cur, swap = swap(cur, idx + 1), _sigma_step


def charge_any_weight(t: WeakTableau) -> int:
    """Charge of the weight-sorted tableau."""
    if any(a > t.k for a in t.weight):
        raise ValueError("weight must be k-bounded")
    return charge_dominant_semistandard(sort_to_dominant(t))
