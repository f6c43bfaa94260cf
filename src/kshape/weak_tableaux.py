"""Weak (k-)tableaux: chains of (k+1)-cores, charge, cocharge, and the
symmetric-group action that sorts weights.

A weak tableau of weight (a_1,...,a_N) is a chain of (k+1)-cores whose
row profile grows by horizontal strips and column profile by vertical
strips, the i-th of size a_i.  Standard means every step adds a strip
that is both horizontal and vertical and grows the boundary by one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import IntegrityError
from .partitions import (
    Cell,
    Partition,
    add_cells,
    addable_corners,
    boundary_size,
    contains,
    diag_count,
    is_p_core,
    partition,
    removable_corners,
    residue,
    row_shape,
    skew_cells,
    conjugate,
)


def _is_horizontal_strip(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """big/small has at most one cell per column (interlacing profiles)."""
    n = max(len(big), len(small))
    b = lambda i: big[i] if i < len(big) else 0
    s = lambda i: small[i] if i < len(small) else 0
    for i in range(n):
        if b(i) < s(i):
            return False
        if i + 1 < n and s(i) < b(i + 1):
            return False
    return True


def _is_vertical_strip(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    n = max(len(big), len(small))
    for i in range(n):
        d = (big[i] if i < len(big) else 0) - (small[i] if i < len(small) else 0)
        if d not in (0, 1):
            return False
    return True


@lru_cache(maxsize=None)
def is_weak_strip(inner: Partition, outer: Partition, k: int) -> bool:
    """True iff outer/inner is a valid single-letter step between cores."""
    if not contains(outer, inner):
        return False
    if not is_p_core(outer, k + 1):
        return False
    rs_o, rs_i = row_shape(outer, k), row_shape(inner, k)
    if not _is_horizontal_strip(rs_o, rs_i):
        return False
    cs_o = row_shape(conjugate(outer), k)
    cs_i = row_shape(conjugate(inner), k)
    return _is_vertical_strip(cs_o, cs_i)


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

    def up(self, n: int) -> Cell:
        """Uppermost occurrence of letter n."""
        return max(self.cells_of_letter(n), key=lambda c: c[0])

    def down(self, n: int) -> Cell:
        """Lowermost occurrence of letter n."""
        return min(self.cells_of_letter(n), key=lambda c: c[0])

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

    def residues_of_letter(self, n: int) -> tuple[int, ...]:
        return tuple(sorted({residue(c, self.k) for c in self.cells_of_letter(n)}))

    def is_standard(self) -> bool:
        return all(a == 1 for a in self.weight)


def make_weak_tableau(k: int, chain: Sequence[Partition]) -> WeakTableau:
    """Validate a chain of (k+1)-cores and derive its weight."""
    chain = tuple(tuple(c) for c in chain)
    if not chain or chain[0] != ():
        raise ValueError("chain must start at the empty partition")
    weight = []
    for inner, outer in zip(chain, chain[1:]):
        if not is_weak_strip(inner, outer, k):
            raise ValueError(f"invalid weak strip {outer}/{inner} at k={k}")
        weight.append(boundary_size(outer, k) - boundary_size(inner, k))
    return WeakTableau(k=k, chain=chain, weight=tuple(weight))


def chain_of_filling(rows: Sequence[Sequence[int]]) -> tuple[Partition, ...]:
    """The chain of shapes filled by letters 1..n of a grid, bottom row first.

    Rejects entries below 1, rows that are not weakly increasing, and grids
    where the cells of letters 1..m do not form a partition for some m.
    """
    rows = [list(r) for r in rows if r]
    for r in rows:
        if min(r) < 1:
            raise ValueError(f"row {r} has an entry below 1")
        if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
            raise ValueError(f"row {r} is not weakly increasing")
    n = max((max(r) for r in rows), default=0)
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


def weak_tableau_from_filling(k: int, rows: Sequence[Sequence[int]]) -> WeakTableau:
    """Build the weak tableau of a letter grid given bottom row first."""
    return make_weak_tableau(k, chain_of_filling(rows))


def split_tableau_text(text: str) -> list[list[int]]:
    """Rows of the text form "1 2 3 / 4 5", bottom row first."""
    return [
        [int(tok) for tok in part.split()]
        for part in text.strip().split("/")
        if part.strip()
    ]


def parse_tableau_text(k: int, text: str) -> WeakTableau:
    return weak_tableau_from_filling(k, split_tableau_text(text))


def is_standard_step(inner: Partition, outer: Partition, k: int) -> bool:
    """Vertical-and-horizontal strip between cores growing the boundary by 1."""
    if not contains(outer, inner) or inner == outer:
        return False
    if not is_p_core(outer, k + 1):
        return False
    if boundary_size(outer, k) != boundary_size(inner, k) + 1:
        return False
    added = skew_cells(outer, inner)
    rows = [c[0] for c in added]
    cols = [c[1] for c in added]
    return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


@lru_cache(maxsize=None)
def standard_successors(nu: Partition, k: int) -> tuple[Partition, ...]:
    """Cores one standard step above nu (new cells are addable corners)."""
    out = []
    corners = addable_corners(nu)
    for r in range(1, len(corners) + 1):
        for subset in combinations(corners, r):
            cand = add_cells(nu, subset)
            if is_standard_step(nu, cand, k):
                out.append(cand)
    return tuple(sorted(set(out)))


@lru_cache(maxsize=None)
def standard_predecessors(nu: Partition, k: int) -> tuple[Partition, ...]:
    """Cores one standard step below nu (removed cells are corners)."""
    out = []
    corners = removable_corners(nu)
    for r in range(1, len(corners) + 1):
        for subset in combinations(corners, r):
            rows = list(nu)
            for (i, j) in subset:
                rows[i - 1] = j - 1
            cand = tuple(x for x in rows if x)
            if is_standard_step(cand, nu, k):
                out.append(cand)
    return tuple(sorted(set(out)))


def enumerate_standard_k_tableaux(lam: Partition, k: int) -> tuple[WeakTableau, ...]:
    """All standard k-tableaux of shape lam, a (k+1)-core."""
    if not is_p_core(lam, k + 1):
        raise ValueError(f"{lam} is not a {k + 1}-core")

    @lru_cache(maxsize=None)
    def chains_to(nu: Partition) -> tuple[tuple[Partition, ...], ...]:
        if nu == ():
            return (((),),)
        out = []
        for prev in standard_predecessors(nu, k):
            for ch in chains_to(prev):
                out.append(ch + (nu,))
        return tuple(out)

    tabs = tuple(
        WeakTableau(k=k, chain=ch, weight=(1,) * (len(ch) - 1)) for ch in chains_to(lam)
    )
    chains_to.cache_clear()
    return tabs


def standard_shapes(k: int, n: int) -> tuple[Partition, ...]:
    """Shapes of standard k-tableaux on n letters ((k+1)-cores, boundary n)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative: {n}")
    shapes = {()}
    for _ in range(n):
        shapes = {nxt for nu in shapes for nxt in standard_successors(nu, k)}
    return tuple(sorted(shapes))


def weak_successors(nu: Partition, bound: Partition, k: int) -> tuple[Partition, ...]:
    """Cores xi with nu <= xi <= bound forming a weak strip over nu."""
    gaps = []
    nb = list(nu) + [0] * (len(bound) - len(nu))
    for i in range(len(bound)):
        gaps.append(range(nb[i], bound[i] + 1))

    out = []

    def rec(i: int, prev: int, acc: list[int]):
        if i == len(bound):
            xi = tuple(x for x in acc if x)
            if is_weak_strip(nu, xi, k):
                out.append(xi)
            return
        for v in gaps[i]:
            if v > prev:
                continue
            acc.append(v)
            rec(i + 1, v, acc)
            acc.pop()

    rec(0, bound[0] if bound else 0, [])
    return tuple(sorted(set(out)))


def enumerate_weak_tableaux(
    lam: Partition, k: int, letters: int
) -> tuple[WeakTableau, ...]:
    """All weak tableaux of shape lam using at most the given letters."""
    out: list[WeakTableau] = []

    def rec(chain: list[Partition]):
        if len(chain) == letters + 1:
            if chain[-1] == lam:
                out.append(make_weak_tableau(k, tuple(chain)))
            return
        for nxt in weak_successors(chain[-1], lam, k):
            chain.append(nxt)
            rec(chain)
            chain.pop()

    rec([()])
    return tuple(out)


# ---------------------------------------------------------------------------
# charge and cocharge, standard case


def _up_marker_charge(shape: Partition, k: int, ups: Sequence[Cell]) -> int:
    """Sum of the running charges of consecutive uppermost markers.

    Each step adds one plus the diagonals of the earlier marker's residue
    between the two when the later marker is weakly below, and subtracts
    the diagonals of the later marker's residue when it is above.
    """
    total = 0
    ch = 0
    for prev_up, cur_up in zip(ups, ups[1:]):
        if prev_up[0] >= cur_up[0]:  # weakly above
            ch = ch + diag_count(shape, prev_up, cur_up, residue(prev_up, k), k) + 1
        else:
            ch = ch - diag_count(shape, cur_up, prev_up, residue(cur_up, k), k)
        total += ch
    return total


def charge_standard(t: WeakTableau) -> int:
    """Sum of the per-letter charges driven by the uppermost markers."""
    if not t.is_standard():
        raise ValueError("charge_standard requires a standard tableau")
    return _up_marker_charge(t.shape, t.k, [t.up(n) for n in range(1, t.letters + 1)])


def cocharge_standard(t: WeakTableau) -> int:
    if not t.is_standard():
        raise ValueError("cocharge_standard requires a standard tableau")
    total = 0
    co = 0
    for n in range(2, t.letters + 1):
        prev_dn, cur_dn = t.down(n - 1), t.down(n)
        e_prev = residue(prev_dn, t.k)
        e_cur = residue(cur_dn, t.k)
        if prev_dn[0] >= cur_dn[0]:
            co = co - diag_count(t.shape, prev_dn, cur_dn, e_prev, t.k)
        else:
            co = co + diag_count(t.shape, cur_dn, prev_dn, e_cur, t.k) + 1
        total += co
    return total


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


def extract_words(t: WeakTableau) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The residue-marked words w_1, w_2, ... of a dominant-weight tableau.

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
    return tuple(words)


def _marked_word_charge(t: WeakTableau, word) -> int:
    """Charge of the subtableau picked out by a residue-marked word."""
    classes = _letter_classes(t)
    ups = [max(classes[letter - 1][res], key=lambda c: c[0]) for letter, res in word]
    return _up_marker_charge(t.shape, t.k, ups)


def charge_dominant_semistandard(t: WeakTableau) -> int:
    """Charge of a dominant-weight tableau: sum of its word charges."""
    return sum(_marked_word_charge(t, w) for w in extract_words(t))


def word_charges(t: WeakTableau) -> tuple[int, ...]:
    return tuple(_marked_word_charge(t, w) for w in extract_words(t))


# ---------------------------------------------------------------------------
# the elementary weight-swapping involution


def _strip_with_residues(
    nu: Partition, bound: Partition, k: int, size: int, residues: frozenset[int]
) -> Partition:
    """The unique weak strip over nu of the given size whose cells occupy
    exactly the given residues, staying inside bound."""
    found = []
    for xi in weak_successors(nu, bound, k):
        if boundary_size(xi, k) - boundary_size(nu, k) != size:
            continue
        res = {residue(c, k) for c in skew_cells(xi, nu)}
        if res == set(residues):
            found.append(xi)
    if len(found) != 1:
        raise IntegrityError(
            f"expected one strip over {nu} at residues {sorted(residues)}, found {len(found)}"
        )
    return found[0]


def sigma_involution(t: WeakTableau, i: int) -> WeakTableau:
    """Swap the multiplicities of letters i and i+1.

    Letters of i and i+1 are listed by residue; occurrences of i+1 whose
    residue class has some cell with no i directly below are kept in
    place, the others are shifted one residue up.  After sorting by
    residue (shifted i+1 before i at equal residue) and cancelling
    adjacent (i+1, i) factors, the unpaired block a^r b^s becomes a^s b^r
    on the same residue slots; the chain is rebuilt around the new letter
    i and revalidated.
    """
    if not 1 <= i < t.letters:
        raise ValueError(f"index {i} out of range 1..{t.letters - 1}")
    k, m = t.k, t.k + 1
    a_cells = t.cells_of_letter(i)
    b_classes: dict[int, list[Cell]] = {}
    for c in t.cells_of_letter(i + 1):
        b_classes.setdefault(residue(c, k), []).append(c)
    a_residues = sorted({residue(c, k) for c in a_cells})
    a_set = set(a_cells)

    relabeled: list[int] = []
    for r, cls in sorted(b_classes.items()):
        on_floor = any((c[0] - 1, c[1]) not in a_set for c in cls)
        relabeled.append(r if on_floor else (r + 1) % m)
    if len(set(relabeled)) != len(relabeled):
        raise IntegrityError("relabeled residues of the upper letter collide")

    items = [(r, 1) for r in a_residues] + [(r, 0) for r in relabeled]
    items.sort()  # (residue, type): shifted b before a at equal residue
    unpaired = list(range(len(items)))
    changed = True
    while changed:
        changed = False
        for p in range(len(unpaired) - 1):
            x, y = unpaired[p], unpaired[p + 1]
            if items[x][1] == 0 and items[y][1] == 1:
                del unpaired[p : p + 2]
                changed = True
                break
    slots = [items[x] for x in unpaired]
    r_u = sum(1 for s in slots if s[1] == 1)
    s_u = len(slots) - r_u
    if any(s[1] != 1 for s in slots[:r_u]):
        raise IntegrityError("unpaired letters are not of the form a^r b^s")
    new_a = [items[x][0] for x in unpaired[:s_u]]
    paired_a = [r for p, (r, typ) in enumerate(items) if typ == 1 and p not in unpaired]
    new_a_residues = frozenset(paired_a + new_a)
    if len(new_a_residues) != len(relabeled):
        raise IntegrityError("residues of the swapped letter collide")

    chain = list(t.chain)
    xi = _strip_with_residues(
        chain[i - 1], chain[i + 1], k, len(new_a_residues), new_a_residues
    )
    chain[i] = xi
    if not is_weak_strip(xi, chain[i + 1], k):
        raise IntegrityError("rebuilt chain step is not a weak strip")
    result = make_weak_tableau(k, tuple(chain))
    want = list(t.weight)
    want[i - 1], want[i] = want[i], want[i - 1]
    if list(result.weight) != want:
        raise IntegrityError(
            f"weight after swap is {result.weight}, expected {tuple(want)}"
        )
    return result


def sort_to_dominant(t: WeakTableau) -> WeakTableau:
    """Apply adjacent swaps, leftmost inversion first, until dominant."""
    cur = t
    while True:
        w = cur.weight
        idx = next((i for i in range(len(w) - 1) if w[i] < w[i + 1]), None)
        if idx is None:
            return cur
        cur = sigma_involution(cur, idx + 1)


def charge_any_weight(t: WeakTableau) -> int:
    """Charge of the weight-sorted tableau."""
    if any(a > t.k for a in t.weight):
        raise ValueError("weight must be k-bounded")
    return charge_dominant_semistandard(sort_to_dominant(t))
