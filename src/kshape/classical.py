"""Classical tableau machinery used as an independent oracle: charge of
(semi)standard Young tableaux, RSK insertion, and the elementary
weight-swapping involution on words.

Tableaux are chains of partitions (the shape after each letter); the
reading word lists rows top to bottom, each left to right.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .partitions import Partition


def reading_word(chain: Sequence[Partition]) -> tuple[int, ...]:
    """Rows top to bottom, each row left to right."""
    shape = chain[-1]
    grid = [[0] * shape[i] for i in range(len(shape))]
    for n in range(1, len(chain)):
        before, after = chain[n - 1], chain[n]
        if len(before) > len(after) or any(b > a for b, a in zip(before, after)):
            raise ValueError(f"{before} is not contained in {after}")
        for i, width in enumerate(after):
            start = before[i] if i < len(before) else 0
            grid[i][start:width] = [n] * (width - start)
    word: list[int] = []
    for row in reversed(grid):
        word.extend(row)
    return tuple(word)


def chain_from_grid(rows: Sequence[Sequence[int]]) -> tuple[Partition, ...]:
    """Chain of shapes from a letter grid, bottom row first."""
    rows = [list(r) for r in rows if r]
    if not rows:
        return ((),)
    n = max(max(r) for r in rows)
    chain = [()]
    for letter in range(1, n + 1):
        widths = [sum(1 for x in r if 0 < x <= letter) for r in rows]
        chain.append(tuple(w for w in widths if w))
    return tuple(chain)


def _standard_subword_positions(word: Sequence[int], used: list[bool]) -> list[int]:
    """Positions of the next extracted subword: the rightmost unused 1,
    then, scanning leftward and wrapping around, the first 2, 3, ..."""
    n = len(word)
    pos = None
    for p in range(n - 1, -1, -1):
        if not used[p] and word[p] == 1:
            pos = p
            break
    if pos is None:
        return []
    picked = [pos]
    letter = 2
    while True:
        found = None
        for step in range(1, n + 1):
            q = (pos - step) % n
            if not used[q] and word[q] == letter:
                found = q
                break
        if found is None:
            break
        picked.append(found)
        pos = found
        letter += 1
    return picked


def word_charge(word: Sequence[int]) -> int:
    """Lascoux-Schutzenberger charge of a word with partition weight."""
    word = tuple(word)
    used = [False] * len(word)
    total = 0
    while True:
        picked = _standard_subword_positions(word, used)
        if not picked:
            break
        for p in picked:
            used[p] = True
        pos_of = {word[p]: p for p in picked}
        idx = 0
        for letter in range(2, len(picked) + 1):
            if pos_of[letter] > pos_of[letter - 1]:
                idx += 1
            total += idx
    return total


def classical_charge(chain: Sequence[Partition]) -> int:
    """Charge of a (semi)standard tableau via its reading word."""
    return word_charge(reading_word(chain))


def classical_cocharge(chain: Sequence[Partition]) -> int:
    """n(weight) minus the charge."""
    word = reading_word(chain)
    counts: dict[int, int] = {}
    for x in word:
        counts[x] = counts.get(x, 0) + 1
    n_mu = sum((i - 1) * c for i, c in enumerate(sorted(counts.values(), reverse=True), 1))
    return n_mu - word_charge(word)


def rsk_insert(word: Sequence[int]) -> tuple[Partition, ...]:
    """Row-insert a word; return the chain of the resulting tableau."""
    rows: list[list[int]] = []
    for x in word:
        cur = x
        for row in rows:
            # bump the leftmost entry strictly greater than the new one
            spot = next((i for i, y in enumerate(row) if y > cur), None)
            if spot is None:
                row.append(cur)
                cur = None
                break
            row[spot], cur = cur, row[spot]
        if cur is not None:
            rows.append([cur])
    return chain_from_grid(rows)


def sigma_word(word: Sequence[int], i: int) -> tuple[int, ...]:
    """Crystal reflection swapping the counts of i and i+1 in a word.

    Letters i+1 act as openers and letters i as closers; matched pairs
    stay put and the unpaired block i^r (i+1)^s becomes i^s (i+1)^r.
    """
    word = list(word)
    stack: list[int] = []
    unpaired_a: list[int] = []
    for p, x in enumerate(word):
        if x == i + 1:
            stack.append(p)
        elif x == i:
            if stack:
                stack.pop()
            else:
                unpaired_a.append(p)
    free = unpaired_a + stack  # a's first, then b's, in word order
    r, s = len(unpaired_a), len(stack)
    for idx, p in enumerate(free):
        word[p] = i if idx < s else i + 1
    return tuple(word)


def classical_sigma(chain: Sequence[Partition], i: int) -> tuple[Partition, ...]:
    """The involution on tableaux: act on the word, then re-insert."""
    return rsk_insert(sigma_word(reading_word(chain), i))


@lru_cache(maxsize=None)
def standard_young_tableaux(shape: Partition) -> tuple[tuple[Partition, ...], ...]:
    """All standard Young tableaux of a shape, as chains."""
    if shape == ():
        return (((),),)
    out = []
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            rows = list(shape)
            rows[i] -= 1
            prev = tuple(x for x in rows if x)
            for ch in standard_young_tableaux(prev):
                out.append(ch + (shape,))
    return tuple(out)


def semistandard_tableaux(shape: Partition, weight: Sequence[int]) -> Iterator[tuple[Partition, ...]]:
    """All SSYT of a shape and weight, as chains of horizontal strips."""
    weight = tuple(weight)

    def horizontal_extensions(inner: Partition, size: int) -> Iterator[Partition]:
        # at most one new cell per column: row i cannot pass row i-1's old end
        def rec(i: int, remaining: int, acc: list[int]):
            if i == len(shape):
                if remaining == 0:
                    yield tuple(x for x in acc if x)
                return
            cur = inner[i] if i < len(inner) else 0
            hi = shape[i]
            if i > 0:
                hi = min(hi, inner[i - 1] if i - 1 < len(inner) else 0)
            for v in range(cur, hi + 1):
                if v - cur > remaining:
                    break
                acc.append(v)
                yield from rec(i + 1, remaining - (v - cur), acc)
                acc.pop()

        yield from rec(0, size, [])

    def grow(chain: list[Partition], idx: int) -> Iterator[tuple[Partition, ...]]:
        if idx == len(weight):
            if chain[-1] == shape:
                yield tuple(chain)
            return
        for nxt in horizontal_extensions(chain[-1], weight[idx]):
            chain.append(nxt)
            yield from grow(chain, idx + 1)
            chain.pop()

    yield from grow([()], 0)


def kostka_foulkes(shape: Partition, weight: Sequence[int]) -> dict[int, int]:
    """Charge generating function over SSYT(shape, weight) as {power: coeff}."""
    out: dict[int, int] = {}
    for ch in semistandard_tableaux(shape, weight):
        c = classical_charge(ch)
        out[c] = out.get(c, 0) + 1
    return out
