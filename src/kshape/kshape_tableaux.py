"""Covers between k-shapes, k-connected rows, and charge/cocharge of
standard k-shape tableaux.

A cover is a cover-type string joining two k-shapes.  Chains of covers
are the k-shape tableaux; reverse-maximal chains ending at (k+1)-cores
are exactly the standard k-tableaux and maximal chains the standard
(k-1)-tableaux.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import IntegrityError
from .partitions import (
    Partition,
    add_cells,
    addable_corners,
    canonical,
    diag,
    is_p_core,
    k_interior,
    partition,
    removable_corners,
    require_k,
    require_size,
)
from .poset import COVER, StringOfCells, classify_string, corner_chains, is_k_shape
from .poset import next_corner
from .weak_tableaux import ChainTableau, _grow_chains


@lru_cache(maxsize=None)
def make_cover(inner: Partition, outer: Partition, k: int) -> StringOfCells:
    """The cover-type string outer/inner between two k-shapes."""
    if not (is_k_shape(inner, k) and is_k_shape(outer, k)):
        raise ValueError(f"{inner} -> {outer} does not join {k}-shapes")
    s = classify_string(inner, outer, k)
    if s is None or s.kind != COVER:
        raise ValueError(f"{outer}/{inner} is not a cover-type string")
    return s


class CoverStatus(NamedTuple):
    continues_below: bool
    continues_above: bool
    reverse_below: bool
    reverse_above: bool
    maximal: bool
    reverse_maximal: bool


# the 16 possible statuses: table entries share these instead of holding
# one tuple each
_STATUSES = {
    (b, a, rb, ra): CoverStatus(b, a, rb, ra, not (b or a), not (rb or ra))
    for b in (False, True)
    for a in (False, True)
    for rb in (False, True)
    for ra in (False, True)
}


@lru_cache(maxsize=None)
def cover_status(c: StringOfCells, k: int) -> CoverStatus:
    """Continuation flags of a cover.

    A cover continues below (above) when the inner shape has an addable
    corner contiguous to the bottom (top) cell of the string; reverse
    continuation asks for a removable corner of the outer shape instead.
    """
    require_k(k, 2)
    bot, top = c.bottom, c.top
    add = addable_corners(c.inner)
    rem = removable_corners(c.outer)
    below = next_corner(add, bot, k)
    above = next_corner(add, top, k, down=False)
    rbelow = next_corner(rem, bot, k)
    rabove = next_corner(rem, top, k, down=False)
    return _STATUSES[below is not None, above is not None, rbelow is not None, rabove is not None]


@lru_cache(maxsize=None)
def enumerate_covers(lam: Partition, k: int) -> tuple[StringOfCells, ...]:
    """All covers with the given inner k-shape."""
    if not is_k_shape(lam, k):
        raise ValueError(f"{lam} is not a {k}-shape")
    strings = (classify_string(lam, add_cells(lam, chain), k) for chain in corner_chains(lam, k))
    covers = [s for s in strings if s.kind == COVER and is_k_shape(s.outer, k)]
    return tuple(sorted(covers, key=lambda c: c.top))


def make_kshape_tableau(k: int, chain: Sequence[Partition]) -> ChainTableau:
    """A k-shape tableau: a chain of covers between k-shapes, one per letter."""
    require_k(k, 2)
    chain = tuple(map(partition, chain))
    if not chain or chain[0] != ():
        raise ValueError("chain must start at the empty partition")
    for inner, outer in zip(chain, chain[1:]):
        make_cover(inner, outer, k)  # raises when a step is not a cover
    return ChainTableau(k=k, chain=chain)


def chain_characterization(chain: Sequence[Partition], k: int) -> tuple[bool, bool]:
    """(is k-tableau, is (k-1)-tableau) for a chain of covers, validated
    by ``make_kshape_tableau``.

    The chain is a standard k-tableau iff it ends at a (k+1)-core and
    every cover is reverse-maximal; it is a standard (k-1)-tableau iff
    every cover is maximal.
    """
    chain = make_kshape_tableau(k, chain).chain
    statuses = [cover_status(make_cover(a, b, k), k) for a, b in zip(chain, chain[1:])]
    is_k = is_p_core(chain[-1], k + 1) and all(s.reverse_maximal for s in statuses)
    is_km1 = all(s.maximal for s in statuses)
    return is_k, is_km1


def enumerate_kshape_tableaux(n: int, k: int) -> tuple[ChainTableau, ...]:
    """All standard k-shape tableaux on n letters, n nonnegative: the
    chains grown upward one cover per letter, in cover order."""
    require_k(k, 2)
    require_size(n, "n")
    chains = _grow_chains((), n, lambda _, nu: [c.outer for c in enumerate_covers(nu, k)])
    return tuple(ChainTableau(k=k, chain=ch) for ch in chains)


# ---------------------------------------------------------------------------
# k-connected rows


@lru_cache(maxsize=None)
def connected_rows(lam: Partition, k: int) -> Mapping[int, tuple[int, ...]]:
    """The k-connected chain of each row of lam that carries an addable
    corner, the row itself first.

    Each step of a chain goes from row r to its successor: the lowest such
    row whose corner is within diagonal distance k+1 of the corner of row
    r.  The memo table hands the same mapping to every caller, so it is
    read-only; a k below 2 or a lam that is not a partition
    (``addable_corners``) raises, and is not stored.
    """
    require_k(k, 2)
    corners = {c[0]: c for c in addable_corners(lam)}
    chains: dict[int, tuple[int, ...]] = {}
    for r in sorted(corners):
        d = diag(corners[r])
        below = [r2 for r2 in chains if abs(d - diag(corners[r2])) <= k + 1]
        chains[r] = canonical((r,) + (chains[min(below)] if below else ()))
    return MappingProxyType(chains)


def _interval(lam: Partition, k: int, r: int, rp: int, closed_left: bool, closed_right: bool) -> int:
    """Length of the longest k-connected row sequence from r staying >= rp,
    not counting the endpoint rows excluded by the open sides."""
    chain = connected_rows(lam, k).get(r)
    if chain is None:
        raise IntegrityError(f"row {r} of {lam} has no addable corner")
    # chains strictly descend, so the rows >= rp are a prefix of the chain
    end = 0
    for row in chain:
        if row < rp:
            break
        end += 1
    start = 0 if closed_left else 1
    if end <= start:
        return 0
    return end - start - (not closed_right and chain[end - 1] == rp)


# ---------------------------------------------------------------------------
# charge and cocharge


# A statistic is (marker, drop, rise).  A letter's marker row is the row
# of cell ``marker`` of its cover: the top cell (0) for charge, the bottom
# cell (-1) for cocharge.  ``drop`` and ``rise`` are (sign, closed_left,
# closed_right) of the interval counted by ``letter_term``.
CHARGE = (0, (1, True, False), (-1, False, True))
COCHARGE = (-1, (-1, False, False), (1, True, True))


def letter_term(stat, prev: StringOfCells, cover: StringOfCells, k: int) -> int:
    """The term of letter n in a statistic, from the covers of letters n-1
    and n; it is an interval on the previous shape, ``cover.inner``.

    With r one above the marker of letter n-1 and rp the marker of letter
    n, ``drop`` counts from r down to rp when r > rp, and ``rise`` counts
    from rp down to r otherwise.  The statistic of a tableau is the sum of
    the terms of letters 2..n, so it is a left fold over the chain.
    """
    end, drop, rise = stat
    r, rp = prev.cells[end][0] + 1, cover.cells[end][0]
    sign, left, right = drop if r > rp else rise
    hi, lo = (r, rp) if r > rp else (rp, r)
    return sign * _interval(cover.inner, k, hi, lo, left, right)


def charge_kshape(t: ChainTableau) -> int:
    """Charge driven by connected-row intervals on the previous shape."""
    return sum(letter_charges(t))


def cocharge_kshape(t: ChainTableau) -> int:
    return sum(letter_cocharges(t))


def letter_charges(t: ChainTableau) -> tuple[int, ...]:
    return _letter_statistic(t, CHARGE)


def letter_cocharges(t: ChainTableau) -> tuple[int, ...]:
    return _letter_statistic(t, COCHARGE)


def _letter_statistic(t: ChainTableau, stat) -> tuple[int, ...]:
    """Running sums of ``letter_term`` over the letters, 0 for letter 1."""
    k = t.k
    require_k(k, 2)
    covers = [make_cover(a, b, k) for a, b in zip(t.chain, t.chain[1:])]
    terms = (letter_term(stat, prev, c, k) for prev, c in zip(covers, covers[1:]))
    return tuple(accumulate(terms, initial=0))


def charge_cocharge_residual(t: ChainTableau) -> int:
    """charge - (n(n-1)/2 - cocharge - interior size); zero on valid input."""
    n = t.letters
    interior = sum(k_interior(t.shape, t.k))
    return charge_kshape(t) - (n * (n - 1) // 2 - cocharge_kshape(t) - interior)
