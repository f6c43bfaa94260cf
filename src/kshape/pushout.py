"""The pushout algorithm and the weak bijection, standard case.

A cover is first maximized (adding the longest run of contiguous
addable corners below, then above, each emitting a move along the
bottom).  A maximal cover is then pushed through each move of the top
path via a four-way case split, producing the corresponding bottom
move.  Iterating over the covers of a standard k-tableau yields a
standard (k-1)-tableau and a path whose charge accounts exactly for the
difference of the two tableau charges.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import IntegrityError
from .partitions import (
    Cell,
    Partition,
    add_cells,
    addable_corners,
    canonical,
    format_partition,
    partition,
    union_shape,
)
from .poset import (
    COLUMN,
    ROW,
    Move,
    Path,
    StringOfCells,
    corner_run,
    is_k_shape,
    move_from_cells,
)
from .kshape_tableaux import CHARGE, COCHARGE, cover_status, letter_term, make_cover
from .weak_tableaux import WeakTableau, _chain_weight, _fold, is_standard_step


@dataclass(frozen=True, slots=True)
class PushoutSquare:
    """One commuting square of the algorithm.

    Its corners are the inner and outer shapes of ``cover_in`` (left
    side) and ``cover_out`` (right side).
    """

    kind: str  # max-below, max-above, row-I..row-IV, col-I..col-IV
    cover_in: StringOfCells
    cover_out: StringOfCells
    move_in: Move | None
    move_out: Move | None


@lru_cache(maxsize=None)
def maximize_below(c: StringOfCells, k: int) -> PushoutSquare:
    """Extend a cover by the longest corner run below its bottom cell.

    The added cells form a row move along the bottom of the square.
    """
    cells = corner_run(addable_corners(c.inner), c.bottom, k)
    if not cells:
        raise ValueError("cover cannot be continued below")
    move = move_from_cells(c.outer, cells, ROW, k)
    return PushoutSquare("max-below", c, make_cover(c.inner, move.target, k), None, move)


@lru_cache(maxsize=None)
def maximize_above(c: StringOfCells, k: int) -> PushoutSquare:
    """Extend a cover by the longest corner run above its top cell."""
    cells = corner_run(addable_corners(c.inner), c.top, k, down=False)
    if not cells:
        raise ValueError("cover cannot be continued above")
    move = move_from_cells(c.outer, cells, COLUMN, k)
    return PushoutSquare("max-above", c, make_cover(c.inner, move.target, k), None, move)


def _split_at_intersection(c: StringOfCells, inter: frozenset[Cell]):
    """Cells of c before and after the intersection block, which must be
    one contiguous run of the string."""
    cells = c.cells
    idx = [i for i, x in enumerate(cells) if x in inter]
    if idx != list(range(idx[0], idx[-1] + 1)):
        raise IntegrityError("cover meets the move in a non-contiguous block")
    return cells[: idx[0]], cells[idx[-1] + 1 :]


@lru_cache(maxsize=None)
def maximal_pushout(c: StringOfCells, m: Move, k: int) -> PushoutSquare:
    """Push a maximal cover through one move.

    Non-intersecting inputs either commute outright or interfere, in
    which case both sides absorb the completion of the move (its extreme
    string translated one step outward).  Intersecting inputs drop the
    common cells, translating them upward (row) or rightward (column)
    when the cover sticks out on both sides.
    """
    if c.inner != m.source:
        raise ValueError("cover and move must start at the same shape")
    if not cover_status(c, k).maximal:
        raise ValueError("pushout requires a maximal cover")
    lam, nu, mu = c.inner, m.target, c.outer
    cells_c = frozenset(c.cells)
    inter = cells_c & m.cells
    row = m.orientation == ROW
    union = union_shape(mu, nu)
    # the orientations differ only in data: type II shifts the completion
    # by (dr, dc), one column right for a row move and one row up for a
    # column move; type IV shifts the overlap the other way, by (dc, dr);
    # type III needs the cover to stick out above a row move and below a
    # column move
    dr, dc = (0, 1) if row else (1, 0)
    drop = add = frozenset()
    if not inter:
        if is_k_shape(union, k):
            case = "I"
        else:
            case = "II"
            add = frozenset((r + dr, j + dc) for r, j in m.strings[-1].cells)
    else:
        above, below = _split_at_intersection(c, inter)
        sticks, other = (above, below) if row else (below, above)
        drop = inter
        if sticks and not other:
            case = "III"
        elif above and below:
            case = "IV"
            add = frozenset((r + dc, j + dr) for r, j in inter)
        else:
            raise IntegrityError(
                f"no pushout type applies: cover {sorted(cells_c)} vs "
                f"{m.orientation} move {sorted(m.cells)} over {lam}"
            )
    kind = f"{'row' if row else 'col'}-{case}"
    new_c_cells = (cells_c - drop) | add
    new_m_cells = (m.cells - drop) | add

    try:
        eta = add_cells(nu, new_c_cells)
        new_cover = make_cover(nu, eta, k)
    except ValueError as exc:
        raise IntegrityError(f"{kind}: output cover is invalid: {exc}") from exc
    if new_m_cells:
        new_move = move_from_cells(mu, new_m_cells, m.orientation, k)
        if new_move.target != eta:
            raise IntegrityError(f"{kind}: square does not commute")
    else:
        new_move = None
        if eta != mu:
            raise IntegrityError(f"{kind}: empty bottom move but corners differ")
    # types I and III leave the union of the input cells; II appends the
    # completion and IV translates the overlap block to fresh cells
    if case in ("I", "III") and eta != union:
        raise IntegrityError(f"{kind}: corner is not the union of the inputs")
    return PushoutSquare(kind, c, new_cover, m, new_move)


def _maximize(c: StringOfCells, k: int, squares: list[PushoutSquare]) -> StringOfCells:
    guard = 0
    while not (st := cover_status(c, k)).maximal:
        sq = maximize_below(c, k) if st.continues_below else maximize_above(c, k)
        squares.append(sq)
        c = sq.cover_out
        guard += 1
        if guard > sum(c.outer) + 2:
            raise IntegrityError("maximization does not terminate")
    return c


def push_cover_through_path(
    c: StringOfCells, p: Path, k: int
) -> tuple[StringOfCells, Path, tuple[PushoutSquare, ...]]:
    """Convert an arbitrary cover and top path into a maximal cover, the
    corresponding bottom path and the squares between them, in canonical
    order: maximize fully, push one move, repeat.

    The bottom path's moves are the non-empty bottom moves of the
    squares, in order.  Each call comes from a ``_letter_step`` miss, so
    the strip has no table; a repeat is rebuilt from the square tables.
    """
    if c.inner != p.start:
        raise ValueError("cover must start where the path starts")
    squares: list[PushoutSquare] = []
    start = c.outer
    for m in p.moves:
        sq = maximal_pushout(_maximize(c, k, squares), m, k)
        squares.append(sq)
        c = sq.cover_out
    c = _maximize(c, k, squares)
    moves = tuple(sq.move_out for sq in squares if sq.move_out is not None)
    return c, Path(start=start, moves=moves), tuple(squares)


@dataclass(frozen=True)
class WeakBijectionResult:
    """Image of a standard k-tableau: the (k-1)-tableau, whose steps
    ``_letter_step`` checked, and the path, with the squares of every
    strip in the order they were pushed."""

    source: WeakTableau
    target: WeakTableau
    path: Path
    squares: tuple[PushoutSquare, ...] = field(repr=False)


# built once: a Path checks that its moves compose when built
_EMPTY_PATH = Path(start=())


@dataclass(frozen=True, slots=True, eq=False)
class _State:
    """The weak bijection after a letter: the letter's cover in the source
    and in the target (none before letter 1) and the path so far.  Built
    only through ``_state``, which interns it by value, so it hashes and
    compares by identity."""

    cover: StringOfCells | None
    cover_out: StringOfCells | None
    path: Path


@lru_cache(maxsize=None)
def _state(cover: StringOfCells | None, cover_out: StringOfCells | None, path: Path) -> _State:
    """The one ``_State`` of these fields."""
    return _State(cover, cover_out, path)


_ROOT = _state(None, None, _EMPTY_PATH)


class _Step(NamedTuple):
    """One letter of the weak bijection: the state after it, the squares
    of its strip, and its terms in the charge and cocharge of the source
    and of the target."""

    state: _State
    strip: tuple[PushoutSquare, ...]
    terms: tuple[int, int, int, int]


@lru_cache(maxsize=None)
def _letter_step(before: _State, outer: Partition, k: int) -> _Step:
    """The next letter, which fills outer/shape, after the state before.

    Its cover is pushed through the path so far, giving its strip.  The
    input step must be a standard step at k with a reverse-maximal cover;
    the output cover must chain onto the target, be maximal, and be a
    standard step at k-1.  A step that raises stores nothing, in this
    table or in ``_state``.  Its messages do not name k, which may be a
    level shared below the tableau's own; ``weak_bijection_standard``
    adds k and the step.
    """
    prev, prev_out = before.cover, before.cover_out
    shape = () if prev is None else prev.outer
    target = () if prev is None else prev_out.outer
    if partition(outer) != outer:  # partition() raises for a part below 1 or a rise
        raise ValueError(f"{outer} is not a partition")
    if not is_standard_step(shape, outer, k):
        raise ValueError("not a standard weak strip")
    c = make_cover(shape, outer, k)
    if not cover_status(c, k).reverse_maximal:
        raise IntegrityError("standard tableau step is not reverse-maximal")
    c_out, path, strip = push_cover_through_path(c, before.path, k)
    if c_out.inner != target:
        raise IntegrityError("output covers do not chain")
    if not cover_status(c_out, k).maximal:
        raise IntegrityError("output chain is not a maximal-cover chain")
    if not is_standard_step(target, c_out.outer, k - 1):
        raise IntegrityError(f"output step {c_out.outer}/{target} is not standard one level down")
    if prev is None:  # letter 1 adds nothing to either statistic
        terms = (0, 0, 0, 0)
    else:
        terms = (
            letter_term(CHARGE, prev, c, k),
            letter_term(COCHARGE, prev, c, k),
            letter_term(CHARGE, prev_out, c_out, k),
            letter_term(COCHARGE, prev_out, c_out, k),
        )
    return _Step(_state(c, c_out, path), strip, canonical(terms))


def weak_bijection_standard(t: WeakTableau) -> WeakBijectionResult:
    """Map a standard k-tableau to a standard (k-1)-tableau and a path.

    One pass of ``_letter_step`` over the chain: every cover is pushed
    through the path produced so far, and the maximal covers it yields
    form the output chain.  Each letter gives four terms, in the charge
    and cocharge of the source and of the target, and each of the four
    sums is the ``weak_tableaux._fold`` of its column of terms, as for
    the weak charge.  Additivity across the square diagram is asserted
    on these sums.

    Each letter's step is looked up at the level min(k, λ₁ + ℓ) of the
    shape μ after it.  Suppose λ₁(μ) + ℓ(μ) ≤ k.  Then every hook of μ,
    and of every shape inside μ, is at most k - 1, so both the k- and
    the (k-1)-boundary are the whole shape, every such shape is a k-core
    and a (k+1)-core, no cell has hook k (nothing is pushed, and no row
    or column string or move exists), and all rows are k-connected.  The
    addable corners of the previous shape are at most λ₁ + ℓ apart, and
    that distance needs two corners outside μ, so no corner lies at
    distance k or k + 1 from the letter's cell and every cover is
    maximal and reverse-maximal.  The step is therefore the same for
    every larger k: the same covers, no moves, the same squares and four
    terms.  Shapes only grow, so these letters form a prefix of the
    chain and the path before them has no moves.  A shared step ran each
    of its checks at its own level, where each gives the verdict it
    gives at k.  The bound is tight: at λ₁ + ℓ - 1 the (k-1)-boundary
    loses the corner hook.  The result, and every error, names the
    tableau's own k.
    """
    if not t.is_standard():
        raise ValueError("the weak bijection requires a standard tableau")
    k = t.k
    if k < 2:
        raise ValueError("descent requires k >= 2")
    if t.chain[:1] != ((),):
        raise ValueError("chain must start at the empty partition")
    state = _ROOT
    chain_out = [()]
    squares = []
    columns = ([], [], [], [])  # each letter's four terms, one column each
    for n, outer in enumerate(t.chain[1:], start=1):
        try:
            # () has no bound; a shape that is not a partition gets some
            # level and is rejected by the step's first check, or fails
            # the sum here with TypeError, reported as bad input
            level = min(k, outer[0] + len(outer)) if outer else k
            step = _letter_step(state, outer, level)
        except (TypeError, ValueError, IntegrityError) as exc:
            shape = () if state.cover is None else state.cover.outer
            kind = ValueError if isinstance(exc, TypeError) else type(exc)
            raise kind(f"letter {n}, {outer}/{shape} at k={k}: {exc}") from exc
        state = step.state
        chain_out.append(state.cover_out.outer)
        squares += step.strip
        for column, term in zip(columns, step.terms):
            column.append(term)
    charge, cocharge, target_charge, target_cocharge = map(_fold, columns)
    path = state.path
    if charge != target_charge + path.charge():
        raise IntegrityError("charge additivity failed")
    if cocharge != target_cocharge + path.cocharge():
        raise IntegrityError("cocharge additivity failed")
    target = WeakTableau(k=k - 1, chain=tuple(chain_out), weight=t.weight)
    return WeakBijectionResult(source=t, target=target, path=path, squares=tuple(squares))


@dataclass(frozen=True)
class DescentRecord:
    """Result of iterating the weak bijection down to the 1-tableau."""

    source: WeakTableau
    levels: tuple[WeakBijectionResult, ...]

    @property
    def total_charge(self) -> int:
        return sum(lv.path.charge() for lv in self.levels)

    @property
    def total_cocharge(self) -> int:
        return sum(lv.path.cocharge() for lv in self.levels)

    def to_text(self) -> str:
        lines = [f"source: {self.source.text() or '-'}"]
        for lv in self.levels:
            lines.append(
                f"k={lv.source.k}: path {lv.path.text()}"
                f" | charge {lv.path.charge()} cocharge {lv.path.cocharge()}"
            )
        lines.append(
            f"total charge {self.total_charge} cocharge {self.total_cocharge}"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "source": self.source.text(),
                "levels": [
                    {
                        "k": lv.source.k,
                        "path": lv.path.text(),
                        "chain": [format_partition(s) for s in lv.target.chain],
                        "charge": lv.path.charge(),
                        "cocharge": lv.path.cocharge(),
                    }
                    for lv in self.levels
                ],
                "total_charge": self.total_charge,
                "total_cocharge": self.total_cocharge,
            },
            indent=2,
        )


def descend(t: WeakTableau) -> DescentRecord:
    """Iterate the weak bijection from level k down to the 1-tableau.

    Each level is a fold of ``_letter_step``, whose steps check that the
    chain they read is a standard tableau at that level.  At k < 2 no
    level runs, so the chain is checked here (``_chain_weight``), as
    ``sigma_involution`` checks one; ValueError unless its weak strips
    have the standard weight.
    """
    if not t.is_standard() or (t.k < 2 and _chain_weight(t.k, t.chain) != t.weight):
        raise ValueError("the weak bijection requires a standard tableau")
    levels = []
    for _ in range(t.k - 1):
        levels.append(weak_bijection_standard(levels[-1].target if levels else t))
    return DescentRecord(source=t, levels=tuple(levels))


def full_descent(chain: Sequence[Partition]) -> DescentRecord:
    """Descend from an ordinary standard Young tableau given as a chain:
    the first level's steps check the chain at k = n, and ``descend``
    checks a chain of fewer than two letters at k = 1."""
    chain = tuple(map(partition, chain))
    n = len(chain) - 1
    return descend(WeakTableau(k=max(n, 1), chain=chain, weight=(1,) * n))
