from collections import Counter
from dataclasses import dataclass
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kshape.errors import IntegrityError
from kshape.kshape_tableaux import (
    CHARGE,
    COCHARGE,
    _interval,
    chain_characterization,
    charge_cocharge_residual,
    charge_kshape,
    cocharge_kshape,
    connected_rows,
    cover_status,
    enumerate_covers,
    enumerate_kshape_tableaux,
    letter_term,
    make_cover,
    make_kshape_tableau,
)
from kshape import pushout
from kshape.partitions import add_cells, conjugate, is_p_core, k_interior, residue
from kshape.poset import (
    COLUMN,
    ROW,
    Path,
    enumerate_moves,
    kshapes_of_size,
    move_charge,
    move_from_cells,
    path_class_groups,
)
from kshape.pushout import (
    _ROOT,
    PushoutSquare,
    _letter_step,
    _state,
    descend,
    full_descent,
    maximal_pushout,
    maximize_above,
    maximize_below,
    push_cover_through_path,
    weak_bijection_standard,
)
from kshape.classical import (
    classical_charge,
    classical_cocharge,
    standard_young_tableaux,
)
from kshape.partitions import addable_corners, partition, partitions_of, removable_corners
from kshape.weak_tableaux import (
    ChainTableau,
    WeakTableau,
    charge_any_weight,
    charge_standard,
    cocharge_standard,
    count_standard_k_tableaux,
    enumerate_standard_k_tableaux,
    enumerate_weak_tableaux,
    is_standard_step,
    kostka_k,
    make_weak_tableau,
    parse_tableau_text,
    sigma_involution,
    standard_shapes,
    standard_successors,
)


def test_maximize_below_micro():
    c = make_cover((1,), (1, 1), 2)
    sq = maximize_below(c, 2)
    assert sq.kind == "max-below" and sq.cover_in is c and sq.move_in is None
    assert sorted(sq.move_out.cells) == [(1, 2)]
    assert sq.move_out.orientation == "row"
    assert sq.cover_out.inner == (1,) and sq.cover_out.outer == (2, 1)


def test_maximize_above_is_transpose_of_below():
    c = make_cover((1,), (2,), 2)
    sq = maximize_above(c, 2)
    assert sq.kind == "max-above" and sq.cover_in is c and sq.move_in is None
    assert sorted(sq.move_out.cells) == [(2, 1)]
    assert sq.move_out.orientation == "column"
    assert sq.cover_out.outer == (2, 1)
    # systematically: maximizing above is conjugate to maximizing below
    for k in (2, 3):
        for size in range(0, 6):
            for lam in kshapes_of_size(k, size):
                for c in enumerate_covers(lam, k):
                    st = cover_status(c, k)
                    if not st.continues_above or st.continues_below:
                        continue
                    sq = maximize_above(c, k)
                    cc = make_cover(conjugate(c.inner), conjugate(c.outer), k)
                    sq_c = maximize_below(cc, k)
                    assert conjugate(sq_c.cover_out.outer) == sq.cover_out.outer
                    assert {(j, i) for i, j in sq_c.move_out.cells} == set(sq.move_out.cells)


def test_maximize_below_sweep():
    # every continuable cover grows to a cover, emitting a valid row move
    count = 0
    for k in (2, 3):
        for size in range(0, 7):
            for lam in kshapes_of_size(k, size):
                for c in enumerate_covers(lam, k):
                    if not cover_status(c, k).continues_below:
                        continue
                    sq = maximize_below(c, k)
                    grown, mv = sq.cover_out, sq.move_out
                    assert grown.inner == c.inner
                    assert mv.source == c.outer and mv.target == grown.outer
                    assert set(c.cells) < set(grown.cells)
                    assert not cover_status(grown, k).continues_below
                    count += 1
    assert count > 20


def test_maximize_requires_continuability():
    c = make_cover((), (1,), 2)
    with pytest.raises(ValueError):
        maximize_below(c, 2)
    with pytest.raises(ValueError):
        maximize_above(c, 2)


def test_pushout_requires_maximal_cover():
    hits = 0
    for lam in kshapes_of_size(2, 4):
        moves = enumerate_moves(lam, 2)
        non_maximal = [
            c for c in enumerate_covers(lam, 2) if not cover_status(c, 2).maximal
        ]
        for c in non_maximal[:1]:
            for m in moves[:1]:
                with pytest.raises(ValueError):
                    maximal_pushout(c, m, 2)
                hits += 1
    assert hits


def test_interference_matches_profile_criterion():
    # for disjoint pairs, the union fails to be a k-shape exactly when
    # the complementary boundary profile of the move breaks the cover's
    from kshape.partitions import col_shape, row_shape, union_shape
    from kshape.poset import is_k_shape

    def is_weakly_decreasing(seq):
        return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))

    checked = interfering = 0
    for k in (2, 3):
        for size in range(0, 7):
            for lam in kshapes_of_size(k, size):
                covers = [
                    c for c in enumerate_covers(lam, k) if cover_status(c, k).maximal
                ]
                for c in covers:
                    for m in enumerate_moves(lam, k):
                        if set(c.cells) & set(m.cells):
                            continue
                        profile = col_shape if m.orientation == "row" else row_shape
                        pm, pl = profile(m.target, k), profile(lam, k)
                        delta = [
                            (pm[i] if i < len(pm) else 0) - (pl[i] if i < len(pl) else 0)
                            for i in range(max(len(pm), len(pl)))
                        ]
                        po = profile(c.outer, k)
                        summed = [
                            (po[i] if i < len(po) else 0) + (delta[i] if i < len(delta) else 0)
                            for i in range(max(len(po), len(delta)))
                        ]
                        union = union_shape(c.outer, m.target)
                        assert is_k_shape(union, k) == is_weakly_decreasing(summed)
                        checked += 1
                        interfering += not is_k_shape(union, k)
    assert checked > 10 and interfering > 0


def test_pushout_type_dispatch_exhaustive():
    # every (maximal cover, move) pair falls in exactly one type and the
    # square commutes; all four types occur in both orientations; the
    # conjugate pair gives the transposed square of the partner kind
    partner = {"row": "col", "col": "row"}
    kinds = set()
    transposed = 0
    for k in (2, 3):
        for size in range(0, 7):
            for lam in kshapes_of_size(k, size):
                covers = [
                    c for c in enumerate_covers(lam, k) if cover_status(c, k).maximal
                ]
                for c in covers:
                    for m in enumerate_moves(lam, k):
                        sq = maximal_pushout(c, m, k)
                        kinds.add(sq.kind)
                        assert sq.cover_out.inner == m.target
                        out_cells = (
                            len(sq.move_out.cells) if sq.move_out else 0
                        )
                        assert len(sq.cover_out.cells) - len(sq.cover_in.cells) == (
                            out_cells - len(m.cells)
                        )
                        if sq.move_out is not None:
                            assert sq.move_out.orientation == m.orientation
                            assert sq.move_out.source == c.outer
                            assert sq.move_out.target == sq.cover_out.outer
                        tr = maximal_pushout(
                            make_cover(conjugate(c.inner), conjugate(c.outer), k),
                            move_from_cells(
                                conjugate(lam),
                                {(j, i) for i, j in m.cells},
                                COLUMN if m.orientation == ROW else ROW,
                                k,
                            ),
                            k,
                        )
                        side, case = sq.kind.split("-")
                        assert tr.kind == f"{partner[side]}-{case}"
                        assert tr.cover_out.outer == conjugate(sq.cover_out.outer)
                        assert (tr.move_out is None) == (sq.move_out is None)
                        if sq.move_out is not None:
                            assert tr.move_out.cells == {(j, i) for i, j in sq.move_out.cells}
                        transposed += 1
    assert transposed == 86
    assert kinds == {
        "row-I", "row-II", "row-III", "row-IV",
        "col-I", "col-II", "col-III", "col-IV",
    }


def test_push_through_empty_path():
    c = make_cover((), (1,), 2)
    out, path, squares = push_cover_through_path(c, Path(start=()), 2)
    assert out is c or out.cells == c.cells
    assert path.moves == () and squares == ()
    # non-maximal cover: the emitted path is exactly the maximization
    c = make_cover((1,), (1, 1), 2)
    out, path, squares = push_cover_through_path(c, Path(start=(1,)), 2)
    assert cover_status(out, 2).maximal
    assert len(path.moves) == 1
    assert [sq.kind for sq in squares] in (["max-below"], ["max-above"])
    assert path.start == (1, 1) and path.moves[-1].target == out.outer


def class_index(lam, k) -> dict:
    """Each move sequence from lam to a k-core, keyed to its end and the
    index of its diamond class among the classes at that end."""
    return {
        ms: (mu, i)
        for mu, groups in path_class_groups(lam, k).items()
        for i, g in enumerate(groups)
        for ms in g
    }


def test_weak_bijection_shape_3_1():
    t = enumerate_standard_k_tableaux((3, 1), 2)[0]
    res = weak_bijection_standard(t)
    assert res.path.start == (3, 1) and res.path.moves[-1].target == (3, 2, 1)
    assert res.path.charge() == 2
    assert res.target.chain == ((), (1,), (2, 1), (3, 2, 1))
    assert charge_standard(t) == 2
    assert res.squares
    mu, i = class_index(res.path.start, res.source.k)[res.path.moves]
    members = path_class_groups(res.path.start, res.source.k)[mu][i]
    assert {sum(map(move_charge, ms)) for ms in members} == {2}


def test_weak_bijection_single_letter():
    t = enumerate_standard_k_tableaux((1,), 2)[0]
    res = weak_bijection_standard(t)
    assert res.path.moves == ()
    assert res.target.chain == ((), (1,))


def test_weak_bijection_rejects_nonstandard():
    from kshape.weak_tableaux import parse_tableau_text

    t = parse_tableau_text(3, "1 1")
    with pytest.raises(ValueError):
        weak_bijection_standard(t)


def test_bijection_square_marker_facts():
    # along row squares the top cell of the cover survives and never sits
    # in a row of the move; dually for column squares and bottom cells
    for k in (2, 3):
        for n in range(1, 6):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    res = weak_bijection_standard(t)
                    for sq in res.squares:
                        row_kind = sq.kind == "max-below" or sq.kind.startswith("row")
                        if row_kind:
                            assert sq.cover_in.top == sq.cover_out.top
                            move_rows = {
                                c[0]
                                for mv in (sq.move_in, sq.move_out)
                                if mv
                                for c in mv.cells
                            }
                            assert sq.cover_in.top[0] not in move_rows
                        else:
                            assert (
                                sq.cover_in.bottom
                                == sq.cover_out.bottom
                            )


def test_path_moves_are_the_bottom_moves_of_the_squares():
    """Each strip's bottom path is the non-empty bottom moves of its
    squares, and becomes the top path of the next strip; so over a whole
    result the bottom moves are the top moves followed by the final path."""
    count = 0
    for k in range(2, 6):
        for n in range(0, 8):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    path = Path(start=())
                    for inner, outer in zip(t.chain, t.chain[1:]):
                        _, path, strip = push_cover_through_path(make_cover(inner, outer, k), path, k)
                        assert path.moves == tuple(sq.move_out for sq in strip if sq.move_out is not None)
                    res = weak_bijection_standard(t)
                    assert res.path == path
                    outs = tuple(sq.move_out for sq in res.squares if sq.move_out is not None)
                    ins = tuple(sq.move_in for sq in res.squares if sq.move_in is not None)
                    assert outs == ins + res.path.moves
                    count += 1
    assert count == 548


def test_bijection_additivity_small():
    for k in (2, 3, 4):
        for n in range(1, 6):
            if k > n:
                continue
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    res = weak_bijection_standard(t)
                    target = make_weak_tableau(k - 1, res.target.chain)
                    assert charge_standard(t) == (
                        charge_standard(target) + res.path.charge()
                    )
                    assert cocharge_standard(t) == (
                        cocharge_standard(target) + res.path.cocharge()
                    )


def test_bijection_is_injective_small():
    for k in (2, 3):
        for n in range(1, 6):
            for lam in standard_shapes(k, n):
                images = set()
                classes = class_index(lam, k)
                for t in enumerate_standard_k_tableaux(lam, k):
                    res = weak_bijection_standard(t)
                    assert res.path.start == lam
                    key = (res.target.chain, classes[res.path.moves])
                    assert key not in images
                    images.add(key)


_TRANSPOSED_KIND = {"max-below": "max-above", "max-above": "max-below"}
_TRANSPOSED_KIND.update(
    {f"{a}-{x}": f"{b}-{x}" for x in ("I", "II", "III", "IV") for a, b in (("row", "col"), ("col", "row"))}
)


def test_weak_bijection_commutes_with_transposition():
    """Every standard k-tableau t with 2 <= k <= n <= 8, and t' the
    tableau of its conjugated chain: the image of t' is the conjugate
    chain, its path charge and cocharge are those of t swapped, and its
    squares are those of t with row and column, max-below and max-above
    swapped, as multisets (in 68 tableaux the order differs).  So the
    exhaustive row and column square counts agree tableau by tableau."""
    kinds, tableaux, reordered = Counter(), 0, 0
    for n in range(2, 9):
        for k in range(2, n + 1):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    flipped = WeakTableau(k=k, chain=tuple(map(conjugate, t.chain)), weight=t.weight)
                    res, res_t = weak_bijection_standard(t), weak_bijection_standard(flipped)
                    assert res_t.target.chain == tuple(map(conjugate, res.target.chain)), t.chain
                    assert (res_t.path.charge(), res_t.path.cocharge()) == (
                        res.path.cocharge(),
                        res.path.charge(),
                    ), t.chain
                    moved = [_TRANSPOSED_KIND[sq.kind] for sq in res.squares]
                    seen = [sq.kind for sq in res_t.squares]
                    assert Counter(moved) == Counter(seen), t.chain
                    reordered += moved != seen
                    kinds.update(sq.kind for sq in res.squares)
                    tableaux += 1
    assert (tableaux, reordered) == (3754, 68)
    assert kinds == {
        "row-I": 447, "row-II": 228, "row-III": 1133, "row-IV": 33, "max-below": 2273,
        "col-I": 447, "col-II": 228, "col-III": 1133, "col-IV": 33, "max-above": 2273,
    }


def test_full_descent_small():
    rec = full_descent([()])
    assert rec.levels == () and rec.total_charge == 0
    rec = full_descent([(), (1,)])
    assert rec.levels == () and rec.total_charge == 0
    for n in range(2, 6):
        for lam in partitions_of(n):
            for ch in standard_young_tableaux(lam):
                rec = full_descent(ch)
                assert rec.total_charge == classical_charge(ch)
                assert rec.total_cocharge == n * (n - 1) // 2 - rec.total_charge
                assert [lv.source.k for lv in rec.levels] == list(range(n, 1, -1))
                # the descent ends at the unique staircase chain
                final = rec.levels[-1].target.chain
                assert all(
                    x == tuple(range(i, 0, -1))
                    for i, x in enumerate(final)
                )


@st.composite
def standard_young_tableaux_of_size(draw, lo: int, hi: int):
    """A standard Young tableau as its chain: a shape of size lo..hi, then
    one removable corner after another down to the empty shape."""
    shape = draw(st.sampled_from([lam for n in range(lo, hi + 1) for lam in partitions_of(n)]))
    chain = [shape]
    while chain[-1]:
        i, _ = draw(st.sampled_from(removable_corners(chain[-1])))
        rows = list(chain[-1])
        rows[i - 1] -= 1
        chain.append(partition(rows))
    return tuple(reversed(chain))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(standard_young_tableaux_of_size(9, 12))
def test_full_descent_matches_classical_past_exhaustive_range(ch):
    rec = full_descent(ch)
    assert rec.total_charge == classical_charge(ch)
    assert rec.total_cocharge == classical_cocharge(ch)
    assert len(rec.levels) == len(ch) - 2


def test_descent_record_serialization():
    import json

    ch = ((), (1,), (2,), (2, 1))
    rec = full_descent(ch)
    text = rec.to_text()
    assert "total charge" in text
    payload = json.loads(rec.to_json())
    assert payload["total_charge"] == rec.total_charge
    assert len(payload["levels"]) == 2
    assert payload["levels"][0]["k"] == 3


def _whole_chain_letter_statistic(chain, k, end, drop, rise) -> tuple[int, ...]:
    """``_letter_statistic`` as it was before the prefix fold: one pass over
    the whole chain, giving each letter's running sum of one signed
    interval per letter 2..n."""
    rows = [make_cover(a, b, k).cells[end][0] for a, b in zip(chain, chain[1:])]
    out = [0]
    total = 0
    for n in range(2, len(chain)):
        r, rp = rows[n - 2] + 1, rows[n - 1]
        sign, left, right = drop if r > rp else rise
        hi, lo = (r, rp) if r > rp else (rp, r)
        total += sign * _interval(chain[n - 1], k, hi, lo, left, right)
        out.append(total)
    return tuple(out)


def _charge_and_cocharge(chain, k):
    return (
        sum(_whole_chain_letter_statistic(chain, k, 0, (1, True, False), (-1, False, True))),
        sum(_whole_chain_letter_statistic(chain, k, -1, (-1, False, False), (1, True, True))),
    )


def _all_standard(ks, n_max):
    return [
        t
        for k in ks
        for n in range(0, n_max + 1)
        for lam in standard_shapes(k, n)
        for t in enumerate_standard_k_tableaux(lam, k)
    ]


def _prefix_sums(t):
    """Walk ``_letter_step`` over a standard tableau by hand; after each
    letter, yield the path so far and the four statistics of the prefix
    (charge and cocharge of the source, then of the target), each the sum
    of the letters' running sums of terms."""
    state = _ROOT
    letter = total = (0, 0, 0, 0)
    for outer in t.chain[1:]:
        state, _, terms = _letter_step(state, outer, t.k)
        letter = tuple(a + b for a, b in zip(letter, terms))
        total = tuple(a + b for a, b in zip(total, letter))
        yield state.path, total


def test_prefix_states_fold_the_letter_statistic():
    """After every prefix of the tableau, the summed terms of the letter
    steps are the charge and cocharge of that prefix and of its image, as
    the whole-chain pass computes them."""
    tableaux = _all_standard(range(2, 6), 8)
    assert len(tableaux) == 1244
    for t in tableaux:
        k = t.k
        res = weak_bijection_standard(t)
        image = res.target.chain
        path = Path(start=())
        for i, (path, sums) in enumerate(_prefix_sums(t), start=2):
            assert sums[:2] == _charge_and_cocharge(t.chain[:i], k)
            assert sums[2:] == _charge_and_cocharge(image[:i], k)
        assert path == res.path


@dataclass(frozen=True, slots=True, eq=False)
class _Prefix:
    """The weak bijection's state after a prefix of a chain, as the fold
    kept it before each letter's step was keyed by what it reads: a parent
    pointer, letter n's two covers, the path, letter n's strip and the
    four statistics of the prefix, folded by a second-order recurrence."""

    parent: "_Prefix | None"
    k: int
    cover: object
    cover_out: object
    path: Path
    strip: tuple[PushoutSquare, ...]
    charge: int
    cocharge: int
    target_charge: int
    target_cocharge: int

    def lineage(self):
        out = []
        state = self
        while state.parent is not None:
            out.append(state)
            state = state.parent
        return out[::-1]


def _prefix_step(state, outer):
    """The prefix fold's step, unmemoized; the oracle of ``_letter_step``."""
    k = state.k
    prev, prev_out = state.cover, state.cover_out
    root = prev is None
    shape = () if root else prev.outer
    target = () if root else prev_out.outer
    if not is_standard_step(shape, outer, k):
        raise ValueError(f"{outer}/{shape} is not a standard weak strip at k={k}")
    c = make_cover(shape, outer, k)
    if not cover_status(c, k).reverse_maximal:
        raise IntegrityError(f"standard tableau step {outer}/{shape} is not reverse-maximal")
    c_out, path, strip = push_cover_through_path(c, state.path, k)
    if c_out.inner != target:
        raise IntegrityError("output covers do not chain")
    if not cover_status(c_out, k).maximal:
        raise IntegrityError("output chain is not a maximal-cover chain")
    if not is_standard_step(target, c_out.outer, k - 1):
        raise IntegrityError(f"output step {c_out.outer}/{target} is not standard at k={k - 1}")
    if root:
        return _Prefix(state, k, c, c_out, path, strip, 0, 0, 0, 0)
    # T(n+1) = T(n) + (T(n) - T(n-1)) + term(n+1), T(n) the prefix's charge
    p = state.parent
    return _Prefix(
        state,
        k,
        c,
        c_out,
        path,
        strip,
        2 * state.charge - p.charge + letter_term(CHARGE, prev, c, k),
        2 * state.cocharge - p.cocharge + letter_term(COCHARGE, prev, c, k),
        2 * state.target_charge - p.target_charge + letter_term(CHARGE, prev_out, c_out, k),
        2 * state.target_cocharge - p.target_cocharge + letter_term(COCHARGE, prev_out, c_out, k),
    )


def test_letter_steps_match_the_prefix_fold():
    """The loop over ``_letter_step`` gives the prefix fold's target
    chain, path, squares and four statistics on every standard k-tableau,
    2 <= k <= 5 and n <= 7."""
    tableaux = _all_standard(range(2, 6), 7)
    assert len(tableaux) == 548
    for t in tableaux:
        root = _Prefix(None, t.k, None, None, Path(start=()), (), 0, 0, 0, 0)
        end = reduce(_prefix_step, t.chain[1:], root)
        states = end.lineage()
        res = weak_bijection_standard(t)
        assert res.target.chain == ((),) + tuple(s.cover_out.outer for s in states)
        assert res.path == end.path
        assert res.squares == tuple(sq for s in states for sq in s.strip)
        sums = (0, 0, 0, 0)
        for _, sums in _prefix_sums(t):
            pass
        assert sums == (end.charge, end.cocharge, end.target_charge, end.target_cocharge)


PUSHOUT_TABLES = (
    _letter_step,
    _state,
    maximal_pushout,
    maximize_below,
    maximize_above,
)


def test_cold_and_warm_bijection_agree():
    """With every pushout table cleared, the fold gives what the warm
    tables, filled by every other tableau, gave."""
    tableaux = _all_standard(range(2, 6), 7)
    warm = [weak_bijection_standard(t) for t in tableaux]
    for t, w in zip(tableaux, warm):
        for table in PUSHOUT_TABLES:
            table.cache_clear()
        cold = weak_bijection_standard(t)
        assert (cold.target.chain, cold.path, cold.squares) == (w.target.chain, w.path, w.squares)
    assert sum(bool(w.squares) for w in warm) > 200


@pytest.mark.parametrize(
    "chain",
    [
        ((), (1,), (2, 1)),  # a reverse-maximal cover, but (2,1) is no 3-core
        ((), (2,)),  # a weak strip that grows the boundary by 2
        ((), (1,), (1, 1), (2, 1, 1), (3, 2, 1, 1)),  # a valid prefix, then a bad step
    ],
)
@pytest.mark.parametrize("warm", [False, True])
def test_directly_built_non_strip_raises(chain, warm):
    t = WeakTableau(k=2, chain=chain, weight=(1,) * (len(chain) - 1))
    if warm:  # the steps of the valid prefix are already in the step table
        for ch in (chain[:-1], ((), (1,), (2,), (3, 1))):
            weak_bijection_standard(WeakTableau(k=2, chain=ch, weight=(1,) * (len(ch) - 1)))
    else:
        for table in PUSHOUT_TABLES:
            table.cache_clear()
    for call in range(3):
        with pytest.raises(ValueError, match="not a standard weak strip"):
            weak_bijection_standard(t)
        with pytest.raises(ValueError, match="not a standard weak strip"):
            descend(t)
        if call == 0:
            size = _letter_step.cache_info().currsize
    # the prefix before the bad step is stored, and nothing after it
    assert _letter_step.cache_info().currsize == size
    if not warm:
        assert size == len(chain) - 2


@pytest.mark.parametrize(
    "chain",
    [
        ((), (1, 2)),  # increasing parts
        ((), (0, 1)),  # a zero part
        ((), (-1,)),  # a negative part
        ((), ()),  # a letter that adds no cell
        ((), (1,), (1,)),  # a valid letter, then one that adds no cell, keyed at level 2
        ((), ("a",)),  # a part that is not a number, met first by the level key
    ],
)
@pytest.mark.parametrize("warm", [False, True])
def test_malformed_step_raises_value_error_naming_the_tableau(chain, warm):
    """A step shape that is not a partition, or adds nothing, raises
    ValueError on every call, warm or cold, stores nothing, and names the
    bad step and the tableau's k, not the level its step is keyed by."""
    t = WeakTableau(k=3, chain=chain, weight=(1,) * (len(chain) - 1))
    for table in PUSHOUT_TABLES:
        table.cache_clear()
    if warm:  # stores the step of (1,), at level 2
        for ch in (((), (1,), (2,)), ((), (1,), (1, 1))):
            weak_bijection_standard(WeakTableau(k=3, chain=ch, weight=(1, 1)))
    where = f"letter {len(chain) - 1}, {chain[-1]}/{chain[-2]} at k=3: "
    size = _letter_step.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            weak_bijection_standard(t)
        assert str(err.value).startswith(where) and "k=2" not in str(err.value)
    assert _letter_step.cache_info().currsize == size + (not warm and len(chain) == 3)


def _hook_bound_inputs():
    """Every level of the full descent of every standard Young tableau
    with n <= 8, and every standard k-tableau with 2 <= k <= n + 2, n <= 8."""
    levels = [
        lv.source
        for n in range(1, 9)
        for lam in partitions_of(n)
        for ch in standard_young_tableaux(lam)
        for lv in full_descent(ch).levels
    ]
    return levels + [
        t
        for n in range(1, 9)
        for k in range(2, n + 3)
        for lam in standard_shapes(k, n)
        for t in enumerate_standard_k_tableaux(lam, k)
    ]


def _raw_steps(t):
    """The fold of the unmemoized step at the tableau's own k: each
    letter's arguments, without k, and its step."""
    state = _ROOT
    for outer in t.chain[1:]:
        step = _letter_step.__wrapped__(state, outer, t.k)
        yield (state, outer), step
        state = step.state


def test_letter_steps_are_keyed_exactly_at_the_hook_bound():
    """The step table holds each letter's step at min(k, λ₁ + ℓ) of its
    shape and nothing else, and that step equals, field for field, the
    unmemoized step at the tableau's k.  At λ₁ + ℓ - 1 every step (from
    level 2 up) changes or raises, so the bound is tight."""
    tableaux = _hook_bound_inputs()
    assert len(tableaux) == 13248
    _letter_step.cache_clear()
    keys = set()
    lower = []
    for t in tableaux:
        k = t.k
        res = weak_bijection_standard(t)
        raw = list(_raw_steps(t))
        assert res.source.k == k
        assert res.target.chain == ((),) + tuple(step.state.cover_out.outer for _, step in raw)
        assert res.path == raw[-1][1].state.path
        assert res.squares == tuple(sq for _, step in raw for sq in step.strip)
        for args, step in raw:
            bound = args[-1][0] + len(args[-1])
            keys.add((*args, min(k, bound)))
            assert _letter_step(*args, min(k, bound)) == step
            if 2 <= bound - 1 < k:
                try:
                    lower.append(_letter_step.__wrapped__(*args, bound - 1) != step)
                except (ValueError, IntegrityError):
                    lower.append(True)
    # every lookup above hit an entry that the bijection stored
    assert _letter_step.cache_info().currsize == len(keys) == 895
    assert len(lower) == 56980 and all(lower)


@pytest.mark.parametrize(
    "entry",
    [
        lambda ch: make_weak_tableau(2, ch),
        lambda ch: make_kshape_tableau(2, ch),
        lambda ch: chain_characterization(ch, 2),
        full_descent,
    ],
    ids=["make_weak_tableau", "make_kshape_tableau", "chain_characterization", "full_descent"],
)
@pytest.mark.parametrize(
    "chain",
    [
        ((), (1,), (1, 1), (1, 2)),  # increasing parts
        ((), (1,), (1, -1)),  # a negative part
        ((), (1,), "ab"),  # not integers
        (),  # no shape at all
    ],
)
def test_malformed_chain_raises_value_error(entry, chain):
    with pytest.raises(ValueError):
        entry(chain)


def test_descend_validates_every_level():
    """descend builds each level's tableau without make_weak_tableau; the
    steps of the next level, and the output check of the last, stand in
    for it: every target chain is a weak tableau of its level."""
    for ch in ((), (1,), (2,), (2, 1), (3, 1), (3, 2)), ((), (1,), (1, 1), (2, 1), (2, 2), (3, 2)):
        rec = full_descent(ch)
        for lv in rec.levels:
            assert make_weak_tableau(lv.source.k - 1, lv.target.chain).is_standard()


def test_target_tableau_matches_validated_chain():
    """``target`` is built from the fold's checked steps without a second
    validation; it equals what ``make_weak_tableau`` makes of its chain.  A hand-built non-strip input raises before any target
    exists (``test_directly_built_non_strip_raises``, warm and cold)."""
    seen = 0
    for k in range(2, 6):
        for n in range(0, 9):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    res = weak_bijection_standard(t)
                    assert res.target == make_weak_tableau(k - 1, res.target.chain)
                    seen += 1
    assert seen == 1244


# a row move from (2,1,1), which no cover from () or (1,) starts at
_MOVE_211 = move_from_cells((2, 1, 1), {(1, 3), (2, 2)}, ROW, 2)

_TWO_ONES = parse_tableau_text(3, "1 1")  # one letter of weight 2
_ONE_LETTER_K0 = WeakTableau(0, ((), (1,)), (1,))
_NO_LETTER_K1 = ChainTableau(1, ((),))

PUBLIC_RAISES = [
    (weak_bijection_standard, (WeakTableau(1, ((), (1,)), (1,)),), "descent requires k >= 2"),
    (weak_bijection_standard, (WeakTableau(2, ((1,), (2,)), (1,)),), "chain must start at the empty"),
    (charge_standard, (_TWO_ONES,), "charge_standard requires a standard tableau"),
    (cocharge_standard, (_TWO_ONES,), "cocharge_standard requires a standard tableau"),
    (sigma_involution, (parse_tableau_text(3, "1 2"), 0), r"index 0 out of range 1\.\.1"),
    (charge_any_weight, (WeakTableau(2, ((), (3,)), (3,)),), "weight must be k-bounded"),
    (maximal_pushout, (make_cover((), (1,), 2), _MOVE_211, 2), "cover and move must start"),
    (Path, ((), (_MOVE_211,)), r"move from \(2, 1, 1\) does not compose at \(\)"),
    (enumerate_covers, ((2, 2, 1), 2), r"\(2, 2, 1\) is not a 2-shape"),
    (k_interior, ((1,), 0), "k must be at least 1: 0"),
    (residue, ((1, 1), 0), "k must be at least 1: 0"),
    (connected_rows, ((2, 1), 0), "k must be at least 2: 0"),
    (connected_rows, ((1, 2), 2), r"parts must be weakly decreasing: \(1, 2\)"),
    (enumerate_kshape_tableaux, (-3, 2), "n must be nonnegative: -3"),
    (cover_status, (make_cover((), (1,), 2), 1), "k must be at least 2: 1"),
    (add_cells, ((1,), [(1, 3)]), r"cell \(1,3\) does not extend row of length 1"),
    (is_p_core, ((1, 2), 3), r"parts must be weakly decreasing: \(1, 2\)"),
    (is_p_core, ((2, 0, 1), 3), r"partition parts must be positive: \(2, 0, 1\)"),
    (addable_corners, ((1, 2),), r"parts must be weakly decreasing: \(1, 2\)"),
    (removable_corners, ((1, 2),), r"parts must be weakly decreasing: \(1, 2\)"),
    (conjugate, ((2, 0, 1),), r"partition parts must be positive: \(2, 0, 1\)"),
    (conjugate, ((1, 2),), r"parts must be weakly decreasing: \(1, 2\)"),
    (kostka_k, ((1, 2), (1, 1, 1), 2), r"parts must be weakly decreasing: \(1, 2\)"),
    (enumerate_weak_tableaux, ((1, 2), 2, (1, 1, 1)), r"parts must be weakly decreasing: \(1, 2\)"),
    (standard_successors, ((1, 2), 2), r"parts must be weakly decreasing: \(1, 2\)"),
    # k out of range with empty input
    (count_standard_k_tableaux, ((), -3), "k must be at least 1: -3"),
    (enumerate_standard_k_tableaux, ((), 0), "k must be at least 1: 0"),
    (standard_shapes, (0, 0), "k must be at least 1: 0"),
    (standard_shapes, (0, 1), "k must be at least 1: 0"),
    (enumerate_kshape_tableaux, (0, 1), "k must be at least 2: 1"),
    (make_kshape_tableau, (1, [()]), "k must be at least 2: 1"),
    (chain_characterization, ([()], 1), "k must be at least 2: 1"),
    # k out of range with no second letter, whose term would check it
    (charge_standard, (_ONE_LETTER_K0,), "k must be at least 1: 0"),
    (cocharge_standard, (_ONE_LETTER_K0,), "k must be at least 1: 0"),
    (charge_kshape, (_NO_LETTER_K1,), "k must be at least 2: 1"),
    (cocharge_kshape, (_NO_LETTER_K1,), "k must be at least 2: 1"),
    (charge_cocharge_residual, (_NO_LETTER_K1,), "k must be at least 2: 1"),
]


@pytest.mark.parametrize(
    "fn,args,message", PUBLIC_RAISES, ids=[f.__name__ for f, *_ in PUBLIC_RAISES]
)
def test_public_input_checks_raise_value_error(fn, args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        fn(*args)


def test_maximize_guard_stops_a_maximizer_that_adds_nothing(monkeypatch):
    """The real maximizers always add a cell, so the guard never fires for
    them; a maximizer that hands back its own cover would loop forever."""
    def stuck(kind):
        return lambda c, k: PushoutSquare(kind, c, c, None, None)

    monkeypatch.setattr(pushout, "maximize_below", stuck("max-below"))
    monkeypatch.setattr(pushout, "maximize_above", stuck("max-above"))
    c = make_cover((2, 1, 1), (3, 1, 1), 2)  # it continues, so it is not maximal
    assert not cover_status(c, 2).maximal
    with pytest.raises(IntegrityError, match="^maximization does not terminate$"):
        pushout._maximize(c, 2, [])


def _chains_from_empty(n_max):
    """Every chain of partitions from () with at most n_max letters, each
    letter adding 0, 1 or 2 cells."""
    def grow(lam):
        ones = {add_cells(lam, [c]) for c in addable_corners(lam)}
        twos = {add_cells(mu, [c]) for mu in ones for c in addable_corners(mu)}
        return [lam, *sorted(ones), *sorted(twos)]

    chains = frontier = [((),)]
    for _ in range(n_max):
        frontier = [ch + (mu,) for ch in frontier for mu in grow(ch[-1])]
        chains = chains + frontier
    return chains


def test_full_descent_accepts_exactly_the_standard_young_tableaux():
    """With n >= 2 letters only the first level's steps check the chain;
    with fewer, ``descend`` does.  Either way
    ``full_descent`` returns, with the classical charge, on exactly the
    standard Young tableaux and raises ValueError on every other chain."""
    syt = {ch for n in range(6) for lam in partitions_of(n) for ch in standard_young_tableaux(lam)}
    chains = _chains_from_empty(5)
    assert (len(chains), len(syt)) == (19641, 44)
    for ch in chains:
        if ch in syt:
            assert full_descent(ch).total_charge == classical_charge(ch)
        else:
            with pytest.raises(ValueError):
                full_descent(ch)


def test_descent_that_runs_no_level_rejects_a_nonstandard_tableau():
    """One letter with no cell: at k = 1 no level runs, so ``descend``
    checks the weight itself."""
    with pytest.raises(ValueError, match="^the weak bijection requires a standard tableau$"):
        full_descent(((), ()))
    with pytest.raises(ValueError, match="^the weak bijection requires a standard tableau$"):
        descend(parse_tableau_text(1, "2"))


def test_descent_that_runs_no_level_checks_the_chain():
    """At k < 2 no level runs, so ``descend`` checks the chain itself: a
    hand-built tableau whose one letter fills two cells is rejected."""
    with pytest.raises(ValueError, match=r"^invalid weak strip \(2,\)/\(\) at k=1$"):
        descend(WeakTableau(k=1, chain=((), (2,)), weight=(1,)))
    with pytest.raises(ValueError, match="^the weak bijection requires a standard tableau$"):
        descend(WeakTableau(k=1, chain=((), ()), weight=(1,)))
    with pytest.raises(ValueError, match="^k must be at least 1: 0$"):
        descend(WeakTableau(k=0, chain=((),), weight=()))
    assert descend(WeakTableau(k=1, chain=((), (1,)), weight=(1,))).levels == ()


def test_letter_step_rejects_a_shape_with_a_trailing_zero():
    """(1, 0) passes ``partition`` but is not the partition it names."""
    t = WeakTableau(k=2, chain=((), (1, 0)), weight=(1,))
    with pytest.raises(ValueError, match=r"^letter 1, \(1, 0\)/\(\) at k=2: \(1, 0\) is not a partition$"):
        weak_bijection_standard(t)


@pytest.mark.parametrize(
    "term, message", [(2, "charge additivity failed"), (3, "cocharge additivity failed")]
)
def test_bijection_asserts_its_own_additivity(term, message, monkeypatch):
    """Letter 1's target charge (or cocharge) term off by one breaks the
    bijection's additivity assert.  The faulty steps are stored, so the
    step and state tables are cleared before and after."""
    step = pushout._Step

    def off_by_one(state, strip, terms):
        if state.cover.inner == ():
            terms = tuple(x + (i == term) for i, x in enumerate(terms))
        return step(state, strip, terms)

    monkeypatch.setattr(pushout, "_Step", off_by_one)
    t = parse_tableau_text(3, "1 2 / 3")
    _letter_step.cache_clear()
    _state.cache_clear()
    try:
        with pytest.raises(IntegrityError, match=f"^{message}$"):
            weak_bijection_standard(t)
    finally:
        _letter_step.cache_clear()
        _state.cache_clear()
