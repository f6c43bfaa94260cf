import re
from functools import lru_cache
from typing import Iterator

import pytest

from kshape.errors import IntegrityError
from kshape.partitions import (
    Partition,
    add_cells,
    addable_corners,
    boundary_size,
    conjugate,
    contains,
    diag,
    is_p_core,
    partitions_of,
    removable_corners,
)
from kshape.poset import (
    COVER,
    ROW,
    Move,
    Path,
    _conjugate_move,
    _grow_row_move,
    _pushed_column,
    _suffixes_by_end,
    classify_string,
    corner_chains,
    corner_run,
    enumerate_moves,
    enumerate_paths,
    enumerate_row_moves,
    equivalence_classes,
    is_k_shape,
    kshapes_of_size,
    move_charge,
    move_cocharge,
    move_from_cells,
    next_corner,
    path_class_groups,
    poset_dot,
    row_shape,
)
from kshape.weak_tableaux import standard_shapes


def partitions_in_box(max_len: int, max_part: int) -> Iterator[Partition]:
    """All partitions with at most max_len rows, each at most max_part."""

    def rec(rows_left: int, cap: int) -> Iterator[Partition]:
        yield ()
        if rows_left == 0:
            return
        for first in range(cap, 0, -1):
            for rest in rec(rows_left - 1, first):
                yield (first,) + rest

    yield from rec(max_len, max_part)


def kshapes_by_box_scan(k: int, size: int) -> tuple[Partition, ...]:
    """Reference enumeration: every row and column of a k-shape holds a
    boundary cell, so all k-shapes of this size fit in a size x size box."""
    return tuple(
        sorted(
            lam
            for lam in partitions_in_box(size, size)
            if boundary_size(lam, k) == size and is_k_shape(lam, k)
        )
    )


def test_is_k_shape_fixture():
    assert is_k_shape((8, 4, 3, 2, 1, 1, 1), 4)
    assert not is_k_shape((3, 3, 1), 4)
    assert is_k_shape((), 4)
    with pytest.raises(ValueError):
        is_k_shape((1,), 1)


def test_cores_are_k_shapes():
    for lam in [(4, 3, 2, 1), (2, 1), (5, 3, 1, 1)]:
        for k in (3, 4):
            if is_p_core(lam, k) or is_p_core(lam, k + 1):
                assert is_k_shape(lam, k)


def test_kshapes_of_size_matches_box_scan():
    for k in range(2, 6):
        for size in range(0, 9):
            assert kshapes_of_size(k, size) == kshapes_by_box_scan(k, size), (k, size)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        kshapes_of_size(2, -1)
    with pytest.raises(ValueError):
        standard_shapes(2, -1)


def test_closure_rejects_move_that_changes_boundary_size(monkeypatch):
    import kshape.poset as poset

    bogus = poset.Move(
        orientation=ROW,
        source=(),
        cells=frozenset({(1, 1)}),
        rank=1,
        length=1,
        strings=(),
        target=(1,),
    )
    monkeypatch.setattr(poset, "enumerate_moves", lambda lam, k: (bogus,))
    poset.kshapes_of_size.cache_clear()
    try:
        with pytest.raises(IntegrityError):
            poset.kshapes_of_size(2, 3)
    finally:
        poset.kshapes_of_size.cache_clear()


def test_classify_string_examples():
    s = classify_string((4, 2, 1), (5, 3, 1, 1), 3)
    assert s is not None and len(s.cells) == 3
    assert s.cells == ((4, 1), (2, 3), (1, 5))
    s2 = classify_string((), (1,), 2)
    assert s2 is not None and s2.kind == COVER and len(s2.cells) == 1
    s3 = classify_string((1, 1), (2, 1), 2)
    assert s3 is not None and s3.kind == ROW
    # not a string: two cells in one row
    assert classify_string((1,), (3,), 2) is None
    assert classify_string((2, 2), (3, 3), 3) is None
    # not a skew shape: inner does not fit inside outer
    assert classify_string((2,), (1, 1), 2) is None


def test_enumerate_moves_fixtures():
    # one row move only from the 3-core (2,2,1,1) at k=2
    moves = enumerate_moves((2, 2, 1, 1), 2)
    assert len(moves) == 1
    assert moves[0].orientation == ROW and moves[0].target == (3, 2, 1, 1)
    # (3,1,1) has a row and a column move
    moves = enumerate_moves((3, 1, 1), 2)
    assert {(m.orientation, m.target) for m in moves} == {
        (ROW, (4, 2, 1)),
        ("column", (3, 2, 1, 1)),
    }
    # the 2-core is minimal: no moves
    assert enumerate_moves((4, 3, 2, 1), 2) == ()
    # the diamond at (3,2,1), k=3
    moves = enumerate_moves((3, 2, 1), 3)
    assert {(m.orientation, m.target) for m in moves} == {
        (ROW, (4, 2, 1)),
        ("column", (3, 2, 1, 1)),
    }
    with pytest.raises(ValueError):
        enumerate_moves((3, 3, 1), 4)


def test_move_charges():
    for size in range(1, 6):
        for lam in kshapes_of_size(2, size):
            for m in enumerate_moves(lam, 2):
                if m.orientation == ROW:
                    assert move_charge(m) == 0
                    assert move_cocharge(m) == m.rank * m.length == len(m.cells)
                else:
                    assert move_cocharge(m) == 0
                    assert move_charge(m) == m.rank * m.length == len(m.cells)


def test_path_charges_are_the_sums_over_its_moves():
    # a Path computes its charge and cocharge once, when it is built
    paths = [
        p
        for k in (2, 3, 4)
        for size in range(0, 9)
        for lam in kshapes_of_size(k, size)
        for mu in kshapes_of_size(k, size)
        for p in enumerate_paths(lam, mu, k)
    ]
    assert len(paths) == 820
    assert sum(p.charge() > 0 for p in paths) == 379
    assert sum(p.cocharge() > 0 for p in paths) > 0
    for p in paths:
        assert p.charge() == sum(move_charge(m) for m in p.moves)
        assert p.cocharge() == sum(move_cocharge(m) for m in p.moves)


def test_move_profile_preservation():
    from kshape.partitions import col_shape

    for k, size in ((2, 5), (3, 5)):
        for lam in kshapes_of_size(k, size):
            for m in enumerate_moves(lam, k):
                if m.orientation == ROW:
                    assert row_shape(m.target, k) == row_shape(lam, k)
                else:
                    assert col_shape(m.target, k) == col_shape(lam, k)


def _sorted_delta_classify(inner, outer, k):
    """classify_string as it was before the one-pass sign scan: sort the
    cells top to bottom and test four all/any conditions on the profile
    differences; kept as its oracle.  It reads the profiles through the
    poset module, as classify_string does, so both see a patched one."""
    from kshape import poset
    from kshape.poset import COCOVER, COLUMN, StringOfCells, skew_cells

    def delta(a, b):
        n = max(len(a), len(b))
        return tuple(
            (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
        )

    if not contains(outer, inner):
        return None
    cs = skew_cells(outer, inner)
    if not cs:
        return None
    ordered = sorted(cs, key=lambda c: -c[0])
    for a, b in zip(ordered, ordered[1:]):
        if b[0] >= a[0]:
            return None
        if abs(diag(a) - diag(b)) not in (k, k + 1):
            return None
    drs = delta(poset.row_shape(outer, k), poset.row_shape(inner, k))
    dcs = delta(poset.col_shape(outer, k), poset.col_shape(inner, k))
    kinds = []
    if all(x == 0 for x in drs):
        kinds.append(ROW)
    if all(x == 0 for x in dcs):
        kinds.append(COLUMN)
    if any(x > 0 for x in drs) and any(x > 0 for x in dcs):
        kinds.append(COVER)
    if any(x < 0 for x in drs) and any(x < 0 for x in dcs):
        kinds.append(COCOVER)
    if len(kinds) != 1:
        raise IntegrityError(
            f"string {outer}/{inner} matches type conditions {kinds or 'none'}"
        )
    return StringOfCells(cells=tuple(ordered), inner=inner, outer=outer, kind=kinds[0])


def _classify_outcomes(pairs, k, tally):
    """Assert that classify_string and its oracle agree on every pair,
    counting each result kind, None and IntegrityError in ``tally``."""
    for inner, outer in pairs:
        outcomes = []
        for fn in (classify_string, _sorted_delta_classify):
            try:
                s = fn(inner, outer, k)
                outcomes.append(("value", s))
            except IntegrityError as exc:
                outcomes.append(("integrity", str(exc)))
        assert outcomes[0] == outcomes[1], (inner, outer, k)
        kind, s = outcomes[0]
        key = kind if kind == "integrity" else ("none" if s is None else s.kind)
        tally[key] = tally.get(key, 0) + 1


def _nearby_pairs(inners, max_size, max_cells):
    """(inner, outer) with |outer| <= max_size and 0 <= |outer| - |inner|
    <= max_cells, whether or not outer contains inner."""
    from kshape.partitions import partitions_of

    by_size = [list(partitions_of(n)) for n in range(max_size + 1)]
    for inner in inners:
        n = sum(inner)
        for m in range(n, min(n + max_cells, max_size) + 1):
            for outer in by_size[m]:
                yield inner, outer


def test_classify_string_matches_sorted_delta_oracle():
    # inner a k-shape, |outer| <= 8, outer/inner of at most 4 cells, k = 2..5
    from kshape.partitions import partitions_of

    tally = {}
    for k in range(2, 6):
        inners = [lam for n in range(9) for lam in partitions_of(n) if is_k_shape(lam, k)]
        _classify_outcomes(_nearby_pairs(inners, 8, 4), k, tally)
    assert set(tally) == {"none", ROW, "column", COVER, "cocover"}, tally


def test_classify_string_reads_no_profile(monkeypatch):
    # the kind comes from two boundary pushes over inner, so classify_string
    # returns the oracle's strings without reading a profile of either shape
    from kshape import poset

    inners = [lam for n in range(7) for lam in partitions_of(n)]
    pairs = [(inner, outer, k) for k in range(2, 5) for inner, outer in _nearby_pairs(inners, 7, 3)]
    want = [_sorted_delta_classify(*p) for p in pairs]
    assert {s.kind for s in want if s is not None} == {ROW, "column", COVER, "cocover"}

    def no_profile(lam, k):
        raise AssertionError("classify_string read a boundary profile")

    monkeypatch.setattr(poset, "row_shape", no_profile)
    monkeypatch.setattr(poset, "col_shape", no_profile)
    assert [classify_string(*p) for p in pairs] == want


def _weakly_decreasing(profile) -> bool:
    return all(a >= b for a, b in zip(profile, profile[1:]))


def _padded(profile, length: int) -> list[int]:
    return list(profile) + [0] * (length - len(profile))


def test_boundary_pushes_give_the_profile_change():
    """Every corner-chain string over every partition of at most 12 cells,
    k=2..7, with top cell t and bottom cell b.  Let P_t and P_b be the
    pushes of t and of b transposed (on the conjugate), j the first
    boundary column of t's row and i the first boundary row of b's
    column.  Entry by entry, the row profile changes by
    [not P_t] e_row(t) - [P_b] e_i and the column profile by
    [not P_b] e_col(b) - [P_t] e_j.  For a row string, the column profile
    the grower carries to the outer shape (lam's, less e_j, plus
    e_col(b)) is that of the outer shape, and the outer shape is a
    k-shape iff that profile and lam's row profile are weakly decreasing;
    so when lam's row profile is, the rank-1 grower emits the outer shape
    exactly when it is a k-shape."""
    from kshape.partitions import col_shape, k_interior

    strings = row_strings = 0
    for k in range(2, 8):
        for lam in (lam for n in range(13) for lam in partitions_of(n)):
            conj = conjugate(lam)
            interior, conj_interior = k_interior(lam, k), k_interior(conj, k)
            for chain in corner_chains(lam, k):
                t, b = chain[0], chain[-1]
                outer = add_cells(lam, chain)
                p_t = _pushed_column(lam, t, k) > 0
                p_b = _pushed_column(conj, (b[1], b[0]), k) > 0
                j = (interior[t[0] - 1] if t[0] <= len(interior) else 0) + 1
                i = (conj_interior[b[1] - 1] if b[1] <= len(conj_interior) else 0) + 1
                drs = [0] * len(outer)
                drs[t[0] - 1] += not p_t
                drs[i - 1] -= p_b
                dcs = [0] * outer[0]
                dcs[b[1] - 1] += not p_b
                dcs[j - 1] -= p_t
                rows = [x - y for x, y in zip(row_shape(outer, k), _padded(row_shape(lam, k), len(outer)))]
                cols = [x - y for x, y in zip(col_shape(outer, k), _padded(col_shape(lam, k), outer[0]))]
                assert (rows, cols) == (drs, dcs), (lam, k, chain)
                strings += 1
                if p_t and not p_b:
                    after = [*col_shape(lam, k), 0]
                    after[_pushed_column(lam, t, k) - 1] -= 1
                    after[b[1] - 1] += 1
                    assert after == _padded(col_shape(outer, k), len(conj) + 1), (lam, k, chain)
                    rank_one = _weakly_decreasing(row_shape(lam, k)) and _weakly_decreasing(after)
                    assert rank_one == is_k_shape(outer, k), (lam, k, chain)
                    if _weakly_decreasing(row_shape(lam, k)):
                        grown = [m.target for m in _grow_row_move(lam, chain, k, max_rank=1)]
                        assert grown == [outer] * rank_one, (lam, k, chain)
                    row_strings += 1
    assert (strings, row_strings) == (7260, 1322)


def test_connected_row_chains_strictly_descend():
    from kshape.kshape_tableaux import connected_rows
    from kshape.partitions import partitions_of

    count = 0
    for k in range(2, 6):
        for n in range(11):
            for lam in partitions_of(n):
                for r, chain in connected_rows(lam, k).items():
                    assert chain[0] == r
                    assert all(a > b for a, b in zip(chain, chain[1:])), (lam, k, chain)
                    count += 1
    assert count > 1000


def test_move_rank_bound():
    # regrow without the production cap: no valid move reaches rank k
    for k in (2, 3):
        for size in range(0, 7):
            for lam in kshapes_of_size(k, size):
                for shape in (lam, conjugate(lam)):
                    for chain in corner_chains(shape, k):
                        try:
                            for m in _grow_row_move(shape, chain, k, max_rank=k + 1):
                                assert m.rank <= k - 1, (shape, k, m.rank)
                        except IntegrityError:
                            continue


def _string_signature(s, k: int):
    """Translation-invariant diagram of a string, by a scan of the whole
    k-boundary of its inner shape; the oracle of ``_translate_signature``.

    Records, relative to the top cell: the added cells, the boundary
    cells of the inner shape that leave the boundary, and the lengths of
    the surviving boundary segments in every touched row and column.
    Two strings are translates exactly when their signatures agree.
    """
    from kshape.partitions import k_interior, skew_cells

    top = s.top
    rel = lambda c: (c[0] - top[0], c[1] - top[1])
    bullets = tuple(sorted(rel(c) for c in s.cells))
    outer_int = set(skew_cells(k_interior(s.outer, k), ()))
    boundary = skew_cells(s.inner, k_interior(s.inner, k))
    circles = tuple(sorted(rel(c) for c in boundary if c in outer_int))
    rows = {c[0] for c in s.cells} | {c[0] + top[0] for c in circles}
    cols = {c[1] for c in s.cells} | {c[1] + top[1] for c in circles}
    shared = [c for c in boundary if c not in outer_int and (c[0] in rows or c[1] in cols)]
    row_segs = tuple(
        sorted((r - top[0], sum(1 for c in shared if c[0] == r)) for r in rows)
    )
    col_segs = tuple(
        sorted((c0 - top[1], sum(1 for c in shared if c[1] == c0)) for c0 in cols)
    )
    return bullets, circles, row_segs, col_segs


def _oracle_grow_row_move(lam: Partition, s1_cells, k: int) -> Iterator[Move]:
    """``_grow_row_move`` before the boundary-push rule: every string is
    classified by the sorted-delta oracle, its translate test scans the
    boundary (``_string_signature``), and the shape at every rank goes
    through ``is_k_shape``."""
    s1 = _sorted_delta_classify(lam, add_cells(lam, s1_cells), k)
    if s1 is None or s1.kind != ROW:
        return
    strings = [s1]
    for r in range(1, k):
        if r > 1:
            corners = addable_corners(strings[-1].outer)
            tops = [c for c in corners if c[1] == strings[-1].top[1] + 1]
            if not tops:
                return
            chain = (tops[0],) + corner_run(corners, tops[0], k)[: len(s1_cells) - 1]
            if len(chain) < len(s1_cells):
                return
            s = _sorted_delta_classify(strings[-1].outer, add_cells(strings[-1].outer, chain), k)
            if s is None or s.kind != ROW or _string_signature(s, k) != _string_signature(s1, k):
                return
            strings.append(s)
        if is_k_shape(strings[-1].outer, k):
            yield Move(
                orientation=ROW,
                source=lam,
                cells=frozenset(c for s in strings for c in s.cells),
                rank=r,
                length=len(s1_cells),
                strings=tuple(strings),
                target=strings[-1].outer,
            )


def unpruned_row_moves(lam: Partition, k: int) -> tuple[Move, ...]:
    """Reference row-move enumeration: every corner chain is grown by the
    oracle grower."""
    seen = {}
    for chain in corner_chains(lam, k):
        for m in _oracle_grow_row_move(lam, chain, k):
            seen.setdefault(m.cells, m)
    return tuple(sorted(seen.values(), key=Move.sort_key))


def kshapes_by_cells(k: int, max_cells: int) -> list[Partition]:
    """Every k-shape of at most max_cells cells, found without the move
    enumeration (``kshapes_of_size`` walks ``enumerate_moves``)."""
    return [
        lam for n in range(max_cells + 1) for lam in partitions_of(n) if is_k_shape(lam, k)
    ]


def _move_fields(moves):
    return [(m.orientation, m.source, m.cells, m.rank, m.length, m.strings, m.target) for m in moves]


def test_row_moves_match_unpruned_oracle():
    """k=2..6, every k-shape of at most 12 cells: the pruned enumeration
    returns the oracle's moves, in order, with the same strings and targets."""
    shapes = moves = 0
    for k in range(2, 7):
        for lam in kshapes_by_cells(k, 12):
            rows = unpruned_row_moves(lam, k)
            assert _move_fields(enumerate_row_moves(lam, k)) == _move_fields(rows), (lam, k)
            cols = tuple(_conjugate_move(m) for m in unpruned_row_moves(conjugate(lam), k))
            both = sorted(rows + cols, key=Move.sort_key)
            assert _move_fields(enumerate_moves(lam, k)) == _move_fields(both), (lam, k)
            shapes += 1
            moves += len(both)
    assert (shapes, moves) == (520, 562)


def _first_string_kind(lam: Partition, chain, k: int):
    try:
        s = _sorted_delta_classify(lam, add_cells(lam, chain), k)
    except IntegrityError:
        return "ambiguous"
    return None if s is None else s.kind


def test_boundary_push_tests_are_necessary():
    """Over every corner-chain prefix of the k-shapes of at most 12 cells,
    k=2..6, a chain that the top or the bottom test rejects is not a row
    string."""
    by_top = by_bottom = 0
    for k in range(2, 7):
        for lam in kshapes_by_cells(k, 12):
            conj = conjugate(lam)
            for chain in corner_chains(lam, k):
                b = chain[-1]
                if not _pushed_column(lam, chain[0], k):
                    by_top += 1
                elif _pushed_column(conj, (b[1], b[0]), k):
                    by_bottom += 1
                else:
                    continue
                assert _first_string_kind(lam, chain, k) != ROW, (lam, k, chain)
    assert (by_top, by_bottom) == (2260, 51)


def test_row_move_first_strings_are_row_strings(monkeypatch):
    """The cost of the row-move enumeration tracks its output: for k=2..5
    and k-boundary at most 10, it calls ``classify_string`` on no string,
    and every string it builds (1,584, of which 1,136 are first strings,
    those over the source) is a row string by the sorted-delta oracle."""
    from kshape import poset

    shapes = [(k, lam) for k in range(2, 6) for n in range(11) for lam in kshapes_of_size(k, n)]
    classify, make_string = poset.classify_string, poset.StringOfCells
    classified, built = [], []

    def recording_classify(inner, outer, k):
        classified.append((inner, outer, k))
        return classify(inner, outer, k)

    def recording_string(**fields):
        built.append(make_string(**fields))
        return built[-1]

    monkeypatch.setattr(poset, "classify_string", recording_classify)
    monkeypatch.setattr(poset, "StringOfCells", recording_string)
    grown = []
    for k, lam in shapes:
        del built[:]
        enumerate_row_moves.__wrapped__(lam, k)  # bypass the memo table
        grown += [(s, k, s.inner == lam) for s in built]
    monkeypatch.undo()  # the oracle builds strings too
    assert classified == []
    assert (len(grown), sum(first for _, _, first in grown)) == (1584, 1136)
    assert all(_sorted_delta_classify(s.inner, s.outer, k) == s for s, k, _ in grown)


def test_translate_signature_matches_boundary_scan(monkeypatch):
    """Every corner chain of every k-shape of at most 12 cells, k=2..7,
    grown past the rank bound: at every rank, strings that fail the
    translate test included, the signature read off the carried profiles
    equals the boundary scan's, and the carried column profile is that of
    the string's inner shape."""
    from kshape import poset
    from kshape.partitions import col_shape

    read, calls = poset._translate_signature, []

    def recording(s, row_prof, col_prof):
        calls.append((s, list(col_prof), read(s, row_prof, col_prof)))
        return calls[-1][-1]

    monkeypatch.setattr(poset, "_translate_signature", recording)
    checked = rejected = 0
    for k in range(2, 8):
        for lam in kshapes_by_cells(k, 12):
            for chain in corner_chains(lam, k):
                del calls[:]
                for _ in _grow_row_move(lam, chain, k, max_rank=k + 1):
                    pass
                for s, col_prof, sig in calls:
                    assert sig == _string_signature(s, k), (lam, k, s.cells)
                    assert col_prof == _padded(col_shape(s.inner, k), len(col_prof)), (lam, k, s.cells)
                checked += len(calls)
                rejected += sum(sig != calls[0][2] for _, _, sig in calls[1:])
    assert (checked, rejected) == (749, 39)


def test_row_moves_read_no_table_of_an_intermediate_shape(monkeypatch):
    """The grower carries the column heights and column profile of the
    shapes it grows: for k=2..5 and k-boundary at most 10, the row-move
    enumeration passes ``k_interior``, ``conjugate``, ``row_shape``,
    ``col_shape`` and ``is_k_shape`` no shape but the source and its
    conjugate."""
    from kshape import poset

    shapes = [(k, lam) for k in range(2, 6) for n in range(11) for lam in kshapes_of_size(k, n)]
    seen = []

    def recording(fn):
        def wrapper(lam, *rest):
            seen.append(lam)
            return fn(lam, *rest)

        return wrapper

    for name in ("k_interior", "conjugate", "row_shape", "col_shape", "is_k_shape"):
        monkeypatch.setattr(poset, name, recording(getattr(poset, name)))
    calls = moves = 0
    for k, lam in shapes:
        del seen[:]
        moves += len(enumerate_row_moves.__wrapped__(lam, k))  # bypass the memo table
        assert set(seen) <= {lam, conjugate(lam)}, (lam, k, set(seen) - {lam, conjugate(lam)})
        calls += len(seen)
    assert moves > 0 and calls > 0


def test_move_from_cells_rejects_bad_input():
    for orientation in ("diag", "Row", ""):
        with pytest.raises(ValueError, match="orientation must be"):
            move_from_cells((2, 1), [(1, 3)], orientation, 2)
    for cells in ([], frozenset(), ()):
        with pytest.raises(ValueError, match="no cells"):
            move_from_cells((2, 1), cells, ROW, 2)


def test_move_from_cells_round_trip():
    for k, size in ((2, 5), (3, 6)):
        for lam in kshapes_of_size(k, size):
            for m in enumerate_moves(lam, k):
                again = move_from_cells(lam, m.cells, m.orientation, k)
                assert again.cells == m.cells and again.target == m.target
    with pytest.raises(IntegrityError):
        move_from_cells((3, 1, 1), frozenset({(1, 4)}), ROW, 2)


def test_move_cells():
    """Over every move from every k-shape with k=2..5 and k-boundary at
    most 9: the stored cells are those of the strings, and no two row
    moves from one shape have the same cells."""
    count = 0
    for k in range(2, 6):
        for size in range(0, 10):
            for lam in kshapes_of_size(k, size):
                rows = enumerate_row_moves(lam, k)
                assert len({m.cells for m in rows}) == len(rows)
                for m in enumerate_moves(lam, k):
                    assert m.cells == frozenset(c for s in m.strings for c in s.cells)
                    count += 1
    assert count == 546


def test_poset_2_4():
    verts = kshapes_of_size(2, 4)
    moves = [m for v in verts for m in enumerate_moves(v, 2)]
    assert len(verts) == 6 and len(moves) == 6
    assert set(verts) == {
        (2, 2, 1, 1), (3, 1, 1), (4, 2), (3, 2, 1, 1), (4, 2, 1), (4, 3, 2, 1),
    }
    assert set(verts) - {m.target for m in moves} == {(2, 2, 1, 1), (3, 1, 1), (4, 2)}
    assert [v for v in verts if not enumerate_moves(v, 2)] == [(4, 3, 2, 1)]


def test_poset_extremes_are_cores():
    """The maximal vertices, which no move reaches, are the (k+1)-cores;
    the minimal ones, which no move leaves, are the k-cores."""
    for k in (2, 3, 4):
        for size in range(0, 9):
            verts = kshapes_of_size(k, size)
            targets = {m.target for v in verts for m in enumerate_moves(v, k)}
            assert set(verts) - targets == {v for v in verts if is_p_core(v, k + 1)}
            assert {v for v in verts if not enumerate_moves(v, k)} == {
                v for v in verts if is_p_core(v, k)
            }


def test_poset_acyclic():
    # moves strictly add cells, so any path strictly increases the degree
    for k, size in ((2, 5), (3, 5)):
        for v in kshapes_of_size(k, size):
            for m in enumerate_moves(v, k):
                assert sum(m.target) > sum(v)


def test_poset_trivial_and_dot():
    for k in range(2, 9):
        assert kshapes_of_size(k, 0) == ((),) and not enumerate_moves((), k)
    dot = poset_dot(2, 4)
    assert dot.startswith("digraph")
    assert '"3,1,1" -> "4,2,1" [label="r (1,2)"];' in dot


def test_paths_fixtures():
    paths = enumerate_paths((3, 1, 1), (4, 3, 2, 1), 2)
    assert sorted(p.charge() for p in paths) == [2, 3]
    assert len(path_class_groups((3, 1, 1), 2)[(4, 3, 2, 1)]) == 2
    paths3 = enumerate_paths((3, 2, 1), (4, 2, 1, 1), 3)
    assert [p.charge() for p in paths3] == [1, 1]
    assert len(path_class_groups((3, 2, 1), 3)[(4, 2, 1, 1)]) == 1
    # (3,1,1) is not a 2-core, so its empty path shows only here
    selfp = enumerate_paths((3, 1, 1), (3, 1, 1), 2)
    assert len(selfp) == 1 and not selfp[0].moves
    with pytest.raises(ValueError):
        enumerate_paths((3, 1, 1), (4, 3, 2, 1), 3)


@pytest.mark.parametrize(
    "lam, mu, k, message",
    [
        ((2,), (3,), 2, "(3,) is not a 2-shape"),
        ((2, 2), (2, 2), 2, "(2, 2) is not a 2-shape"),
        ((3,), (2,), 2, "(3,) is not a 2-shape"),
        ((1,), (1,), 1, "k must be at least 2: 1"),
        ((1,), (2,), 2, "boundary sizes differ: (1,) vs (2,) at k=2"),
    ],
)
def test_paths_reject_endpoints_that_are_not_k_shapes(lam, mu, k, message):
    # the classes are those of ``enumerate_paths``, so they raise what it raises
    for fn in (enumerate_paths, equivalence_classes):
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(lam, mu, k)


def targeted_paths(lam: Partition, mu: Partition, k: int) -> tuple[Path, ...]:
    """Oracle for the grouped walk: a walk toward one end, which follows
    a move only if its target still fits inside mu (moves add cells)."""

    @lru_cache(maxsize=None)
    def suffixes(nu: Partition):
        if nu == mu:
            return ((),)
        out = []
        for m in enumerate_moves(nu, k):
            if not contains(mu, m.target):
                continue
            for rest in suffixes(m.target):
                out.append((m,) + rest)
        return tuple(out)

    return tuple(Path(start=lam, moves=ms) for ms in suffixes(lam))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_grouped_walk_matches_targeted_oracle(k):
    pairs = 0
    for n in range(0, 8):
        shapes = kshapes_of_size(k, n)
        cores = set(standard_shapes(k - 1, n))
        for lam in shapes:
            classes = path_class_groups(lam, k)
            reached = set()
            for mu in shapes:
                want = targeted_paths(lam, mu, k)
                # same paths in the same order: `kshape paths` prints them so
                assert enumerate_paths(lam, mu, k) == want
                if want and is_p_core(mu, k):
                    reached.add(mu)
                    grouped = equivalence_classes(lam, mu, k)
                    assert classes[mu] == tuple(tuple(p.moves for p in c) for c in grouped)
                pairs += bool(want)
            assert set(classes) == reached
            assert reached <= cores
    assert pairs > 0


def rewrite_search_classes(paths, k: int) -> tuple[frozenset[Path], ...]:
    """Oracle for ``equivalence_classes``: the closure of single diamond
    rewrites, found by building each rewritten path from the move tables
    and searching outward from every path not yet in a class.  Classes
    are member sets, in the order of their first paths."""

    @lru_cache(maxsize=None)
    def moves_between(a: Partition, b: Partition) -> tuple[Move, ...]:
        return tuple(m for m in enumerate_moves(a, k) if m.target == b)

    @lru_cache(maxsize=None)
    def window_replacements(a: Partition, b: Partition, total_charge: int):
        """Move windows from a to b (length one or two) of the given charge."""
        out = [(m,) for m in moves_between(a, b) if move_charge(m) == total_charge]
        for m1 in enumerate_moves(a, k):
            if contains(b, m1.target):
                for m2 in moves_between(m1.target, b):
                    if move_charge(m1) + move_charge(m2) == total_charge:
                        out.append((m1, m2))
        return tuple(out)

    def rewrite_neighbors(path: Path) -> Iterator[Path]:
        moves = path.moves
        shapes = (path.start,) + tuple(m.target for m in moves)
        for i in range(len(moves)):
            for width in (1, 2):
                if i + width > len(moves):
                    continue
                window = moves[i : i + width]
                total = sum(move_charge(m) for m in window)
                for repl in window_replacements(shapes[i], shapes[i + width], total):
                    if repl != window:
                        yield Path(start=path.start, moves=moves[:i] + repl + moves[i + width :])

    paths = list(paths)
    if not paths:
        return ()
    ends = {p.moves[-1].target if p.moves else p.start for p in paths}
    if len({p.start for p in paths}) != 1 or len(ends) != 1:
        raise ValueError("paths must share both endpoints")
    index = {p: None for p in paths}
    classes = []
    for p in paths:
        if index[p] is not None:
            continue
        comp = {p}
        frontier = [p]
        while frontier:
            for nb in rewrite_neighbors(frontier.pop()):
                if nb not in comp:
                    if nb not in index:
                        raise IntegrityError(f"rewrite left the enumerated path set: {nb.text()}")
                    comp.add(nb)
                    frontier.append(nb)
        for q in comp:
            index[q] = len(classes)
        classes.append(frozenset(comp))
    return tuple(classes)


def test_grouped_classes_match_rewrite_search_oracle():
    # same classes in the same order, with the same members, on every pair
    # of shapes joined by a path and on every ``path_class_groups`` entry,
    # for k=2..5 and boundary size <= 9; ``equivalence_classes`` keeps the
    # walk's order inside each class
    pairs = entries = 0
    for k in range(2, 6):
        for n in range(0, 10):
            for lam in kshapes_of_size(k, n):
                groups = path_class_groups(lam, k)
                ends = _suffixes_by_end(lam, k)
                assert set(groups) <= set(ends)
                for mu, seqs in ends.items():
                    paths = [Path(start=lam, moves=ms) for ms in seqs]
                    want = rewrite_search_classes(paths, k)
                    classes = equivalence_classes(lam, mu, k)
                    assert tuple(map(frozenset, classes)) == want, (k, lam, mu)
                    for c in classes:
                        assert sorted(c, key=paths.index) == list(c)
                    if mu in groups:
                        got = (frozenset(Path(start=lam, moves=ms) for ms in g) for g in groups[mu])
                        assert tuple(got) == want, (k, lam, mu)
                        entries += 1
                    pairs += 1
    assert (pairs, entries) == (1403, 704)


def test_composite_move_is_equivalent_to_factorization():
    paths = enumerate_paths((3, 1, 1, 1), (4, 2, 1, 1), 3)
    lengths = sorted(len(p.moves) for p in paths)
    assert lengths == [1, 2]
    assert len(equivalence_classes((3, 1, 1, 1), (4, 2, 1, 1), 3)) == 1


def test_charge_constant_on_classes():
    for k, size in ((2, 6), (3, 6)):
        verts = kshapes_of_size(k, size)
        tops = [v for v in verts if is_p_core(v, k + 1)]
        bots = {v for v in verts if is_p_core(v, k)}
        for a in tops:
            by_end = path_class_groups(a, k)
            assert set(by_end) <= bots
            for b in bots:
                want = equivalence_classes(a, b, k)
                assert len(by_end.get(b, ())) == len(want)
                for g in by_end.get(b, ()):
                    members = [Path(start=a, moves=ms) for ms in g]
                    charges = {q.charge() for q in members}
                    cocharges = {q.cocharge() for q in members}
                    assert len(charges) == 1 and len(cocharges) == 1


def test_corner_chain_strings_have_unique_continuation():
    # at most one addable corner sits at diagonal distance k or k+1
    for lam in kshapes_of_size(3, 5):
        for chain in corner_chains(lam, 3):
            assert len(set(chain)) == len(chain)


def _scan_next(corners, cell, k, down):
    """Oracle for next_corner: every corner at diagonal distance k or k+1
    on the requested side of cell."""
    side = 1 if down else -1
    hits = [c for c in corners if side * (diag(c) - diag(cell)) in (k, k + 1)]
    assert len(hits) <= 1
    return hits[0] if hits else None


def test_next_corner_and_corner_run_match_diagonal_scan():
    steps = 0
    for k in range(2, 5):
        for size in range(0, 7):
            for lam in kshapes_of_size(k, size):
                add, rem = addable_corners(lam), removable_corners(lam)
                for corners in (add, rem):
                    for cell in add + rem:
                        for down in (True, False):
                            want = _scan_next(corners, cell, k, down)
                            assert next_corner(corners, cell, k, down) == want
                            run = corner_run(corners, cell, k, down)
                            assert cell not in run
                            prev = cell
                            for c in run:
                                assert c == _scan_next(corners, prev, k, down)
                                # rows strictly fall going down, rise going up
                                assert (c[0] < prev[0]) == down
                                prev = c
                            assert _scan_next(corners, prev, k, down) is None
                            steps += len(run)
    assert steps > 0


def test_path_text_form():
    paths = enumerate_paths((3, 1, 1), (4, 3, 2, 1), 2)
    texts = {p.text() for p in paths}
    assert texts == {
        "3,1,1; r:1:2@(2,2); c:1:3@(4,1)",
        "3,1,1; c:1:2@(4,1); r:1:3@(3,2)",
    }
