"""The memo tables are transparent: a cached predicate returns what its
uncached body returns, never stores an exception, and hands out values
that are immutable and survive pickling."""
import gc
import os
import pickle
import subprocess
import sys
import types
from dataclasses import fields, replace

import pytest

from kshape import kshape_tableaux, partitions, poset, weak_tableaux
from kshape.classical import standard_young_tableaux
from kshape.errors import IntegrityError
from kshape.kshape_tableaux import (
    connected_rows,
    cover_status,
    enumerate_covers,
    enumerate_kshape_tableaux,
    make_cover,
)
from kshape.partitions import (
    _row_cells,
    addable_corners,
    conjugate,
    is_p_core,
    partitions_of,
    removable_corners,
)
from kshape.poset import (
    ROW,
    Move,
    Path,
    StringOfCells,
    _parse_move,
    enumerate_moves,
    is_k_shape,
    kshapes_of_size,
    move_from_cells,
)
from kshape import pushout
from kshape.pushout import (
    _ROOT,
    PushoutSquare,
    _letter_step,
    _state,
    _State,
    full_descent,
    maximal_pushout,
    maximize_above,
    maximize_below,
    push_cover_through_path,
    weak_bijection_standard,
)
from kshape.weak_tableaux import (
    _sigma_window,
    _strips_over,
    count_standard_k_tableaux,
    enumerate_standard_k_tableaux,
    is_standard_step,
    is_weak_strip,
    kostka_k,
    standard_predecessors,
    standard_shapes,
    standard_successors,
)

KS = (2, 3, 4)
SIZES = range(0, 7)


def _kshapes():
    return [(k, lam) for k in KS for s in SIZES for lam in kshapes_of_size(k, s)]


def _covers():
    return [(k, c) for k, lam in _kshapes() for c in enumerate_covers(lam, k)]


def _moves():
    """Every move from every k-shape with k=2..5 and k-boundary at most 9."""
    return [
        (k, m)
        for k in range(2, 6)
        for s in range(0, 10)
        for lam in kshapes_of_size(k, s)
        for m in enumerate_moves(lam, k)
    ]


def _same_move(a: Move, b: Move) -> bool:
    """Equal in every field, not only in the ones equality compares."""
    return all(getattr(a, f.name) == getattr(b, f.name) for f in fields(Move))


def test_is_k_shape_matches_uncached():
    for k in KS:
        for n in range(0, 9):
            for lam in partitions_of(n):
                assert is_k_shape(lam, k) == is_k_shape.__wrapped__(lam, k)


def test_is_p_core_matches_uncached():
    for k, lam in _kshapes():
        for p in (k, k + 1):
            assert is_p_core(lam, p) == is_p_core.__wrapped__(lam, p)


def test_make_cover_matches_uncached():
    covers = _covers()
    assert covers
    for k, c in covers:
        assert make_cover(c.inner, c.outer, k) == make_cover.__wrapped__(c.inner, c.outer, k) == c


def test_parse_move_matches_uncached():
    moves = _moves()
    assert len(moves) == 546
    assert any(m.orientation == ROW for _, m in moves)
    assert any(m.orientation != ROW for _, m in moves)
    for k, m in moves:
        args = (m.source, m.cells, m.orientation, k)
        assert _same_move(_parse_move(*args), _parse_move.__wrapped__(*args))
        assert _same_move(move_from_cells(*args), m)


def test_repeated_column_parse_returns_the_same_move():
    columns = [(k, m) for k, m in _moves() if m.orientation != ROW]
    assert columns
    for k, m in columns:
        first = move_from_cells(m.source, set(m.cells), m.orientation, k)
        assert move_from_cells(m.source, list(m.cells), m.orientation, k) is first


def test_is_weak_strip_matches_uncached():
    pairs = [(c.inner, c.outer, k) for k, c in _covers()]
    pairs += [
        (nu, xi, k)
        for k in KS
        for n in range(0, 6)
        for nu in standard_shapes(k, n)
        for xi in standard_successors(nu, k)
    ]
    assert any(is_weak_strip(*p) for p in pairs) and not all(is_weak_strip(*p) for p in pairs)
    for inner, outer, k in pairs:
        assert is_weak_strip(inner, outer, k) == is_weak_strip.__wrapped__(inner, outer, k)


def test_strips_over_matches_uncached():
    cores = [(k, nu) for k in KS for n in range(0, 7) for nu in standard_shapes(k, n)]
    assert any(len(_strips_over(nu, k)) > 2 for k, nu in cores)
    for k, nu in cores:
        assert _strips_over(nu, k) == _strips_over.__wrapped__(nu, k)


def _standard_tableaux(ks, n_max):
    return [
        t
        for k in ks
        for n in range(0, n_max + 1)
        for lam in standard_shapes(k, n)
        for t in enumerate_standard_k_tableaux(lam, k)
    ]


def test_push_strip_and_cover_status_match_uncached():
    """Walk every letter of every standard k-tableau (k=2..5, n<=7) through
    the step table, as the weak bijection does."""
    tableaux = _standard_tableaux(range(2, 6), 7)
    assert len(tableaux) == 548
    strips = 0
    for t in tableaux:
        k = t.k
        before = _ROOT
        for outer in t.chain[1:]:
            got = _letter_step(before, outer, k)
            assert got == _letter_step.__wrapped__(before, outer, k)
            for cover in (got.state.cover, got.state.cover_out):
                assert cover_status(cover, k) == cover_status.__wrapped__(cover, k)
            for sq in got.strip:
                if sq.move_in is not None:
                    args = (sq.cover_in, sq.move_in, k)
                    assert maximal_pushout(*args) == maximal_pushout.__wrapped__(*args) == sq
                else:
                    grow = maximize_below if sq.kind == "max-below" else maximize_above
                    # the strip holds the very square of the warm table
                    assert grow(sq.cover_in, k) is sq
                    assert grow.__wrapped__(sq.cover_in, k) == sq
            before = got.state
            strips += 1
    assert strips > 2000 and _letter_step.cache_info().hits > 0


def test_warm_step_table_keeps_every_square():
    """A plain call carries its squares, and a warm step table hands back
    the very squares of a cold one."""
    kinds_seen = set()
    with_squares = 0
    for t in _standard_tableaux(range(2, 7), 6):
        _letter_step.cache_clear()
        cold = weak_bijection_standard(t).squares
        assert _letter_step.cache_info().currsize > 0 or t.letters == 0
        warm = weak_bijection_standard(t).squares
        assert warm == cold and all(w is c for w, c in zip(warm, cold))
        kinds_seen.update(sq.kind for sq in cold)
        with_squares += bool(cold)
    assert with_squares == 232
    assert {"max-below", "max-above", "row-I", "col-I"} <= kinds_seen


def _up(t, n):
    """Uppermost cell of letter n, by a scan of its cells."""
    return max(t.cells_of_letter(n), key=lambda c: c[0])


def _down(t, n):
    """Lowermost cell of letter n, by a scan of its cells."""
    return min(t.cells_of_letter(n), key=lambda c: c[0])


def test_cover_markers_are_the_letter_extremes():
    """The charge reads letter n's markers off its cover; the cell scan is
    the oracle."""
    count = 0
    for k in range(2, 6):
        for n in range(1, 9):
            for t in enumerate_kshape_tableaux(n, k):
                for m in range(1, n + 1):
                    c = make_cover(t.chain[m - 1], t.chain[m], k)
                    assert c.top == _up(t, m) and c.bottom == _down(t, m)
                count += 1
    assert count > 5000


def test_row_cells_matches_uncached():
    for i in range(1, 8):
        for width in range(0, 8):
            assert _row_cells(i, width) == _row_cells.__wrapped__(i, width)


def test_equal_triples_give_one_state():
    cover = make_cover((1,), (1, 1), 2)
    path = Path(start=(1,))
    state = _state(cover, cover, path)
    twin = _state(make_cover.__wrapped__((1,), (1, 1), 2), replace(cover), Path(start=(1,)))
    assert twin is state and hash(twin) == hash(state)
    assert _state(cover, None, path) is not state
    # built outside the table, an equal state is another state
    assert _State(cover, cover, path) != state


def test_raising_step_adds_no_state(monkeypatch):
    """A step that fails its last computation stores nothing, in the step
    table or in ``_state``."""
    _letter_step.cache_clear()
    _state.cache_clear()
    first = _letter_step(_ROOT, (1,), 2).state

    def fail(*args):
        raise IntegrityError("no term")

    monkeypatch.setattr(pushout, "letter_term", fail)
    sizes = (_letter_step.cache_info().currsize, _state.cache_info().currsize)
    assert sizes == (1, 1)
    for _ in range(2):
        with pytest.raises(IntegrityError, match="no term"):
            _letter_step(first, (2,), 2)
    assert (_letter_step.cache_info().currsize, _state.cache_info().currsize) == sizes


BAD_CALLS = [
    (is_p_core, ((2, 1), 1), ValueError),
    (is_k_shape, ((1,), 1), ValueError),
    (make_cover, ((), (2,), 3), ValueError),  # two cells in one row
    (make_cover, ((), (3, 1), 2), ValueError),  # (3,1) is not a 2-shape
    (_parse_move, ((2, 1), frozenset({(1, 3), (3, 1)}), ROW, 2), IntegrityError),
    (is_weak_strip, ((), (1,), 0), ValueError),
    (standard_successors, ((2, 1), 2), ValueError),  # (2,1) is not a 3-core
    (standard_predecessors, ((2, 1), 2), ValueError),
    (_strips_over, ((2, 1), 2), ValueError),
    (_letter_step, (_state(None, None, Path(start=(1,))), (1,), 2), ValueError),  # the path starts at (1,)
    # the cover (3,1,1)/(2,1,1) continues, so it is not maximal
    (maximal_pushout, (make_cover((2, 1, 1), (3, 1, 1), 2), move_from_cells((2, 1, 1), {(1, 3), (2, 2)}, ROW, 2), 2), ValueError),
    (maximize_below, (make_cover((), (1,), 2), 2), ValueError),
    (maximize_above, (make_cover((), (1,), 2), 2), ValueError),
    (_letter_step, (_ROOT, (2,), 2), ValueError),  # the boundary grows by 2
    (is_standard_step, ((), (1,), 0), ValueError),
    (count_standard_k_tableaux, ((2, 1), 2), ValueError),
    (_parse_move, ((3, 1, 1), frozenset({(5, 2)}), ROW, 2), IntegrityError),  # not addable
    (_parse_move, ((2, 2, 1), frozenset({(1, 3)}), ROW, 2), IntegrityError),  # not a 2-shape
    (kostka_k, ((2, 1), (2, 1), 2), ValueError),  # (2,1) is not a 3-core
    (_sigma_window, ((2, 1), (2, 1), (2, 1), 2), ValueError),  # (2,1) is not a 3-core
    (kostka_k, ((2, 1, 1), (1, 2), 2), ValueError),  # the weight (1,2) is not a partition
    (connected_rows, ((1, 2), 2), ValueError),  # (1,2) is not a partition
    # shapes that are not partitions, rejected by the shape tables
    (is_p_core, ((1, 2), 3), ValueError),
    (is_p_core, ((2, 0, 1), 3), ValueError),
    (addable_corners, ((1, 2),), ValueError),
    (removable_corners, ((1, 2),), ValueError),
    (conjugate, ((2, 0, 1),), ValueError),
    (conjugate, ((1, 2),), ValueError),
    (kostka_k, ((1, 2), (1, 1, 1), 2), ValueError),
    (standard_successors, ((1, 2), 2), ValueError),
    # a k below 1 with empty input, rejected before the empty-input answer
    (count_standard_k_tableaux, ((), 0), ValueError),
    (is_standard_step, ((), (), 0), ValueError),
]


@pytest.mark.parametrize("fn,args,exc", BAD_CALLS)
def test_invalid_input_raises_every_time(fn, args, exc):
    size = fn.cache_info().currsize
    with pytest.raises(exc) as first:
        fn(*args)
    with pytest.raises(exc) as second:
        fn(*args)
    assert type(first.value) is type(second.value)
    assert str(first.value) == str(second.value)
    assert fn.cache_info().currsize == size


def _values():
    cover = make_cover((1,), (1, 1), 2)
    move = next(m for _, m in _moves() if m.rank > 1 or m.length > 1)
    k, column = next((k, m) for k, m in _moves() if m.orientation != ROW)
    column = move_from_cells(column.source, column.cells, column.orientation, k)
    path = push_cover_through_path(make_cover((), (1,), 2), Path(start=()), 2)[1]
    square = push_cover_through_path(make_cover((1,), (1, 1), 2), Path(start=(1,)), 2)[2][0]
    state = _letter_step(_letter_step(_ROOT, (1,), 2).state, (1, 1), 2).state
    return [cover, column, move, move.strings[0], Path(start=move.source, moves=(move,)), path, square, state]


# every value but the last, a step state, which nothing pickles
@pytest.mark.parametrize("index", range(7))
def test_cached_values_pickle(index):
    value = _values()[index]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value
    if isinstance(value, Move):
        assert _same_move(back, value)


def test_pickled_hash_holds_under_another_hash_seed():
    # pickle carries no hash, so a value unpickled in a process with
    # other string hashes hashes there again, like one built there
    values = [v for v in _values() if isinstance(v, (StringOfCells, Move, Path))]
    assert {type(v) for v in values} == {StringOfCells, Move, Path}
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    code = (
        "import dataclasses, pickle, sys\n"
        "values = pickle.loads(sys.stdin.buffer.read())\n"
        "print([hash(v) == hash(dataclasses.replace(v)) for v in values])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(values),
        capture_output=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
        check=True,
    )
    assert done.stdout.decode().strip() == str([True] * len(values))


@pytest.mark.parametrize("cls", [StringOfCells, Move, Path])
def test_value_types_carry_only_constructor_fields(cls):
    # no cached hash or charge: the generated __hash__ reads the compare
    # fields, and a path sums its moves' charges when asked
    assert all(f.init for f in fields(cls))


@pytest.mark.parametrize(
    "cls,field",
    [(Move, "source"), (StringOfCells, "cells"), (Path, "start"), (PushoutSquare, "kind"), (_State, "path")],
)
def test_cached_value_types_are_frozen_and_slotted(cls, field):
    value = next(v for v in _values() if type(v) is cls)
    assert not hasattr(value, "__dict__")
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, ())
    # a new name: frozen dataclasses with slots raise TypeError (Python 3.10-3.12)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    assert getattr(value, field) == before


MEMO_MODULES = (partitions, poset, kshape_tableaux, pushout, weak_tableaux)


def _memo_tables():
    return [
        v
        for m in MEMO_MODULES
        for v in vars(m).values()
        if hasattr(v, "cache_info") and v.__module__ == m.__name__
    ]


def _entries(table) -> dict:
    """The dict an lru_cache table keeps its entries in."""
    return next(r for r in gc.get_referents(table) if type(r) is dict and r is not table.__dict__)


def _reachable(roots) -> list:
    """Every object reachable from roots, not through a type, module or
    function (which would reach the whole package)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack = {}, list(roots)
    while stack:
        o = stack.pop()
        if id(o) not in seen and not isinstance(o, skip) and not hasattr(o, "cache_info"):
            seen[id(o)] = o
            stack.extend(gc.get_referents(o))
    return list(seen.values())


def _is_int_tuple(x) -> bool:
    return type(x) is tuple and all(type(i) is int for i in x)


def test_memo_tables_hold_one_object_per_shape_cell_and_cell_set():
    """After descending every standard Young tableau with n <= 7, the
    shapes and cells of every cover and string, the source, target and
    cells of every move, and the shapes and cell sets in the keys of the
    shape tables are each the one object of their value."""
    tables = _memo_tables()
    for table in tables:
        table.cache_clear()
    chains = [ch for n in range(8) for lam in partitions_of(n) for ch in standard_young_tableaux(lam)]
    assert len(chains) == 352
    for ch in chains:
        full_descent(ch)
    values = []
    for table in tables:
        for key in _entries(table):
            if type(key) is tuple:
                values += [x for x in key if _is_int_tuple(x) or type(x) is frozenset]
    kinds = {StringOfCells: 0, Move: 0}
    for o in _reachable(map(_entries, tables)):
        if type(o) is StringOfCells:
            values += [o.inner, o.outer, *o.cells]
        elif type(o) is Move:
            values += [o.source, o.target, o.cells, *o.cells]
        else:
            continue
        kinds[type(o)] += 1
    assert kinds[StringOfCells] > 500 and kinds[Move] > 100, kinds
    objects: dict = {}
    for v in values:
        objects.setdefault(v, {})[id(v)] = v
    copies = {v: len(ids) for v, ids in objects.items() if len(ids) > 1}
    assert not copies, f"{len(copies)} values held as more than one object: {list(copies.items())[:5]}"
    assert all(partitions.canonical(v) is v for v in values)
