import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kshape.partitions import (
    _CANONICAL,
    Partition,
    addable_corners,
    boundary_size,
    canonical,
    col_shape,
    conjugate,
    diag_count,
    format_partition,
    is_p_core,
    k_interior,
    parse_partition,
    partition,
    partitions_of,
    removable_corners,
    residue,
    row_shape,
    skew_cells,
    union_shape,
)


# Helpers used only by these tests; nothing in the library needs them.
def cells(lam: Partition):
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            yield (i, j)


def partition_sum(a: Partition, b: Partition) -> Partition:
    n = max(len(a), len(b))
    return partition(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def partition_union(a: Partition, b: Partition) -> Partition:
    """Reorder the concatenation of the parts."""
    return partition(sorted(a + b, reverse=True))


# The hook scan: the oracle of the hook-free kernels k_interior and is_p_core.
def arm(lam: Partition, cell) -> int:
    i, j = cell
    return lam[i - 1] - j


def leg(lam: Partition, cell) -> int:
    i, j = cell
    return conjugate(lam)[j - 1] - i


def hook_length(lam: Partition, cell) -> int:
    """Arm plus leg plus one of a cell of lam."""
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError(f"cell {cell} is outside {lam}")
    return arm(lam, cell) + leg(lam, cell) + 1


def dominates(a: Partition, b: Partition) -> bool:
    """Dominance order: equal degree and prefix sums of a weakly above b's."""
    if sum(a) != sum(b):
        return False
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


partitions_st = st.lists(st.integers(1, 8), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_canonicalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([2, 3])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_equal_shapes_cells_and_cell_sets_are_one_object():
    shape = partition([9, 8, 8, 1, 0])
    assert partition((9, 8, 8, 1)) is shape is canonical((9, 8, 8, 1))
    assert conjugate(conjugate(shape)) is shape
    cells = canonical(frozenset([(7, 1), (1, 9)]))
    assert canonical(frozenset([(1, 9), (7, 1)])) is cells
    # the cells of a stored set are the stored cells
    assert {id(c) for c in cells} == {id(canonical((7, 1))), id(canonical((1, 9)))}


def test_only_integer_tuples_and_cell_sets_are_stored():
    # a bool equals 1 and hashes like it (so does the float 1.0): stored,
    # (True, 55) would stand in for (1, 55) from then on
    for odd, plain in [
        ((True, 55), (1, 55)),
        ((1.0, 56), (1, 56)),
        (frozenset({(False, 57)}), frozenset({(0, 57)})),
    ]:
        assert canonical(odd) is odd
        got = canonical(plain)
        assert got == plain and got is not odd
    for value in (("a",), frozenset({1, 2})):
        assert canonical(value) is value and value not in _CANONICAL


def test_text_form_round_trip():
    assert parse_partition("8,4,3,2,1,1,1") == (8, 4, 3, 2, 1, 1, 1)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert format_partition(()) == "-"
    assert format_partition((3, 1)) == "3,1"


def test_hook_length_examples():
    assert hook_length((2, 1), (1, 1)) == 3
    assert hook_length((1,), (1, 1)) == 1
    lam = (8, 4, 3, 2, 1, 1, 1)
    assert sum(1 for b in cells(lam) if hook_length(lam, b) <= 4) == 12
    with pytest.raises(ValueError):
        hook_length((2, 1), (3, 1))


def test_is_p_core():
    assert is_p_core((), 5)
    assert not is_p_core((2, 1), 3)
    # hooks of (3,1) are 4,2,1,1
    assert sorted(hook_length((3, 1), b) for b in cells((3, 1))) == [1, 1, 2, 4]
    assert is_p_core((3, 1), 3)
    with pytest.raises(ValueError):
        is_p_core((2, 1), 1)


def test_k_boundary_examples():
    # the k-boundary is the skew shape lam / k_interior(lam, k)
    lam = (8, 4, 3, 2, 1, 1, 1)
    inner = k_interior(lam, 4)
    # brute-force hook filter: cells of hook length above 4
    assert set(cells(inner)) == {b for b in cells(lam) if hook_length(lam, b) > 4}
    assert inner == (4, 2, 1, 1)
    boundary = skew_cells(lam, inner)
    assert set(boundary) == {b for b in cells(lam) if hook_length(lam, b) <= 4}
    assert len(boundary) == boundary_size(lam, 4) == 12
    assert k_interior((1,), 1) == () and skew_cells((1,), ()) == ((1, 1),)
    assert k_interior((2, 1), 2) == (1,)


def test_skew_cells_matches_cell_difference():
    # every pair of partitions of at most 7 cells: the cells of outer not
    # in inner, rows bottom-up, or ValueError when inner does not fit
    contained = 0
    shapes = [lam for n in range(8) for lam in partitions_of(n)]
    for outer in shapes:
        for inner in shapes:
            inside = set(cells(inner))
            if not inside <= set(cells(outer)):
                with pytest.raises(ValueError):
                    skew_cells(outer, inner)
                continue
            assert skew_cells(outer, inner) == tuple(c for c in cells(outer) if c not in inside)
            contained += 1
    assert contained == 449


def _hook_interior(lam, k):
    """The per-cell hook filter that the staircase walk replaced."""
    rows = [sum(1 for j in range(1, part + 1) if hook_length(lam, (i, j)) > k)
            for i, part in enumerate(lam, start=1)]
    return partition(rows)


def _hook_core(lam, p):
    """The per-cell hook scan that the abacus test replaced."""
    return all(hook_length(lam, b) != p for b in cells(lam))


def test_k_interior_matches_hook_filter():
    # every partition of n <= 14 (508 of them), k = 1..12
    count = 0
    for n in range(15):
        for lam in partitions_of(n):
            for k in range(1, 13):
                assert k_interior.__wrapped__(lam, k) == _hook_interior(lam, k), (lam, k)
                count += 1
    assert count == 508 * 12


def test_is_p_core_matches_hook_scan():
    # every partition of n <= 14, p = 2..12
    count = 0
    for n in range(15):
        for lam in partitions_of(n):
            for p in range(2, 13):
                assert is_p_core.__wrapped__(lam, p) == _hook_core(lam, p), (lam, p)
                count += 1
    assert count == 508 * 11


def test_interior_and_core_read_no_hooks():
    # the hook scan lives only here, as the oracle: the package has no
    # hook helper for its kernels to call
    import kshape.partitions as partitions

    assert not {"hook_length", "arm", "leg"} & set(vars(partitions))
    lam = (8, 4, 3, 2, 1, 1, 1)
    assert k_interior.__wrapped__(lam, 4) == (4, 2, 1, 1)
    assert not is_p_core.__wrapped__(lam, 4)


def test_row_col_shapes():
    assert row_shape((8, 4, 3, 2, 1, 1, 1), 4) == (4, 2, 2, 1, 1, 1, 1)
    assert col_shape((8, 4, 3, 2, 1, 1, 1), 4) == (3, 2, 2, 1, 1, 1, 1, 1)
    assert row_shape((3, 3, 1), 4) == (2, 3, 1)  # not a partition
    assert row_shape((), 3) == ()


def test_residue():
    assert residue((1, 1), 5) == 0
    assert residue((2, 1), 3) == 3
    assert residue((1, 6), 4) == 0


def test_diag_count():
    assert diag_count((3, 1), (3, 1), 2, 4) == 0
    # the recursion steps of the worked 4-tableau
    assert diag_count((4, 1), (1, 6), 2, 4) == 1
    assert diag_count((5, 1), (1, 6), 1, 4) == 1
    with pytest.raises(ValueError):
        diag_count((1, 6), (4, 1), 2, 4)
    with pytest.raises(ValueError):
        diag_count((4, 1), (1, 6), 9, 4)


def test_corners():
    assert (addable_corners(()), removable_corners(())) == (((1, 1),), ())
    assert (addable_corners((1,)), removable_corners((1,))) == (((1, 2), (2, 1)), ((1, 1),))
    lam = (12, 8, 6, 4, 2, 1)
    assert addable_corners(lam) == (
        (1, 13), (2, 9), (3, 7), (4, 5), (5, 3), (6, 2), (7, 1),
    )
    assert removable_corners((2, 2, 1)) == ((2, 2), (3, 1))


def test_partition_algebra():
    assert partition_sum((3, 1), (2, 2, 1)) == (5, 3, 1)
    assert partition_union((3, 1), (2, 2)) == (3, 2, 2, 1)
    assert union_shape((3, 1), (2, 2)) == (3, 2)
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert not dominates((3,), (2, 2))


@given(partitions_st)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(partitions_st, st.integers(1, 6))
def test_hook_transpose_symmetry(lam, k):
    for (i, j) in cells(lam):
        assert hook_length(lam, (i, j)) == hook_length(conjugate(lam), (j, i))


@given(partitions_st, st.integers(1, 6))
@settings(max_examples=60)
def test_interior_is_partition_and_sizes(lam, k):
    interior = k_interior(lam, k)
    assert all(
        interior[i] >= interior[i + 1] for i in range(len(interior) - 1)
    )
    assert boundary_size(lam, k) == sum(lam) - sum(interior)
    assert row_shape(conjugate(lam), k) == col_shape(lam, k)


@given(partitions_st, st.integers(2, 5))
@settings(max_examples=60)
def test_cores_have_no_hook(lam, p):
    if is_p_core(lam, p):
        assert all(hook_length(lam, b) != p for b in cells(lam))
