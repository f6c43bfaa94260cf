import pytest

from kshape.kshape_tableaux import (
    _interval,
    chain_characterization,
    charge_cocharge_residual,
    charge_kshape,
    cocharge_kshape,
    connected_rows,
    cover_status,
    enumerate_covers,
    enumerate_kshape_tableaux,
    letter_charges,
    letter_cocharges,
    make_cover,
    make_kshape_tableau,
)
from kshape.partitions import k_interior
from kshape.poset import kshapes_of_size
from kshape.weak_tableaux import chain_of_filling, enumerate_standard_k_tableaux, standard_shapes

EXA36_ROWS = [[1, 2, 4, 6, 8, 9], [3, 5, 7], [4, 6, 9], [7], [9]]


def test_make_cover_validation():
    c = make_cover((), (1,), 2)
    assert c.cells == ((1, 1),)
    with pytest.raises(ValueError):
        make_cover((1, 1), (2, 1), 2)  # row-type string, not a cover
    with pytest.raises(ValueError):
        make_cover((3, 3, 1), (3, 3, 2), 4)  # inner is not a 4-shape


def test_cover_status_small():
    st = cover_status(make_cover((), (1,), 2), 2)
    assert st.maximal and st.reverse_maximal
    st = cover_status(make_cover((1,), (1, 1), 2), 2)
    assert st.continues_below and not st.continues_above


def cell_in(lam, cell) -> bool:
    i, j = cell
    return 1 <= i <= len(lam) and 1 <= j <= lam[i - 1]


def _brute_status(c, k):
    """Recompute continuation flags by scanning raw cells for corners."""
    from kshape.partitions import diag

    def is_addable(lam, cell):
        i, j = cell
        if cell_in(lam, cell):
            return False
        rows = list(lam) + [0] * (i - len(lam))
        return rows[i - 1] == j - 1 and (i == 1 or rows[i - 2] >= j)

    def is_removable(lam, cell):
        i, j = cell
        if i > len(lam) or lam[i - 1] != j:
            return False
        return i == len(lam) or lam[i] < j

    top, bot = c.top, c.bottom
    height = max(len(c.outer), top[0]) + k + 2
    width = (c.outer[0] if c.outer else 0) + k + 2
    flags = [False, False, False, False]
    for i in range(1, height + 1):
        for j in range(1, width + 1):
            cell = (i, j)
            if is_addable(c.inner, cell):
                if i < bot[0] and abs(diag(cell) - diag(bot)) in (k, k + 1):
                    flags[0] = True
                if i > top[0] and abs(diag(cell) - diag(top)) in (k, k + 1):
                    flags[1] = True
            if is_removable(c.outer, cell):
                if i < bot[0] and abs(diag(cell) - diag(bot)) in (k, k + 1):
                    flags[2] = True
                if i > top[0] and abs(diag(cell) - diag(top)) in (k, k + 1):
                    flags[3] = True
    return tuple(flags)


def test_cover_status_matches_brute_force():
    seen = set()
    for k in (2, 3, 5):
        for size in range(0, 6):
            for lam in kshapes_of_size(k, size):
                for c in enumerate_covers(lam, k):
                    st = cover_status(c, k)
                    got = (
                        st.continues_below,
                        st.continues_above,
                        st.reverse_below,
                        st.reverse_above,
                    )
                    assert got == _brute_status(c, k)
                    seen.add(got[:2])
    # continuations of every kind occur at this scale
    assert {(False, False), (True, False), (False, True)} <= seen


def test_section5_kshape_tableau():
    t = make_kshape_tableau(3, chain_of_filling([[1, 2, 4, 5, 6, 7], [3, 5, 6], [4, 8], [6], [8]]))
    assert t.chain == (
        (), (1,), (2,), (2, 1), (3, 1, 1), (4, 2, 1), (5, 3, 1, 1),
        (6, 3, 1, 1), (6, 3, 2, 1, 1),
    )


def test_single_cell_chain_characterization():
    is_k, is_km1 = chain_characterization([(), (1,)], 2)
    assert is_k and is_km1


def test_characterization_matches_standard_enumeration():
    for k in (2, 3):
        for n in range(0, 6):
            direct = {
                t.chain
                for lam in standard_shapes(k, n)
                for t in enumerate_standard_k_tableaux(lam, k)
            }
            from_covers = {
                t.chain
                for t in enumerate_kshape_tableaux(n, k)
                if chain_characterization(t.chain, k)[0]
            }
            assert direct == from_covers


def _successors(lam, k):
    """The successor rule that ``connected_rows`` replaced, kept as its
    oracle: the successor of row r is the lowest row whose addable corner
    lies within diagonal distance k+1 of the corner of row r."""
    parts = list(lam) + [0]
    corners = {
        i: parts[i - 1] + 1 - i
        for i in range(1, len(parts) + 1)
        if i == 1 or parts[i - 2] > parts[i - 1]
    }
    succ = {}
    for r, d in corners.items():
        below = [r2 for r2, d2 in corners.items() if r2 < r and abs(d - d2) <= k + 1]
        if below:
            succ[r] = min(below)
    return corners, succ


def _oracle_interval(lam, k, r, rp, closed_left, closed_right):
    """The interval count, walking the successors of ``_successors``."""
    corners, succ = _successors(lam, k)
    assert r in corners
    chain = [r]
    while chain[-1] in succ:
        chain.append(succ[chain[-1]])
    count = 0
    for idx, row in enumerate(chain):
        if row < rp:
            break
        if (idx == 0 and not closed_left) or (row == rp and not closed_right):
            continue
        count += 1
    return count


def test_connected_rows_example():
    lam = (12, 8, 6, 4, 2, 1)
    chains = connected_rows(lam, 5)
    assert {r: c[1] for r, c in chains.items() if len(c) > 1} == {
        2: 1, 3: 2, 4: 2, 5: 3, 6: 4, 7: 5,
    }
    assert chains[7] == (7, 5, 3, 2, 1)
    assert _interval(lam, 5, 7, 1, True, True) == 5


def test_connected_rows_empty():
    chains = connected_rows((), 3)
    assert chains == {1: (1,)}
    with pytest.raises(TypeError):
        chains[2] = (2,)  # the memo table shares this mapping


def test_connected_rows_match_successor_rule():
    count, longest = 0, 0
    for k in range(2, 6):
        for size in range(0, 9):
            for lam in kshapes_of_size(k, size):
                corners, succ = _successors(lam, k)
                chains = connected_rows(lam, k)
                assert set(chains) == set(corners)
                for r, chain in chains.items():
                    assert chain[0] == r
                    assert all(succ[a] == b for a, b in zip(chain, chain[1:]))
                    assert chain[-1] not in succ
                    longest = max(longest, len(chain))
                count += 1
    assert count == 328 and longest == 9


def test_intervals():
    lam = (3, 1, 1)  # addable corners in rows 1, 2, 4
    for left, right, want in [(True, False, 1), (True, True, 2), (False, True, 1), (False, False, 0)]:
        assert _interval(lam, 4, 4, 2, left, right) == want
        assert _oracle_interval(lam, 4, 4, 2, left, right) == want
    assert _interval(lam, 4, 2, 2, True, False) == 0  # empty half-open interval


def test_charge_cocharge_exa36_37():
    t = make_kshape_tableau(4, chain_of_filling(EXA36_ROWS))
    assert letter_charges(t) == (0, 1, 1, 1, 2, 2, 2, 4, 3)
    assert charge_kshape(t) == 16
    assert letter_cocharges(t) == (0, 0, 1, 1, 2, 2, 3, 3, 3)
    assert cocharge_kshape(t) == 15
    assert sum(k_interior(t.shape, 4)) == 5
    assert charge_kshape(t) == 9 * 8 // 2 - cocharge_kshape(t) - 5
    assert charge_cocharge_residual(t) == 0


def test_single_letter_charges():
    t = make_kshape_tableau(2, [(), (1,)])
    assert charge_kshape(t) == 0 and cocharge_kshape(t) == 0
    assert charge_cocharge_residual(t) == 0


def test_duality_sweep_small():
    for k in (2, 3):
        for n in range(1, 5):
            for t in enumerate_kshape_tableaux(n, k):
                assert charge_cocharge_residual(t) == 0
                chs, cos = letter_charges(t), letter_cocharges(t)
                for m in range(1, t.letters + 1):
                    assert chs[m - 1] == m - cos[m - 1] - len(t.cells_of_letter(m))


def _two_recursions(t):
    """The separate charge and cocharge recursions on the top and bottom
    rows of each letter, found by a scan of its cells, that the single
    interval recursion replaced, kept as its oracle over the test-local
    interval walk."""
    rows = [[c[0] for c in t.cells_of_letter(n)] for n in range(1, t.letters + 1)]
    ups, downs = [max(r) for r in rows], [min(r) for r in rows]
    chs, cos, ch, co = [0], [0], 0, 0
    for n in range(2, t.letters + 1):
        shape = t.chain[n - 1]
        r, rp = ups[n - 2] + 1, ups[n - 1]
        if r >= rp:
            ch += _oracle_interval(shape, t.k, r, rp, True, False)
        else:
            ch -= _oracle_interval(shape, t.k, rp, r, False, True)
        r, rp = downs[n - 2] + 1, downs[n - 1]
        if r > rp:
            co -= _oracle_interval(shape, t.k, r, rp, False, False)
        else:
            co += _oracle_interval(shape, t.k, rp, r, True, True)
        chs.append(ch)
        cos.append(co)
    return tuple(chs), tuple(cos)


def test_letter_statistics_match_the_two_recursions():
    count = 0
    for k in range(2, 6):
        for n in range(1, 9):
            for t in enumerate_kshape_tableaux(n, k):
                assert (letter_charges(t), letter_cocharges(t)) == _two_recursions(t)
                count += 1
    assert count > 5000


def test_boundary_grows_by_one_per_cover():
    from kshape.partitions import boundary_size

    for k in (2, 3):
        for size in range(0, 6):
            for lam in kshapes_of_size(k, size):
                for c in enumerate_covers(lam, k):
                    assert boundary_size(c.outer, k) == size + 1


def test_grounded_residue_connectivity():
    # in a (k+1)-core, a grounded residue in a row recurs in the connected
    # row below it, with no other diagonal of that residue in between
    from kshape.partitions import diag, residue
    from kshape.weak_tableaux import standard_shapes

    for k in (2, 3):
        for lam in standard_shapes(k, 6):
            width = (lam[0] if lam else 0) + k + 2
            for r, chain in connected_rows(lam, k).items():
                if len(chain) < 2:
                    continue
                rp = chain[1]
                for j in range(1, width):
                    grounded = not cell_in(lam, (r, j)) and (
                        r == 1 or cell_in(lam, (r - 1, j))
                    )
                    if not grounded:
                        continue
                    e = residue((r, j), k)
                    ground_rp = [
                        jj
                        for jj in range(1, width)
                        if residue((rp, jj), k) == e
                        and not cell_in(lam, (rp, jj))
                        and (rp == 1 or cell_in(lam, (rp - 1, jj)))
                    ]
                    assert ground_rp, (lam, r, rp, j)
                    # and no diagonal of that residue strictly in between
                    from kshape.partitions import diag_count

                    gaps = [
                        diag_count((r, j), (rp, jj), e, k)
                        for jj in ground_rp
                        if diag((rp, jj)) >= diag((r, j))
                    ]
                    assert 0 in gaps, (lam, r, rp, j)


@pytest.mark.parametrize("rows", [[[2], [1]], [[2, 1]], [[0, 1]], [[1], [1, 2]]])
def test_kshape_filling_rejects_bad_grid(rows):
    with pytest.raises(ValueError):
        make_kshape_tableau(3, chain_of_filling(rows))

