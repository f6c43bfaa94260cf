import pytest

from kshape.classical import (
    chain_from_grid,
    classical_charge,
    classical_cocharge,
    classical_sigma,
    kostka_foulkes,
    reading_word,
    rsk_insert,
    semistandard_tableaux,
    sigma_word,
    standard_young_tableaux,
    word_charge,
)
from kshape.partitions import conjugate, partitions_of


def cells(lam):
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            yield (i, j)


def hook_length(lam, cell):
    i, j = cell
    return lam[i - 1] - j + conjugate(lam)[j - 1] - i + 1


def test_charge_anchors():
    assert kostka_foulkes((2, 1), (1, 1, 1)) == {1: 1, 2: 1}
    assert kostka_foulkes((3,), (2, 1)) == {1: 1}
    assert kostka_foulkes((2, 1), (2, 1)) == {0: 1}
    assert kostka_foulkes((2, 2), (2, 1, 1)) == {1: 1}
    # single row and column
    assert classical_charge(standard_young_tableaux((5,))[0]) == 10
    assert classical_charge(standard_young_tableaux((1, 1, 1, 1, 1))[0]) == 0


def _tmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_charge_distribution_matches_hook_formula():
    # the charge generating function over standard tableaux equals the
    # t-analog of the hook length formula
    for n in range(1, 8):
        for lam in partitions_of(n):
            dist = {}
            for ch in standard_young_tableaux(lam):
                c = classical_charge(ch)
                dist[c] = dist.get(c, 0) + 1
            got = [dist.get(i, 0) for i in range(max(dist) + 1)]
            num = [1]
            for m in range(1, n + 1):
                num = _tmul(num, [1] * m)
            den = [1]
            for b in cells(lam):
                den = _tmul(den, [1] * hook_length(lam, b))
            quot = [0] * (len(num) - len(den) + 1)
            rem = list(num)
            for i in range(len(quot) - 1, -1, -1):
                coef = rem[i + len(den) - 1] // den[-1]
                quot[i] = coef
                for j, d in enumerate(den):
                    rem[i + j] -= coef * d
            assert all(x == 0 for x in rem)
            lamc = conjugate(lam)
            shift = sum(i * lamc[i] for i in range(len(lamc)))
            want = [0] * shift + quot
            while want and want[-1] == 0:
                want.pop()
            while got and got[-1] == 0:
                got.pop()
            assert got == want, lam


def test_charge_plus_cocharge_standard():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for ch in standard_young_tableaux(lam):
                assert classical_charge(ch) + classical_cocharge(ch) == n * (n - 1) // 2


def test_word_charge_trivials():
    assert word_charge(()) == 0
    assert word_charge((1,)) == 0
    assert word_charge((1, 2, 3)) == 3
    assert word_charge((3, 2, 1)) == 0


def test_rsk_round_trip():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for ch in standard_young_tableaux(lam):
                assert rsk_insert(reading_word(ch)) == ch
    for shape, wt in [((3, 1), (2, 1, 1)), ((2, 2), (2, 2))]:
        for ch in semistandard_tableaux(shape, wt):
            assert rsk_insert(reading_word(ch)) == ch


def test_sigma_word_swaps_weight():
    w = (1, 1, 2, 1, 2, 2, 2)
    out = sigma_word(w, 1)
    assert sorted(out) == [1, 1, 1, 1, 2, 2, 2]
    assert sigma_word(out, 1) == w


def test_classical_sigma_involution_and_shape():
    for shape, wt in [((3, 1), (2, 1, 1)), ((2, 2, 1), (2, 2, 1)), ((3, 2), (2, 2, 1))]:
        for ch in semistandard_tableaux(shape, wt):
            for i in range(1, len(wt)):
                out = classical_sigma(ch, i)
                assert out[-1] == shape
                assert classical_sigma(out, i) == ch


def test_reading_word_rejects_a_chain_that_shrinks():
    with pytest.raises(ValueError, match=r"^\(2,\) is not contained in \(1,\)$"):
        reading_word(((), (2,), (1,)))


def test_chain_from_grid():
    assert chain_from_grid([[1, 1, 2], [2]]) == ((), (2,), (3, 1))
    assert chain_from_grid([]) == ((),)


def test_semistandard_enumeration_counts():
    # Kostka numbers for shape (2,1)
    assert len(list(semistandard_tableaux((2, 1), (1, 1, 1)))) == 2
    assert len(list(semistandard_tableaux((2, 1), (2, 1)))) == 1
    assert len(list(semistandard_tableaux((2, 1), (3,)))) == 0
