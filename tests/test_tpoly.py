import pytest

from kshape.classical import kostka_foulkes
from kshape.partitions import is_p_core, partitions_of
from kshape.poset import equivalence_classes, kshapes_of_size, move_charge, path_class_groups
from kshape.tpoly import TPoly
from kshape.weak_tableaux import enumerate_weak_tableaux, kostka_k, standard_shapes


def test_tpoly_arithmetic():
    a = TPoly.of([1, 2])
    b = TPoly.of([0, 1, 1])
    assert (a + b).coeffs == (1, 3, 1)
    assert (a * b).coeffs == (0, 1, 3, 2)
    assert TPoly.of([1, -1]) + TPoly.of([0, 1]) == TPoly.of([1])
    assert TPoly.of([0, 0]).coeffs == ()
    assert TPoly.from_powers([3, 3]) == TPoly.of([0, 0, 0, 2])
    assert TPoly.from_powers([0, 2, 2])(1) == 3
    assert a(3) == 7
    assert TPoly.of([1, 1]).text() == "1 + t"


def branching_poly(lam, mu, k) -> TPoly:
    """Sum of t^charge over the path classes from lam to the k-core mu."""
    groups = path_class_groups(lam, k).get(mu, ())
    return TPoly.from_powers(sum(map(move_charge, g[0])) for g in groups)


def test_branching_poly_trivials():
    # (1,) is a 3-core and a 2-core, so its one path is the empty one
    assert branching_poly((1,), (1,), 2) == TPoly.of([1])
    b = branching_poly((3, 1, 1), (4, 3, 2, 1), 2)
    assert b == TPoly.of([0, 0, 1, 1])  # classes of charge 2 and 3


@pytest.mark.parametrize("k,n_max", [(2, 12), (3, 12), (4, 12), (5, 10), (6, 10)])
def test_k_cores_of_boundary_are_standard_shapes(k, n_max):
    # a k-core has no hook of length k, so its k-boundary is its
    # (k-1)-boundary: the k-cores among the k-shapes of k-boundary n are
    # the shapes of standard (k-1)-tableaux on n letters
    for n in range(0, n_max + 1):
        oracle = sorted(v for v in kshapes_of_size(k, n) if is_p_core(v, k))
        assert list(standard_shapes(k - 1, n)) == oracle


def test_branching_at_one_counts_classes():
    for k in (2, 3):
        for size in range(0, 6):
            tops = [v for v in kshapes_of_size(k, size) if is_p_core(v, k + 1)]
            for lam in tops:
                for mu in standard_shapes(k - 1, size):
                    b = branching_poly(lam, mu, k)
                    assert b(1) == len(equivalence_classes(lam, mu, k))
                    assert all(c >= 0 for c in b.coeffs)


def test_dual_kschur_single_cell():
    # the dual k-Schur function of one cell is x1 + x2 + x3 in three
    # variables: one weak tableau of shape (1,) for each weight with a
    # single 1, none for any other weight of size one, and charge 0
    for k in (1, 2, 3):
        for i in range(3):
            weight = tuple(int(j == i) for j in range(3))
            assert len(enumerate_weak_tableaux((1,), k, weight)) == 1
        assert enumerate_weak_tableaux((1,), k, (1, 1, 0)) == ()
        assert kostka_k((1,), (1,), k) == TPoly.of([1])


def test_dual_kschur_large_k_is_schur():
    # for k >= n the weak tableaux are ordinary SSYT and the t power is the
    # classical charge, so K^(k)(t) is the Kostka-Foulkes polynomial
    for n in range(1, 6):
        for k in (n, n + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    got = kostka_k(lam, mu, k)
                    assert {i: c for i, c in enumerate(got.coeffs) if c} == kostka_foulkes(lam, mu)
