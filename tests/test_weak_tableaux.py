import itertools

import pytest

from kshape.classical import (
    chain_from_grid,
    classical_charge,
    classical_cocharge,
    classical_sigma,
    semistandard_tableaux,
    standard_young_tableaux,
)
from kshape.kshape_tableaux import make_kshape_tableau
from kshape.errors import IntegrityError
from kshape.partitions import (
    add_cells,
    addable_corners,
    boundary_size,
    contains,
    diag_count,
    is_p_core,
    partitions_of,
    removable_corners,
    residue,
    skew_cells,
)
from kshape.weak_tableaux import (
    WeakTableau,
    _extract_words,
    _marker_term,
    _residues_of,
    _sigma_step,
    _sigma_window,
    _strips_over,
    chain_of_filling,
    charge_any_weight,
    charge_dominant_semistandard,
    charge_standard,
    cocharge_standard,
    count_standard_k_tableaux,
    enumerate_standard_k_tableaux,
    enumerate_weak_tableaux,
    is_standard_step,
    is_weak_strip,
    kostka_k,
    make_weak_tableau,
    parse_tableau_text,
    sigma_involution,
    sort_to_dominant,
    split_tableau_text,
    standard_predecessors,
    standard_shapes,
    standard_successors,
    word_charges,
)

EXA21 = "1 2 3 5 7 9 10 / 4 6 10 / 5 7 / 8 / 10"
DOMINANT_EXAMPLE = "1 1 2 3 4 4 5 5 6 / 2 3 5 5 6 / 3 4 7 / 5 6 / 6 / 7"


def weak_successors(nu, bound, k):
    """Cores xi with nu <= xi <= bound forming a weak strip over the
    (k+1)-core nu: every strip of the residue table inside bound."""
    return tuple(xi for xi in _strips_over(nu, k).values() if contains(bound, xi))


def all_weight_weak_tableaux(lam, k, letters):
    """The enumerator ``enumerate_weak_tableaux`` replaced: every weak
    tableau of shape lam on the given number of letters, of any weight,
    each chain validated and its weight read off the boundary growth."""
    out = []

    def rec(chain):
        if len(chain) == letters + 1:
            if chain[-1] == lam:
                out.append(make_weak_tableau(k, tuple(chain)))
            return
        for nxt in weak_successors(chain[-1], lam, k):
            chain.append(nxt)
            rec(chain)
            chain.pop()

    rec([()])
    return tuple(out)


def test_parse_and_format_round_trip():
    t = parse_tableau_text(4, EXA21)
    assert t.shape == (7, 3, 2, 1, 1)
    assert t.is_standard()
    assert parse_tableau_text(4, t.text()).chain == t.chain
    with pytest.raises(ValueError):
        parse_tableau_text(4, "2 1")


def test_make_weak_tableau_rejects_a_chain_that_shrinks():
    with pytest.raises(ValueError, match=r"^invalid weak strip \(\)/\(1,\) at k=2$"):
        make_weak_tableau(2, [(), (1,), ()])


def test_weight_23122_example():
    t = parse_tableau_text(3, "1 1 2 2 2 4 5 5 / 2 2 4 5 5 / 3 4 / 4 5")
    assert t.weight == (2, 3, 1, 2, 2)
    assert t.chain == ((), (2,), (5, 2), (5, 2, 1), (6, 3, 2, 1), (8, 5, 2, 2))
    assert t.text() == "1 1 2 2 2 4 5 5 / 2 2 4 5 5 / 3 4 / 4 5"
    assert _residues_of(t.cells_of_letter(2), 3) == [0, 2, 3]


def test_enumerate_standard_small():
    assert len(enumerate_standard_k_tableaux((1,), 3)) == 1
    tabs = enumerate_standard_k_tableaux((3, 1), 2)
    assert len(tabs) == 1
    assert tabs[0].text() == "1 2 3 / 3"
    with pytest.raises(ValueError):
        enumerate_standard_k_tableaux((2, 1), 2)  # hook 3 present


def test_count_matches_enumeration():
    """k=2..5, k-boundary at most 10: counting chains through the
    predecessor table gives the number of tableaux enumerated."""
    total = 0
    for k in range(2, 6):
        for n in range(11):
            for lam in standard_shapes(k, n):
                count = count_standard_k_tableaux(lam, k)
                assert count == len(enumerate_standard_k_tableaux(lam, k)), (lam, k)
                total += count
    assert total == 6944
    with pytest.raises(ValueError):
        count_standard_k_tableaux((2, 1), 2)  # hook 3 present


def test_ejemplo1_membership():
    t = parse_tableau_text(3, "1 4 5 / 2 6 7 / 3 / 4 / 6")
    tabs = enumerate_standard_k_tableaux((3, 3, 1, 1, 1), 3)
    assert any(x.chain == t.chain for x in tabs)


def test_single_residue_per_letter():
    for k in (2, 3):
        for n in range(1, 6):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    for m in range(1, t.letters + 1):
                        assert len(_residues_of(t.cells_of_letter(m), k)) == 1


def test_charge_cocharge_nonnegative():
    for k in (2, 3):
        for n in range(1, 7):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    assert charge_standard(t) >= 0
                    assert cocharge_standard(t) >= 0


def test_charge_cocharge_exa21():
    t = parse_tableau_text(4, EXA21)
    assert charge_standard(t) == 25
    assert cocharge_standard(t) == 16
    single = parse_tableau_text(3, "1")
    assert charge_standard(single) == 0
    assert cocharge_standard(single) == 0


def test_k2_worked_charge():
    t = enumerate_standard_k_tableaux((3, 1), 2)[0]
    assert charge_standard(t) == 2


def test_word_extraction_example():
    t = parse_tableau_text(4, DOMINANT_EXAMPLE)
    assert t.weight == (2, 2, 2, 2, 2, 2, 1)
    _, (w1, w2) = _extract_words(t)
    assert w1 == ((1, 1), (2, 4), (3, 3), (4, 0), (5, 2), (6, 1), (7, 0))
    assert w2 == ((1, 0), (2, 2), (3, 0), (4, 4), (5, 1), (6, 3))
    assert word_charges(t) == (5, 7)
    assert charge_dominant_semistandard(t) == 12


def test_dominant_charge_on_standard_matches():
    for k in (2, 3):
        for lam in standard_shapes(k, 5):
            for t in enumerate_standard_k_tableaux(lam, k):
                assert charge_dominant_semistandard(t) == charge_standard(t)


def test_dominant_charge_requires_dominant():
    t = parse_tableau_text(3, "1 2 2")  # weight (1, 2)
    with pytest.raises(ValueError):
        charge_dominant_semistandard(t)


def test_large_k_matches_classical_charge():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for ch in standard_young_tableaux(lam):
                t = make_weak_tableau(n, ch)
                assert charge_standard(t) == classical_charge(ch)
                assert cocharge_standard(t) == classical_cocharge(ch)
            for wt in partitions_of(n):
                for ch in semistandard_tableaux(lam, wt):
                    t = make_weak_tableau(n, ch)
                    assert charge_dominant_semistandard(t) == classical_charge(ch)


def test_sigma_equal_weight_is_neutral():
    t = parse_tableau_text(3, "1 1 2 2 / 2")  # weight (2, 2)
    u = sigma_involution(t, 1)
    assert u.weight == t.weight
    assert sigma_involution(u, 1).chain == t.chain


@pytest.mark.parametrize(
    "chain, weight",
    [
        (((), (2,), (2, 1, 1)), (1, 1)),  # (2,1,1)/(2) is not a weak strip
        (((), (1,), (2,)), (2, 1)),  # the first letter grows the boundary by 1
        (((), (1,), (2, 1)), (1, 2)),  # (2,1) is not a 3-core
    ],
)
def test_sigma_rejects_bad_input(chain, weight):
    with pytest.raises(ValueError):
        sigma_involution(WeakTableau(k=2, chain=chain, weight=weight), 1)


def test_sigma_involution_sweep():
    for k in (2, 3):
        for n in range(1, 6):
            for lam in standard_shapes(k, n):
                for letters in range(1, n + 1):
                    for t in all_weight_weak_tableaux(lam, k, letters):
                        for i in range(1, t.letters):
                            u = sigma_involution(t, i)
                            w = list(t.weight)
                            w[i - 1], w[i] = w[i], w[i - 1]
                            assert u.weight == tuple(w)
                            assert sigma_involution(u, i).chain == t.chain


def test_sigma_matches_classical_at_large_k():
    for n in range(2, 6):
        for lam in partitions_of(n):
            for wt_sorted in partitions_of(n):
                for wt in set(itertools.permutations(wt_sorted)):
                    for ch in semistandard_tableaux(lam, wt):
                        t = make_weak_tableau(n, ch)
                        for i in range(1, len(wt)):
                            assert (
                                sigma_involution(t, i).chain
                                == classical_sigma(ch, i)
                            )


def test_charge_any_weight():
    # dominant input short-circuits to the word charge
    t = parse_tableau_text(4, DOMINANT_EXAMPLE)
    assert charge_any_weight(t) == 12
    # non-dominant input routes through the sort
    u = parse_tableau_text(3, "1 2 2")  # weight (1, 2)
    assert sort_to_dominant(u).weight == (2, 1)
    assert charge_any_weight(u) == charge_dominant_semistandard(sort_to_dominant(u)) == 1


def test_charge_multiset_permutation_invariant():
    for k in (2, 3):
        for lam in standard_shapes(k, 4):
            for wt_sorted in [(2, 1, 1), (2, 2)]:
                base = None
                for wt in set(itertools.permutations(wt_sorted)):
                    charges = sorted(
                        charge_any_weight(t) for t in enumerate_weak_tableaux(lam, k, wt)
                    )
                    if base is None:
                        base = charges
                    assert charges == base


BAD_GRIDS = [
    [[2], [1]],  # letter 1 sits above an empty first row
    [[2, 1]],  # row decreases
    [[0, 1]],  # entry below 1
    [[1], [1, 2]],  # rows of letters 1..2 are not a partition
    [[1, 2], [], [3]],  # an empty row below a filled one
    [[], [1, 2]],  # an empty first row
]


@pytest.mark.parametrize("rows", BAD_GRIDS)
def test_filling_rejects_bad_grid(rows):
    with pytest.raises(ValueError):
        chain_of_filling(rows)
    with pytest.raises(ValueError):
        make_weak_tableau(3, chain_of_filling(rows))


def test_bad_grid_message_names_letter_and_grid():
    with pytest.raises(ValueError) as err:
        parse_tableau_text(3, "2 / 1")
    assert str(err.value) == (
        "letter 1: the cells of letters 1..1 in '2 / 1' do not form a partition"
        " (row lengths (0, 1), bottom row first)"
    )
    with pytest.raises(ValueError, match=r"^letter 2: .*'1 / 1 2'"):
        chain_of_filling([[1], [1, 2]])
    # an empty row below a filled one is kept, and its zero length breaks
    # the partition
    with pytest.raises(ValueError, match=r"^letter 3: .*'1 2 /  / 3' do not form a partition"):
        parse_tableau_text(3, "1 2 / / 3")


def test_chain_of_filling_matches_classical_oracle():
    assert split_tableau_text(" 1 1 2 /  2 / / ") == [[1, 1, 2], [2]]
    assert chain_of_filling([]) == ((),)
    for lam, wt in (((3, 2), (2, 2, 1)), ((4, 2, 1), (3, 2, 1, 1)), ((2, 2), (1, 1, 1, 1))):
        for ch in semistandard_tableaux(lam, wt):
            rows = make_weak_tableau(max(sum(lam), 1), ch).filling()
            assert chain_of_filling(rows) == chain_from_grid(rows) == ch


def test_letters_match_weight_and_chain():
    # letters is read off the chain, the weight holds one entry per letter
    seen = 0
    for k in range(2, 5):
        for n in range(0, 6):
            for lam in standard_shapes(k, n):
                made = list(enumerate_standard_k_tableaux(lam, k))
                made += all_weight_weak_tableaux(lam, k, n)
                made += [make_weak_tableau(k, t.chain) for t in made]
                for t in made:
                    assert t.letters == len(t.weight) == len(t.chain) - 1
                    seen += 1
    assert seen > 0


def test_weak_and_kshape_views_of_a_standard_chain_agree():
    for k in range(2, 5):
        for n in range(1, 7):
            for lam in standard_shapes(k, n):
                for w in enumerate_standard_k_tableaux(lam, k):
                    s = make_kshape_tableau(k, w.chain)
                    assert s.filling() == w.filling()
                    assert s.text() == w.text()
                    assert chain_from_grid(w.filling()) == w.chain
                    for m in range(1, n + 1):
                        assert s.cells_of_letter(m) == w.cells_of_letter(m)


def _up(t, n):
    """Uppermost cell of letter n, by a scan of its cells."""
    return max(t.cells_of_letter(n), key=lambda c: c[0])


def _down(t, n):
    """Lowermost cell of letter n, by a scan of its cells."""
    return min(t.cells_of_letter(n), key=lambda c: c[0])


def test_markers_are_the_end_cells_of_each_letter():
    """The charges read a standard letter's markers, and each residue
    class's top marker in a weak letter, as its last and first cells; the
    scan of its rows is the oracle."""
    letters = classes = 0
    for k in range(2, 5):
        for n in range(0, 7):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    for m in range(1, t.letters + 1):
                        cells = t.cells_of_letter(m)
                        assert (cells[-1], cells[0]) == (_up(t, m), _down(t, m))
                        letters += 1
                for t in all_weight_weak_tableaux(lam, k, n):
                    for m in range(1, t.letters + 1):
                        cells = t.cells_of_letter(m)
                        for r in {residue(c, k) for c in cells}:
                            cls = [c for c in cells if residue(c, k) == r]
                            assert cls[-1] == max(cls, key=lambda c: c[0])
                            assert len({c[0] for c in cls}) == len(cls)
                            classes += 1
    assert (letters, classes) == (739, 33413)


# ---------------------------------------------------------------------------
# the s_r action against the brute-force scans it replaced


def corner_subset_successors(nu, k):
    """Every nonempty subset of addable corners whose addition is a standard
    step from the core nu."""
    corners = addable_corners(nu)
    out = {
        add_cells(nu, subset)
        for r in range(1, len(corners) + 1)
        for subset in itertools.combinations(corners, r)
    }
    return tuple(sorted(xi for xi in out if is_standard_step(nu, xi, k)))


def corner_subset_predecessors(nu, k):
    """Every nonempty subset of removable corners whose removal leaves a
    core one standard step below nu."""
    out = set()
    corners = removable_corners(nu)
    for r in range(1, len(corners) + 1):
        for subset in itertools.combinations(corners, r):
            rows = list(nu)
            for i, j in subset:
                rows[i - 1] = j - 1
            out.add(tuple(x for x in rows if x))
    return tuple(sorted(p for p in out if is_p_core(p, k + 1) and is_standard_step(p, nu, k)))


def box_scan_weak_successors(nu, bound, k):
    """Every partition between nu and bound that is a weak strip over nu."""
    nb = list(nu) + [0] * (len(bound) - len(nu))
    out = []

    def rec(i, prev, acc):
        if i == len(bound):
            xi = tuple(x for x in acc if x)
            if is_weak_strip(nu, xi, k):
                out.append(xi)
            return
        for v in range(nb[i], min(prev, bound[i]) + 1):
            rec(i + 1, v, acc + [v])

    rec(0, bound[0] if bound else 0, [])
    return tuple(sorted(set(out)))


def strips_by_filtering(nu, scanned, k, size, residues):
    """The strips among the box-scanned ones of the given size on exactly
    the residues."""
    return [
        xi
        for xi in scanned
        if boundary_size(xi, k) - boundary_size(nu, k) == size
        and {residue(c, k) for c in skew_cells(xi, nu)} == set(residues)
    ]


def reachable_below(bound, k):
    """Every core reached from () by weak strips inside bound."""
    seen, todo = {()}, [()]
    while todo:
        for xi in weak_successors(todo.pop(), bound, k):
            if xi not in seen:
                seen.add(xi)
                todo.append(xi)
    return sorted(seen)


def test_standard_steps_match_corner_subset_scan():
    shapes = 0
    for k in range(2, 7):
        for n in range(0, 10):
            for nu in standard_shapes(k, n):
                assert standard_successors(nu, k) == corner_subset_successors(nu, k)
                assert standard_predecessors(nu, k) == corner_subset_predecessors(nu, k)
                shapes += 1
    assert shapes == 327


def test_standard_predecessors_are_cores_and_invert_successors():
    # the subset scan once returned (1, 1, 1) and (2, 1), which are not 3-cores
    assert standard_predecessors((2, 1, 1), 2) == ((1, 1),)
    assert not is_standard_step((2, 1), (2, 1, 1), 2)
    for k in range(2, 6):
        shapes = {nu for n in range(0, 9) for nu in standard_shapes(k, n)}
        for nu in shapes:
            for prev in standard_predecessors(nu, k):
                assert is_p_core(prev, k + 1)
                assert nu in standard_successors(prev, k)
            for xi in standard_successors(nu, k):
                assert nu in standard_predecessors(xi, k)


def test_weak_successors_and_residue_strips_match_box_scan():
    triples = strips = 0
    for k in range(2, 6):
        # every residue set, the full one included: it is never a strip
        subsets = [
            frozenset(a)
            for m in range(0, k + 2)
            for a in itertools.combinations(range(k + 1), m)
        ]
        for n in range(0, 9):
            for bound in standard_shapes(k, n):
                for nu in reachable_below(bound, k):
                    scanned = box_scan_weak_successors(nu, bound, k)
                    assert weak_successors(nu, bound, k) == scanned
                    triples += 1
                    table = _strips_over(nu, k)
                    for a in subsets:
                        found = strips_by_filtering(nu, scanned, k, len(a), a)
                        xi = table.get(a)
                        assert found == ([xi] if xi is not None and contains(bound, xi) else [])
                        strips += len(found)
    assert triples == 2414
    assert strips > triples
    assert _strips_over((), 2).get(frozenset({0, 1, 2})) is None


def mirrored_cocharge(t):
    """The lowermost-marker recursion that cocharge_standard replaced."""
    total = co = 0
    for n in range(2, t.letters + 1):
        prev_dn, cur_dn = _down(t, n - 1), _down(t, n)
        if prev_dn[0] >= cur_dn[0]:
            co -= diag_count(prev_dn, cur_dn, residue(prev_dn, t.k), t.k)
        else:
            co += diag_count(cur_dn, prev_dn, residue(cur_dn, t.k), t.k) + 1
        total += co
    return total


def test_cocharge_matches_mirrored_recursion():
    seen = 0
    for k in range(2, 6):
        for n in range(0, 9):
            for lam in standard_shapes(k, n):
                for t in enumerate_standard_k_tableaux(lam, k):
                    assert cocharge_standard(t) == mirrored_cocharge(t)
                    seen += 1
    assert seen == 1244


def _weighted_marker_terms(k, markers):
    """The sum over letters i = 2..n of (n - i + 1) * d_i, where d_i is
    the marker term of markers i - 1 and i."""
    n = len(markers)
    return sum(
        (n - i + 1) * _marker_term(k, markers[i - 2], markers[i - 1]) for i in range(2, n + 1)
    )


def test_charge_is_the_marker_terms_weighted_by_the_letters_after_them():
    """Letter i's marker term is in the running charge of letters i..n, so
    charge = sum over i of (n - i + 1) * d_i; this sum does not call the
    fold that ``charge_standard`` and ``cocharge_standard`` run."""
    shapes = seen = 0
    for k in range(2, 9):
        for n in range(0, 9):
            for lam in standard_shapes(k, n):
                shapes += 1
                for t in enumerate_standard_k_tableaux(lam, k):
                    ups = [t.cells_of_letter(i)[-1] for i in range(1, n + 1)]
                    downs = [t.cells_of_letter(i)[0] for i in range(1, n + 1)]
                    co = n * (n - 1) // 2 - _weighted_marker_terms(k, downs)
                    assert charge_standard(t) == _weighted_marker_terms(k, ups)
                    assert cocharge_standard(t) == co
                    seen += 1
    assert (shapes, seen) == (376, 4302)


# ---------------------------------------------------------------------------
# one standard-step test, one residue walk, one stack pass: their oracles


def weak_strip_standard_step(inner, outer, k):
    """The step test the weak bijection used before ``is_standard_step``:
    a weak strip at k that grows the k-boundary by exactly 1."""
    return is_weak_strip(inner, outer, k) and (
        boundary_size(outer, k) == boundary_size(inner, k) + 1
    )


def test_standard_step_matches_weak_strip_test():
    pairs = standard = 0
    for k in range(1, 6):
        cores = [lam for n in range(13) for lam in partitions_of(n) if is_p_core(lam, k + 1)]
        for inner in cores:
            for outer in cores:
                if 0 < sum(outer) - sum(inner) <= k + 2 and contains(outer, inner):
                    got = is_standard_step(inner, outer, k)
                    assert got == weak_strip_standard_step(inner, outer, k), (inner, outer, k)
                    pairs += 1
                    standard += got
    assert (pairs, standard) == (2831, 359)


def test_strips_over_keys_are_the_residues_of_their_strips():
    cores = strips = 0
    for k in range(2, 6):
        for n in range(0, 9):
            for bound in standard_shapes(k, n):
                for nu in reachable_below(bound, k):
                    table = _strips_over(nu, k)
                    assert list(table.values()) == sorted(table.values())
                    for a, xi in table.items():
                        assert sorted(a) == _residues_of(skew_cells(xi, nu), k)
                        assert len(a) <= k
                        strips += 1
                    with pytest.raises(TypeError):
                        table[frozenset()] = nu
                    cores += 1
    assert (cores, strips) == (2414, 19067)


def cancelled_residues(t, i):
    """The new residue set of letter i by the cancellation loop that
    ``sigma_involution`` used before its stack pass: delete the first
    adjacent (shifted i+1, i) pair until none is left."""
    k, m = t.k, t.k + 1
    a_cells = t.cells_of_letter(i)
    b_classes = {}
    for c in t.cells_of_letter(i + 1):
        b_classes.setdefault(residue(c, k), []).append(c)
    relabeled = [
        r if any((c[0] - 1, c[1]) not in set(a_cells) for c in cls) else (r + 1) % m
        for r, cls in sorted(b_classes.items())
    ]
    items = sorted([(r, 1) for r in _residues_of(a_cells, k)] + [(r, 0) for r in relabeled])
    unpaired = list(range(len(items)))
    changed = True
    while changed:
        changed = False
        for p in range(len(unpaired) - 1):
            x, y = unpaired[p], unpaired[p + 1]
            if items[x][1] == 0 and items[y][1] == 1:
                del unpaired[p : p + 2]
                changed = True
                break
    s_u = sum(1 for x in unpaired if items[x][1] == 0)
    new_a = [items[x][0] for x in unpaired[:s_u]]
    paired_a = [r for p, (r, typ) in enumerate(items) if typ == 1 and p not in unpaired]
    return frozenset(paired_a + new_a)


def test_sigma_stack_pass_matches_cancellation_loop():
    seen = 0
    for k in range(2, 5):
        for n in range(1, 6):
            for lam in standard_shapes(k, n):
                for letters in range(1, n + 1):
                    for t in all_weight_weak_tableaux(lam, k, letters):
                        for i in range(1, t.letters):
                            u = sigma_involution(t, i)
                            want = cancelled_residues(t, i)
                            assert frozenset(_residues_of(u.cells_of_letter(i), k)) == want
                            seen += 1
    assert seen == 5406


def tableau_sigma_step(t, i):
    """The tableau-level sigma step that ``_sigma_window`` replaced: read
    both letters' cells off the whole tableau, pair their residues, look
    the strip up and check its size, containment and the swapped weight."""
    if not 1 <= i < t.letters:
        raise ValueError(f"index {i} out of range 1..{t.letters - 1}")
    k, m = t.k, t.k + 1
    a_cells = t.cells_of_letter(i)
    b_classes = {}
    for c in t.cells_of_letter(i + 1):
        b_classes.setdefault(residue(c, k), []).append(c)
    a_residues = sorted({residue(c, k) for c in a_cells})
    a_set = set(a_cells)
    relabeled = []
    for r, cls in sorted(b_classes.items()):
        on_floor = any((c[0] - 1, c[1]) not in a_set for c in cls)
        relabeled.append(r if on_floor else (r + 1) % m)
    if len(set(relabeled)) != len(relabeled):
        raise IntegrityError("relabeled residues of the upper letter collide")
    items = sorted([(r, 1) for r in a_residues] + [(r, 0) for r in relabeled])
    open_b, unpaired_a, paired_a = [], [], []
    for r, typ in items:
        if typ == 0:
            open_b.append(r)
        elif open_b:
            open_b.pop()
            paired_a.append(r)
        else:
            unpaired_a.append(r)
    new_a = (unpaired_a + open_b)[: len(open_b)]
    residues = frozenset(paired_a + new_a)
    if len(residues) != len(relabeled):
        raise IntegrityError("residues of the swapped letter collide")
    chain = list(t.chain)
    nu, bound = chain[i - 1], chain[i + 1]
    xi = _strips_over(nu, k).get(residues)
    if xi is None:
        raise IntegrityError(f"no weak strip over {nu} has residues {sorted(residues)}")
    if boundary_size(xi, k) - boundary_size(nu, k) != len(residues) or not contains(bound, xi):
        raise IntegrityError(f"strip {xi} over {nu} does not fit inside {bound}")
    chain[i] = xi
    if not is_weak_strip(xi, chain[i + 1], k):
        raise IntegrityError("rebuilt chain step is not a weak strip")
    want = list(t.weight)
    want[i - 1], want[i] = want[i], want[i - 1]
    sizes = [boundary_size(nu, k) for nu in chain[i - 1 : i + 2]]
    if (sizes[1] - sizes[0], sizes[2] - sizes[1]) != (want[i - 1], want[i]):
        raise IntegrityError(f"after the swap, letters {i}, {i + 1} do not fit {tuple(want)}")
    return WeakTableau(k=k, chain=tuple(chain), weight=tuple(want))


def test_sigma_window_matches_tableau_step_over_the_sweep():
    """Over every (t, i) of the ``sigma-involution`` sweep at n <= 6,
    k <= 3, the window splice gives the chain and weight of the
    tableau-level step; those steps meet 322 distinct windows."""
    _sigma_window.cache_clear()
    steps = 0
    for k in (2, 3):
        for n in range(1, 7):
            for lam in standard_shapes(k, n):
                for letters in range(1, n + 1):
                    for w in itertools.product(range(k + 1), repeat=letters):
                        if sum(w) != n:
                            continue
                        for t in enumerate_weak_tableaux(lam, k, w):
                            for i in range(1, t.letters):
                                u = _sigma_step(t, i)
                                want = tableau_sigma_step(t, i)
                                assert (u.chain, u.weight) == (want.chain, want.weight)
                                steps += 1
    assert steps == 14093
    assert _sigma_window.cache_info().currsize == 322


# ---------------------------------------------------------------------------
# the weight-directed enumerator against the all-weight one it replaced


def oracle_triples(n, k_max):
    """Check the weight-directed enumerator against the all-weight oracle
    filtered by weight at every shape of boundary n for k = 1..k_max, on
    every composition weight the oracle meets and every partition weight;
    return the number of (lam, mu, k) triples with mu a partition."""
    triples = 0
    for k in range(1, k_max + 1):
        for lam in standard_shapes(k, n):
            by_weight = {}
            for letters in range(1, n + 1):
                for t in all_weight_weak_tableaux(lam, k, letters):
                    assert max(t.weight) <= k  # a weak strip s_A has |A| <= k
                    by_weight.setdefault(t.weight, set()).add(t.chain)
            for wt, chains in by_weight.items():
                made = enumerate_weak_tableaux(lam, k, wt)
                assert {t.chain for t in made} == chains and len(made) == len(chains)
                assert all(t.weight == wt for t in made)
            for mu in partitions_of(n):
                made = {t.chain for t in enumerate_weak_tableaux(lam, k, mu)}
                assert made == by_weight.get(mu, set())
                triples += 1
    return triples


@pytest.mark.parametrize("sizes, k_max, triples", [(range(1, 7), 6, 706), ((7,), 4, 360)])
def test_weight_directed_enumeration_matches_all_weight_oracle(sizes, k_max, triples):
    # past k = n the tableaux of boundary n no longer change
    assert sum(oracle_triples(n, min(n, k_max)) for n in sizes) == triples


@pytest.mark.parametrize("weight", [(3, -1), (-1, 3), (1.5, 0.5), (1.0, 1), (True, 1)])
def test_weight_parts_are_nonnegative_integers(weight):
    with pytest.raises(ValueError, match=r"^weight parts must be nonnegative integers: \("):
        enumerate_weak_tableaux((2,), 2, weight)


@pytest.mark.parametrize("lam", [(2, 1, 1), (3, 1)])
@pytest.mark.parametrize(
    "mu, message",
    [
        ((1, 2), r"parts must be weakly decreasing: \(1, 2\)"),
        ((2, -1, 2), r"partition parts must be positive: \(2, -1, 2\)"),
        ((2, 1, 0), r"\(2, 1, 0\) is not a partition"),
    ],
)
def test_kostka_k_rejects_a_weight_that_is_not_a_partition(lam, mu, message):
    # (1,2) is the weight of no tableau of shape (2,1,1) and of one of shape
    # (3,1); both raise the same error, and the table stores nothing
    size = kostka_k.cache_info().currsize
    with pytest.raises(ValueError, match=f"^{message}$"):
        kostka_k(lam, mu, 2)
    assert kostka_k.cache_info().currsize == size
