"""Verification sweeps: independent oracles, theorem checks, and the
named check registry behind the command line.

Each check is declared once, in ``CHECKS``, with the parameters it takes
and their defaults; ``run_check`` rejects any other parameter, and any
parameter set at which the check's item builder gives no item.

Gating checks re-derive both sides of each identity through unrelated
code paths (classical word charge vs. chain recursions, counting vs.
bijection).  Conjecture checks never gate; they only report findings.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Callable

from . import classical
from .errors import IntegrityError
from .partitions import (
    boundary_size,
    col_shape,
    format_partition,
    is_p_core,
    partitions_of,
    row_shape,
)
from .poset import (
    enumerate_moves,
    enumerate_paths,
    is_k_shape,
    kshapes_of_size,
    move_charge,
    path_class_groups,
)
from .kshape_tableaux import (
    chain_characterization,
    charge_cocharge_residual,
    charge_kshape,
    cocharge_kshape,
    enumerate_kshape_tableaux,
    letter_charges,
    letter_cocharges,
    make_kshape_tableau,
)
from .pushout import full_descent, weak_bijection_standard
from .tpoly import TPoly
from .weak_tableaux import (
    ChainTableau,
    WeakTableau,
    _sigma_step,
    chain_of_filling,
    charge_dominant_semistandard,
    charge_standard,
    cocharge_standard,
    count_standard_k_tableaux,
    enumerate_standard_k_tableaux,
    enumerate_weak_tableaux,
    is_standard_step,
    kostka_k,
    make_weak_tableau,
    parse_tableau_text,
    standard_shapes,
    word_charges,
)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class VerificationReport:
    name: str
    params: dict
    instances: int
    passed: bool
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    conjecture: bool = False

    def line(self) -> str:
        status = "PASS" if self.passed else ("FINDINGS" if self.conjecture else "FAIL")
        extra = f" ({len(self.failures)} failures)" if self.failures else ""
        return (
            f"{status} {self.name} instances={self.instances}"
            f" elapsed={self.elapsed:.2f}s{extra}"
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.name,
                "params": self.params,
                "instances": self.instances,
                "passed": self.passed,
                "conjecture": self.conjecture,
                "failures": self.failures,
                "elapsed_s": round(self.elapsed, 3),
            },
            indent=2,
        )


def _worker_count() -> int:
    raw = os.environ.get("KSHAPE_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"KSHAPE_WORKERS must be a positive integer: {raw!r}")
    return workers


def _map_instances(fn: Callable, items: list) -> list:
    workers = _worker_count()
    if workers == 1 or len(items) < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # loaded only to fan out
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=1))


# ---------------------------------------------------------------------------
# fixture checks (exact values transcribed from worked examples)


def _kshape_fixture_instance(_):
    fails = []
    lam = (8, 4, 3, 2, 1, 1, 1)
    if not is_k_shape(lam, 4):
        fails.append("(8,4,3,2,1,1,1) should be a 4-shape")
    if row_shape(lam, 4) != (4, 2, 2, 1, 1, 1, 1):
        fails.append(f"row profile {row_shape(lam, 4)}")
    if col_shape(lam, 4) != (3, 2, 2, 1, 1, 1, 1, 1):
        fails.append(f"col profile {col_shape(lam, 4)}")
    if boundary_size(lam, 4) != 12:
        fails.append(f"boundary {boundary_size(lam, 4)}")
    if is_k_shape((3, 3, 1), 4):
        fails.append("(3,3,1) should not be a 4-shape")
    if row_shape((3, 3, 1), 4) != (2, 3, 1):
        fails.append(f"row profile of (3,3,1): {row_shape((3, 3, 1), 4)}")
    return 6, fails


POSET_2_4_EDGES = {
    ((2, 2, 1, 1), (3, 2, 1, 1), "row"),
    ((3, 1, 1), (3, 2, 1, 1), "column"),
    ((3, 1, 1), (4, 2, 1), "row"),
    ((4, 2), (4, 2, 1), "column"),
    ((3, 2, 1, 1), (4, 3, 2, 1), "row"),
    ((4, 2, 1), (4, 3, 2, 1), "column"),
}

POSET_3_5_DIAGRAM_EDGES = {
    ((2, 2, 1, 1, 1), (3, 2, 2, 1, 1), "row"),
    ((3, 1, 1, 1), (3, 2, 1, 1), "row"),
    ((3, 2, 1), (3, 2, 1, 1), "column"),
    ((3, 2, 1), (4, 2, 1), "row"),
    ((4, 1, 1), (4, 2, 1), "column"),
    ((5, 2), (5, 3, 1), "column"),
    ((3, 2, 1, 1), (3, 2, 2, 1, 1), "column"),
    ((3, 2, 1, 1), (4, 2, 1, 1), "row"),
    ((4, 2, 1), (4, 2, 1, 1), "column"),
    ((4, 2, 1), (5, 3, 1), "row"),
}

# valid moves the Hasse picture omits because they factor through a vertex
POSET_3_5_COMPOSITE_EDGES = {
    ((3, 1, 1, 1), (4, 2, 1, 1), "row"),
    ((4, 1, 1), (4, 2, 1, 1), "column"),
}


def _poset_fixture_instance(_):
    fails = []
    verts = kshapes_of_size(2, 4)
    edges = [(v, m.target, m.orientation) for v in verts for m in enumerate_moves(v, 2)]
    if set(verts) != {e[0] for e in POSET_2_4_EDGES} | {(4, 3, 2, 1)}:
        fails.append(f"poset(2,4) vertices: {verts}")
    if set(edges) != POSET_2_4_EDGES:
        fails.append(f"poset(2,4) edges: {sorted(edges)}")
    if len(verts) != 6 or len(edges) != 6:
        fails.append(f"poset(2,4) counts {len(verts)}/{len(edges)}")

    verts3 = kshapes_of_size(3, 5)
    want_vertices = {
        (2, 2, 1, 1, 1), (3, 1, 1, 1), (3, 2, 1), (4, 1, 1), (5, 2),
        (3, 2, 1, 1), (4, 2, 1),
        (3, 2, 2, 1, 1), (4, 2, 1, 1), (5, 3, 1),
    }
    edges3 = [(v, m.target, m.orientation) for v in verts3 for m in enumerate_moves(v, 3)]
    if set(verts3) != want_vertices:
        fails.append(f"poset(3,5) vertices: {verts3}")
    if set(edges3) != POSET_3_5_DIAGRAM_EDGES | POSET_3_5_COMPOSITE_EDGES:
        fails.append(f"poset(3,5) edges: {sorted(edges3)}")

    # maximal: no move reaches the vertex; minimal: no move leaves it
    for vs, es, kk in ((verts, edges, 2), (verts3, edges3, 3)):
        if set(vs) - {e[1] for e in es} != {v for v in vs if is_p_core(v, kk + 1)}:
            fails.append(f"maximal vertices of ({kk}) poset")
        if set(vs) - {e[0] for e in es} != {v for v in vs if is_p_core(v, kk)}:
            fails.append(f"minimal vertices of ({kk}) poset")
    if kshapes_of_size(2, 0) != ((),) or enumerate_moves((), 2):
        fails.append("poset(2,0) is not the single empty vertex")
    return 3, fails


def _paths_fixture_instance(_):
    fails = []
    paths = enumerate_paths((3, 1, 1), (4, 3, 2, 1), 2)
    if sorted(p.charge() for p in paths) != [2, 3]:
        fails.append(f"charges {sorted(p.charge() for p in paths)}")
    cls = path_class_groups((3, 1, 1), 2)[(4, 3, 2, 1)]
    if len(cls) != 2:
        fails.append(f"{len(cls)} classes for the 2-shape pair")
    paths3 = enumerate_paths((3, 2, 1), (4, 2, 1, 1), 3)
    if sorted(p.charge() for p in paths3) != [1, 1]:
        fails.append(f"charges {sorted(p.charge() for p in paths3)}")
    cls3 = path_class_groups((3, 2, 1), 3)[(4, 2, 1, 1)]
    if len(cls3) != 1:
        fails.append(f"{len(cls3)} classes for the 3-shape pair")
    self_paths = enumerate_paths((3, 1, 1), (3, 1, 1), 2)
    if len(self_paths) != 1 or self_paths[0].moves:
        fails.append("self paths are not exactly the empty path")
    return 3, fails


def _charge_fixture_instance(_):
    fails = []
    t = parse_tableau_text(4, "1 2 3 5 7 9 10 / 4 6 10 / 5 7 / 8 / 10")
    if charge_standard(t) != 25:
        fails.append(f"charge {charge_standard(t)} != 25")
    if cocharge_standard(t) != 16:
        fails.append(f"cocharge {cocharge_standard(t)} != 16")
    rows = [[1, 2, 4, 6, 8, 9], [3, 5, 7], [4, 6, 9], [7], [9]]
    u = make_kshape_tableau(4, chain_of_filling(rows))
    if charge_kshape(u) != 16:
        fails.append(f"k-shape charge {charge_kshape(u)} != 16")
    if cocharge_kshape(u) != 15:
        fails.append(f"k-shape cocharge {cocharge_kshape(u)} != 15")
    if charge_cocharge_residual(u) != 0:
        fails.append("duality instance 16 = 36 - 15 - 5")
    single = parse_tableau_text(3, "1")
    if charge_standard(single) != 0 or cocharge_standard(single) != 0:
        fails.append("single-cell charges")
    return 4, fails


def _word_charge_fixture_instance(_):
    fails = []
    t = parse_tableau_text(
        4, "1 1 2 3 4 4 5 5 6 / 2 3 5 5 6 / 3 4 7 / 5 6 / 6 / 7"
    )
    if t.weight != (2, 2, 2, 2, 2, 2, 1):
        fails.append(f"weight {t.weight}")
    if word_charges(t) != (5, 7):
        fails.append(f"word charges {word_charges(t)}")
    if charge_dominant_semistandard(t) != 12:
        fails.append(f"charge {charge_dominant_semistandard(t)}")
    return 1, fails


# ---------------------------------------------------------------------------
# gating sweeps


def _additivity_instance(args):
    k, lam = args
    fails = []
    count = 0
    for t in enumerate_standard_k_tableaux(lam, k):
        res = weak_bijection_standard(t)
        if charge_standard(t) != charge_standard(res.target) + res.path.charge():
            fails.append(f"charge additivity: k={k} {t.text()}")
        if cocharge_standard(t) != cocharge_standard(res.target) + res.path.cocharge():
            fails.append(f"cocharge additivity: k={k} {t.text()}")
        count += 1
    return count, fails


def _descent_instance(lam):
    fails = []
    count = 0
    n = sum(lam)
    for ch in classical.standard_young_tableaux(lam):
        rec = full_descent(ch)
        want = classical.classical_charge(ch)
        if rec.total_charge != want:
            fails.append(f"descent charge {rec.total_charge} != {want}: {ch}")
        if rec.total_cocharge != n * (n - 1) // 2 - want:
            fails.append(f"descent cocharge: {ch}")
        if len(rec.levels) != max(n - 1, 0):
            fails.append(f"descent level count: {ch}")
        count += 1
    return count, fails


def _duality_instance(args):
    k, n = args
    fails = []
    count = 0
    for t in enumerate_kshape_tableaux(n, k):
        if charge_cocharge_residual(t) != 0:
            fails.append(f"duality: k={k} {t.text()}")
        chs, cos = letter_charges(t), letter_cocharges(t)
        for m in range(1, t.letters + 1):
            if chs[m - 1] != m - cos[m - 1] - len(t.cells_of_letter(m)):
                fails.append(f"letter identity at {m}: k={k} {t.text()}")
        count += 1
    return count, fails


def _stability_instance(args):
    k, lam = args
    fails = []
    count = 0
    for t in enumerate_standard_k_tableaux(lam, k):
        as_k1 = ChainTableau(k=k + 1, chain=t.chain)
        if not charge_kshape(t) == charge_kshape(as_k1) == charge_standard(t):
            fails.append(f"charge stability: k={k} {t.text()}")
        if not cocharge_kshape(t) == cocharge_kshape(as_k1) == cocharge_standard(t):
            fails.append(f"cocharge stability: k={k} {t.text()}")
        count += 1
    return count, fails


def _characterization_instance(args):
    k, n = args
    fails = []
    count = 0
    direct_k = {
        t.chain for lam in standard_shapes(k, n) for t in enumerate_standard_k_tableaux(lam, k)
    }
    seen_k = set()
    for t in enumerate_kshape_tableaux(n, k):
        is_k, is_km1 = chain_characterization(t.chain, k)
        if is_k != (t.chain in direct_k):
            fails.append(f"k-tableau flag: k={k} {t.text()}")
        if is_k:
            seen_k.add(t.chain)
        steps = zip(t.chain, t.chain[1:])
        if is_km1 != all(is_standard_step(a, b, k - 1) for a, b in steps):
            fails.append(f"(k-1)-tableau flag: k={k} {t.text()}")
        count += 1
    if seen_k != direct_k:
        fails.append(f"cover chains missed {len(direct_k - seen_k)} k-tableaux at k={k} n={n}")
    return count, fails


def _classical_agreement_instance(lam):
    fails = []
    count = 0
    n = sum(lam)
    k = max(n, 1)
    for ch in classical.standard_young_tableaux(lam):
        t = make_weak_tableau(k, ch)
        if charge_standard(t) != classical.classical_charge(ch):
            fails.append(f"standard large-k: {ch}")
        if cocharge_standard(t) != classical.classical_cocharge(ch):
            fails.append(f"standard large-k cocharge: {ch}")
        count += 1
    for wt in partitions_of(n):
        for ch in classical.semistandard_tableaux(lam, wt):
            t = make_weak_tableau(k, ch)
            if charge_dominant_semistandard(t) != classical.classical_charge(ch):
                fails.append(f"dominant large-k: {ch} weight {wt}")
            count += 1
    return count, fails


def _bijection_count_instance(args):
    k, lam = args
    left = count_standard_k_tableaux(lam, k)
    right = sum(
        count_standard_k_tableaux(mu, k - 1) * len(groups)
        for mu, groups in path_class_groups(lam, k).items()
    )
    fails = []
    if left != right:
        fails.append(
            f"count mismatch at k={k} shape {format_partition(lam)}: {left} vs {right}"
        )
    return 1, fails


def _injectivity_instance(args):
    """Images (target chain, path class) of the weak bijection on the
    standard k-tableaux of one shape must be distinct.  Every path starts
    at that shape, so images from different items never meet.  A class
    is named by its end and its index among the classes at that end."""
    k, lam = args
    fails = []
    groups = path_class_groups(lam, k)
    class_of = {ms: (mu, i) for mu in groups for i, g in enumerate(groups[mu]) for ms in g}
    seen: dict[tuple, WeakTableau] = {}
    count = 0
    for t in enumerate_standard_k_tableaux(lam, k):
        res = weak_bijection_standard(t)
        cls = class_of.get(res.path.moves) if res.path.start == lam else None
        if cls is None:
            fails.append(f"path of k={k} {t.text()} is in no class")
        else:
            image = (res.target.chain, cls)
            first = seen.setdefault(image, t)
            if first is not t:
                fails.append(f"k={k}: {first.text()} and {t.text()} share an image")
        count += 1
    return count, fails


def _branching_instance(args):
    """The dual branching rule at one start, at every (k-1)-bounded
    partition weight nu: K^{(k)}_{lam nu} = sum over mu of
    B_{lam mu} K^{(k-1)}_{mu nu}, where B sums t^charge over the path
    classes from lam to mu; every member of a class has its charge, so
    it is read off the class's first move sequence.  Grading "none"
    compares both sides at t=1, where B counts the classes.  A failure
    names every weight that differs and both sides at the first."""
    k, lam, grading = args
    b = {
        mu: TPoly.from_powers(sum(map(move_charge, g[0])) for g in groups)
        for mu, groups in path_class_groups(lam, k).items()
    }
    at = (lambda p: p) if grading == "charge" else (lambda p: TPoly.of([p(1)]))
    bad = []
    for nu in partitions_of(boundary_size(lam, k), k - 1):
        rhs = sum((b[mu] * kostka_k(mu, nu, k - 1) for mu in b), TPoly())
        sides = at(kostka_k(lam, nu, k)), at(rhs)
        if sides[0] != sides[1]:
            bad.append((format_partition(nu), *sides))
    if not bad:
        return 1, []
    rule = "generic-t" if grading == "charge" else "t=1"
    where = f"k={k} shape {format_partition(lam)}"
    (nu, lhs, rhs), weights = bad[0], " ".join(w for w, _, _ in bad)
    first = f"at {nu}: {lhs.text()} vs {rhs.text()}"
    return 1, [f"{rule} branching differs at {where}, weights {weights}; {first}"]


# ---------------------------------------------------------------------------
# conjecture-mode sweeps (never gate)


def _sigma_conjecture_instance(args):
    """Sigma on every weak tableau of shape lam on the given number of
    letters: each weight is a composition of |boundary| into parts of at
    most k, the sizes a weak strip can have."""
    k, lam, letters = args
    fails = []
    count = 0
    n = boundary_size(lam, k)
    tableaux = [
        t
        for w in product(range(k + 1), repeat=letters)
        if sum(w) == n
        for t in enumerate_weak_tableaux(lam, k, w)
    ]
    for t in tableaux:
        for i in range(1, t.letters):
            count += 1
            try:
                u = _sigma_step(t, i)
            except (IntegrityError, ValueError) as exc:
                fails.append(f"sigma failed: k={k} {t.text()} i={i}: {exc}")
                continue
            if _sigma_step(u, i).chain != t.chain:
                fails.append(f"sigma not involutive: k={k} {t.text()} i={i}")
        for i in range(1, t.letters - 1):
            count += 1
            try:
                lhs = _sigma_step(_sigma_step(_sigma_step(t, i), i + 1), i)
                rhs = _sigma_step(_sigma_step(_sigma_step(t, i + 1), i), i + 1)
                if lhs.chain != rhs.chain:
                    fails.append(f"braid relation: k={k} {t.text()} i={i}")
            except (IntegrityError, ValueError) as exc:
                fails.append(f"braid evaluation failed: k={k} {t.text()} i={i}: {exc}")
    return count, fails


# ---------------------------------------------------------------------------
# the registry: each check's instance function, item builder, parameters


@dataclass(frozen=True)
class Check:
    """One named check.  ``items`` receives exactly the parameters in
    ``defaults`` and lists the sweep's items; a parameter set at which it
    lists none is rejected.  ``instance`` maps one item to (count,
    failures) and is module-level so that worker processes can pickle it."""

    instance: Callable[[object], tuple[int, list[str]]]
    items: Callable[..., list]
    defaults: dict[str, int] = field(default_factory=dict)
    gating: bool = True


def _single_item() -> list:
    return [0]


def _partitions_up_to(n_max: int) -> list:
    return [lam for n in range(1, n_max + 1) for lam in partitions_of(n)]


def _shape_walk(n_max: int, k_max: int) -> list:
    """(k, n, shape) for the shape of every standard k-tableau on n
    letters, 2 <= k <= k_max and 0 <= n <= n_max, k first."""
    return [
        (k, n, lam)
        for k in range(2, k_max + 1)
        for n in range(0, n_max + 1)
        for lam in standard_shapes(k, n)
    ]


def _additivity_items(n_max: int) -> list:
    walk = sorted(_shape_walk(n_max, n_max), key=itemgetter(1))
    return [(k, lam) for k, n, lam in walk if k <= n]


def _standard_shape_items(n_max: int, k_max: int) -> list:
    return [(k, lam) for k, n, lam in _shape_walk(n_max, k_max) if n]


CHECKS: dict[str, Check] = {
    "kshape-fixture": Check(_kshape_fixture_instance, _single_item),
    "poset-fixture": Check(_poset_fixture_instance, _single_item),
    "paths-fixture": Check(_paths_fixture_instance, _single_item),
    "charge-fixture": Check(_charge_fixture_instance, _single_item),
    "word-charge-fixture": Check(_word_charge_fixture_instance, _single_item),
    "theorem-additivity": Check(_additivity_instance, _additivity_items, {"n_max": 7}),
    "descent-classical": Check(_descent_instance, _partitions_up_to, {"n_max": 6}),
    "charge-cocharge-duality": Check(
        _duality_instance,
        lambda n_max, k_max: [
            (k, n) for k in range(2, k_max + 1) for n in range(1, n_max + 1)
        ],
        {"n_max": 6, "k_max": 3},
    ),
    "charge-k-stability": Check(
        _stability_instance, _standard_shape_items, {"n_max": 7, "k_max": 4}
    ),
    "cover-characterization": Check(
        _characterization_instance,
        lambda n_max, k_max: [
            (k, n) for k in range(2, k_max + 1) for n in range(0, n_max + 1)
        ],
        {"n_max": 6, "k_max": 3},
    ),
    "classical-agreement": Check(
        _classical_agreement_instance, _partitions_up_to, {"n_max": 6}
    ),
    "bijection-counting": Check(
        _bijection_count_instance, _standard_shape_items, {"n_max": 7, "k_max": 4}
    ),
    "bijection-injectivity": Check(_injectivity_instance, _additivity_items, {"n_max": 7}),
    "t1-branching": Check(
        _branching_instance,
        lambda n_max, k_max: [(k, lam, "none") for k, _, lam in _shape_walk(n_max, k_max)],
        {"n_max": 6, "k_max": 3},
    ),
    "sigma-involution": Check(
        _sigma_conjecture_instance,
        lambda n_max, k_max: [
            (k, lam, letters)
            for k, n, lam in _shape_walk(n_max, k_max)
            for letters in range(2, n + 1)
        ],
        {"n_max": 5, "k_max": 3},
        gating=False,
    ),
    "generic-t-branching": Check(
        _branching_instance,
        lambda n_max, k_max: [(k, lam, "charge") for k, _, lam in _shape_walk(n_max, k_max)],
        {"n_max": 5, "k_max": 3},
        gating=False,
    ),
}


def _resolve(name: str, params: dict) -> tuple[dict, list]:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    check = CHECKS[name]
    unknown = sorted(set(params) - set(check.defaults))
    if unknown:
        takes = ", ".join(check.defaults) or "no parameters"
        raise ValueError(
            f"check {name!r} does not take {', '.join(unknown)}; it takes {takes}"
        )
    params = {**check.defaults, **params}
    items = check.items(**params)
    if not items:
        at = ", ".join(f"{key}={value}" for key, value in params.items())
        raise ValueError(f"{name} has no instance at {at}")
    return params, items


def resolve_params(name: str, **params) -> dict:
    """The parameters a run of ``name`` uses: ``params`` over its defaults.

    Raises KeyError for an unknown check and ValueError for a parameter
    the check does not declare or a parameter set at which its item
    builder gives no item, so that the sweep would run no instance.
    """
    return _resolve(name, params)[0]


def run_check(name: str, **params) -> VerificationReport:
    params, items = _resolve(name, params)
    check = CHECKS[name]
    start = time.perf_counter()
    failures: list[str] = []
    count = 0
    for sub_count, sub_failures in _map_instances(check.instance, items):
        count += sub_count
        failures.extend(sub_failures)
    if count == 0:
        failures.append("no instances ran")
    return VerificationReport(
        name=name,
        params=params,
        instances=count,
        passed=not failures,
        failures=failures,
        elapsed=time.perf_counter() - start,
        conjecture=not check.gating,
    )
