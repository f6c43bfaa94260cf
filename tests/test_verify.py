import dataclasses
import os
from functools import partial
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kshape.partitions import is_p_core
from kshape.poset import COLUMN, Move, kshapes_of_size
from kshape.weak_tableaux import standard_shapes
from kshape import verify
from kshape.verify import CHECKS, resolve_params, run_check

GATING = {
    "kshape-fixture",
    "poset-fixture",
    "paths-fixture",
    "charge-fixture",
    "word-charge-fixture",
    "theorem-additivity",
    "descent-classical",
    "charge-cocharge-duality",
    "charge-k-stability",
    "cover-characterization",
    "classical-agreement",
    "bijection-counting",
    "bijection-injectivity",
    "t1-branching",
}

CONJECTURE = {"sigma-involution", "generic-t-branching"}

# every check in run order, with the parameters it takes and their defaults
DEFAULTS = {
    "kshape-fixture": {},
    "poset-fixture": {},
    "paths-fixture": {},
    "charge-fixture": {},
    "word-charge-fixture": {},
    "theorem-additivity": {"n_max": 7},
    "descent-classical": {"n_max": 6},
    "charge-cocharge-duality": {"n_max": 6, "k_max": 3},
    "charge-k-stability": {"n_max": 7, "k_max": 4},
    "cover-characterization": {"n_max": 6, "k_max": 3},
    "classical-agreement": {"n_max": 6},
    "bijection-counting": {"n_max": 7, "k_max": 4},
    "bijection-injectivity": {"n_max": 7},
    "t1-branching": {"n_max": 6, "k_max": 3},
    "sigma-involution": {"n_max": 5, "k_max": 3},
    "generic-t-branching": {"n_max": 5, "k_max": 3},
}


def test_gating_and_conjecture_sets():
    assert {n for n, c in CHECKS.items() if c.gating} == GATING
    assert {n for n, c in CHECKS.items() if not c.gating} == CONJECTURE


def test_defaults_and_order():
    assert list(CHECKS) == list(DEFAULTS)
    assert {n: c.defaults for n, c in CHECKS.items()} == DEFAULTS


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_undeclared_parameter_rejected(name):
    with pytest.raises(ValueError, match="bogus"):
        run_check(name, bogus=1)


@pytest.mark.parametrize(
    "name, params",
    [
        ("bijection-counting", {"k_max": 1}),
        ("theorem-additivity", {"n_max": -1}),
        ("classical-agreement", {"n_max": -2}),
        ("charge-cocharge-duality", {"n_max": -1, "k_max": 2}),
    ],
)
def test_parameters_below_least_value_rejected(name, params):
    key = next(iter(params))
    with pytest.raises(ValueError, match=f"^{name} has no instance at .*{key}={params[key]}"):
        resolve_params(name, **params)


def test_least_values_accepted():
    assert resolve_params("bijection-counting", n_max=1, k_max=2)["k_max"] == 2
    assert resolve_params("classical-agreement", n_max=1) == {"n_max": 1}


def _grid(check, n_range, k_range):
    """Every parameter set of ``check`` with n_max in n_range and k_max in
    k_range, counting each one once."""
    sets = {
        tuple((p, v) for p, v in (("n_max", n), ("k_max", k)) if p in check.defaults)
        for n in n_range
        for k in k_range
    }
    return [dict(s) for s in sorted(sets)]


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_accepted_parameters_are_those_with_items(name):
    # resolve_params accepts a parameter set exactly when the check's item
    # builder gives an item there, and each least accepted set (one below
    # in any parameter is rejected) runs an instance
    check = CHECKS[name]
    accepted = []
    for params in _grid(check, range(-1, 5), range(0, 5)):
        has_items = bool(check.items(**{**check.defaults, **params}))
        try:
            resolve_params(name, **params)
        except ValueError:
            assert not has_items, params
        else:
            assert has_items, params
            accepted.append(params)
    least = [
        params
        for params in accepted
        if all({**params, p: params[p] - 1} not in accepted for p in params)
    ]
    assert least
    for params in least:
        assert run_check(name, **params).instances > 0, params


# the nested-loop item builders the shape walk replaced
def _additivity_oracle(n_max):
    return [
        (k, lam)
        for n in range(1, n_max + 1)
        for k in range(2, n + 1)
        for lam in standard_shapes(k, n)
    ]


def _standard_shape_oracle(n_max, k_max):
    return [
        (k, lam)
        for k in range(2, k_max + 1)
        for n in range(1, n_max + 1)
        for lam in standard_shapes(k, n)
    ]


def _branching_oracle(grading):
    return lambda n_max, k_max: [
        (k, lam, grading)
        for k in range(2, k_max + 1)
        for n in range(0, n_max + 1)
        for lam in standard_shapes(k, n)
    ]


def _sigma_oracle(n_max, k_max, first_letters=1):
    return [
        (k, lam, letters)
        for k in range(2, k_max + 1)
        for n in range(1, n_max + 1)
        for lam in standard_shapes(k, n)
        for letters in range(first_letters, n + 1)
    ]


ITEM_ORACLES = {
    "theorem-additivity": _additivity_oracle,
    "bijection-injectivity": _additivity_oracle,
    "charge-k-stability": _standard_shape_oracle,
    "bijection-counting": _standard_shape_oracle,
    "t1-branching": _branching_oracle("none"),
    "generic-t-branching": _branching_oracle("charge"),
    "sigma-involution": partial(_sigma_oracle, first_letters=2),
}


@pytest.mark.parametrize("name", list(ITEM_ORACLES))
def test_shape_walk_items_match_nested_loops(name):
    check = CHECKS[name]
    for params in _grid(check, range(-2, 9), range(-1, 7)):
        assert check.items(**params) == ITEM_ORACLES[name](**params), params


def test_sigma_items_on_one_letter_count_nothing():
    # the sigma sweep starts at two letters: a one-letter item holds no
    # index i, so dropping those items loses no instance
    one_letter = [item for item in _sigma_oracle(5, 3) if item[2] == 1]
    assert one_letter
    assert all(verify._sigma_conjecture_instance(item) == (0, []) for item in one_letter)


def test_unknown_check_rejected():
    with pytest.raises(KeyError, match="unknown check"):
        run_check("no-such-check")


def test_given_parameters_override_defaults():
    report = run_check("t1-branching", n_max=2, k_max=2)
    assert report.params == {"n_max": 2, "k_max": 2}
    assert report.passed and report.instances > 0
    assert run_check("paths-fixture").params == {}
    conjecture = run_check("generic-t-branching", n_max=2, k_max=2)
    assert conjecture.conjecture and conjecture.instances > 0


def test_k1_cores_match_closure_filter():
    # oracle: the whole k-shape closure, filtered down to the (k+1)-cores
    for k in range(2, 5):
        for n in range(0, 9):
            closure = tuple(v for v in kshapes_of_size(k, n) if is_p_core(v, k + 1))
            assert standard_shapes(k, n) == closure


def test_injectivity_gate_fails_when_images_collide(monkeypatch):
    monkeypatch.setenv("KSHAPE_WORKERS", "1")
    assert run_check("bijection-injectivity", n_max=4).passed
    real = verify.weak_bijection_standard
    first: dict = {}

    def constant(t):
        # the image of the first tableau seen of each shape, for all of them
        return first.setdefault((t.k, t.shape), real(t))

    monkeypatch.setattr(verify, "weak_bijection_standard", constant)
    report = run_check("bijection-injectivity", n_max=4)
    assert not report.passed and report.instances > 0
    assert any("share an image" in f for f in report.failures)


@pytest.mark.parametrize(
    "attr, fault",
    [
        # each end loses its last class
        ("path_class_groups", lambda real: lambda lam, k: {mu: g[:-1] for mu, g in real(lam, k).items()}),
        # every path is the empty path of the one-cell shape
        (
            "weak_bijection_standard",
            lambda real: lambda t: real(verify.enumerate_standard_k_tableaux((1,), t.k)[0]),
        ),
    ],
    ids=["lost-class", "other-start"],
)
def test_injectivity_gate_fails_when_a_path_is_in_no_class(attr, fault, monkeypatch):
    monkeypatch.setenv("KSHAPE_WORKERS", "1")
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    report = run_check("bijection-injectivity", n_max=4)
    assert not report.passed and report.failures
    assert all(re.fullmatch(r"path of k=\d+ .+ is in no class", f) for f in report.failures)


def test_branching_checks_fail_when_classes_are_wrong(monkeypatch):
    # weighing each path class t^(charge+1) multiplies the right side by t,
    # and every start has a tableau of (k-1)-bounded weight, so every item
    # fails; at t=1 a class weighs 1 whatever its charge, so only a lost
    # class fails the t=1 rule
    monkeypatch.setenv("KSHAPE_WORKERS", "1")
    real = verify.path_class_groups
    assert run_check("generic-t-branching", n_max=7, k_max=4).passed
    # a class's charge is read off its first sequence: end that sequence
    # with a one-cell column move, of charge 1
    cell = Move(COLUMN, (), frozenset({(1, 1)}), rank=1, length=1, strings=(), target=())

    def shifted(lam, k):
        return {
            mu: tuple((g[0] + (cell,),) + g[1:] for g in groups)
            for mu, groups in real(lam, k).items()
        }

    monkeypatch.setattr(verify, "path_class_groups", shifted)
    report = run_check("generic-t-branching", n_max=7, k_max=4)
    assert not report.passed and report.instances == len(report.failures) == 89
    assert all("generic-t branching differs" in f for f in report.failures)
    # both sides at the first weight that differs: the right side gains a t
    differs = "generic-t branching differs at k=2 shape"
    assert f"{differs} 1, weights 1; at 1: 1 vs t" in report.failures
    assert f"{differs} 2, weights 1,1; at 1,1: t vs t^2" in report.failures
    assert all(re.search(r"; at [\d,-]+: .+ vs .+$", f) for f in report.failures)
    assert run_check("t1-branching", n_max=7, k_max=4).passed
    monkeypatch.setattr(
        verify, "path_class_groups", lambda lam, k: {mu: g[1:] for mu, g in real(lam, k).items()}
    )
    report = run_check("t1-branching", n_max=7, k_max=4)
    assert not report.passed and report.instances == 89
    assert all("t=1 branching differs" in f for f in report.failures)
    # at t=1 the sides are integers; the lost class leaves the right side 0
    assert "t=1 branching differs at k=2 shape 2, weights 1,1; at 1,1: 1 vs 0" in report.failures
    assert all(re.search(r"; at [\d,-]+: \d+ vs \d+$", f) for f in report.failures)


# one fault per gating check, injected into verify's namespace: the name
# it replaces, the fault as a function of the real one, and the format of
# a failure line the check must then print
GATING_FAULTS = {
    "kshape-fixture": ("row_shape", lambda real: lambda lam, k: (), r"row profile \(\)"),
    "poset-fixture": ("is_p_core", lambda real: lambda nu, p: False, r"maximal vertices of \(2\) poset"),
    "paths-fixture": ("enumerate_paths", lambda real: lambda *args: (), r"charges \[\]"),
    "charge-fixture": (
        "charge_standard", lambda real: lambda t: real(t) + t.k, r"charge 29 != 25"
    ),
    "word-charge-fixture": (
        "word_charges", lambda real: lambda t: real(t)[::-1], r"word charges \(7, 5\)"
    ),
    "theorem-additivity": (
        "charge_standard", lambda real: lambda t: real(t) + t.k, r"charge additivity: k=\d+ \S"
    ),
    "descent-classical": (
        "full_descent",
        lambda real: lambda ch: dataclasses.replace(real(ch), levels=real(ch).levels[1:]),
        r"descent charge \d+ != \d+: \(\(\)",
    ),
    "charge-cocharge-duality": (
        "charge_cocharge_residual", lambda real: lambda t: 1, r"duality: k=\d+ \S"
    ),
    "charge-k-stability": (
        "charge_kshape", lambda real: lambda t: real(t) + t.k, r"charge stability: k=\d+ \S"
    ),
    "cover-characterization": (
        "chain_characterization",
        lambda real: lambda chain, k: (False, real(chain, k)[1]),
        r"k-tableau flag: k=\d+ \S",
    ),
    "classical-agreement": (
        "charge_dominant_semistandard",
        lambda real: lambda t: real(t) + 1,
        r"dominant large-k: \(\(\).* weight \(",
    ),
    "bijection-counting": (
        "count_standard_k_tableaux",
        lambda real: lambda lam, k: real(lam, k) + (k == 3),
        r"count mismatch at k=3 shape \S+: \d+ vs \d+",
    ),
    "bijection-injectivity": (
        "weak_bijection_standard",
        lambda real: lambda t: real(verify.enumerate_standard_k_tableaux(t.shape, t.k)[0]),
        r"k=\d+: .+ and .+ share an image",
    ),
    "t1-branching": (
        "path_class_groups", lambda real: lambda lam, k: {}, r"t=1 branching differs at k=\d+ shape "
    ),
}


@pytest.mark.parametrize("name", sorted(GATING))
def test_every_gating_check_can_fail(name, monkeypatch):
    """A gating check that cannot fail tests nothing: each one fails, in
    its own failure format, under one injected fault."""
    monkeypatch.setenv("KSHAPE_WORKERS", "1")
    attr, fault, line = GATING_FAULTS[name]
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    report = run_check(name)
    assert not report.passed and report.instances > 0
    assert any(re.fullmatch(line + ".*", f) for f in report.failures), report.failures[:3]


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported only when a sweep fans out to more than one worker
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kshape; print('concurrent.futures.process' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_two_workers_give_the_one_worker_report(monkeypatch):
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("KSHAPE_WORKERS", workers)
        r = run_check("bijection-counting", n_max=5, k_max=3)
        reports.append((r.passed, r.instances, r.failures))
    assert reports[0] == reports[1] and reports[0][0] and reports[0][1] > 1
