"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  The conjecture sweeps report findings without failing the suite.
"""
import time

from kshape.verify import CHECKS, run_check

TIME_BUDGET_THEOREM_SWEEP = 300.0  # seconds

# instances each check runs at its default parameters, in the order
# ``kshape verify --check all`` prints them; a sweep that drops or adds
# items changes its count
DEFAULT_INSTANCES = {
    "kshape-fixture": 6,
    "poset-fixture": 3,
    "paths-fixture": 3,
    "charge-fixture": 4,
    "word-charge-fixture": 1,
    "theorem-additivity": 1024,
    "descent-classical": 119,
    "charge-cocharge-duality": 319,
    "charge-k-stability": 291,
    "cover-characterization": 321,
    "classical-agreement": 390,
    "bijection-counting": 86,
    "bijection-injectivity": 1024,
    "t1-branching": 39,
    "sigma-involution": 3978,
    "generic-t-branching": 28,
}


def _report(name, **params):
    report = run_check(name, **params)
    print(report.line())
    for failure in report.failures[:10]:
        print("    " + failure)
    return report


def _gate(name, **params):
    report = _report(name, **params)
    assert report.passed, f"{name} failed: {report.failures[:5]}"
    return report


def test_criterion_1a_kshape_fixture(capsys):
    with capsys.disabled():
        _gate("kshape-fixture")


def test_criterion_1b_poset_fixture(capsys):
    with capsys.disabled():
        _gate("poset-fixture")


def test_criterion_1c_paths_fixture(capsys):
    with capsys.disabled():
        _gate("paths-fixture")


def test_criterion_1d_charge_fixture(capsys):
    with capsys.disabled():
        _gate("charge-fixture")


def test_criterion_1e_word_charge_fixture(capsys):
    with capsys.disabled():
        _gate("word-charge-fixture")


def test_criterion_1_runtime(capsys):
    # each fixture check runs in well under a second
    for name in (
        "kshape-fixture",
        "poset-fixture",
        "paths-fixture",
        "charge-fixture",
        "word-charge-fixture",
    ):
        start = time.time()
        report = run_check(name)
        elapsed = time.time() - start
        assert report.passed and elapsed < 1.0, (name, elapsed)


def test_criterion_2_theorem_sweep(capsys):
    with capsys.disabled():
        report = _gate("theorem-additivity", n_max=7)
    assert report.elapsed <= TIME_BUDGET_THEOREM_SWEEP


def test_criterion_3_corollary_sweep(capsys):
    with capsys.disabled():
        _gate("descent-classical", n_max=6)


def test_criterion_4_duality_sweep(capsys):
    with capsys.disabled():
        _gate("charge-cocharge-duality", n_max=6, k_max=3)


def test_criterion_5_consistency_sweeps(capsys):
    with capsys.disabled():
        _gate("charge-k-stability", n_max=7, k_max=4)
        _gate("cover-characterization", n_max=6, k_max=3)
        _gate("classical-agreement", n_max=6)


def test_criterion_6_bijection_counting(capsys):
    with capsys.disabled():
        _gate("bijection-counting", n_max=7, k_max=4)


def test_criterion_6b_bijection_injectivity(capsys):
    # with the counting gate, this makes the weak bijection a bijection here
    with capsys.disabled():
        _gate("bijection-injectivity", n_max=7)


def test_criterion_7_t1_branching(capsys):
    with capsys.disabled():
        _gate("t1-branching", n_max=6, k_max=3)


def test_criterion_8_conjecture_reports(capsys):
    # findings are logged, never failed on
    with capsys.disabled():
        for name, params in (
            ("sigma-involution", dict(n_max=5, k_max=3)),
            ("generic-t-branching", dict(n_max=5, k_max=3)),
        ):
            report = _report(name, **params)
            assert report.conjecture
            assert report.instances > 0


def test_default_instance_counts():
    assert list(DEFAULT_INSTANCES) == list(CHECKS)
    for name, want in DEFAULT_INSTANCES.items():
        report = run_check(name)
        assert report.instances == want, (name, report.instances)
        assert report.passed or report.conjecture, (name, report.failures[:5])
