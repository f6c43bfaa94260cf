"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs once plain and once traced with ``n_max=4`` (five
tableaux for descent-random).  The test checks that every metric named in
``BENCHMARK.json`` is reported, that traced self times add up to at most
the traced wall time, and that a run of zero items is a failure.
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# params and pinned item count of each workload at smoke size
TINY = {
    "additivity": ({"n_max": 4}, 28),
    "counting": ({"n_max": 4, "k_max": 4}, 29),
    "sigma": ({"n_max": 4, "k_max": 3}, 692),
    "descent-random": ({"size": 10, "count": 5}, 5),
}


def test_benchmark_json_names_the_harness_metrics():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    for w in BENCHMARK["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_reports_every_metric(name):
    params, items = TINY[name]
    plain = run.measure(name, seed=3, seconds=0, trace=False, params=params, items=items)
    assert plain["correct"], plain["failures"]
    assert plain["failed"] == 0 and plain["attempted"] >= items
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value, _ in plain["metrics"].values())

    traced = run.measure(name, seed=3, seconds=0, trace=True, params=params, items=items)
    assert traced["correct"], traced["failures"]
    assert set(traced["metrics"]) == set(run.per_layer_units())
    assert traced["metrics"]["verify.workers"][0] == 1
    for rep in traced["reps"]:
        assert rep["kshape_file"].startswith(str(run.SRC))
        if "layers" in rep:
            assert 0 < rep["self_total_s"] <= rep["wall_s"]


@pytest.mark.parametrize("name, params", [
    ("additivity", {"n_max": 0}),
    ("descent-random", {"size": 10, "count": 0}),
])
def test_zero_item_run_fails(name, params):
    result = run.measure(name, seed=1, seconds=0, trace=False, params=params, items=0)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= 1
    assert any("no items ran" in f for f in result["failures"])


def test_wrong_item_count_fails():
    result = run.measure("additivity", seed=1, seconds=0, trace=False,
                         params={"n_max": 4}, items=29)
    assert not result["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "additivity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_function_missing_from_kshape_reports_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import kshape.partitions
    import kshape.poset
    import spans

    stats = ("calls", "self_s", "cache_hit_ratio")
    monkeypatch.setitem(spans.LAYERS, "poset", {"no_such_function": stats})
    original = kshape.partitions.boundary_size
    kshape.poset.kshapes_of_size.cache_clear()
    tracer = spans.Tracer().install()
    assert kshape.poset.boundary_size is not original  # rebound where imported
    kshape.poset.kshapes_of_size(2, 3)
    tracer.uninstall()
    assert kshape.poset.boundary_size is original
    summary = tracer.summary()
    assert [summary[f"poset.no_such_function.{s}"] for s in stats] == [0, 0, 0]
    assert summary["partitions.boundary_size.calls"] > 0
