"""Benchmark of kshape's verification sweeps, end to end and per layer.

Run from the root of a checkout (kshape is imported from its ``src/``):

    python3 perfbench/run.py --workload counting --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each repetition is a fresh interpreter (``child.py``) with cold caches and
``KSHAPE_WORKERS=1``.  Repetitions run one at a time while another still
fits in ``--seconds``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates plain and traced repetitions and reports the
per-layer metrics.  README.md defines each metric.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import layer_metric_units, nearest_rank  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
}
EXTRA_LAYER_UNITS = {
    "verify.workers": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
SETUP_PROBES = 5  # set-up-only interpreters started before the repetitions
RUN_LIMIT_S = 170.0  # one workload must finish within this
TIMING_Q = 0.9  # quantile of a run's samples reported for each timing


def per_layer_units() -> dict[str, str]:
    return {**layer_metric_units(), **EXTRA_LAYER_UNITS}


class RepetitionError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["KSHAPE_WORKERS"] = "1"  # a caller's setting must not leak in
    env["PYTHONHASHSEED"] = "0"
    return env


def run_repetition(spec: dict, timeout: float) -> dict:
    """Start one fresh interpreter for ``spec`` and return its record."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RepetitionError(f"repetition exited {proc.returncode}: {' | '.join(tail)}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    params: dict | None = None,
    items: int | None = None,
) -> dict:
    """Repeat one workload for ``seconds`` and aggregate the repetitions.

    ``params`` and ``items`` override the workload's size and pinned count
    (the smoke test runs tiny sizes).  Returns ``correct``, ``attempted``,
    ``failed``, ``metrics`` (name -> (value, unit)), ``failures`` and
    ``reps`` (the raw records).
    """
    w = WORKLOADS[name]
    spec = {
        "seed": seed,
        "trace": False,
        "setup_only": False,
        "check": w.check,
        "params": w.params if params is None else params,
        "items": w.items if items is None else items,
        "src": str(SRC),
        "spans_out": None,
    }
    traced_spec = {**spec, "trace": True, "spans_out": str(OUT / f"{name}.spans")}
    begin = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    errors: list[str] = []

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - begin)

    try:
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_repetition({**spec, "setup_only": True}, remaining())["setup_s"])
        rounds: list[float] = []
        while True:
            started = time.monotonic()
            plain.append(run_repetition(spec, remaining()))
            if trace:
                traced.append(run_repetition(traced_spec, remaining()))
            rounds.append(time.monotonic() - started)
            # start another round only if a typical one still fits
            if time.monotonic() - begin + statistics.median(rounds) > seconds:
                break
    except (RepetitionError, subprocess.TimeoutExpired) as exc:
        errors.append(str(exc))
    setups += [r["setup_s"] for r in plain]

    reps = plain + traced
    pinned = spec["items"]
    attempted = sum(max(r["items"], pinned, 1) for r in reps) + len(errors) * max(pinned, 1)
    failed = sum(r["failed"] for r in reps) + len(errors) * max(pinned, 1)
    failures = errors + [f for r in reps for f in r["failures"]]
    if errors or not plain:
        metrics = {}
    elif trace:
        metrics = trace_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(plain, setups)
    return {
        "correct": failed == 0 and not errors and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures[:10],
        "reps": reps,
    }


def end_to_end_metrics(plain: list[dict], setups: list[float]) -> dict:
    """Every timing is the ``TIMING_Q`` quantile of its samples in the run.

    The host runs this benchmark at one of two speeds, about 1.6x apart,
    in phases lasting seconds to minutes, and the share of each speed
    changes from run to run (see README.md).  The fastest repetition and
    the median land on either speed depending on that share; the upper
    tail lands on the slower one in every run seen.  ``wall_s`` is that
    quantile of the repetitions, ``setup_s`` of the set-up samples, and an
    item's latency that quantile of its calls: every repetition calls the
    same items in the same order.
    """
    wall = nearest_rank([r["wall_s"] for r in plain], TIMING_Q)
    items = max(plain[0]["items"], 1)
    latencies = [
        nearest_rank(calls, TIMING_Q)
        for calls in zip(*(r["latencies_ms"] for r in plain))
    ]
    if latencies:  # separate calls: percentiles over the items
        p50, p95 = nearest_rank(latencies, 0.5), nearest_rank(latencies, 0.95)
    else:  # one sweep call: mean time per item
        p50 = p95 = 1e3 * wall / items
    values = {
        "wall_s": wall,
        "items_per_s": items / wall,
        "setup_s": nearest_rank(setups, TIMING_Q),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "item_p50_ms": p50,
        "item_p95_ms": p95,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def trace_metrics(plain: list[dict], traced: list[dict]) -> dict:
    units = per_layer_units()
    values = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in layer_metric_units()
    }
    values["trace.spans"] = statistics.median(r["layers"]["trace.spans"] for r in traced)
    values["verify.workers"] = max(r["workers"] for r in plain + traced)
    values["trace.overhead_ratio"] = statistics.median(
        r["wall_s"] for r in traced
    ) / statistics.median(r["wall_s"] for r in plain)
    return {k: (v, units[k]) for k, v in values.items()}


# ---------------------------------------------------------------------------
# provenance


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(name: str, seed: int, result: dict) -> dict:
    reps = result["reps"]
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": sorted({r["workers"] for r in reps}),
        "kshape_file": sorted({r["kshape_file"] for r in reps}),
        "repetitions": len(reps),
    }


# ---------------------------------------------------------------------------


def report(name: str, seed: int, seconds: int, trace: bool, result: dict) -> None:
    """Print one workload's metrics as a table and save its full record."""
    env = environment(name, seed, result)
    print(f"# {name}: {env['repetitions']} repetitions, correct={result['correct']}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:48s} {value:14.6g} {unit}")
    for failure in result["failures"]:
        print(f"  FAILURE {failure}")
    print("# env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "seconds": seconds, "trace": trace, **result}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kshape" / "__init__.py").is_file():
        print(f"no kshape sources under {SRC}; run from a kshape checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, args.seconds, bool(args.trace), results[name])
    if not all(r["metrics"] for r in results.values()):
        print("no repetition completed; no metrics to report", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
        for name, r in results.items()
        for key, (value, unit) in r["metrics"].items()
    }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
