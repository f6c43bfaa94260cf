"""Workload table, input generation and the timed region of one repetition.

``execute`` runs inside a fresh interpreter (see ``child.py``), so every
module-level ``lru_cache`` of kshape starts cold, as it does for each
``kshape verify`` or ``kshape bijection`` call a user makes.
"""
from __future__ import annotations

import os
import random
import resource
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    check: str | None  # run_check name; None for the descent batch
    params: dict
    items: int  # pinned item count of one repetition


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "additivity",
            "exhaustive additivity sweep; tableaux share shapes, so cover and "
            "pushout work repeats; no poset enumeration or sigma",
            "theorem-additivity",
            {"n_max": 7},
            1024,
        ),
        Workload(
            "counting",
            "bijection counting; k-shape vertex enumeration by box scan "
            "dominates, plus moves, paths and diamond classes; no pushout",
            "bijection-counting",
            {"n_max": 8, "k_max": 4},
            116,
        ),
        Workload(
            "sigma",
            "sigma involution on non-standard weights; weak strip and p-core "
            "tests under the weak_successors box scan; no poset or pushout",
            "sigma-involution",
            {"n_max": 4, "k_max": 4},
            1465,
        ),
        Workload(
            "descent-random",
            "random size-10 standard tableaux through full_descent, checked "
            "against classical charge; little shared work, large shapes",
            None,
            {"size": 10, "count": 126},
            126,
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs for descent-random, made without kshape so they do not depend on it


def partitions_of(n: int, max_part: int | None = None):
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def hook_walk_chain(shape: tuple[int, ...], rng: random.Random) -> tuple:
    """A uniformly random standard Young tableau of the shape, as its chain
    of shapes from () up (Greene-Nijenhuis-Wilf hook walk)."""
    rows = list(shape)
    chain = [tuple(rows)]
    while rows:
        cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
        i, j = rng.choice(cells)
        while True:
            arm = rows[i] - j - 1
            leg = sum(1 for r in rows[i + 1:] if r > j)
            if arm == 0 and leg == 0:
                break
            step = rng.randrange(arm + leg)
            if step < arm:
                j += 1 + step
            else:
                i += 1 + step - arm
        rows[i] -= 1
        if rows[i] == 0:
            rows.pop()
        chain.append(tuple(rows))
    return tuple(reversed(chain))


def descent_inputs(size: int, count: int, seed: int) -> list[tuple]:
    """``count`` tableaux; shapes cycle through every partition of ``size``
    in a seeded order, so each shape is drawn equally often when ``count``
    is a multiple of their number."""
    rng = random.Random(seed)
    shapes = list(partitions_of(size))
    rng.shuffle(shapes)
    return [hook_walk_chain(shapes[i % len(shapes)], rng) for i in range(count)]


# ---------------------------------------------------------------------------
# one repetition


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(spec: dict) -> dict:
    """Run one repetition as described by ``spec``; returns its record.

    ``spec`` holds ``seed``, ``trace``, ``setup_only``, ``check``,
    ``params``, ``items``, ``src`` (the checkout's ``src`` directory) and
    ``spans_out`` (where a traced run writes its spans, or None).
    """
    import kshape
    from kshape import verify

    src = Path(spec["src"]).resolve()
    if Path(kshape.__file__).resolve().parent != src / "kshape":
        raise RuntimeError(f"kshape imported from {kshape.__file__}, not {src}")
    check, params, pinned = spec["check"], spec["params"], spec["items"]
    inputs = None if check else descent_inputs(params["size"], params["count"], spec["seed"])
    record = {
        "ready": time.monotonic(),
        "kshape_file": kshape.__file__,
        "workers": int(os.environ.get("KSHAPE_WORKERS", "1")),
    }
    if spec["setup_only"]:
        return record

    tracer = None
    if spec["trace"]:
        tracer = Tracer().install()
    failures: list[str] = []
    latencies: list[float] = []
    items = 0
    start = time.perf_counter()
    if check:
        try:
            report = verify.run_check(check, **params)
        except Exception as exc:  # a sweep that raises fails all its items
            failures.append(f"{check} raised {type(exc).__name__}: {exc}")
        else:
            items = report.instances
            failures.extend(report.failures)
            if not report.passed and not report.failures:
                failures.append(f"{check} did not pass")
        wall = time.perf_counter() - start
    else:
        for chain in inputs:
            t0 = time.perf_counter()
            try:
                n = len(chain) - 1
                rec = kshape.full_descent(chain)
                charge = kshape.classical_charge(chain)
                cocharge = kshape.classical.classical_cocharge(chain)
                if rec.total_charge != charge or rec.total_cocharge != cocharge:
                    failures.append(
                        f"descent ({rec.total_charge}, {rec.total_cocharge}) != "
                        f"classical ({charge}, {cocharge}): {chain}"
                    )
                elif len(rec.levels) != n - 1:
                    failures.append(f"{len(rec.levels)} descent levels: {chain}")
            except Exception as exc:  # an item that raises counts as failed
                failures.append(f"{type(exc).__name__}: {exc}: {chain}")
            latencies.append(1e3 * (time.perf_counter() - t0))
            items += 1
        # the oracle also confirms that the inputs are standard tableaux
        for chain in inputs:
            if chain not in kshape.classical.standard_young_tableaux(chain[-1]):
                failures.append(f"input is not a standard tableau: {chain}")
        wall = time.perf_counter() - start

    if items == 0:
        failures.append("no items ran")
    if items != pinned:
        failures.append(f"{items} items, expected {pinned}")
    record.update(
        items=items, wall_s=wall, latencies_ms=latencies, rss_mb=_rss_mb()
    )
    if tracer is not None:
        tracer.uninstall()
        calls = tracer.call_counts()
        pushed = sum(
            calls.get(f"pushout.{fn}", 0)
            for fn in ("maximal_pushout", "maximize_below", "maximize_above")
        )
        squares = sum(tracer.squares.values())
        if squares != pushed:
            failures.append(f"{squares} pushout squares for {pushed} pushout calls")
        record["layers"] = tracer.summary()
        record["layers"]["trace.spans"] = tracer.span_count()
        record["self_total_s"] = sum(tracer.self_times())
        if spec["spans_out"]:
            tracer.write(Path(spec["spans_out"]))
    record["failed"] = min(max(items, pinned, 1), len(failures))
    record["failures"] = failures[:5]
    return record
