"""Span tracer that wraps kshape's public functions from outside the package.

Each listed function is replaced, in every loaded ``kshape.*`` module that
holds a reference to it, by a wrapper that records one span per call
(name, start, end, parent).  Rebinding the name in every importing module
means calls across modules are caught too, not only calls through the
defining module.  Spans stay in flat arrays in memory; per-layer numbers
are derived from them after the traced region ends.

The layer table says which statistics each function reports:

- ``calls``           spans recorded
- ``self_s``          span time minus the time covered by child spans
- ``p50_ms/p95_ms``   nearest-rank percentiles of span duration
- ``repeat_ratio``    calls whose arguments were already seen / calls
- ``true_ratio``      calls returning a true value / calls
- ``results``         total length of the returned tuples
- ``yield_ratio``     results / candidate tests made under the span
- ``cache_hit_ratio`` hits / (hits + misses) from the ``lru_cache``

A function whose only statistic is ``cache_hit_ratio`` is not wrapped: its
``cache_info()`` is read before and after the traced region.  A function
that a later version of kshape no longer has, or no longer caches,
reports 0 for the statistics it cannot give.
"""
from __future__ import annotations

import json
import math
import sys
import time
from array import array
from pathlib import Path

# module -> function -> statistics reported for it
LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "partitions": {
        "is_p_core": ("calls", "self_s"),
        "boundary_size": ("calls", "self_s"),
        "skew_cells": ("calls", "self_s"),
        "k_interior": ("cache_hit_ratio",),
        "row_shape": ("cache_hit_ratio",),
    },
    "poset": {
        "kshapes_of_size": ("self_s", "yield_ratio"),
        "is_k_shape": ("calls", "true_ratio"),
        "classify_string": ("calls", "self_s"),
        "move_from_cells": ("calls", "self_s"),
        "enumerate_moves": ("self_s", "cache_hit_ratio"),
        "enumerate_paths": ("self_s", "results"),
        "equivalence_classes": ("self_s", "results"),
    },
    "kshape_tableaux": {
        "make_cover": ("calls", "self_s", "repeat_ratio"),
        "cover_status": ("calls", "self_s", "repeat_ratio"),
        "charge_kshape": ("self_s",),
        "cocharge_kshape": ("self_s",),
        "chain_characterization": ("self_s",),
    },
    "pushout": {
        "weak_bijection_standard": ("calls", "self_s", "p50_ms", "p95_ms"),
        "maximal_pushout": ("calls", "self_s", "p50_ms", "p95_ms"),
        "full_descent": ("calls", "self_s", "p50_ms", "p95_ms"),
        # wrapped only to count the max-below / max-above squares
        "maximize_below": (),
        "maximize_above": (),
    },
    "weak_tableaux": {
        "is_weak_strip": ("calls", "true_ratio", "self_s"),
        "weak_successors": ("self_s", "yield_ratio"),
        "sigma_involution": ("calls", "self_s"),
        "make_weak_tableau": ("calls", "self_s"),
        "enumerate_standard_k_tableaux": ("self_s",),
        "charge_standard": ("self_s",),
        "cocharge_standard": ("self_s",),
        "standard_successors": ("cache_hit_ratio",),
        "standard_predecessors": ("cache_hit_ratio",),
    },
    "classical": {
        "classical_charge": ("self_s",),
        "standard_young_tableaux": ("self_s",),
    },
    "verify": {
        "run_check": ("self_s",),
        "k_cores_of_boundary": ("self_s",),
    },
}

# yield_ratio: the candidate tests counted under each span of the function
YIELD_TESTS = {
    "poset.kshapes_of_size": ("partitions.boundary_size", "poset.is_k_shape"),
    "weak_tableaux.weak_successors": ("weak_tableaux.is_weak_strip",),
}

SQUARE_KINDS = tuple(
    f"{o}-{t}" for o in ("row", "col") for t in ("I", "II", "III", "IV")
) + ("max-below", "max-above")
# the square kind each wrapped pushout function returns
_SQUARE_OF = {
    "pushout.maximal_pushout": lambda result: result.kind,
    "pushout.maximize_below": lambda result: "max-below",
    "pushout.maximize_above": lambda result: "max-above",
}

STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "repeat_ratio": "ratio",
    "true_ratio": "ratio",
    "results": "count",
    "yield_ratio": "ratio",
    "cache_hit_ratio": "ratio",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {
        f"{module}.{fn}.{stat}": STAT_UNITS[stat]
        for module, fns in LAYERS.items()
        for fn, stats in fns.items()
        for stat in stats
    }
    units.update({f"pushout.square.{kind}": "count" for kind in SQUARE_KINDS})
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Wraps the functions of ``LAYERS`` while installed and keeps spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._rebound: list[tuple[object, str, object]] = []
        self._cache_info: dict[str, object] = {}
        self._cache_before: dict[str, tuple[int, int]] = {}
        self._cache_after: dict[str, tuple[int, int]] = {}
        self.trues: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self.span_results: dict[int, int] = {}  # span index -> len(result)
        self.squares = dict.fromkeys(SQUARE_KINDS, 0)

    # -- installing -------------------------------------------------------

    def install(self) -> "Tracer":
        package = [
            m for name, m in list(sys.modules.items())
            if name == "kshape" or name.startswith("kshape.")
        ]
        for module, fns in LAYERS.items():
            home = sys.modules[f"kshape.{module}"]
            for fn, stats in fns.items():
                qual = f"{module}.{fn}"
                original = getattr(home, fn, None)
                if original is None:
                    continue
                if hasattr(original, "cache_info"):
                    self._cache_info[qual] = original.cache_info
                if stats == ("cache_hit_ratio",):
                    continue
                wrapper = self._wrap(qual, original, stats)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, original))
        self._cache_before = self._read_caches()
        return self

    def uninstall(self) -> None:
        self._cache_after = self._read_caches()
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def _read_caches(self) -> dict[str, tuple[int, int]]:
        out = {}
        for qual, info in self._cache_info.items():
            ci = info()
            out[qual] = (ci.hits, ci.misses)
        return out

    def _wrap(self, qual: str, fn, stats: tuple[str, ...]):
        nid = len(self.names)
        self.names.append(qual)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(qual, stats)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return traced

    def _observer(self, qual: str, stats: tuple[str, ...]):
        """One callback per function collecting what its statistics need."""
        parts = []
        if "true_ratio" in stats:
            self.trues[qual] = 0

            def count_true(idx, args, kwargs, result):
                if result:
                    self.trues[qual] += 1

            parts.append(count_true)
        if "repeat_ratio" in stats:
            self.repeats[qual] = 0
            seen: set = set()

            def count_repeat(idx, args, kwargs, result):
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    self.repeats[qual] += 1
                else:
                    seen.add(key)

            parts.append(count_repeat)
        if "results" in stats or "yield_ratio" in stats:

            def count_results(idx, args, kwargs, result):
                self.span_results[idx] = len(result)

            parts.append(count_results)
        if qual in _SQUARE_OF:
            kind_of = _SQUARE_OF[qual]

            def count_square(idx, args, kwargs, result):
                self.squares[kind_of(result)] += 1

            parts.append(count_square)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]

        def observe(idx, args, kwargs, result):
            for part in parts:
                part(idx, args, kwargs, result)

        return observe

    # -- reading ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def call_counts(self) -> dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.span_name:
            counts[nid] += 1
        return {qual: counts[nid] for nid, qual in enumerate(self.names)}

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= durations[i]
        return own

    def summary(self) -> dict[str, float]:
        """Per-layer metric values, keyed like ``layer_metric_units``."""
        n_names = len(self.names)
        self_s = [0.0] * n_names
        durations: list[list[float]] = [[] for _ in range(n_names)]
        for i, (nid, own) in enumerate(zip(self.span_name, self.self_times())):
            self_s[nid] += own
            durations[nid].append(self.end[i] - self.start[i])
        index = {qual: nid for nid, qual in enumerate(self.names)}
        calls = self.call_counts()
        tests = self._yield_tests(index)

        out: dict[str, float] = {}
        for module, fns in LAYERS.items():
            for fn, stats in fns.items():
                qual = f"{module}.{fn}"
                nid = index.get(qual)
                n = calls.get(qual, 0)
                for stat in stats:
                    key = f"{qual}.{stat}"
                    if nid is None and stat != "cache_hit_ratio":
                        out[key] = 0
                    elif stat == "calls":
                        out[key] = n
                    elif stat == "self_s":
                        out[key] = self_s[nid]
                    elif stat in ("p50_ms", "p95_ms"):
                        q = 0.5 if stat == "p50_ms" else 0.95
                        out[key] = 1e3 * nearest_rank(durations[nid], q)
                    elif stat == "true_ratio":
                        out[key] = _ratio(self.trues[qual], n)
                    elif stat == "repeat_ratio":
                        out[key] = _ratio(self.repeats[qual], n)
                    elif stat == "results":
                        out[key] = sum(
                            r for i, r in self.span_results.items()
                            if self.span_name[i] == nid
                        )
                    elif stat == "yield_ratio":
                        made = tests.get(qual, {})
                        found = sum(self.span_results[i] for i in made)
                        out[key] = _ratio(found, sum(made.values()))
                    elif stat == "cache_hit_ratio":
                        hits0, miss0 = self._cache_before.get(qual, (0, 0))
                        hits1, miss1 = self._cache_after.get(qual, (0, 0))
                        out[key] = _ratio(hits1 - hits0, hits1 - hits0 + miss1 - miss0)
        for kind in SQUARE_KINDS:
            out[f"pushout.square.{kind}"] = self.squares[kind]
        return out

    def _yield_tests(self, index: dict[str, int]) -> dict[str, dict[int, int]]:
        """For each yield-tracked function: span index -> tests made under it.

        Spans that made no test (cache hits) are left out, so their results
        do not count as found candidates.
        """
        out: dict[str, dict[int, int]] = {}
        for qual, test_names in YIELD_TESTS.items():
            owner = index.get(qual)
            test_ids = {index[t] for t in test_names if t in index}
            made: dict[int, int] = {}
            if owner is not None and test_ids:
                # nearest enclosing span of the owner; parents precede children
                enclosing = array("i", [-1]) * len(self.start)
                for i, (nid, p) in enumerate(zip(self.span_name, self.parent)):
                    up = enclosing[p] if p >= 0 else -1
                    if nid == owner:
                        enclosing[i] = i
                    else:
                        enclosing[i] = up
                        if nid in test_ids and up >= 0:
                            made[up] = made.get(up, 0) + 1
            out[qual] = made
        return out

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": self.span_count(),
            "arrays": ["span_name:H", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
