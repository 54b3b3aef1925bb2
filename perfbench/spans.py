"""Spans and counts for the traced replay.

A span records its name, tags, start, end, parent span and run id.  Spans
stay in memory and are written out when the run ends.  Peak RSS
(``ru_maxrss``) is read when a span ends; it never decreases, so the rise
during a span is the share of the process peak that the span's layer set.

``traced_fel`` wraps fel's public layer functions in spans wherever fel
binds them, so an unchanged call of ``fel.cli.main`` or of the public API
is the replay.  Nothing in fel changes.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import statistics
import sys
import time
from collections import Counter


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1 << 20) if sys.platform == "darwin" else rss / 1024.0


class Tracer:
    """Collects spans, counts and coefficient calls of one traced operation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        # lipschitz.coefficient_table calls: level, base, ms, values, table
        self.calls: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        record = {"id": len(self.spans), "name": name, "tags": tags,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "rss_before_mb": peak_rss_mb(),
                  "start": time.perf_counter()}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_after_mb"] = peak_rss_mb()
            self._open.pop()

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]]["name"] if self._open else None

    def count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def wrap(self, name: str, fn, tags=None, after=None):
        """fn with each call in a span; ``tags(*args, **kwargs)`` gives the
        span's tags, ``after(tracer, result, *args)`` records counts."""
        covered_by = COVERED_BY.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if covered_by is not None and self.innermost() == covered_by:
                result = fn(*args, **kwargs)
            else:
                with self.span(name, **(tags(*args, **kwargs) if tags else {})):
                    result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, *args)
            return result

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# -- fel's layers ---------------------------------------------------------------


def _base_tag(system, params) -> str:
    return "L" if params.base == system.L else f"{params.base:g}"


def _record_table(tracer, table, system, values, n, ms, params):
    tracer.calls.append({"level": n, "base": params.base, "ms": list(ms),
                         "values": values, "table": table})


# (module, attribute, span name, tags, after) of every timed public call.
LAYERS = (
    ("fel.ifs", "build", "ifs.build",
     lambda maps, level, **_: {"level": level},
     lambda tracer, system, *_: tracer.count("ifs.vertices",
                                             system.vertex_count(system.max_level))),
    ("fel.ifs", "validate", "ifs.validate", None, None),
    ("fel.harmonic", "solve_ndhs", "harmonic.solve_ndhs", None,
     lambda tracer, hs, *_: tracer.count("harmonic.iterations", len(hs.iteration_trace))),
    ("fel.energy", "FunctionSpec.sample", "energy.sample",
     lambda spec, system, hs, level: {"level": level}, None),
    ("fel.energy", "energy_sequence", "energy.sequence",
     lambda system, hs, f, **_: {"level": f.level}, None),
    ("fel.lipschitz", "coefficient_table", "lipschitz.coefficient_table",
     lambda system, values, n, ms, params: {"base": _base_tag(system, params), "level": n},
     _record_table),
    ("fel.lipschitz", "b_coefficient", "lipschitz.coefficient",
     lambda system, f, m, params: {"m": m, "level": f.level}, None),
)
# b_coefficient is one coefficient_table call: its span covers that call, so
# the per-m metrics hold the pair-sum time.
COVERED_BY = {"lipschitz.coefficient_table": "lipschitz.coefficient"}


@contextlib.contextmanager
def traced_fel(tracer: Tracer):
    """Wrap each function of LAYERS in every fel module that binds it (the
    package, fel.cli, fel.lipschitz ...) for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "fel" or name.startswith("fel.")]
    undo = []
    for module_name, path, name, tags, after in LAYERS:
        owner = sys.modules[module_name]
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attr]
        traced = tracer.wrap(name, original, tags, after)
        for holder in [owner] if cls_name else modules:
            if holder.__dict__.get(attr) is original:
                undo.append((holder, attr, original))
                setattr(holder, attr, traced)
    try:
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def span_cost(repeats: int = 2000, rounds: int = 5) -> float:
    """Seconds one span adds to a call: a traced no-op minus a bare no-op,
    median over ``rounds`` rounds of ``repeats`` calls each."""
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        traced = Tracer("span-cost").wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / repeats)
    return max(statistics.median(costs), 0.0)
