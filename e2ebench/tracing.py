"""In-memory span tracer wrapped around the program's public entry points.

Nothing under ``src/`` knows about tracing: :func:`install` replaces each
entry point named in :data:`SPANS` with a thin wrapper, at every place a
loaded ``repro`` module binds it, and at the class for methods.  A
wrapper records one span (name, start, end, parent) while the tracer is
armed and calls straight through otherwise, so set-up work done before
:meth:`Tracer.arm` leaves no spans.

Spans stay in memory; :meth:`Tracer.dump` writes them out when the job
ends, and :func:`derive` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> (module, attribute path) of the wrapped entry point.
#: A dotted attribute path ("Class.method") wraps a method on its class.
SPANS: Dict[str, Tuple[str, str]] = {
    "routing.vc_assign": ("repro.routing", "assign_vcs"),
    "routing.mclb": ("repro.core.mclb", "mclb_route"),
    "routing.ndbt": ("repro.routing", "ndbt_route"),
    "routing.table": ("repro.routing", "build_routing_table"),
    "sim.run": ("repro.sim.fastnet", "FastNetworkSimulator.run"),
    "sim.trace": ("repro.sim.trace", "TraceStream.next_chunk"),
    "sim.compile": ("repro.sim.fastnet", "CompiledNetwork.__init__"),
    "sim.saturation": ("repro.sim.sweep", "find_saturation"),
    "fullsys.run": (
        "repro.fullsys.fastloop", "FastClosedLoopSimulator.run_closed_loop",
    ),
    "runner.hash": ("repro.runner.hashing", "config_hash"),
    "runner.cache.get": ("repro.runner.cache", "ResultCache.get"),
    "runner.cache.put": ("repro.runner.cache", "ResultCache.put"),
    "gen.anneal": ("repro.core.search", "anneal_topology"),
    "topology.sparsest_cut": ("repro.topology", "sparsest_cut"),
    "topology.average_hops": ("repro.topology", "average_hops"),
    "pipeline.generate": ("repro.pipeline.stages", "generate_points"),
    "pipeline.route": ("repro.pipeline.stages", "route_topologies"),
    "pipeline.evaluate": ("repro.pipeline.stages", "evaluate_tables"),
}

#: Runner task families wrapped as ``runner.task.<family>`` spans.
TASK_FAMILIES = ("routing", "sim_point", "sat_search", "closed_loop", "generation")

#: Every span name the derived metrics report, wrapped or not.
SPAN_NAMES = tuple(SPANS) + tuple(f"runner.task.{f}" for f in TASK_FAMILIES)

#: Exact counts read from call arguments and return values.
COUNTS = (
    "sim.cycles", "sim.packets", "fullsys.cycles", "routing.vc_assign.layers",
    "runner.cache.gets", "runner.cache.hits",
)


class Tracer:
    """Spans and counts of one traced job, kept in memory until dumped."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: [name id, start, end, parent index or -1]
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, int] = {c: 0 for c in COUNTS}
        self.armed = False
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self.window: Tuple[float, float] = (0.0, 0.0)

    def arm(self) -> None:
        self.armed = True
        self.window = (time.perf_counter(), 0.0)

    def disarm(self) -> None:
        self.armed = False
        self.window = (self.window[0], time.perf_counter())

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn: Callable, args, kwargs, count=None):
        # A span already open under the same name (recursion, or an
        # overriding method calling its base) is not opened twice, so
        # busy time never double counts.
        if not self.armed or self._open.get(name):
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [self._name_id(name), 0.0, 0.0,
                self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        self._open[name] = self._open.get(name, 0) + 1
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        if count is not None:
            count(self.counts, args, kwargs, result)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names, "spans": self.spans,
                "counts": self.counts, "window": list(self.window),
            }, fh)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_sim_run(counts, args, kwargs, stats):
    counts["sim.cycles"] += int(_arg(args, kwargs, 1, "warmup")) + int(
        _arg(args, kwargs, 2, "measure"))
    counts["sim.packets"] += int(stats.ejected_packets)


def _count_closed_loop(counts, args, kwargs, stats):
    counts["fullsys.cycles"] += int(_arg(args, kwargs, 1, "warmup")) + int(
        _arg(args, kwargs, 2, "measure"))


def _count_vc_assign(counts, args, kwargs, vca):
    counts["routing.vc_assign.layers"] += int(vca.num_vcs)


def _count_cache_get(counts, args, kwargs, value):
    from repro.runner.cache import MISS

    counts["runner.cache.gets"] += 1
    counts["runner.cache.hits"] += value is not MISS


COUNTERS = {
    "sim.run": _count_sim_run,
    "fullsys.run": _count_closed_loop,
    "routing.vc_assign": _count_vc_assign,
    "runner.cache.get": _count_cache_get,
}


def _wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`SPANS` and the runner's task
    families.  Call after the workload's modules are imported: functions
    are re-bound wherever a loaded ``repro`` module holds them."""
    for name, (module_name, attr) in SPANS.items():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrapper(tracer, name, getattr(cls, meth)))
            continue
        original = getattr(module, attr)
        traced = _wrapper(tracer, name, original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("repro") and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    from repro.runner import tasks

    for family in TASK_FAMILIES:
        fn, decode = tasks.TASK_FUNCTIONS[family]
        tasks.TASK_FUNCTIONS[family] = (
            _wrapper(tracer, f"runner.task.{family}", fn), decode,
        )


def derive(doc: Dict[str, Any]) -> Dict[str, float]:
    """Per-span ``.calls``/``.s``/``.self_s`` plus counts and the timed
    phase's time outside every span (``harness.self_s``)."""
    names, spans = doc["names"], doc["spans"]
    child_s = [0.0] * len(spans)
    for start_end in spans:
        parent = start_end[3]
        if parent >= 0:
            child_s[parent] += start_end[2] - start_end[1]
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    top_s = 0.0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child_s[i]
        if parent < 0:
            top_s += end - start
    start, end = doc["window"]
    out["harness.self_s"] = (end - start) - top_s
    out.update(doc["counts"])
    return out


def largest_self(metrics: Dict[str, float]) -> Optional[str]:
    """The span with the largest self time (the layer to optimise)."""
    best = max(SPAN_NAMES, key=lambda n: metrics.get(f"{n}.self_s", 0.0))
    return best if metrics.get(f"{best}.self_s", 0.0) > 0 else None
