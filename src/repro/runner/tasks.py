"""Task payload codecs and the worker-side task functions.

A task is a *pure-data* payload (nested dicts/lists of JSON scalars) plus
a module-level function that rebuilds the live objects and runs the work.
Pure data serves three masters at once:

* **transport** — payloads pickle cheaply into worker processes (the
  live :class:`~repro.sim.traffic.TrafficPattern` closures do not);
* **caching** — the payload *is* the cache identity: its content hash
  keys the on-disk result store;
* **reproducibility** — a payload fully determines its result, so a
  cached value is interchangeable with a fresh computation.

Two task families cover the simulation workloads: ``sim_point`` (one
injection-rate sample — the unit fanned out by sweeps) and
``sat_search`` (one binary-search saturation probe sequence, fanned out
across topologies in Figs. 7 and 11).  The design-space pipeline adds
three more on the *generation* side: ``generation`` (one topology
generation — a MILP solve or an annealing run for one
:class:`~repro.pipeline.DesignPoint` strategy), ``routing`` (route +
VC-allocate + compile one topology's table), and ``gap_curve`` (one
Fig. 5 solver-progress recording).  MILP solves and SA runs fan across
workers and cache exactly like sim points do.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..routing.tables import RoutingTable
from ..sim.fastnet import DEFAULT_ENGINE
from ..sim.network import SimStats
from ..sim.sweep import find_saturation, run_point
from ..sim.traffic import (
    TrafficPattern,
    bit_complement,
    hotspot,
    memory_traffic,
    neighbor,
    shuffle_pattern,
    tornado,
    transpose,
    uniform_random,
)
from ..topology import Layout, Topology
from .hashing import CanonicalDoc

#: Payload format version per task family.  A family's version is part
#: of each of its payloads, hence of its cache keys: bump only the family
#: whose results change, so the other families keep their cached entries.
TASK_VERSIONS = {
    "sim_point": 9,
    "sim_batch": 9,
    "sat_search": 9,
    "closed_loop": 9,
    "recovery": 9,
    "generation": 9,
    "routing": 9,
    "gap_curve": 9,
}


# ---------------------------------------------------------------------------
# Traffic specs: picklable, hashable stand-ins for TrafficPattern closures.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficSpec:
    """A pure-data description of a synthetic traffic pattern."""

    kind: str
    n_nodes: int = 0
    rows: int = 0
    cols: int = 0
    hotspots: Tuple[int, ...] = ()
    hot_fraction: float = 0.5
    #: Optional burst modulation as a :meth:`BurstSpec.key` tuple
    #: (hashable, canonical — the dataclass stays frozen and cache keys
    #: stay stable).
    burst: Optional[Tuple] = None

    def with_burst(self, spec) -> "TrafficSpec":
        """This spec modulated by a :class:`~repro.sim.burst.BurstSpec`."""
        import dataclasses

        return dataclasses.replace(
            self, burst=None if spec is None else spec.key()
        )

    # -- constructors --------------------------------------------------------
    @classmethod
    def uniform(cls, n_nodes: int) -> "TrafficSpec":
        return cls("uniform", n_nodes=n_nodes)

    @classmethod
    def memory(cls, layout: Layout) -> "TrafficSpec":
        return cls("memory", rows=layout.rows, cols=layout.cols)

    @classmethod
    def shuffle(cls, n_nodes: int) -> "TrafficSpec":
        return cls("shuffle", n_nodes=n_nodes)

    @classmethod
    def bit_complement(cls, n_nodes: int) -> "TrafficSpec":
        return cls("bit_complement", n_nodes=n_nodes)

    @classmethod
    def transpose(cls, layout: Layout) -> "TrafficSpec":
        return cls("transpose", rows=layout.rows, cols=layout.cols)

    @classmethod
    def tornado(cls, layout: Layout) -> "TrafficSpec":
        return cls("tornado", rows=layout.rows, cols=layout.cols)

    @classmethod
    def neighbor(cls, layout: Layout) -> "TrafficSpec":
        return cls("neighbor", rows=layout.rows, cols=layout.cols)

    @classmethod
    def hotspot(
        cls, n_nodes: int, hotspots: Tuple[int, ...], hot_fraction: float = 0.5
    ) -> "TrafficSpec":
        return cls(
            "hotspot",
            n_nodes=n_nodes,
            hotspots=tuple(sorted(hotspots)),
            hot_fraction=hot_fraction,
        )

    # -- (de)serialization ---------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "n_nodes": self.n_nodes,
            "rows": self.rows,
            "cols": self.cols,
            "hotspots": list(self.hotspots),
            "hot_fraction": self.hot_fraction,
            "burst": None if self.burst is None else list(self.burst),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TrafficSpec":
        burst = d.get("burst")
        if burst is not None:
            # Pre-v8 keys are 6-tuples; the Pareto shape joined in v8.
            kind, p_on, p_off, on_scale, off_scale, seed, *rest = burst
            burst = (
                str(kind), float(p_on), float(p_off),
                None if on_scale is None else float(on_scale),
                float(off_scale), int(seed),
                float(rest[0]) if rest else 1.5,
            )
        return cls(
            kind=d["kind"],
            n_nodes=int(d.get("n_nodes", 0)),
            rows=int(d.get("rows", 0)),
            cols=int(d.get("cols", 0)),
            hotspots=tuple(int(h) for h in d.get("hotspots", ())),
            hot_fraction=float(d.get("hot_fraction", 0.5)),
            burst=burst,
        )

    def build(self) -> TrafficPattern:
        """Materialize the live pattern (closures and all)."""
        pattern = self._build_base()
        if self.burst is not None:
            from ..sim.burst import BurstSpec

            kind, p_on, p_off, on_scale, off_scale, seed, *rest = self.burst
            pattern = pattern.with_burst(BurstSpec(
                kind=kind, p_on=p_on, p_off=p_off,
                on_scale=on_scale, off_scale=off_scale, seed=seed,
                alpha=rest[0] if rest else 1.5,
            ))
        return pattern

    def _build_base(self) -> TrafficPattern:
        if self.kind == "uniform":
            return uniform_random(self.n_nodes)
        if self.kind == "shuffle":
            return shuffle_pattern(self.n_nodes)
        if self.kind == "bit_complement":
            return bit_complement(self.n_nodes)
        if self.kind == "hotspot":
            return hotspot(self.n_nodes, list(self.hotspots), self.hot_fraction)
        layout = Layout(rows=self.rows, cols=self.cols)
        if self.kind == "memory":
            return memory_traffic(layout)
        if self.kind == "transpose":
            return transpose(layout)
        if self.kind == "tornado":
            return tornado(layout)
        if self.kind == "neighbor":
            return neighbor(layout)
        raise ValueError(f"unknown traffic kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Routing-table codec.
# ---------------------------------------------------------------------------

def encode_table(table) -> CanonicalDoc:
    """A deterministic, JSON-clean description of a routing table.

    Sorted entry lists make the encoding canonical, so the same routed
    configuration always hashes to the same cache key.  Every value is
    already a plain int list, str or None, so the doc is a
    :class:`~repro.runner.hashing.CanonicalDoc` and hashing it skips the
    walk over its ~n² entries.  Destination-keyed tables
    (:class:`~repro.routing.tables.CSRRoutingTable`) encode as
    ``format: "csr"`` with flat n² arrays — O(n²) doc size where the
    dict form is O(n² · avg_hops) — and decode back to the CSR class.

    The doc is built at most once per table and memoized on it, like the
    table's compiled form, so every payload on one table shares it, and
    with it the doc's memoized JSON text and digest: a run encodes each
    table once, however many task keys embed it.  Callers must not
    mutate it.
    """
    doc = table.__dict__.get("_table_doc")
    if doc is None:
        doc = table.__dict__["_table_doc"] = _table_doc(table)
    return doc


def _table_doc(table) -> CanonicalDoc:
    topo = table.topology
    doc = CanonicalDoc({
        "layout": [int(topo.layout.rows), int(topo.layout.cols)],
        "links": sorted([int(i), int(j)] for i, j in topo.directed_links),
        "name": topo.name,
        "link_class": topo.link_class,
        "num_vcs": int(table.num_vcs),
    })
    if getattr(table, "dest_keyed", False):
        doc["format"] = "csr"
        doc["next_dst"] = table.next_matrix().tolist()
        doc["flow_vc"] = table.flow_vc.tolist()
        doc["flow_mask"] = np.asarray(
            table.flow_mask, dtype=np.int8
        ).tolist()
        return doc
    doc["next_hop"] = sorted(
        [int(n), int(s), int(d), int(nh)]
        for (n, s, d), nh in table.next_hop.items()
    )
    doc["flow_vc"] = sorted(
        [int(s), int(d), int(vc)] for (s, d), vc in table.flow_vc.items()
    )
    return doc


def decode_table(doc: Dict[str, Any]):
    rows, cols = doc["layout"]
    topo = Topology(
        Layout(rows=rows, cols=cols),
        [(i, j) for i, j in doc["links"]],
        name=doc.get("name", "topology"),
        link_class=doc.get("link_class"),
    )
    if doc.get("format") == "csr":
        from ..routing.tables import CSRRoutingTable

        return CSRRoutingTable.from_hops(
            topo,
            np.asarray(doc["next_dst"], dtype=np.int64),
            np.asarray(doc["flow_vc"], dtype=np.int64),
            np.asarray(doc["flow_mask"], dtype=bool),
            int(doc["num_vcs"]),
        )
    return RoutingTable(
        topology=topo,
        next_hop={(n, s, d): nh for n, s, d, nh in doc["next_hop"]},
        flow_vc={(s, d): vc for s, d, vc in doc["flow_vc"]},
        num_vcs=int(doc["num_vcs"]),
    )


#: Worker-process memo of decoded tables, keyed by the table doc's
#: content hash.  A curve job fans one routed topology out as many
#: ``sim_point`` payloads; decoding (and hence network compilation,
#: which :func:`repro.sim.sweep.run_point` memoizes on the table
#: instance) happens once per worker instead of once per point.
_TABLE_MEMO: Dict[str, RoutingTable] = {}
_TABLE_MEMO_MAX = 8


def cached_table(doc: Dict[str, Any]) -> RoutingTable:
    """Decode a table doc through the per-worker memo.

    The hash of a :class:`~repro.runner.hashing.CanonicalDoc` is the
    digest it carries (across a pickle too), so the lookup hashes
    nothing.
    """
    from .hashing import config_hash

    key = config_hash(doc)
    table = _TABLE_MEMO.get(key)
    if table is None:
        if len(_TABLE_MEMO) >= _TABLE_MEMO_MAX:
            _TABLE_MEMO.pop(next(iter(_TABLE_MEMO)))
        table = decode_table(doc)
        _TABLE_MEMO[key] = table
    return table


# ---------------------------------------------------------------------------
# SimStats codec.
# ---------------------------------------------------------------------------

def stats_to_dict(stats: SimStats) -> Dict[str, Any]:
    return asdict(stats)


def stats_from_dict(doc: Dict[str, Any]) -> SimStats:
    return SimStats(
        cycles=int(doc["cycles"]),
        offered_packets=int(doc["offered_packets"]),
        ejected_packets=int(doc["ejected_packets"]),
        ejected_flits=int(doc["ejected_flits"]),
        latency_sum=float(doc["latency_sum"]),
        latency_count=int(doc["latency_count"]),
        n_nodes=int(doc["n_nodes"]),
        lost_packets=int(doc.get("lost_packets", 0)),
    )


# ---------------------------------------------------------------------------
# Payload builders and worker entry points.
# ---------------------------------------------------------------------------

def sim_point_payload(
    table: RoutingTable,
    traffic: TrafficSpec,
    rate: float,
    warmup: int,
    measure: int,
    seed: int,
    sim_kw: Optional[Dict[str, Any]] = None,
    engine: str = DEFAULT_ENGINE,
    faults=None,
) -> Dict[str, Any]:
    return {
        "task": "sim_point",
        "version": TASK_VERSIONS["sim_point"],
        "table": encode_table(table),
        "traffic": traffic.as_dict(),
        "rate": float(rate),
        "warmup": int(warmup),
        "measure": int(measure),
        "seed": int(seed),
        "sim_kw": dict(sim_kw or {}),
        "engine": str(engine),
        "faults": None if faults is None else faults.as_dict(),
    }


def _decode_faults(payload: Dict[str, Any]):
    doc = payload.get("faults")
    if doc is None:
        return None
    from ..faults import FaultSchedule

    return FaultSchedule.from_dict(doc)


def sim_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: one injection-rate sample, stats as plain JSON."""
    table = cached_table(payload["table"])
    traffic = TrafficSpec.from_dict(payload["traffic"]).build()
    stats = run_point(
        table,
        traffic,
        payload["rate"],
        warmup=payload["warmup"],
        measure=payload["measure"],
        seed=payload["seed"],
        engine=payload.get("engine", DEFAULT_ENGINE),
        faults=_decode_faults(payload),
        **payload.get("sim_kw", {}),
    )
    return stats_to_dict(stats)


def sim_batch_payload(
    table: RoutingTable,
    traffic: TrafficSpec,
    lanes: List[Tuple[float, int]],
    warmup: int,
    measure: int,
    sim_kw: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """S x R ``(rate, seed)`` lanes of one table in one turbo engine call.

    Lane order is part of the payload (results decode positionally), but
    a lane's result depends only on its own ``(rate, seed)`` — the batch
    engine guarantees batch composition never changes a lane — which is
    what lets :meth:`Runner.batch_points` cross-populate per-lane
    ``sim_point`` cache keys from one batched result.
    """
    return {
        "task": "sim_batch",
        "version": TASK_VERSIONS["sim_batch"],
        "table": encode_table(table),
        "traffic": traffic.as_dict(),
        "lanes": [[float(r), int(s)] for r, s in lanes],
        "warmup": int(warmup),
        "measure": int(measure),
        "sim_kw": dict(sim_kw or {}),
    }


def sim_batch_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: one batched multi-lane run, stats in lane order."""
    from ..sim.batch import run_batch

    table = cached_table(payload["table"])
    traffic = TrafficSpec.from_dict(payload["traffic"]).build()
    stats = run_batch(
        table,
        traffic,
        [(r, s) for r, s in payload["lanes"]],
        payload["warmup"],
        payload["measure"],
        **payload.get("sim_kw", {}),
    )
    return {"stats": [stats_to_dict(st) for st in stats]}


def batch_stats_from_dict(doc: Dict[str, Any]) -> List[SimStats]:
    return [stats_from_dict(d) for d in doc["stats"]]


def sat_search_payload(
    table: RoutingTable,
    traffic: TrafficSpec,
    lo: float,
    hi: float,
    iters: int,
    warmup: int,
    measure: int,
    seed: int,
    sim_kw: Optional[Dict[str, Any]] = None,
    engine: str = DEFAULT_ENGINE,
    faults=None,
) -> Dict[str, Any]:
    return {
        "task": "sat_search",
        "version": TASK_VERSIONS["sat_search"],
        "table": encode_table(table),
        "traffic": traffic.as_dict(),
        "lo": float(lo),
        "hi": float(hi),
        "iters": int(iters),
        "warmup": int(warmup),
        "measure": int(measure),
        "seed": int(seed),
        "sim_kw": dict(sim_kw or {}),
        "engine": str(engine),
        "faults": None if faults is None else faults.as_dict(),
    }


def sat_search_task(payload: Dict[str, Any]) -> float:
    """Worker entry: one full binary-search saturation probe."""
    table = cached_table(payload["table"])
    traffic = TrafficSpec.from_dict(payload["traffic"]).build()
    return float(
        find_saturation(
            table,
            traffic,
            lo=payload["lo"],
            hi=payload["hi"],
            iters=payload["iters"],
            warmup=payload["warmup"],
            measure=payload["measure"],
            seed=payload["seed"],
            engine=payload.get("engine", DEFAULT_ENGINE),
            faults=_decode_faults(payload),
            **payload.get("sim_kw", {}),
        )
    )


def _workload_doc(workload) -> Dict[str, Any]:
    """A workload profile embedded field-by-field (not by name), so a
    profile change re-keys — and therefore recomputes — every affected
    cache entry."""
    return {
        "name": str(workload.name),
        "l2_mpki": float(workload.l2_mpki),
        "memory_fraction": float(workload.memory_fraction),
        "base_cpi": float(workload.base_cpi),
        "mlp": float(workload.mlp),
    }


def _decode_workload(doc: Dict[str, Any]):
    from ..fullsys.workloads import WorkloadProfile

    return WorkloadProfile(
        name=doc["name"],
        l2_mpki=float(doc["l2_mpki"]),
        memory_fraction=float(doc["memory_fraction"]),
        base_cpi=float(doc["base_cpi"]),
        mlp=float(doc["mlp"]),
    )


def _decode_retry(payload: Dict[str, Any]):
    doc = payload.get("retry")
    if doc is None:
        return None
    from ..fullsys.closedloop import RetryPolicy

    return RetryPolicy.from_dict(doc)


def closed_loop_payload(
    table: RoutingTable,
    workload,
    link_class: Optional[str],
    warmup: int,
    measure: int,
    seed: int,
    faults=None,
    retry=None,
) -> Dict[str, Any]:
    """One full-system closed-loop run: a (benchmark, topology) pair.

    A fault schedule requires a retry policy (the combination is
    validated here, client-side, so a bad pairing fails at submission
    instead of deep inside a worker process).  Closed-loop runs have
    one engine; the payload keeps its ``"engine": "fast"`` entry so
    every existing cache key stays valid.
    """
    from ..fullsys.closedloop import validate_closed_loop_faults

    validate_closed_loop_faults(faults, retry)
    return {
        "task": "closed_loop",
        "version": TASK_VERSIONS["closed_loop"],
        "table": encode_table(table),
        "workload": _workload_doc(workload),
        "link_class": link_class,
        "warmup": int(warmup),
        "measure": int(measure),
        "seed": int(seed),
        "engine": "fast",
        "faults": None if faults is None else faults.as_dict(),
        "retry": None if retry is None else retry.as_dict(),
    }


def closed_loop_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: one closed-loop workload run, result as plain JSON.

    Imports lazily: :mod:`repro.fullsys.speedup` builds ``ClosedLoopJob``
    payloads through this module, and worker processes that only run
    sim-point tasks never need the full-system stack at all.
    """
    from ..fullsys.speedup import run_workload

    table = cached_table(payload["table"])
    profile = _decode_workload(payload["workload"])
    r = run_workload(
        table,
        profile,
        link_class=payload.get("link_class"),
        warmup=payload["warmup"],
        measure=payload["measure"],
        seed=payload["seed"],
        faults=_decode_faults(payload),
        retry=_decode_retry(payload),
    )
    return {
        "workload": r.workload,
        "topology": r.topology,
        "avg_packet_latency_ns": r.avg_packet_latency_ns,
        "cpi": r.cpi,
    }


def workload_result_from_dict(doc: Dict[str, Any]):
    from ..fullsys.speedup import WorkloadResult

    return WorkloadResult(
        workload=doc["workload"],
        topology=doc["topology"],
        avg_packet_latency_ns=float(doc["avg_packet_latency_ns"]),
        cpi=float(doc["cpi"]),
    )


def recovery_payload(
    table: RoutingTable,
    workload,
    link_class: Optional[str],
    faults,
    retry,
    total: int,
    window: int,
    seed: int,
) -> Dict[str, Any]:
    """One windowed closed-loop recovery run (transient measurement).

    The payload carries only what determines the window counters —
    recovery *metrics* (time-to-drain, settling) are derived caller-side
    from the windows, so tolerance knobs never invalidate the cache.
    Like :func:`closed_loop_payload`, it keeps ``"engine": "fast"``.
    """
    from ..fullsys.closedloop import validate_closed_loop_faults

    validate_closed_loop_faults(faults, retry)
    return {
        "task": "recovery",
        "version": TASK_VERSIONS["recovery"],
        "table": encode_table(table),
        "workload": _workload_doc(workload),
        "link_class": link_class,
        "faults": None if faults is None else faults.as_dict(),
        "retry": None if retry is None else retry.as_dict(),
        "total": int(total),
        "window": int(window),
        "seed": int(seed),
        "engine": "fast",
    }


def recovery_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: one windowed closed-loop run, windows as JSON."""
    from ..fullsys.speedup import run_recovery_windows

    table = cached_table(payload["table"])
    profile = _decode_workload(payload["workload"])
    samples = run_recovery_windows(
        table,
        profile,
        link_class=payload.get("link_class"),
        total=payload["total"],
        window=payload["window"],
        seed=payload["seed"],
        faults=_decode_faults(payload),
        retry=_decode_retry(payload),
    )
    return {"windows": [s.as_dict() for s in samples]}


def recovery_result_from_dict(doc: Dict[str, Any]):
    from ..sim.stats import WindowSample

    return [WindowSample.from_dict(w) for w in doc["windows"]]


# ---------------------------------------------------------------------------
# Generation-side task families (the design-space pipeline).
#
# Imports are lazy throughout: the MILP/search stack is heavy, and worker
# processes that only run sim points never need it.
# ---------------------------------------------------------------------------

def generation_payload(
    point,
    seed_incumbent: Optional[float] = None,
    seed_links: Optional[List[Tuple[int, int]]] = None,
) -> Dict[str, Any]:
    """One topology generation for a :class:`~repro.pipeline.DesignPoint`.

    ``seed_incumbent``/``seed_links`` carry a heuristic warm start into
    an exact solve (the portfolio's second phase): the incumbent
    objective feeds :func:`repro.milp.branch_and_bound.solve_bnb`'s
    ``initial_incumbent`` hook for distance objectives, and the seed
    topology's sparsest-cut partition becomes an initial lazy cut for
    SCOp.  Both are part of the payload, hence of the cache key.

    Points are canonicalized first (fields the strategy never reads are
    neutralized), so e.g. re-running an SA sweep under a different
    exact-solve budget hits the existing cache entries.
    """
    return {
        "task": "generation",
        "version": TASK_VERSIONS["generation"],
        "point": point.canonical().as_dict(),
        "seed_incumbent": (
            None if seed_incumbent is None else float(seed_incumbent)
        ),
        "seed_links": (
            None
            if seed_links is None
            else sorted([int(a), int(b)] for a, b in seed_links)
        ),
    }


def generation_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: generate one topology; failures are data, not raises.

    A MILP that finds no incumbent within budget returns
    ``{"ok": false}`` so the batch survives, the result is never cached,
    and the portfolio merge can fall back to the other strategies.
    """
    from ..pipeline.design import DesignPoint

    point = DesignPoint.from_dict(payload["point"])
    try:
        result = point.generate(
            seed_incumbent=payload.get("seed_incumbent"),
            seed_links=(
                None
                if payload.get("seed_links") is None
                else [(int(a), int(b)) for a, b in payload["seed_links"]]
            ),
        )
    except (RuntimeError, ValueError) as exc:
        return {"ok": False, "error": repr(exc), "strategy": point.strategy}
    topo = result.topology
    return {
        "ok": True,
        "links": sorted([int(i), int(j)] for i, j in topo.directed_links),
        "layout": [topo.layout.rows, topo.layout.cols],
        "link_class": topo.link_class,
        "name": topo.name,
        "objective": float(result.objective),
        "mip_gap": float(result.mip_gap),
        "status": result.status,
        "solve_time_s": float(result.solve_time_s),
        "strategy": point.strategy,
    }


def generation_result_from_dict(doc: Dict[str, Any]):
    """Decode a generation doc; failed results pass through as the raw
    failure dict (``{"ok": false, "error": ..., "strategy": ...}``) so
    callers can surface the solver's actual error."""
    from ..core.netsmith import GenerationResult
    from ..topology import Layout, Topology

    if not doc.get("ok"):
        return doc
    rows, cols = doc["layout"]
    topo = Topology(
        Layout(rows=int(rows), cols=int(cols)),
        [(int(i), int(j)) for i, j in doc["links"]],
        name=doc.get("name", "NetSmith"),
        link_class=doc.get("link_class"),
    )
    return GenerationResult(
        topology=topo,
        objective=float(doc["objective"]),
        mip_gap=float(doc["mip_gap"]),
        status=str(doc["status"]),
        solve_time_s=float(doc["solve_time_s"]),
        result=None,
    )


def default_max_vcs(n_routers: int) -> int:
    """The shared VC-budget heuristic: 8 layers suffice for every
    20/30-router configuration; irregular 48-router networks with MCLB's
    unconstrained shortest paths can need a few more.  Every routing
    payload builder resolves its default through this one function so
    the rule (part of the cache key) cannot drift between call sites."""
    return 8 if n_routers <= 30 else 14


def routing_payload(
    topo,
    policy: str,
    seed: int,
    max_vcs: int,
    time_limit: float = 60.0,
) -> Dict[str, Any]:
    """One route + VC-allocate + table-compile unit (pipeline stage 2).

    The topology enters the key as layout + link set only — never its
    display name or link class, which don't influence routing — so a
    pipeline-generated design and an identically-linked frozen one share
    a single cached table (the caller re-attaches its own identity to
    the decoded result; see :meth:`Runner.tables`).
    """
    return {
        "task": "routing",
        "version": TASK_VERSIONS["routing"],
        "topology": {
            "layout": [topo.layout.rows, topo.layout.cols],
            "links": sorted([int(i), int(j)] for i, j in topo.directed_links),
        },
        "policy": str(policy),
        "seed": int(seed),
        "max_vcs": int(max_vcs),
        "time_limit": float(time_limit),
    }


def routing_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: route one topology and compile its table."""
    from ..core.mclb import mclb_route
    from ..routing import (
        assign_vcs,
        build_routing_table,
        ndbt_route,
        single_shortest_paths,
    )

    doc = payload["topology"]
    rows, cols = doc["layout"]
    topo = Topology(
        Layout(rows=int(rows), cols=int(cols)),
        [(int(i), int(j)) for i, j in doc["links"]],
        name=doc.get("name", "topology"),
        link_class=doc.get("link_class"),
    )
    policy, seed = payload["policy"], payload["seed"]
    if policy == "bfs":
        # Destination-tree routing compiles straight to a CSR table —
        # O(n²) memory end to end, no per-flow path lists.
        from ..routing.dest_tree import bfs_dest_table

        return encode_table(
            bfs_dest_table(topo, max_vcs=payload["max_vcs"], seed=seed)
        )
    if policy == "ndbt":
        routes = ndbt_route(topo, seed=seed)
    elif policy == "mclb":
        routes = mclb_route(topo, time_limit=payload["time_limit"]).routes
    elif policy == "random":
        routes = single_shortest_paths(topo, seed=seed)
    else:
        raise ValueError(f"unknown routing policy {policy!r}")
    vca = assign_vcs(routes, max_vcs=payload["max_vcs"], seed=seed)
    table = build_routing_table(routes, vca)
    return encode_table(table)


def gap_curve_payload(
    config,
    time_limit: float,
    label: str,
    mode: str = "bnb",
    seed_incumbent: bool = True,
    time_points: Optional[Tuple[float, ...]] = None,
) -> Dict[str, Any]:
    """One Fig. 5 solver-progress recording (a whole B&B or HiGHS ladder)."""
    return {
        "task": "gap_curve",
        "version": TASK_VERSIONS["gap_curve"],
        "config": config.as_dict(),
        "time_limit": float(time_limit),
        "label": str(label),
        "mode": str(mode),
        "seed_incumbent": bool(seed_incumbent),
        "time_points": (
            None if time_points is None else [float(t) for t in time_points]
        ),
    }


def gap_curve_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: record one solver-progress curve."""
    from ..core.netsmith import NetSmithConfig
    from ..core.progress import record_progress_bnb, record_progress_scipy

    config = NetSmithConfig.from_dict(payload["config"])
    if payload["mode"] == "bnb":
        curve = record_progress_bnb(
            config,
            time_limit=payload["time_limit"],
            label=payload["label"],
            seed_incumbent=payload["seed_incumbent"],
        )
    else:
        curve = record_progress_scipy(
            config,
            time_points=payload["time_points"],
            label=payload["label"],
        )
    return {
        "label": curve.label,
        "samples": [[s.time_s, s.gap, s.incumbent] for s in curve.samples],
    }


def gap_curve_from_dict(doc: Dict[str, Any]):
    from ..core.progress import GapCurve, GapSample

    return GapCurve(
        label=doc["label"],
        samples=[
            GapSample(
                time_s=float(t),
                gap=float(gap),
                incumbent=None if inc is None else float(inc),
            )
            for t, gap, inc in doc["samples"]
        ],
    )


#: Task-name -> (worker function, result decoder).  The decoder maps the
#: JSON value (fresh or cached) back to the caller-facing object.
TASK_FUNCTIONS = {
    "sim_point": (sim_point_task, stats_from_dict),
    "sim_batch": (sim_batch_task, batch_stats_from_dict),
    "sat_search": (sat_search_task, float),
    "closed_loop": (closed_loop_task, workload_result_from_dict),
    "recovery": (recovery_task, recovery_result_from_dict),
    "generation": (generation_task, generation_result_from_dict),
    "routing": (routing_task, decode_table),
    "gap_curve": (gap_curve_task, gap_curve_from_dict),
}
