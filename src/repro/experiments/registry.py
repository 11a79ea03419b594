"""Shared experiment infrastructure: topology rosters and routed tables.

Every figure compares the same cast (paper Table II):

* expert baselines routed with NDBT (their published scheme);
* LPBT machine baselines routed with a single random shortest path (their
  internally-defined, load-oblivious routing, Section IV-A);
* NetSmith topologies routed with MCLB (paper: "NetSmith employs MCLB
  routing only").

``roster`` assembles the per-link-class cast at a given system size,
serving frozen artifacts where registered (every figure reads that
frozen roster); ``routed_table`` applies the matching routing policy
plus deadlock-free VC assignment and compiles the simulator's routing
table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.pregenerated import netsmith_topology
from ..routing import RoutingTable
from ..topology import (
    EXACT_CUT_LIMIT,
    Topology,
    expert_topology,
    standard_layout,
)
from ..topology.expert import EXPERT_FAMILIES

#: Routing policy names.
NDBT = "ndbt"
MCLB = "mclb"
RANDOM_SP = "random"


@dataclass
class Entry:
    """One contender: a topology plus its routing policy."""

    topology: Topology
    policy: str

    @property
    def name(self) -> str:
        return self.topology.name


def roster(
    link_class: str,
    n_routers: int = 20,
    include_lpbt: bool = True,
    include_scop: bool = True,
    allow_generate: bool = True,
    runner=None,
) -> List[Entry]:
    """The paper's comparison cast for one link class and size.

    Any router count is accepted: non-standard sizes get the most-square
    grid and expert families that don't scale to it are skipped.
    NetSmith contenders come from the frozen registry; the figures read
    only that (``allow_generate=False``), which leaves out a NetSmith
    design with no frozen entry.  With ``allow_generate`` such a design
    comes from the design-space pipeline's cached ``generation`` stage
    instead, and a :class:`repro.runner.Runner` makes that solve
    one-time across runs.
    """
    entries: List[Entry] = []
    for name, cls in EXPERT_FAMILIES.items():
        if cls != link_class or name == "Mesh":
            continue
        try:
            entries.append(Entry(expert_topology(name, n_routers), NDBT))
        except ValueError:
            pass  # family not defined at this size
    if include_lpbt and n_routers == 20 and link_class == "small":
        from ..topology import expert_data

        for lp in ("LPBT-Power", "LPBT-Hops"):
            frozen = expert_data.lookup(lp, n_routers)
            if frozen is not None:
                layout = standard_layout(n_routers)
                entries.append(
                    Entry(
                        Topology.from_undirected(
                            layout, frozen, name=lp, link_class=link_class
                        ),
                        RANDOM_SP,
                    )
                )
    # NetSmith contenders
    try:
        entries.append(
            Entry(
                netsmith_topology(
                    "latop", link_class, n_routers, allow_generate, runner=runner
                ),
                MCLB,
            )
        )
    except KeyError:
        pass
    # SCOp needs exact sparsest-cut separation.
    if include_scop and n_routers <= EXACT_CUT_LIMIT:
        try:
            entries.append(
                Entry(
                    netsmith_topology(
                        "scop", link_class, n_routers, allow_generate, runner=runner
                    ),
                    MCLB,
                )
            )
        except KeyError:
            pass
    return entries


_table_cache: Dict[Tuple[str, Optional[str], str], RoutingTable] = {}


def _memo_key(
    topo: Topology, policy: str, seed: int
) -> Tuple[str, Optional[str], str]:
    """In-process memo key, shared by every routed-table entry point.

    The routing task's own identity — layout, link set, policy and
    seed, as :func:`~repro.runner.tasks.routing_payload` builds it —
    plus the name and link class the returned table carries.  Two
    topologies that share a name and a link count but not their links
    get different tables.
    """
    from ..runner.tasks import routing_payload

    payload = routing_payload(topo, policy, seed)
    return (topo.name, topo.link_class, json.dumps(payload, sort_keys=True))


def routed_table(
    topo: Topology,
    policy: str = NDBT,
    seed: int = 0,
    use_cache: bool = True,
    runner=None,
) -> RoutingTable:
    """Route a topology with a named policy and compile its table.

    A routed table is determined by (topology, policy, seed): the VC
    budget follows the router count and MCLB's LP has a fixed solve
    budget (both rules of :func:`~repro.runner.tasks.routing_payload`).

    Compilation is one ``routing`` pipeline task through the runner —
    and therefore its content-addressed disk cache and worker pool:
    MCLB's LP solve is seconds per topology, and (unlike a fresh solve)
    a cached table is identical across runs of the same configuration.
    ``use_cache=False`` skips the in-process memo (the runner's disk
    cache still applies).
    """
    if policy not in (NDBT, MCLB, RANDOM_SP):
        raise ValueError(f"unknown routing policy {policy!r}")
    from ..runner import RoutingJob, ensure_runner

    key = _memo_key(topo, policy, seed)
    if use_cache and key in _table_cache:
        return _table_cache[key]

    job = RoutingJob(topology=topo, policy=policy, seed=seed)
    with ensure_runner(runner) as runner:
        table = runner.tables([job])[0]
    if use_cache:
        _table_cache[key] = table
    return table


def routed_entry(entry: Entry, seed: int = 0, runner=None) -> RoutingTable:
    return routed_table(entry.topology, entry.policy, seed=seed, runner=runner)


def routed_entries(
    entries: List[Entry], seed: int = 0, runner=None
) -> List[RoutingTable]:
    """Compile a whole roster's tables at once.

    Tables missing from the in-process memo (shared with
    :func:`routed_table`) compile as one batch of ``routing`` tasks,
    fanned across the runner's workers and cached; a roster the memo
    already holds builds no runner.
    """
    missing = [
        e for e in entries
        if _memo_key(e.topology, e.policy, seed) not in _table_cache
    ]
    if missing:
        from ..runner import RoutingJob, ensure_runner

        with ensure_runner(runner) as runner:
            tables = runner.tables([
                RoutingJob(topology=e.topology, policy=e.policy, seed=seed)
                for e in missing
            ])
        for e, table in zip(missing, tables):
            _table_cache[_memo_key(e.topology, e.policy, seed)] = table
    return [routed_entry(e, seed=seed) for e in entries]


# ---------------------------------------------------------------------------
# Named experiments (the ``repro run`` surface).
#
# Every entry routes its simulation work through a
# :class:`repro.runner.Runner`, so ``--parallel`` fans sim points and
# saturation searches across workers and the result cache makes reruns
# incremental.  Figure modules are imported lazily inside each runner
# function (they import this module at load time).
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """One runnable experiment: how to produce it and how to print it."""

    name: str
    description: str
    run_fn: Callable  # (runner, fast, **kw) -> result
    summarize_fn: Callable  # result -> printable str

    def run(self, runner=None, fast: bool = True, **kwargs):
        return self.run_fn(runner, fast, **kwargs)

    def summarize(self, result) -> str:
        return self.summarize_fn(result)


def _run_table2(runner, fast, **kw):
    from .table2 import format_table, table2

    return format_table(table2(20), 20)


def _run_fig1(runner, fast, **kw):
    from .fig1 import fig1_points, pareto_front

    pts = fig1_points(20, runner=runner)
    front = sorted(p.name for p in pareto_front(pts))
    return {"points": len(pts), "pareto_front": front}


def _run_fig4(runner, fast, **kw):
    from .fig4 import fig4_render

    return fig4_render(20)


def _run_fig5(runner, fast, **kw):
    from .fig5 import fig5_curves

    return fig5_curves(time_limit=6.0 if fast else 20.0, runner=runner, **kw)


def _summarize_fig5(res):
    lines = ["Fig. 5 (solver objective-bounds gap, reduced instance):"]
    for label, curve in res.curves.items():
        t10 = curve.time_to_gap(0.10)
        lines.append(
            f"  {label:<8} final gap {curve.final_gap():.4f}  "
            f"time-to-10%: {'-' if t10 is None else f'{t10:.2f}s'}"
        )
    lines.append(f"convergence order: {res.convergence_order()}")
    return "\n".join(lines)


def _run_fig9(runner, fast, **kw):
    from .fig9 import fig9_rows

    return fig9_rows(**kw)


def _summarize_fig9(rows):
    from .fig9 import ns_large_vs_small_dynamic

    lines = ["Fig. 9 (power/area vs mesh, normalized):"]
    lines += [
        f"  {r.name:<18} static {r.normalized['static_power']:.2f} "
        f"dynamic {r.normalized['dynamic_power']:.2f} "
        f"wire area {r.normalized['wire_area']:.2f}"
        for r in rows
    ]
    lines.append(
        f"NS large/small dynamic ratio: {ns_large_vs_small_dynamic(rows):.2f} "
        "(paper ~0.83)"
    )
    return "\n".join(lines)


def _fig6_budget(fast):
    return {"warmup": 250 if fast else 400, "measure": 800 if fast else 1500}


def _run_fig6(kind):
    def run(runner, fast, **kw):
        from .fig6 import fig6_curves

        return fig6_curves(kind, runner=runner, **_fig6_budget(fast), **kw)

    return run


def _summarize_fig6(res):
    lines = [f"Fig. 6 ({res.traffic}) saturation ranking (packets/node/ns):"]
    lines += [f"  {name:<18} {sat:.3f}" for name, sat in res.saturation_ranking()]
    return "\n".join(lines)


def _run_fig7(runner, fast, **kw):
    from .fig7 import fig7_bars

    return fig7_bars(
        "large", runner=runner,
        warmup=200 if fast else 300, measure=600 if fast else 1000, **kw,
    )


def _summarize_fig7(bars):
    from .fig7 import mclb_gain_summary

    lines = ["Fig. 7 (large class) measured saturation / bounds:"]
    lines += [
        f"  {b.topology:<16} {b.routing:<5} {b.measured_saturation:.3f} "
        f"(cut {b.cut_bound:.3f}, occ {b.occupancy_bound:.3f})"
        for b in bars
    ]
    gains = mclb_gain_summary(bars)
    lines.append(f"MCLB/NDBT gains: { {k: round(v, 2) for k, v in gains.items()} }")
    return "\n".join(lines)


#: The reduced-budget Fig. 8 configuration, shared verbatim by the
#: ``fig8`` experiment and the report's full-system section so both hit
#: the same cached ``closed_loop`` results.
FIG8_FAST_WORKLOADS = ("blackscholes", "ferret", "streamcluster", "canneal")


def fig8_budget(fast):
    return {"warmup": 300, "measure": 1000 if fast else 2000}


def _run_fig8(runner, fast, **kw):
    from ..fullsys.workloads import PARSEC
    from .fig8 import fig8_results

    workloads = (
        [w for w in PARSEC if w.name in FIG8_FAST_WORKLOADS] if fast else None
    )
    return fig8_results(
        workloads=workloads, runner=runner,
        max_entries_per_class=3, **fig8_budget(fast), **kw,
    )


def _summarize_fig8(res):
    lines = ["Fig. 8 (PARSEC closed loop) geomean speedup vs mesh:"]
    lines += [
        f"  {name:<18} {v:.3f}"
        for name, v in sorted(res.geomean.items(), key=lambda kv: -kv[1])
    ]
    lines.append(f"best topology: {res.best_topology()}")
    return "\n".join(lines)


def _run_fig10(runner, fast, **kw):
    from .fig10 import fig10_curves

    return fig10_curves(
        runner=runner,
        warmup=250 if fast else 400, measure=800 if fast else 1500, **kw,
    )


def _summarize_fig10(res):
    lines = ["Fig. 10 (shuffle traffic) saturation (packets/node/ns):"]
    for name, curve in sorted(
        res.curves.items(), key=lambda kv: -kv[1].saturation_throughput_ns
    ):
        lines.append(f"  {name:<18} {curve.saturation_throughput_ns:.3f}")
    return "\n".join(lines)


def _run_fig11(runner, fast, **kw):
    from .fig11 import fig11_points

    return fig11_points(
        runner=runner,
        warmup=200 if fast else 300, measure=600 if fast else 1000, **kw,
    )


def _summarize_fig11(res):
    lines = ["Fig. 11 (48 routers) saturation (packets/node/ns):"]
    lines += [
        f"  {p.link_class:<7} {p.name:<18} {p.saturation_packets_node_ns:.3f}"
        for p in res.points
    ]
    for cls in ("small", "medium", "large"):
        lines.append(f"NS gain ({cls}): {res.ns_gain(cls):.2f}x")
    return "\n".join(lines)


def _run_report(runner, fast, **kw):
    from .report import generate_report

    return generate_report(fast=fast, runner=runner, **kw)


def _run_robustness(runner, fast, **kw):
    from .robustness import robustness_grid

    return robustness_grid(
        runner=runner, fast=fast, out_dir="robustness-artifacts", **kw
    )


def _summarize_robustness(res):
    return res.format_table()


def _run_recovery(runner, fast, **kw):
    from .recovery import recovery_grid

    return recovery_grid(
        runner=runner, fast=fast, out_dir="recovery-artifacts", **kw
    )


def _summarize_recovery(res):
    return res.format_table()


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "table2", "Table II topology metrics at 20 routers",
            _run_table2, str,
        ),
        ExperimentSpec(
            "fig1", "latency vs saturation-throughput frontier",
            _run_fig1,
            lambda r: f"Pareto frontier: {r['pareto_front']} ({r['points']} points)",
        ),
        ExperimentSpec(
            "fig4", "example LatOp topology with its sparsest cut",
            _run_fig4, lambda r: r.rendering,
        ),
        ExperimentSpec(
            "fig5", "solver progress: objective-bounds gap vs time",
            _run_fig5, _summarize_fig5,
        ),
        ExperimentSpec(
            "fig9", "NoI power/area relative to mesh",
            _run_fig9, _summarize_fig9,
        ),
        ExperimentSpec(
            "fig6-coherence", "synthetic uniform-random traffic sweeps",
            _run_fig6("coherence"), _summarize_fig6,
        ),
        ExperimentSpec(
            "fig6-memory", "memory (MC hot-spot) traffic sweeps",
            _run_fig6("memory"), _summarize_fig6,
        ),
        ExperimentSpec(
            "fig7", "topology-vs-routing isolation, large class",
            _run_fig7, _summarize_fig7,
        ),
        ExperimentSpec(
            "fig8", "full-system PARSEC closed-loop speedups vs mesh",
            _run_fig8, _summarize_fig8,
        ),
        ExperimentSpec(
            "fig10", "shuffle traffic incl. NS-ShufOpt",
            _run_fig10, _summarize_fig10,
        ),
        ExperimentSpec(
            "fig11", "48-router scalability saturation search",
            _run_fig11, _summarize_fig11,
        ),
        ExperimentSpec(
            "robustness",
            "fault x traffic scenario grid: worst-case degradation ranking",
            _run_robustness, _summarize_robustness,
        ),
        ExperimentSpec(
            "recovery",
            "closed-loop fault flaps: time-to-drain / latency settling",
            _run_recovery, _summarize_recovery,
        ),
        ExperimentSpec(
            "report", "full generated experiment report (EXPERIMENTS.md body)",
            _run_report, str,
        ),
    )
}


def get_experiment(name: str) -> ExperimentSpec:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def list_experiments() -> List[Tuple[str, str]]:
    return [(s.name, s.description) for s in EXPERIMENTS.values()]
