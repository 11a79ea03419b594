"""Execution-time model: network latency -> PARSEC speedup (Fig. 8).

The paper's causal chain is: better topology -> lower packet latency for
coherence and memory traffic -> fewer core stall cycles -> execution-time
speedup, with per-benchmark sensitivity set by L2 misses per instruction.
We model exactly that chain:

``CPI = base_cpi + (l2_mpki / 1000) * miss_latency_core_cycles / mlp``

where ``miss_latency_core_cycles`` is the measured NoI round-trip (NoI
cycles, from the closed-loop simulation) converted through the NoI and
core clocks (Table IV: cores at 3.8 GHz; NoI at its link-class clock),
and ``mlp`` divides the exposed latency by the core's overlap factor.

Speedups are reported relative to the mesh baseline, as in Fig. 8, along
with the packet-latency reduction (Fig. 8's right axis).  Every
closed-loop run here is a :class:`~repro.fullsys.fastloop.
FastClosedLoopSimulator`; tests substitute the reference oracle for it
by patching this module's ``FastClosedLoopSimulator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..routing.tables import RoutingTable
from ..sim.traffic import uniform_random
from ..topology.layout import CLASS_CLOCK_GHZ
from .fastloop import FastClosedLoopSimulator
from .workloads import PARSEC, WorkloadProfile

if TYPE_CHECKING:
    from ..runner import Runner

CORE_CLOCK_GHZ = 3.8  # Table IV


@dataclass
class WorkloadResult:
    """Fig. 8 quantities for one (benchmark, topology) pair."""

    workload: str
    topology: str
    avg_packet_latency_ns: float
    cpi: float

    def speedup_over(self, baseline: "WorkloadResult") -> float:
        return baseline.cpi / self.cpi

    def latency_reduction_over(self, baseline: "WorkloadResult") -> float:
        return 1.0 - self.avg_packet_latency_ns / baseline.avg_packet_latency_ns


def demand_rate_for(workload: WorkloadProfile, cores_per_router: float = 3.2) -> float:
    """Per-NoI-router request probability per NoI cycle.

    Each core issues ``l2_mpki/1000`` misses per instruction at roughly
    ``1/base_cpi`` instructions per core cycle; a router aggregates its
    concentration of cores, and NoI cycles are shorter than core cycles.
    Clamped to keep the closed loop stable at the high-MPKI end.
    """
    per_core_per_core_cycle = (workload.l2_mpki / 1000.0) / workload.base_cpi
    rate = per_core_per_core_cycle * cores_per_router
    return float(min(rate * CORE_CLOCK_GHZ / 3.0, 0.45))


def _build_closed_loop(
    table: RoutingTable,
    workload: WorkloadProfile,
    link_class: Optional[str],
    seed: int,
    faults=None,
    retry=None,
):
    """One closed-loop simulator for a (workload, topology) pair, plus
    the NoI clock its latencies convert through."""
    topo = table.topology
    cls = link_class or topo.link_class or "small"
    clock = CLASS_CLOCK_GHZ[cls]
    sim = FastClosedLoopSimulator(
        table,
        uniform_random(topo.n),
        demand_rate=demand_rate_for(workload),
        mlp_per_node=int(round(workload.mlp * 3.2)),
        memory_fraction=workload.memory_fraction,
        noi_clock_ghz=clock,
        seed=seed,
        faults=faults,
        retry=retry,
    )
    return sim, clock


def run_workload(
    table: RoutingTable,
    workload: WorkloadProfile,
    link_class: Optional[str] = None,
    warmup: int = 600,
    measure: int = 2500,
    seed: int = 0,
    faults=None,
    retry=None,
) -> WorkloadResult:
    """Closed-loop simulation of one benchmark on one routed topology.

    ``faults`` degrades the run with a
    :class:`~repro.faults.FaultSchedule` (which requires ``retry``, a
    :class:`~repro.fullsys.closedloop.RetryPolicy`, so in-flight
    requests survive epoch swaps).
    """
    topo = table.topology
    sim, clock = _build_closed_loop(
        table, workload, link_class, seed, faults=faults, retry=retry,
    )
    stats = sim.run_closed_loop(warmup, measure)
    rtt_noi_cycles = stats.avg_round_trip_cycles
    rtt_ns = rtt_noi_cycles / clock
    miss_core_cycles = rtt_ns * CORE_CLOCK_GHZ
    cpi = workload.base_cpi + (
        workload.l2_mpki / 1000.0
    ) * miss_core_cycles / workload.mlp
    return WorkloadResult(
        workload=workload.name,
        topology=topo.name,
        avg_packet_latency_ns=rtt_ns,
        cpi=float(cpi),
    )


def run_recovery_windows(
    table: RoutingTable,
    workload: WorkloadProfile,
    link_class: Optional[str] = None,
    total: int = 1400,
    window: int = 50,
    seed: int = 0,
    faults=None,
    retry=None,
):
    """Windowed closed-loop run for transient-recovery measurement.

    Returns the :class:`~repro.sim.stats.WindowSample` list covering
    ``total`` cycles in ``window``-cycle slices — the raw material for
    :func:`~repro.sim.stats.recovery_metrics` (computed caller-side, so
    tolerance knobs never enter the cache key).
    """
    sim, _clock = _build_closed_loop(
        table, workload, link_class, seed, faults=faults, retry=retry,
    )
    return sim.run_windows(total, window)


@dataclass
class Figure8Row:
    """One benchmark's Fig. 8 bar group (speedups vs mesh per topology)."""

    workload: str
    speedups: Dict[str, float]
    latency_reductions: Dict[str, float]


def parsec_sweep(
    tables: Dict[str, RoutingTable],
    mesh_table: RoutingTable,
    workloads: Optional[List[WorkloadProfile]] = None,
    seed: int = 0,
    warmup: int = 600,
    measure: int = 2500,
    runner: Optional["Runner"] = None,
) -> List[Figure8Row]:
    """Fig. 8: per-benchmark speedup and latency reduction vs mesh.

    Every (benchmark, topology) pair is one independent closed-loop
    simulation.  They all fan out as ``closed_loop`` tasks — parallel
    across the runner's workers, content-hash cached on disk — and
    reassemble positionally, so the rows are bit-identical at any
    worker count.
    """
    from ..runner.orchestrator import ClosedLoopJob, ensure_runner

    workloads = workloads or PARSEC
    names = list(tables)
    jobs = [
        ClosedLoopJob(
            table=tab, workload=w, warmup=warmup, measure=measure, seed=seed,
        )
        for w in workloads
        for tab in [mesh_table] + [tables[n] for n in names]
    ]
    with ensure_runner(runner) as runner:
        results = iter(runner.closed_loops(jobs))
    rows: List[Figure8Row] = []
    for w in workloads:
        base = next(results)
        speed: Dict[str, float] = {}
        red: Dict[str, float] = {}
        for name in names:
            r = next(results)
            speed[name] = r.speedup_over(base)
            red[name] = r.latency_reduction_over(base)
        rows.append(Figure8Row(workload=w.name, speedups=speed, latency_reductions=red))
    return rows


def geomean_speedups(rows: List[Figure8Row]) -> Dict[str, float]:
    """Fig. 8's GEOMEAN group."""
    if not rows:
        return {}
    names = rows[0].speedups.keys()
    return {
        n: float(np.exp(np.mean([np.log(r.speedups[n]) for r in rows])))
        for n in names
    }
