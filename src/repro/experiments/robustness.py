"""Robustness as a benchmark: a fault x traffic scenario grid.

``repro run robustness`` sweeps candidate topologies over a matrix of
fault schedules (most-central link down, two links down, most-central
router down) crossed with traffic scenarios (stationary uniform, MMPP
bursty uniform, hotspot incast storm).  Per cell it measures

* the degraded saturation rate (fault present from cycle 0), against the
  fault-free baseline of the same traffic — their ratio is *retained
  capacity*;
* the delivered fraction at a fixed probe rate with the fault injected
  mid-measurement — the transient-loss view of the same scenario.

Topologies rank by their worst-case retained capacity across the grid
(max-min robustness; delivered fraction breaks ties).  All simulation
goes through the runner's ``sat_search``/``sim_point`` families, so the
grid fans across workers and an immediate rerun is 100% cache hits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults import FaultSchedule, central_link_faults, central_router_fault
from ..runner import tasks as _tasks
from ..runner.cache import write_json_artifact
from ..runner.hashing import config_hash
from ..runner.orchestrator import Runner, SaturationJob, ensure_runner
from ..sim.burst import BurstSpec
from ..sim.traffic import TrafficSpec
from ..topology import expert_topology
from .registry import NDBT, routed_table

#: Default contenders: one expert baseline per link class.
DEFAULT_TOPOLOGIES = ("Mesh", "FoldedTorus", "ButterDonut")

#: Delivered-fraction probes run at this fraction of the cell's measured
#: degraded saturation — below the knee by construction, so losses
#: measure the fault, not queueing collapse.
PROBE_FRACTION = 0.5

#: Probe-rate floor (packets/node/cycle) for cells whose degraded
#: saturation collapsed below the search's resolution.
PROBE_FLOOR = 0.005

#: Saturation-search bracket: no 20-router contender saturates above
#: ~0.3 packets/node/cycle, so a tight upper bound buys bisection
#: resolution instead of wasting iterations halving dead air.
SAT_HI = 0.4


def _fault_axis(topo, cycle: int = 0) -> List[Tuple[str, FaultSchedule]]:
    """The fault scenarios for one topology, injected at ``cycle``."""
    return [
        ("link1", central_link_faults(topo, 1, cycle=cycle)),
        ("link2", central_link_faults(topo, 2, cycle=cycle)),
        ("router", central_router_fault(topo, cycle=cycle)),
    ]


def _hotspot_router(topo) -> int:
    """The incast target: the *second* most central router.

    The most central one is exactly the router the ``router`` fault
    scenario kills; aiming the storm next door keeps the incast x
    router-down cell measuring degradation rather than trivially losing
    every packet addressed to a dead node.
    """
    deg = topo.out_degree() + topo.in_degree()
    order = sorted(range(topo.n), key=lambda i: (-int(deg[i]), i))
    return order[1] if topo.n > 1 else order[0]


def _traffic_axis(topo) -> List[Tuple[str, TrafficSpec]]:
    """The traffic scenarios for one topology."""
    n = topo.n
    uniform = TrafficSpec.uniform(n)
    mmpp = uniform.with_burst(
        BurstSpec(kind="mmpp", p_on=0.1, p_off=0.3, seed=1)
    )
    incast = TrafficSpec.hotspot(
        n, (_hotspot_router(topo),), hot_fraction=0.6
    ).with_burst(
        BurstSpec(kind="storm", p_on=0.1, p_off=0.2, seed=2)
    )
    return [("uniform", uniform), ("mmpp", mmpp), ("incast", incast)]


@dataclass
class ScenarioCell:
    """One (topology, fault, traffic) grid cell, fully measured."""

    topology: str
    fault: str
    traffic: str
    baseline_saturation: float
    degraded_saturation: float
    probe_rate: float
    delivered_fraction: float
    lost_packets: int
    offered_packets: int

    @property
    def retained(self) -> float:
        """Degraded/baseline saturation (retained capacity, in [0, ~1])."""
        if self.baseline_saturation <= 0:
            return 0.0
        return self.degraded_saturation / self.baseline_saturation

    def as_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "fault": self.fault,
            "traffic": self.traffic,
            "baseline_saturation": self.baseline_saturation,
            "degraded_saturation": self.degraded_saturation,
            "retained": self.retained,
            "probe_rate": self.probe_rate,
            "delivered_fraction": self.delivered_fraction,
            "lost_packets": self.lost_packets,
            "offered_packets": self.offered_packets,
        }


@dataclass
class RobustnessResult:
    """The full grid plus the worst-case-degradation ranking."""

    cells: List[ScenarioCell]
    config: Dict[str, Any] = field(default_factory=dict)

    def topologies(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.topology not in seen:
                seen.append(c.topology)
        return seen

    def worst_case(self, topology: str) -> ScenarioCell:
        """The grid cell with the lowest retained capacity."""
        mine = [c for c in self.cells if c.topology == topology]
        return min(mine, key=lambda c: (c.retained, c.delivered_fraction))

    def ranking(self) -> List[Tuple[str, ScenarioCell]]:
        """Topologies best-first by worst-case retained capacity."""
        worst = [(t, self.worst_case(t)) for t in self.topologies()]
        return sorted(
            worst,
            key=lambda tw: (tw[1].retained, tw[1].delivered_fraction),
            reverse=True,
        )

    def format_table(self) -> str:
        lines = [
            "Robustness ranking (worst-case retained capacity across "
            f"{len(self.cells)} scenario cells):",
            f"{'#':>3} {'topology':<18} {'retained':>8} {'delivered':>9} "
            f"{'worst scenario':<22}",
        ]
        for rank, (name, cell) in enumerate(self.ranking(), start=1):
            lines.append(
                f"{rank:>3} {name:<18} {cell.retained:>8.3f} "
                f"{cell.delivered_fraction:>9.3f} "
                f"{cell.fault + ' x ' + cell.traffic:<22}"
            )
        return "\n".join(lines)


def _write_artifacts(
    out_dir: str, result: RobustnessResult
) -> None:
    """Per-scenario JSON artifacts plus the grid-wide ranking doc."""
    os.makedirs(out_dir, exist_ok=True)
    digest = config_hash(result.config)[:12]
    for cell in result.cells:
        doc = {"config": result.config, "scenario": cell.as_dict()}
        name = f"{cell.topology}-{cell.fault}-{cell.traffic}-{digest}.json"
        write_json_artifact(os.path.join(out_dir, name.replace("/", "_")), doc)
    ranking_doc = {
        "config": result.config,
        "ranking": [
            {"topology": t, "worst_case": c.as_dict()}
            for t, c in result.ranking()
        ],
        "cells": [c.as_dict() for c in result.cells],
    }
    for name in (f"ranking-{digest}.json", "ranking.json"):
        write_json_artifact(os.path.join(out_dir, name), ranking_doc)


def robustness_grid(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_routers: int = 20,
    runner: Optional[Runner] = None,
    fast: bool = True,
    out_dir: Optional[str] = None,
    probe_fraction: float = PROBE_FRACTION,
    seed: int = 0,
) -> RobustnessResult:
    """Measure the fault x traffic scenario grid over expert topologies.

    Saturation legs inject the fault at cycle 0 (steady degraded state);
    the delivered-fraction probe injects it a third of the way into the
    measurement window, so the loss number includes packets stranded by
    the epoch swap itself.  All legs batch through one runner (a turbo
    runner refuses them: turbo has no fault support).  JSON
    artifacts are written only when ``out_dir`` is given (``repro run
    robustness`` passes ``robustness-artifacts``).
    """
    warmup, measure, iters = (200, 600, 5) if fast else (400, 1600, 7)
    probe_warmup, probe_measure = (200, 800) if fast else (400, 1600)
    probe_cycle = probe_warmup + probe_measure // 3

    with ensure_runner(runner) as runner:
        tables = [
            routed_table(expert_topology(name, n_routers), NDBT, runner=runner)
            for name in topologies
        ]

        # One saturation batch: every (topology, traffic) baseline
        # followed by every (topology, fault, traffic) degraded search.
        base_jobs: List[SaturationJob] = []
        base_index: Dict[Tuple[str, str], int] = {}
        deg_jobs: List[SaturationJob] = []
        grid: List[Tuple[Any, str, FaultSchedule, str, TrafficSpec]] = []
        for table in tables:
            topo = table.topology
            for t_label, spec in _traffic_axis(topo):
                base_index[(topo.name, t_label)] = len(base_jobs)
                base_jobs.append(SaturationJob(
                    table=table, traffic=spec,
                    lo=PROBE_FLOOR, hi=SAT_HI, iters=iters,
                    warmup=warmup, measure=measure, seed=seed,
                ))
            for f_label, schedule in _fault_axis(topo):
                for t_label, spec in _traffic_axis(topo):
                    grid.append((table, f_label, schedule, t_label, spec))
                    deg_jobs.append(SaturationJob(
                        table=table, traffic=spec,
                        lo=PROBE_FLOOR, hi=SAT_HI, iters=iters,
                        warmup=warmup, measure=measure, seed=seed,
                        faults=schedule,
                    ))
        sats = runner.saturations(base_jobs + deg_jobs)
        base_sats = sats[: len(base_jobs)]
        deg_sats = sats[len(base_jobs):]

        # One sim-point batch: the delivered-fraction probes (mid-run
        # fault), each pitched below its own cell's degraded knee so
        # losses come from the fault, not queueing collapse.
        probe_rates = [
            max(PROBE_FLOOR, round(probe_fraction * float(deg), 4))
            for deg in deg_sats
        ]
        probe_payloads = []
        for (table, f_label, _schedule, t_label, spec), rate in zip(
            grid, probe_rates
        ):
            topo = table.topology
            mid = dict(_fault_axis(topo, cycle=probe_cycle))[f_label]
            probe_payloads.append(_tasks.sim_point_payload(
                table, spec, rate, probe_warmup, probe_measure, seed,
                engine=runner.engine, faults=mid,
            ))
        probe_stats = runner.run_tasks("sim_point", probe_payloads)

    cells = [
        ScenarioCell(
            topology=table.topology.name,
            fault=f_label,
            traffic=t_label,
            baseline_saturation=float(
                base_sats[base_index[(table.topology.name, t_label)]]
            ),
            degraded_saturation=float(deg),
            probe_rate=rate,
            delivered_fraction=float(stats.delivered_fraction),
            lost_packets=int(stats.lost_packets),
            offered_packets=int(stats.offered_packets),
        )
        for (table, f_label, _s, t_label, _spec), deg, rate, stats in zip(
            grid, deg_sats, probe_rates, probe_stats
        )
    ]
    result = RobustnessResult(
        cells=cells,
        config={
            "topologies": list(topologies),
            "n_routers": n_routers,
            "fast": fast,
            "probe_fraction": probe_fraction,
            "probe_cycle": probe_cycle,
            "warmup": warmup, "measure": measure, "iters": iters,
            "probe_warmup": probe_warmup, "probe_measure": probe_measure,
            "seed": seed,
            "engine": runner.engine,
        },
    )
    if out_dir is not None:
        _write_artifacts(out_dir, result)
    return result
