"""Closed-loop recovery transients: fault, repair, and the road back.

``repro run recovery`` runs a (topology x workload x fault-flap)
scenario grid of *windowed* closed-loop simulations: a central link or
router goes down mid-run and comes back up later, while requests ride
the timeout/retry machinery of
:class:`~repro.fullsys.closedloop.RetryPolicy`.  Per cell it derives the
transient-recovery metrics of :func:`~repro.sim.stats.recovery_metrics`
from the window series:

* **time-to-drain** — cycles after the repair until the transaction
  backlog (MLP slots held) returns to its pre-fault baseline band;
* **latency-settling time** — cycles after the repair until the
  windowed mean round trip re-enters its baseline band;

plus the failure/retry totals that show what the outage actually cost.
All simulation goes through the runner's ``recovery`` task family, so
the grid fans across workers and an immediate rerun is 100% cache hits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults import (
    FaultSchedule,
    central_link_faults,
    central_router_fault,
    recovery_points,
)
from ..fullsys.closedloop import RetryPolicy
from ..fullsys.workloads import workload
from ..runner.cache import write_json_artifact
from ..runner.hashing import config_hash
from ..runner.orchestrator import RecoveryJob, Runner, ensure_runner
from ..sim.stats import RecoveryMetrics, WindowSample, recovery_metrics
from ..topology import expert_topology
from .registry import NDBT, routed_table

#: Default contenders (small-class expert baselines).
DEFAULT_TOPOLOGIES = ("Mesh", "FoldedTorus")

#: Default PARSEC profiles: one moderate, one memory-heavy — both with a
#: stationary pre-fault operating point.  (The very top of the MPKI
#: range, canneal, pins every MLP slot even fault-free: there is no
#: baseline to recover *to*, so it is not a transient scenario.)
DEFAULT_WORKLOADS = ("x264", "streamcluster")

#: Outage window (cycles): long enough past warmup for a clean baseline,
#: repaired with room to observe the drain before the run ends.
DOWN_CYCLE = 400
UP_CYCLE = 800

#: Default retry policy for the grid.  The timeout must clear the
#: *congested steady-state* round trip of the heaviest workload on the
#: weakest topology (~150 cycles for streamcluster on the mesh), not
#: just the pristine RTT: a timeout below steady RTT fires spurious
#: retransmissions whose duplicates amplify load faster than the
#: network drains it — congestion collapse, and the transient never
#: recovers.
DEFAULT_RETRY = RetryPolicy(timeout=192, retries=6, backoff=16, seed=1)


def _scenario_axis(
    topo, down: int, up: int
) -> List[Tuple[str, FaultSchedule]]:
    """Flap scenarios: the most central link / router down then back up.

    Targets are lifted from the permanent-outage pickers the robustness
    grid uses, so "worst link"/"worst router" means the same thing in
    both experiments.
    """
    link_events = central_link_faults(topo, 1, cycle=down).events
    links = sorted({tuple(sorted(e.target)) for e in link_events})
    router_events = central_router_fault(topo, cycle=down).events
    routers = sorted({e.target[0] for e in router_events})
    return [
        ("linkflap",
         FaultSchedule.link_outage(links, down_cycle=down, up_cycle=up)),
        ("routerflap",
         FaultSchedule.router_outage(routers, down_cycle=down, up_cycle=up)),
    ]


@dataclass
class RecoveryCell:
    """One (topology, workload, scenario) cell, fully measured."""

    topology: str
    workload: str
    scenario: str
    metrics: RecoveryMetrics
    issued: int
    completed: int
    failed: int
    retried: int

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.issued if self.issued else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "workload": self.workload,
            "scenario": self.scenario,
            "metrics": self.metrics.as_dict(),
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "failed_fraction": self.failed_fraction,
        }


@dataclass
class RecoveryResult:
    """The full grid plus per-topology worst-case recovery."""

    cells: List[RecoveryCell]
    config: Dict[str, Any] = field(default_factory=dict)

    def topologies(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.topology not in seen:
                seen.append(c.topology)
        return seen

    def worst_case(self, topology: str) -> RecoveryCell:
        """The cell with the slowest drain (ties: slowest settling)."""
        mine = [c for c in self.cells if c.topology == topology]
        return max(
            mine,
            key=lambda c: (c.metrics.time_to_drain, c.metrics.settling_time),
        )

    def ranking(self) -> List[Tuple[str, RecoveryCell]]:
        """Topologies best-first by worst-case time-to-drain."""
        worst = [(t, self.worst_case(t)) for t in self.topologies()]
        return sorted(
            worst,
            key=lambda tw: (
                tw[1].metrics.time_to_drain,
                tw[1].metrics.settling_time,
            ),
        )

    def format_table(self) -> str:
        lines = [
            f"Recovery transients over {len(self.cells)} scenario cells "
            "(cycles after repair; inf = never within the run):",
            f"{'topology':<14} {'workload':<14} {'scenario':<11} "
            f"{'drain':>7} {'settle':>7} {'failed':>6} {'retried':>7}",
        ]
        for c in self.cells:
            lines.append(
                f"{c.topology:<14} {c.workload:<14} {c.scenario:<11} "
                f"{c.metrics.time_to_drain:>7.0f} "
                f"{c.metrics.settling_time:>7.0f} "
                f"{c.failed:>6d} {c.retried:>7d}"
            )
        lines.append("")
        lines.append("Worst-case ranking (time-to-drain):")
        for rank, (name, c) in enumerate(self.ranking(), start=1):
            lines.append(
                f"{rank:>3} {name:<14} drain={c.metrics.time_to_drain:.0f} "
                f"settle={c.metrics.settling_time:.0f} "
                f"({c.workload} x {c.scenario})"
            )
        return "\n".join(lines)


def _write_artifacts(out_dir: str, result: RecoveryResult) -> None:
    """Per-cell JSON artifacts plus the grid-wide summary doc."""
    os.makedirs(out_dir, exist_ok=True)
    digest = config_hash(result.config)[:12]
    for cell in result.cells:
        doc = {"config": result.config, "cell": cell.as_dict()}
        name = (
            f"{cell.topology}-{cell.workload}-{cell.scenario}-{digest}.json"
        )
        write_json_artifact(os.path.join(out_dir, name.replace("/", "_")), doc)
    summary_doc = {
        "config": result.config,
        "ranking": [
            {"topology": t, "worst_case": c.as_dict()}
            for t, c in result.ranking()
        ],
        "cells": [c.as_dict() for c in result.cells],
    }
    for name in (f"summary-{digest}.json", "summary.json"):
        write_json_artifact(os.path.join(out_dir, name), summary_doc)


def recovery_grid(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    n_routers: int = 20,
    runner: Optional[Runner] = None,
    fast: bool = True,
    out_dir: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    tolerance: float = 0.25,
    seed: int = 0,
) -> RecoveryResult:
    """Measure recovery transients over the flap-scenario grid.

    Each cell is one windowed closed-loop run (the ``recovery`` task
    family — cached, fanned across workers).  The drain/settling metrics
    derive client-side from the cached window series, so ``tolerance``
    re-analysis never re-simulates.  JSON artifacts are written only
    when ``out_dir`` is given (``repro run recovery`` passes
    ``recovery-artifacts``).
    """
    retry = retry or DEFAULT_RETRY

    total, window = (1400, 50) if fast else (2400, 50)
    down, up = DOWN_CYCLE, UP_CYCLE

    with ensure_runner(runner) as runner:
        tables = [
            routed_table(expert_topology(name, n_routers), NDBT, runner=runner)
            for name in topologies
        ]
        profiles = [workload(w) for w in workloads]

        jobs: List[RecoveryJob] = []
        grid: List[Tuple[Any, Any, str, FaultSchedule]] = []
        for table in tables:
            topo = table.topology
            for profile in profiles:
                for s_label, schedule in _scenario_axis(topo, down, up):
                    grid.append((table, profile, s_label, schedule))
                    jobs.append(RecoveryJob(
                        table=table, workload=profile, faults=schedule,
                        retry=retry, total=total, window=window,
                        seed=seed,
                    ))
        window_series: List[List[WindowSample]] = runner.recoveries(jobs)

    cells: List[RecoveryCell] = []
    for (table, profile, s_label, schedule), samples in zip(
        grid, window_series
    ):
        fault_cycle, recovery_cycle = recovery_points(schedule)
        metrics = recovery_metrics(
            samples, fault_cycle, recovery_cycle, tolerance=tolerance,
        )
        cells.append(RecoveryCell(
            topology=table.topology.name,
            workload=profile.name,
            scenario=s_label,
            metrics=metrics,
            issued=sum(s.issued for s in samples),
            completed=sum(s.completed for s in samples),
            failed=sum(s.failed for s in samples),
            retried=sum(s.retried for s in samples),
        ))
    result = RecoveryResult(
        cells=cells,
        config={
            "topologies": list(topologies),
            "workloads": list(workloads),
            "n_routers": n_routers,
            "fast": fast,
            "total": total, "window": window,
            "down_cycle": down, "up_cycle": up,
            "retry": retry.as_dict(),
            "tolerance": tolerance,
            "seed": seed,
        },
    )
    if out_dir is not None:
        _write_artifacts(out_dir, result)
    return result
