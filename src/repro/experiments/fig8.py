"""Fig. 8: PARSEC execution-time speedup and packet-latency reduction.

Bars are speedup vs mesh, grouped small/medium/large; markers are packet
latency reduction vs mesh.  Expected shape: broad correlation between
latency reduction and speedup, sensitivity scaling with each benchmark's
L2 MPKI, and NetSmith always achieving the largest latency reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..fullsys import Figure8Row, geomean_speedups, parsec_sweep
from ..fullsys.workloads import PARSEC, WorkloadProfile
from ..routing import RoutingTable
from ..topology import expert_topology
from .registry import NDBT, roster, routed_entry, routed_table

if TYPE_CHECKING:
    from ..runner import Runner


@dataclass
class Fig8Result:
    rows: List[Figure8Row]
    geomean: Dict[str, float]

    def best_topology(self) -> str:
        return max(self.geomean, key=self.geomean.get)

    def netsmith_always_best_latency(self, tolerance: float = 0.02) -> bool:
        """Paper: NetSmith topologies always yield the highest latency
        reduction.  ``tolerance`` absorbs simulation noise between
        near-identical designs (the paper's own Kite-Small is within 1%
        of NS-small, so exact ties flip under different seeds)."""
        for row in self.rows:
            best = max(row.latency_reductions.values())
            ns_best = max(
                (v for k, v in row.latency_reductions.items() if k.startswith("NS-")),
                default=-1.0,
            )
            if ns_best < best - tolerance:
                return False
        return True


def fig8_results(
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
    workloads: Optional[List[WorkloadProfile]] = None,
    n_routers: int = 20,
    warmup: int = 500,
    measure: int = 2000,
    seed: int = 0,
    max_entries_per_class: Optional[int] = None,
    runner: Optional["Runner"] = None,
) -> Fig8Result:
    """The frozen roster of each link class (LPBT aside) against the
    mesh.  Every (benchmark, topology) closed-loop run fans out across
    the runner's workers and lands in its result cache."""
    from ..runner import ensure_runner

    with ensure_runner(runner) as runner:
        mesh_table = routed_table(
            expert_topology("Mesh", n_routers), NDBT, seed=seed, runner=runner
        )
        tables: Dict[str, RoutingTable] = {}
        for cls in link_classes:
            entries = roster(
                cls, n_routers, include_lpbt=False, allow_generate=False,
            )
            if max_entries_per_class is not None:
                # keep the best expert (Kite) and the NetSmith entries
                entries = [
                    e
                    for e in entries
                    if e.name.startswith(("NS-", "Kite", "FoldedTorus"))
                ][:max_entries_per_class]
            for e in entries:
                tables[e.name] = routed_entry(e, seed=seed, runner=runner)
        rows = parsec_sweep(
            tables,
            mesh_table,
            workloads=workloads or PARSEC,
            seed=seed,
            warmup=warmup,
            measure=measure,
            runner=runner,
        )
    return Fig8Result(rows=rows, geomean=geomean_speedups(rows))
