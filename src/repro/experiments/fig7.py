"""Fig. 7: isolating NetSmith's topology vs routing benefits.

Large topologies only (as in the paper): each is evaluated under both
NDBT and MCLB routing, reporting measured saturation throughput alongside
the analytical cut-based and occupancy-based bounds.  Expected findings:

* MCLB improves every topology over NDBT;
* MCLB approaches the tighter bound — cut-based for expert topologies,
  occupancy-based for NetSmith's;
* even with MCLB, expert topologies stay below NetSmith's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..routing import throughput_bounds
from ..routing.paths import PathSet
from ..topology import standard_layout
from .registry import MCLB, NDBT, Entry, roster, routed_table

if TYPE_CHECKING:
    from ..runner import Runner


@dataclass
class Fig7Bar:
    topology: str
    routing: str
    measured_saturation: float  # packets/node/cycle
    cut_bound: float  # flits/node/cycle
    occupancy_bound: float
    routed_bound: float

    @property
    def binding_bound(self) -> str:
        return "cut" if self.cut_bound <= self.occupancy_bound else "occupancy"


def fig7_bars(
    link_class: str = "large",
    n_routers: int = 20,
    warmup: int = 300,
    measure: int = 1000,
    seed: int = 0,
    allow_generate: bool = True,
    runner: Optional["Runner"] = None,
) -> List[Fig7Bar]:
    from ..runner import SaturationJob, TrafficSpec, ensure_runner

    layout = standard_layout(n_routers)
    cast = []
    with ensure_runner(runner) as runner:
        for entry in roster(
            link_class, n_routers, include_lpbt=False,
            allow_generate=allow_generate, runner=runner,
        ):
            for policy in (NDBT, MCLB):
                if entry.name.startswith("NS-") and policy == NDBT:
                    continue  # paper: NetSmith employs MCLB routing only
                table = routed_table(
                    entry.topology, policy, seed=seed, runner=runner
                )
                paths = {}
                for s in range(layout.n):
                    for d in range(layout.n):
                        if s != d:
                            paths[(s, d)] = [table.route_of(s, d)]
                routes = PathSet(topology=entry.topology, paths=paths)
                bounds = throughput_bounds(entry.topology, routes)
                cast.append((entry, policy, table, bounds))
        sats = runner.saturations([
            SaturationJob(
                table=table, traffic=TrafficSpec.uniform(layout.n),
                name=f"{entry.name}/{policy}",
                warmup=warmup, measure=measure, seed=seed,
            )
            for entry, policy, table, _ in cast
        ])
    return [
        Fig7Bar(
            topology=entry.name,
            routing=policy,
            measured_saturation=sat,
            cut_bound=bounds.cut_bound,
            occupancy_bound=bounds.occupancy_bound,
            routed_bound=bounds.routed_bound,
        )
        for (entry, policy, _, bounds), sat in zip(cast, sats)
    ]


def mclb_gain_summary(bars: List[Fig7Bar]) -> Dict[str, float]:
    """Measured MCLB/NDBT saturation ratio per expert topology."""
    by_topo: Dict[str, Dict[str, float]] = {}
    for b in bars:
        by_topo.setdefault(b.topology, {})[b.routing] = b.measured_saturation
    return {
        t: v[MCLB] / v[NDBT]
        for t, v in by_topo.items()
        if NDBT in v and MCLB in v and v[NDBT] > 0
    }
