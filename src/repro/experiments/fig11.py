"""Fig. 11: scalability — synthetic uniform traffic on 48-router (8x6) NoIs.

The paper scales the subset of expert topologies whose design rules
extend to 8x6 (Kite-Large does not — it needs an odd column count; LPBT
could not produce a connected graph) and finds NetSmith ahead by 18%,
56% and 67% saturation throughput for small/medium/large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..topology import standard_layout
from ..topology.layout import CLASS_CLOCK_GHZ
from .registry import roster, routed_entry

if TYPE_CHECKING:
    from ..runner import Runner

#: Families that scale to 8x6 per the paper's rules.
SCALABLE = ("Kite-Small", "FoldedTorus", "Kite-Medium", "ButterDonut",
            "DoubleButterfly", "NS-LatOp-small", "NS-LatOp-medium",
            "NS-LatOp-large")


@dataclass
class Fig11Point:
    name: str
    link_class: str
    saturation_packets_node_cycle: float

    @property
    def saturation_packets_node_ns(self) -> float:
        return self.saturation_packets_node_cycle * CLASS_CLOCK_GHZ[self.link_class]


@dataclass
class Fig11Result:
    points: List[Fig11Point]

    def ns_gain(self, link_class: str) -> float:
        """NS saturation / best competing expert saturation per class."""
        cls = [p for p in self.points if p.link_class == link_class]
        ns = [p.saturation_packets_node_ns for p in cls if p.name.startswith("NS-")]
        ex = [p.saturation_packets_node_ns for p in cls if not p.name.startswith("NS-")]
        if not ns or not ex or max(ex) == 0:
            return float("nan")
        return max(ns) / max(ex)


def fig11_points(
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
    n_routers: int = 48,
    warmup: int = 300,
    measure: int = 1000,
    seed: int = 0,
    runner: Optional["Runner"] = None,
) -> Fig11Result:
    """The frozen roster's :data:`SCALABLE` contenders at ``n_routers``.
    Each topology's whole saturation binary search is one runner
    task, fanned across workers and cached.  Every search's probes
    share one compiled network and are memoized by rate."""
    from ..runner import SaturationJob, TrafficSpec, ensure_runner

    layout = standard_layout(n_routers)
    cast = []
    with ensure_runner(runner) as runner:
        for cls in link_classes:
            for entry in roster(
                cls, n_routers, include_lpbt=False, include_scop=False,
                allow_generate=False,
            ):
                if entry.name == "Kite-Large" and n_routers == 48:
                    continue  # the paper could not scale Kite-Large to 8x6
                if entry.name not in SCALABLE:
                    continue
                cast.append(
                    (cls, entry, routed_entry(entry, seed=seed, runner=runner))
                )
        sats = runner.saturations([
            SaturationJob(
                table=table, traffic=TrafficSpec.uniform(layout.n),
                warmup=warmup, measure=measure, seed=seed,
            )
            for _, _, table in cast
        ])
    points = [
        Fig11Point(
            name=entry.name,
            link_class=cls,
            saturation_packets_node_cycle=sat,
        )
        for (cls, entry, _), sat in zip(cast, sats)
    ]
    return Fig11Result(points=points)
