"""Fig. 1: latency vs expected saturation throughput scatter.

Each topology is one point: Y = average hop count (the low-load latency
proxy of Section II-C), X = the saturation-throughput bound of its routed
configuration (the tighter of the cut/occupancy bounds, adjusted by the
actual routing's maximum channel load — Section II-D).  NetSmith points
should dominate toward the bottom-right, with Kite-Small the one expert
design on the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..routing import throughput_bounds
from ..topology import average_hops
from .registry import roster, routed_entries

if TYPE_CHECKING:
    from ..runner import Runner


@dataclass
class Fig1Point:
    name: str
    link_class: str
    is_netsmith: bool
    avg_hops: float
    saturation_bound: float  # flits/node/cycle
    routed_bound: float


def fig1_points(
    n_routers: int = 20,
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
    seed: int = 0,
    runner: Optional["Runner"] = None,
) -> List[Fig1Point]:
    """One point per contender of the frozen roster.  With a
    :class:`~repro.runner.Runner`, table compilations (the MCLB LP
    solves dominating this figure) fan out and cache as ``routing``
    tasks; reruns skip routing entirely."""
    points: List[Fig1Point] = []
    for cls in link_classes:
        entries = roster(cls, n_routers, allow_generate=False)
        tables = routed_entries(entries, seed=seed, runner=runner)
        for entry, table in zip(entries, tables):
            routes_max = 0
            # rebuild route set from the table for load analysis
            from ..routing.paths import PathSet

            paths = {}
            n = entry.topology.n
            for s in range(n):
                for d in range(n):
                    if s != d:
                        paths[(s, d)] = [table.route_of(s, d)]
            routes = PathSet(topology=entry.topology, paths=paths)
            bounds = throughput_bounds(entry.topology, routes)
            points.append(
                Fig1Point(
                    name=entry.name,
                    link_class=cls,
                    is_netsmith=entry.name.startswith("NS-"),
                    avg_hops=average_hops(entry.topology),
                    saturation_bound=min(bounds.analytical, bounds.routed_bound),
                    routed_bound=bounds.routed_bound,
                )
            )
    return points


def pareto_front(points: List[Fig1Point]) -> List[Fig1Point]:
    """Non-dominated points (lower hops, higher throughput)."""
    front = []
    for p in points:
        dominated = any(
            q.avg_hops <= p.avg_hops
            and q.saturation_bound >= p.saturation_bound
            and (q.avg_hops < p.avg_hops or q.saturation_bound > p.saturation_bound)
            for q in points
        )
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: p.avg_hops)
