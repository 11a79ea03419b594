"""Channel-load analysis and throughput bounds (paper II-D and Fig. 7).

Given a single-path route set under uniform all-to-all traffic, the load
on a channel is the number of flows crossing it.  The maximum channel
load yields the routed network's saturation bound: with every node
injecting ``x`` flits/cycle spread over its ``n-1`` flows, a channel
carrying ``f`` flows sees ``x * f / (n-1)`` flits/cycle of demand against
1 flit/cycle of capacity, so ``x_sat = (n-1) / max_load``.

The module also exposes the topology-level cut and occupancy bounds that
Fig. 7 plots as solid reference lines, re-exported from
:mod:`repro.topology.metrics` for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..topology import (
    Topology,
    cut_throughput_bound,
    occupancy_throughput_bound,
)
from .paths import PathSet

Channel = Tuple[int, int]


@dataclass
class LoadAnalysis:
    """Channel loads of a routed network under uniform traffic."""

    loads: Dict[Channel, int]
    max_load: int
    mean_load: float
    num_flows: int

    def saturation_injection(self, n_nodes: int) -> float:
        """Max-channel-load saturation bound, flits/node/cycle."""
        if self.max_load == 0:
            return float("inf")
        return (n_nodes - 1) / self.max_load


def channel_loads(routes: PathSet, weights: Optional[np.ndarray] = None) -> LoadAnalysis:
    """Per-channel flow counts for a single-path route set.

    ``weights[s, d]`` scales each flow's contribution (uniform all-to-all
    when omitted); fractional weights model non-uniform traffic such as
    the memory pattern.
    """
    loads: Dict[Channel, float] = {}
    nflows = 0
    for sd in routes.pairs():
        plist = routes[sd]
        if len(plist) != 1:
            raise ValueError(f"flow {sd} has {len(plist)} routes; expected one")
        w = 1.0 if weights is None else float(weights[sd[0], sd[1]])
        if w == 0.0:
            continue
        nflows += 1
        for link in routes.links_of(plist[0]):
            loads[link] = loads.get(link, 0.0) + w
    if not loads:
        return LoadAnalysis({}, 0, 0.0, 0)
    vals = np.array(list(loads.values()))
    int_loads = {k: int(round(v)) for k, v in loads.items()}
    return LoadAnalysis(
        loads=int_loads if weights is None else loads,  # type: ignore[arg-type]
        max_load=int(np.ceil(vals.max())),
        mean_load=float(vals.mean()),
        num_flows=nflows,
    )


@dataclass
class ThroughputBounds:
    """The three bounds of paper Section II-D for one routed topology."""

    cut_bound: float  # sparsest-cut bound (topology property)
    occupancy_bound: float  # shortest-path link-occupancy bound
    routed_bound: float  # max-channel-load bound of the actual routes

    @property
    def analytical(self) -> float:
        """The tighter of the two topology-level bounds."""
        return min(self.cut_bound, self.occupancy_bound)

    @property
    def binding(self) -> str:
        """Which topology bound binds (``"cut"`` or ``"occupancy"``)."""
        return "cut" if self.cut_bound <= self.occupancy_bound else "occupancy"


def throughput_bounds(topo: Topology, routes: PathSet) -> ThroughputBounds:
    """All saturation bounds, flits/node/cycle (Fig. 7's reference lines)."""
    analysis = channel_loads(routes)
    return ThroughputBounds(
        cut_bound=cut_throughput_bound(topo),
        occupancy_bound=occupancy_throughput_bound(topo),
        routed_bound=analysis.saturation_injection(topo.n),
    )
