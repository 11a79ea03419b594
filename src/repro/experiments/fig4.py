"""Fig. 4: render an example latency-optimized medium topology with its
sparsest cut (the paper colors the two partitions and distinguishes
bidirectional from unidirectional links)."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pregenerated import netsmith_topology
from ..topology import CutResult, Topology, ascii_art, sparsest_cut


@dataclass
class Fig4Result:
    topology: Topology
    cut: CutResult
    rendering: str


def fig4_render(n_routers: int = 20) -> Fig4Result:
    """The frozen NS-LatOp-medium design at ``n_routers`` (``KeyError``
    when none is frozen at that size)."""
    topo = netsmith_topology("latop", "medium", n_routers, allow_generate=False)
    cut = sparsest_cut(topo)
    u, v = cut.partition
    art = ascii_art(topo)
    art += (
        f"\nsparsest cut value: {cut.value:.4f}"
        f"\npartition U (red): {u}"
        f"\npartition V (blue): {v}"
        f"\nbisection: {'yes' if len(u) == len(v) else 'no'}"
    )
    return Fig4Result(topology=topo, cut=cut, rendering=art)
