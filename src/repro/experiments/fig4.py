"""Fig. 4: render an example latency-optimized medium topology with its
sparsest cut (the paper colors the two partitions and distinguishes
bidirectional from unidirectional links)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.pregenerated import netsmith_topology
from ..topology import CutResult, Topology, ascii_art, sparsest_cut

if TYPE_CHECKING:
    from ..runner import Runner


@dataclass
class Fig4Result:
    topology: Topology
    cut: CutResult
    rendering: str


def fig4_render(
    n_routers: int = 20,
    allow_generate: bool = True,
    runner: Optional["Runner"] = None,
) -> Fig4Result:
    """A runner routes any live-generation fallback through the cached
    ``generation`` stage (frozen configurations never solve)."""
    topo = netsmith_topology(
        "latop", "medium", n_routers, allow_generate, runner=runner
    )
    cut = sparsest_cut(topo, exact=n_routers <= 22)
    u, v = cut.partition
    art = ascii_art(topo)
    art += (
        f"\nsparsest cut value: {cut.value:.4f}"
        f"\npartition U (red): {u}"
        f"\npartition V (blue): {v}"
        f"\nbisection: {'yes' if len(u) == len(v) else 'no'}"
    )
    return Fig4Result(topology=topo, cut=cut, rendering=art)
