"""Fig. 6: synthetic-traffic latency/throughput curves, 20-router NoIs.

Panel (a) is uniform-random ("coherence") traffic; panel (b) is memory
traffic, where the MC-column hot spots saturate every topology earlier.
Each topology is swept at its link-class clock and reported in absolute
packets/node/ns, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim import SweepResult
from ..topology import standard_layout
from .registry import roster, routed_entry

if TYPE_CHECKING:
    from ..runner import Runner

DEFAULT_RATES = tuple(np.round(np.linspace(0.02, 0.40, 9), 3))
MEMORY_RATES = tuple(np.round(np.linspace(0.01, 0.16, 7), 3))


@dataclass
class Fig6Result:
    traffic: str
    curves: Dict[str, SweepResult]

    def saturation_ranking(self) -> List[Tuple[str, float]]:
        """(name, saturation throughput packets/node/ns), best first."""
        pairs = [
            (name, c.saturation_throughput_ns) for name, c in self.curves.items()
        ]
        return sorted(pairs, key=lambda p: -p[1])

    def best_netsmith_vs_best_expert(self) -> float:
        """Saturation-throughput ratio NS/expert (paper: 1.18x-1.75x)."""
        ns = [v for n, v in self.saturation_ranking() if n.startswith("NS-")]
        ex = [v for n, v in self.saturation_ranking() if not n.startswith("NS-")]
        if not ns or not ex or max(ex) == 0:
            return float("nan")
        return max(ns) / max(ex)


def fig6_curves(
    traffic_kind: str = "coherence",
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
    n_routers: int = 20,
    rates: Optional[Sequence[float]] = None,
    warmup: int = 400,
    measure: int = 1500,
    seed: int = 0,
    runner: Optional["Runner"] = None,
) -> Fig6Result:
    """The frozen roster of each link class, one curve per contender.
    Every (topology, rate) sim point fans out across the runner's
    workers and lands in its result cache.  Each routed topology
    compiles once per curve (per worker, when fanned out) and traffic is
    pre-generated as vectorized traces."""
    from ..runner import CurveJob, TrafficSpec, ensure_runner

    layout = standard_layout(n_routers)
    if traffic_kind == "coherence":
        spec = TrafficSpec.uniform(layout.n)
        rates = tuple(rates or DEFAULT_RATES)
    elif traffic_kind == "memory":
        spec = TrafficSpec.memory(layout)
        rates = tuple(rates or MEMORY_RATES)
    else:
        raise ValueError(f"traffic_kind must be coherence/memory, got {traffic_kind!r}")

    with ensure_runner(runner) as runner:
        cast = [
            (cls, entry, routed_entry(entry, seed=seed, runner=runner))
            for cls in link_classes
            for entry in roster(cls, n_routers, allow_generate=False)
        ]
        jobs = [
            CurveJob(
                table=table, traffic=spec, rates=rates, name=entry.name,
                link_class=cls, warmup=warmup, measure=measure, seed=seed,
            )
            for cls, entry, table in cast
        ]
        curves = runner.curves(jobs)
    return Fig6Result(
        traffic=traffic_kind,
        curves={entry.name: c for (_, entry, _), c in zip(cast, curves)},
    )
