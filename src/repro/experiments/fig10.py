"""Fig. 10: shuffle traffic on shuffle-optimized topologies.

The cast of Fig. 6 plus "NS ShufOpt" per class, exercised with gem5's
shuffle permutation.  Expected: legacy and uniform-optimized NetSmith
topologies show varied behaviour; the ShufOpt topology outperforms all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.pregenerated import netsmith_topology
from ..sim import SweepResult
from ..topology import standard_layout
from .registry import MCLB, Entry, roster, routed_entry

if TYPE_CHECKING:
    from ..runner import Runner

DEFAULT_RATES = tuple(np.round(np.linspace(0.05, 0.8, 8), 3))


@dataclass
class Fig10Result:
    curves: Dict[str, SweepResult]

    def shufopt_wins(self, link_class: str) -> bool:
        """ShufOpt achieves the highest saturation in its class."""
        cls_curves = {
            n: c for n, c in self.curves.items() if c.link_class == link_class
        }
        if not cls_curves:
            return False
        best = max(cls_curves, key=lambda n: cls_curves[n].saturation_throughput_ns)
        return best.startswith("NS-ShufOpt")


def fig10_curves(
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
    n_routers: int = 20,
    rates: Optional[Sequence[float]] = None,
    warmup: int = 400,
    measure: int = 1500,
    seed: int = 0,
    runner: Optional["Runner"] = None,
) -> Fig10Result:
    """The frozen roster of each link class (LPBT aside) plus its frozen
    NS-ShufOpt design, where one exists.  Each routed topology compiles
    once and its sweep is trace-fed."""
    from ..runner import CurveJob, TrafficSpec, ensure_runner

    layout = standard_layout(n_routers)
    rates = tuple(rates or DEFAULT_RATES)
    cast = []
    with ensure_runner(runner) as runner:
        for cls in link_classes:
            entries = roster(
                cls, n_routers, include_lpbt=False, allow_generate=False,
            )
            try:
                entries.append(
                    Entry(
                        netsmith_topology(
                            "shufopt", cls, n_routers, allow_generate=False,
                        ),
                        MCLB,
                    )
                )
            except KeyError:
                pass
            cast.extend(
                (cls, entry, routed_entry(entry, seed=seed, runner=runner))
                for entry in entries
            )
        curves = runner.curves([
            CurveJob(
                table=table, traffic=TrafficSpec.shuffle(layout.n), rates=rates,
                name=entry.name, link_class=cls,
                warmup=warmup, measure=measure, seed=seed,
            )
            for cls, entry, table in cast
        ])
    return Fig10Result(
        curves={entry.name: c for (_, entry, _), c in zip(cast, curves)},
    )
