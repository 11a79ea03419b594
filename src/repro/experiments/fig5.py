"""Fig. 5: solver progress — objective-bounds gap vs time.

The paper's qualitative findings to reproduce:

* smaller link-length limits converge faster (small < medium < large);
* larger systems shift the same ordering to longer absolute times;
* even plateaued gaps correspond to topologies already beating experts.

Full-scale curves (20/30/48 routers, paper Fig. 5a-c) are expensive; the
default benchmark configuration records curves on reduced instances with
the same structure (the ordering is scale-invariant), and the full 4x5
curves can be produced with ``full_scale=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.netsmith import NetSmithConfig
from ..core.progress import GapCurve
from ..topology import LAYOUT_4X5, Layout

if TYPE_CHECKING:
    from ..runner import Runner


@dataclass
class Fig5Result:
    curves: Dict[str, GapCurve]

    def convergence_order(self) -> List[str]:
        """Classes ordered by time to reach (or final) gap — the paper's
        small < medium < large finding."""

        def key(label: str) -> Tuple[float, float]:
            c = self.curves[label]
            t10 = c.time_to_gap(0.10)
            return (t10 if t10 is not None else float("inf"), c.final_gap())

        return sorted(self.curves, key=key)


def fig5_curves(
    layout: Optional[Layout] = None,
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
    time_limit: float = 20.0,
    backend: str = "bnb",
    full_scale: bool = False,
    diameter_bound: int = 5,
    runner: Optional["Runner"] = None,
) -> Fig5Result:
    """Gap-vs-time curves per link class.

    Default is a reduced 3x4 instance so the benchmark finishes in
    seconds; ``full_scale=True`` uses the paper's 4x5 (minutes).  Each
    recording is one cached ``gap_curve`` task: the per-class solves
    fan across the runner's workers, and a rerun (or the report)
    replays the curves without re-solving.
    """
    from ..runner import ensure_runner, tasks as runner_tasks

    if layout is None:
        layout = LAYOUT_4X5 if full_scale else Layout(rows=3, cols=4)
    labels = [f"{cls}" for cls in link_classes]
    configs = [
        NetSmithConfig(layout=layout, link_class=cls, diameter_bound=diameter_bound)
        for cls in link_classes
    ]
    ladder = (time_limit / 8, time_limit / 4, time_limit / 2, time_limit)
    payloads = [
        runner_tasks.gap_curve_payload(
            cfg, time_limit, label, mode=backend,
            time_points=None if backend == "bnb" else ladder,
        )
        for cfg, label in zip(configs, labels)
    ]
    with ensure_runner(runner) as runner:
        recorded = runner.run_tasks("gap_curve", payloads)
    return Fig5Result(curves=dict(zip(labels, recorded)))
