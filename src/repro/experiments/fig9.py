"""Fig. 9: NoI power and area relative to mesh (DSENT-substitute model).

Expected findings: leakage roughly flat across topologies (same router
count/radix); dynamic power varying with aggregate wire length and clock
— large NetSmith topologies ~17% lower dynamic power than their small
counterparts; wire area dominating router area; all NoIs a small
fraction of interposer area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..power import PowerArea, analyze
from ..topology import expert_topology
from .registry import roster


@dataclass
class Fig9Row:
    name: str
    link_class: str
    normalized: Dict[str, float]
    raw: PowerArea


def fig9_rows(
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
    n_routers: int = 20,
    activity: float = 0.3,
) -> List[Fig9Row]:
    """Power and area of each frozen-roster contender (LPBT aside),
    normalized to the mesh's."""
    base = analyze(expert_topology("Mesh", n_routers), activity=activity)
    rows: List[Fig9Row] = []
    for cls in link_classes:
        for entry in roster(
            cls, n_routers, include_lpbt=False, allow_generate=False,
        ):
            pa = analyze(entry.topology, activity=activity)
            rows.append(
                Fig9Row(
                    name=entry.name,
                    link_class=cls,
                    normalized=pa.normalized_to(base),
                    raw=pa,
                )
            )
    return rows


def ns_large_vs_small_dynamic(rows: List[Fig9Row]) -> float:
    """Dynamic-power ratio NS-LatOp-large / NS-LatOp-small (paper ~0.83)."""
    by_name = {r.name: r for r in rows}
    small = by_name.get("NS-LatOp-small")
    large = by_name.get("NS-LatOp-large")
    if small is None or large is None:
        return float("nan")
    return large.raw.dynamic_power_mw / small.raw.dynamic_power_mw
