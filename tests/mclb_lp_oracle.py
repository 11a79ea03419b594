"""Fractional multi-path MCLB: the LP lower bound on single-path MCLB.

Relaxing :func:`repro.core.mclb.mclb_route`'s one-path-per-flow binaries
to shares in [0, 1] splits each flow's unit demand across its minimal
paths (the paper notes C4 "can be modified to accommodate" this).  The
relaxation is a pure LP, so it solves fast and exactly, and its optimum
bounds the MILP's maximum channel load from below.  Kept as a bound
oracle for the routing tests.  Test-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.milp import MINIMIZE, Model, quicksum
from repro.routing.paths import Path, PathSet, enumerate_shortest_paths
from repro.topology import Topology

Channel = Tuple[int, int]


@dataclass
class MultipathResult:
    """Per-(flow, path) shares and the LP's maximum channel load."""

    weights: Dict[Tuple[Tuple[int, int], Path], float]  # (flow, path) -> share
    max_channel_load: float
    status: str

    def channel_loads(self) -> Dict[Channel, float]:
        loads: Dict[Channel, float] = {}
        for (sd, p), w in self.weights.items():
            if w <= 0:
                continue
            for k in range(len(p) - 1):
                link = (p[k], p[k + 1])
                loads[link] = loads.get(link, 0.0) + w
        return loads


def mclb_route_multipath(
    topo: Topology,
    path_set: Optional[PathSet] = None,
    weights: Optional[np.ndarray] = None,
    time_limit: Optional[float] = 60.0,
    max_paths_per_pair: int = 64,
    min_share: float = 1e-6,
    **solve_kw,
) -> MultipathResult:
    """Optimal fractional multi-path MCLB over ``topo``'s minimal paths.

    Shares at or below ``min_share`` are reported as 0.
    """
    if path_set is None:
        path_set = enumerate_shortest_paths(topo, max_paths_per_pair=max_paths_per_pair)
    path_set.validate()

    model = Model(f"mclb-frac-{topo.name}", sense=MINIMIZE)
    share: Dict[Tuple[Tuple[int, int], Path], object] = {}
    per_channel: Dict[Channel, list] = {}
    for sd in path_set.pairs():
        w = 1.0 if weights is None else float(weights[sd[0], sd[1]])
        flow_vars = []
        for k, p in enumerate(path_set[sd]):
            v = model.add_var(f"f[{sd},{k}]", lb=0.0, ub=1.0)
            share[(sd, p)] = v
            flow_vars.append(v)
            if w > 0:
                for link in path_set.links_of(p):
                    per_channel.setdefault(link, []).append(w * v)
        model.add_constr(quicksum(flow_vars) == 1)
    ctotal = model.add_var("Ctotal", lb=0.0)
    for link, terms in per_channel.items():
        model.add_constr(ctotal >= quicksum(terms))
    model.set_objective(ctotal)
    res = model.solve(time_limit=time_limit, **solve_kw)
    if not res.ok:
        raise RuntimeError(f"fractional MCLB failed ({res.status})")
    out = {
        key: (res.value(v) if res.value(v) > min_share else 0.0)
        for key, v in share.items()
    }
    return MultipathResult(
        weights=out,
        max_channel_load=float(res.objective),
        status=res.status,
    )
