"""MCLB: MILP routing to minimize the maximum channel-load bottleneck
(paper Section III-D, Table III).

The formulation receives the statically enumerated set ``P`` of all
minimal paths per flow (paper: Floyd–Warshall, organized as P[s][d]) and
selects exactly one path per flow such that the maximum load over any
channel is minimized:

* O1 — minimize ``Ctotal >= cload[i][j]`` for every channel (the min-max
  trick; the equality half is unnecessary under minimization);
* C1 — ``cload[i][j] = sum of selected paths crossing (i,j)``;
* C4 — one path per flow (special-ordered-set equivalent: the binary
  path indicators of a flow sum to 1).

We use whole-path binaries directly; the paper's C2/C3 (``link_used`` /
``path_used`` products) exist only to *derive* path selection from its
four-dimensional ``flow_load`` primitive, and selecting paths directly is
the tighter equivalent — ``flow_load[s][d][i][j]`` is recovered as the
sum of selected paths of (s,d) crossing (i,j).  Demand weighting is
exposed as an option, mirroring the paper's remarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..milp import MINIMIZE, Model, quicksum
from ..routing.paths import Path, PathSet, enumerate_shortest_paths
from ..topology import Topology

Channel = Tuple[int, int]


@dataclass
class MCLBResult:
    """Selected routes plus solve diagnostics."""

    routes: PathSet
    max_channel_load: float
    status: str
    solve_time_s: float
    num_paths_considered: int


def mclb_route(
    topo: Topology,
    path_set: Optional[PathSet] = None,
    weights: Optional[np.ndarray] = None,
    time_limit: Optional[float] = 120.0,
    backend: str = "scipy",
    max_paths_per_pair: int = 64,
    **solve_kw,
) -> MCLBResult:
    """Select one minimal path per flow minimizing max channel load.

    ``weights[s, d]`` scales each flow's demand (uniform all-to-all when
    omitted).
    """
    if path_set is None:
        path_set = enumerate_shortest_paths(topo, max_paths_per_pair=max_paths_per_pair)
    path_set.validate()

    model = Model(f"mclb-{topo.name}", sense=MINIMIZE)
    # per-(flow, path) selection variables
    sel: Dict[Tuple[Tuple[int, int], int], object] = {}
    per_channel: Dict[Channel, list] = {}
    npaths = 0
    for sd in path_set.pairs():
        w = 1.0 if weights is None else float(weights[sd[0], sd[1]])
        plist = path_set[sd]
        flow_vars = []
        for k, p in enumerate(plist):
            v = model.add_binary(f"p[{sd},{k}]")
            sel[(sd, k)] = v
            flow_vars.append(v)
            npaths += 1
            if w > 0:
                for link in path_set.links_of(p):
                    per_channel.setdefault(link, []).append(w * v)
        # C4: single path per flow
        model.add_constr(quicksum(flow_vars) == 1, name=f"one_path[{sd}]")

    # O1 via min-max: ctotal >= cload for every channel (C1 folded in).
    ctotal = model.add_var("Ctotal", lb=0.0)
    for link, terms in per_channel.items():
        model.add_constr(ctotal >= quicksum(terms), name=f"cload[{link}]")
    model.set_objective(ctotal)

    res = model.solve(backend=backend, time_limit=time_limit, **solve_kw)
    if not res.ok:
        raise RuntimeError(f"MCLB solve failed ({res.status})")

    chosen: Dict[Tuple[int, int], List[Path]] = {}
    for sd in path_set.pairs():
        plist = path_set[sd]
        best = next(k for k in range(len(plist)) if res.value(sel[(sd, k)]) > 0.5)
        chosen[sd] = [plist[best]]

    routes = PathSet(topology=topo, paths=chosen)
    return MCLBResult(
        routes=routes,
        max_channel_load=float(res.objective),
        status=res.status,
        solve_time_s=res.solve_time_s,
        num_paths_considered=npaths,
    )
