"""Shortest-path enumeration (the static input to MCLB, paper III-D).

The set of all minimal paths between every source and destination is
computed from the topology: a BFS-distance pass builds the shortest-path
DAG toward each destination, then paths are enumerated by DFS over DAG
predecessors.  Pair path counts are bounded (``max_paths_per_pair``) with
deterministic selection so MCLB model sizes stay controlled; on the
paper's 20-to-84-router instances the cap is rarely hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..topology import Topology

Path = Tuple[int, ...]


@dataclass
class PathSet:
    """All candidate minimal routes, grouped per (source, destination)."""

    topology: Topology
    paths: Dict[Tuple[int, int], List[Path]] = field(default_factory=dict)

    def __getitem__(self, sd: Tuple[int, int]) -> List[Path]:
        return self.paths[sd]

    def pairs(self) -> List[Tuple[int, int]]:
        return sorted(self.paths)

    @property
    def total_paths(self) -> int:
        return sum(len(v) for v in self.paths.values())

    def flat(self) -> List[Tuple[Tuple[int, int], Path]]:
        """The paper's flat list P, tagged with its flow."""
        out = []
        for sd in self.pairs():
            for p in self.paths[sd]:
                out.append((sd, p))
        return out

    def links_of(self, path: Path) -> List[Tuple[int, int]]:
        return [(path[k], path[k + 1]) for k in range(len(path) - 1)]

    def validate(self) -> None:
        """Check every stored path is a genuine minimal route."""
        dist = self.topology.hop_matrix()
        for (s, d), plist in self.paths.items():
            if not plist:
                raise ValueError(f"no path stored for flow {s}->{d}")
            for p in plist:
                if p[0] != s or p[-1] != d:
                    raise ValueError(f"path {p} does not connect {s}->{d}")
                if len(p) - 1 != int(dist[s, d]):
                    raise ValueError(f"path {p} is not minimal for {s}->{d}")
                for a, b in self.links_of(p):
                    if not self.topology.has_link(a, b):
                        raise ValueError(f"path {p} uses missing link ({a},{b})")


def enumerate_shortest_paths(
    topo: Topology, max_paths_per_pair: int = 64
) -> PathSet:
    """All minimal paths for every ordered pair (Floyd–Warshall distances
    + DFS over the shortest-path DAG)."""
    dist = topo.hop_matrix()
    if not np.isfinite(dist).all():
        raise ValueError(f"{topo.name}: disconnected; cannot enumerate paths")
    n = topo.n
    out: Dict[Tuple[int, int], List[Path]] = {}
    # successor lists: next hops u->v on some shortest path to d
    for d in range(n):
        for s in range(n):
            if s == d:
                continue
            paths: List[Path] = []
            stack: List[List[int]] = [[s]]
            while stack and len(paths) < max_paths_per_pair:
                prefix = stack.pop()
                u = prefix[-1]
                if u == d:
                    paths.append(tuple(prefix))
                    continue
                # deterministic order for reproducibility
                for v in topo.neighbors_out(u):
                    if dist[u, d] == dist[v, d] + 1:
                        stack.append(prefix + [v])
            paths.sort()
            out[(s, d)] = paths
    return PathSet(topology=topo, paths=out)


def single_shortest_paths(topo: Topology, seed: int = 0) -> PathSet:
    """One uniformly random minimal path per pair (the paper's "random
    selection of paths amongst the valid choices")."""
    full = enumerate_shortest_paths(topo)
    rng = np.random.default_rng(seed)
    picked = {
        sd: [plist[int(rng.integers(len(plist)))]] for sd, plist in full.paths.items()
    }
    return PathSet(topology=topo, paths=picked)
