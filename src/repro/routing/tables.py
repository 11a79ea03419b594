"""Table-based routing state for the simulator (paper II-E).

``RoutingTable`` is the deployable artifact NetSmith emits: for every
(current router, destination) it stores the next hop and, per flow, the
assigned VC layer.  Built from a single-path :class:`PathSet` plus a
:class:`VCAssignment`.

``CSRRoutingTable`` is its sparse sibling for large networks: next hops
live in CSR ``indptr``/``indices`` arrays keyed by ``(node, dst)`` —
valid whenever routing is *destination-consistent* (the hop at a router
depends only on the destination, true for every per-destination-tree
policy such as ``bfs`` and for fault-survivor BFS re-routes).  The two
forms round-trip losslessly (:meth:`CSRRoutingTable.from_table` /
:meth:`~CSRRoutingTable.to_table`), and the fast engine compiles either
directly (the CSR form without the dense per-(node, src, dst)
intermediate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..topology import Topology
from .paths import Path, PathSet
from .vc_alloc import VCAssignment


@dataclass
class RoutingTable:
    """Deterministic per-flow table routing with VC assignment."""

    topology: Topology
    next_hop: Dict[Tuple[int, int, int], int]  # (node, src, dst) -> next node
    flow_vc: Dict[Tuple[int, int], int]  # (src, dst) -> vc layer
    num_vcs: int

    def hop(self, node: int, src: int, dst: int) -> int:
        """Next router for a packet of flow (src, dst) at ``node``."""
        return self.next_hop[(node, src, dst)]

    def vc(self, src: int, dst: int) -> int:
        return self.flow_vc[(src, dst)]

    def route_of(self, src: int, dst: int) -> Path:
        """Reconstruct the full path of a flow from the table."""
        path = [src]
        node = src
        while node != dst:
            node = self.hop(node, src, dst)
            path.append(node)
            if len(path) > self.topology.n + 1:
                raise RuntimeError(f"routing loop for flow ({src},{dst})")
        return tuple(path)

    def validate(self) -> None:
        """Every flow must reach its destination over existing links."""
        n = self.topology.n
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                p = self.route_of(s, d)
                for k in range(len(p) - 1):
                    if not self.topology.has_link(p[k], p[k + 1]):
                        raise AssertionError(
                            f"table routes flow ({s},{d}) over missing link "
                            f"({p[k]},{p[k+1]})"
                        )


class CSRRoutingTable:
    """Destination-keyed sparse routing table (``indptr``/``indices``).

    Flat key ``node * n + dst`` indexes ``indptr``; the (at most one)
    next hop of that pair lives in ``indices[indptr[k]:indptr[k+1]]``.
    Per-flow VC layers and flow liveness are flat n² arrays.  Valid only
    for destination-consistent routing — :meth:`from_table` refuses
    tables where two flows to one destination diverge at a shared
    router.  Implements the same duck-typed surface as
    :class:`RoutingTable` (``hop``/``vc``/``route_of``/``validate``,
    ``topology``, ``num_vcs``); the ``dest_keyed`` attribute is what
    consumers dispatch on.
    """

    dest_keyed = True

    def __init__(
        self,
        topology: Topology,
        indptr: np.ndarray,
        indices: np.ndarray,
        flow_vc: np.ndarray,
        flow_mask: np.ndarray,
        num_vcs: int,
    ):
        n = topology.n
        if indptr.shape != (n * n + 1,):
            raise ValueError(f"indptr shape {indptr.shape} != ({n * n + 1},)")
        self.topology = topology
        self.indptr = indptr
        self.indices = indices
        self.flow_vc = flow_vc
        self.flow_mask = flow_mask
        self.num_vcs = int(num_vcs)

    # -- construction -------------------------------------------------
    @classmethod
    def from_hops(
        cls,
        topology: Topology,
        next_dst: np.ndarray,
        flow_vc: np.ndarray,
        flow_mask: np.ndarray,
        num_vcs: int,
    ) -> "CSRRoutingTable":
        """From a flat ``(node*n + dst) -> next hop`` array (-1 absent)."""
        n = topology.n
        next_dst = np.asarray(next_dst, dtype=np.int64).reshape(n * n)
        present = next_dst >= 0
        indptr = np.zeros(n * n + 1, dtype=np.int64)
        np.cumsum(present.astype(np.int64), out=indptr[1:])
        return cls(
            topology=topology,
            indptr=indptr,
            indices=next_dst[present],
            flow_vc=np.asarray(flow_vc, dtype=np.int64).reshape(n * n),
            flow_mask=np.asarray(flow_mask, dtype=bool).reshape(n * n),
            num_vcs=num_vcs,
        )

    @classmethod
    def from_table(cls, table: RoutingTable) -> "CSRRoutingTable":
        """Sparse form of a dict table; raises if not dest-consistent."""
        topo = table.topology
        n = topo.n
        next_dst = np.full(n * n, -1, dtype=np.int64)
        for (node, src, dst), hop in table.next_hop.items():
            k = node * n + dst
            known = next_dst[k]
            if known >= 0 and known != hop:
                raise ValueError(
                    f"table is not destination-consistent: router {node} "
                    f"sends dst {dst} to both {known} and {hop} depending "
                    "on source"
                )
            next_dst[k] = hop
        flow_vc = np.zeros(n * n, dtype=np.int64)
        flow_mask = np.zeros(n * n, dtype=bool)
        for (src, dst), vc in table.flow_vc.items():
            flow_vc[src * n + dst] = vc
            flow_mask[src * n + dst] = True
        return cls.from_hops(topo, next_dst, flow_vc, flow_mask, table.num_vcs)

    def to_table(self) -> RoutingTable:
        """Lossless dict form: walk every flow through the hop arrays.

        Dict tables only carry entries on actual flow paths, so walking
        each live flow from its source reconstructs ``next_hop`` and
        ``flow_vc`` exactly as :func:`build_routing_table` would have
        emitted them for the same routes.
        """
        n = self.topology.n
        next_hop: Dict[Tuple[int, int, int], int] = {}
        flow_vc: Dict[Tuple[int, int], int] = {}
        for k in np.nonzero(self.flow_mask)[0].tolist():
            src, dst = divmod(k, n)
            node = src
            while node != dst:
                nxt = self.hop(node, src, dst)
                next_hop[(node, src, dst)] = nxt
                node = nxt
                if len(next_hop) > n * n * n:  # pragma: no cover
                    raise RuntimeError(f"routing loop for flow ({src},{dst})")
            flow_vc[(src, dst)] = int(self.flow_vc[k])
        return RoutingTable(
            topology=self.topology,
            next_hop=next_hop,
            flow_vc=flow_vc,
            num_vcs=self.num_vcs,
        )

    # -- RoutingTable surface -----------------------------------------
    def next_matrix(self) -> np.ndarray:
        """Flat ``node*n + dst -> next hop`` int64 array (-1 = absent)."""
        n = self.topology.n
        out = np.full(n * n, -1, dtype=np.int64)
        counts = np.diff(self.indptr)
        out[counts > 0] = self.indices
        return out

    def hop(self, node: int, src: int, dst: int) -> int:
        """Next router for a packet of flow (src, dst) at ``node``."""
        k = node * self.topology.n + dst
        lo, hi = int(self.indptr[k]), int(self.indptr[k + 1])
        if lo == hi:
            raise KeyError((node, src, dst))
        return int(self.indices[lo])

    def vc(self, src: int, dst: int) -> int:
        k = src * self.topology.n + dst
        if not self.flow_mask[k]:
            raise KeyError((src, dst))
        return int(self.flow_vc[k])

    def route_of(self, src: int, dst: int) -> Path:
        """Reconstruct the full path of a flow from the table."""
        path = [src]
        node = src
        while node != dst:
            node = self.hop(node, src, dst)
            path.append(node)
            if len(path) > self.topology.n + 1:
                raise RuntimeError(f"routing loop for flow ({src},{dst})")
        return tuple(path)

    def validate(self) -> None:
        """Every flow must reach its destination over existing links."""
        n = self.topology.n
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                p = self.route_of(s, d)
                for k in range(len(p) - 1):
                    if not self.topology.has_link(p[k], p[k + 1]):
                        raise AssertionError(
                            f"table routes flow ({s},{d}) over missing link "
                            f"({p[k]},{p[k+1]})"
                        )


def build_routing_table(
    routes: PathSet, vca: Optional[VCAssignment] = None
) -> RoutingTable:
    """Compile a single-path route set (+ VC assignment) into a table."""
    next_hop: Dict[Tuple[int, int, int], int] = {}
    flow_vc: Dict[Tuple[int, int], int] = {}
    for sd in routes.pairs():
        plist = routes[sd]
        if len(plist) != 1:
            raise ValueError(f"flow {sd} has {len(plist)} routes; expected one")
        p = plist[0]
        s, d = sd
        for k in range(len(p) - 1):
            next_hop[(p[k], s, d)] = p[k + 1]
        flow_vc[sd] = vca.vc_of(s, d) if vca is not None else 0
    num_vcs = vca.num_vcs if vca is not None else 1
    return RoutingTable(
        topology=routes.topology,
        next_hop=next_hop,
        flow_vc=flow_vc,
        num_vcs=num_vcs,
    )
