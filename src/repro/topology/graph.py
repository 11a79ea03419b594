"""The directed :class:`Topology` object all subsystems operate on.

Topologies are directed because NetSmith treats asymmetric links as
first-class (paper Section III-A(c)): the outgoing half of a full-duplex
link resource may terminate at a different router than the incoming half.
A symmetric topology is simply one whose adjacency matrix equals its
transpose.

Link-resource counting follows Table II's convention: the number of
*links* is the number of full-duplex resources, i.e. ``directed_links / 2``
(every router port pairs one outgoing and one incoming wire).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from . import csr as _csr
from .layout import Layout

INF = float("inf")


class Topology:
    """A directed interposer network topology bound to a physical layout."""

    def __init__(
        self,
        layout: Layout,
        links: Iterable[Tuple[int, int]],
        name: str = "topology",
        link_class: Optional[str] = None,
    ):
        self.layout = layout
        self.name = name
        self.link_class = link_class
        n = layout.n
        adj = np.zeros((n, n), dtype=bool)
        for i, j in links:
            if i == j:
                raise ValueError(f"self-link at router {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"link ({i},{j}) out of range")
            adj[i, j] = True
        self.adj = adj
        self._dist: Optional[np.ndarray] = None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._hop_stats: Optional[_csr.HopStats] = None

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_undirected(
        cls,
        layout: Layout,
        edges: Iterable[Tuple[int, int]],
        name: str = "topology",
        link_class: Optional[str] = None,
    ) -> "Topology":
        """Build a symmetric topology from undirected edges."""
        links = []
        for a, b in edges:
            links.append((a, b))
            links.append((b, a))
        return cls(layout, links, name=name, link_class=link_class)

    @classmethod
    def from_adjacency(
        cls,
        layout: Layout,
        adj: np.ndarray,
        name: str = "topology",
        link_class: Optional[str] = None,
    ) -> "Topology":
        t = cls(layout, [], name=name, link_class=link_class)
        a = np.asarray(adj, dtype=bool)
        if a.shape != (layout.n, layout.n):
            raise ValueError(f"adjacency shape {a.shape} != ({layout.n},{layout.n})")
        if a.diagonal().any():
            raise ValueError("self-links on diagonal")
        t.adj = a.copy()
        return t

    # -- basic properties ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def directed_links(self) -> List[Tuple[int, int]]:
        ii, jj = np.nonzero(self.adj)
        return list(zip(ii.tolist(), jj.tolist()))

    @property
    def num_directed_links(self) -> int:
        return int(self.adj.sum())

    @property
    def num_links(self) -> int:
        """Full-duplex link resources (Table II '# Links' convention)."""
        return self.num_directed_links // 2

    @property
    def is_symmetric(self) -> bool:
        return bool((self.adj == self.adj.T).all())

    def out_degree(self, i: Optional[int] = None):
        deg = self.adj.sum(axis=1)
        return int(deg[i]) if i is not None else deg.astype(int)

    def in_degree(self, i: Optional[int] = None):
        deg = self.adj.sum(axis=0)
        return int(deg[i]) if i is not None else deg.astype(int)

    def max_radix(self) -> int:
        """Largest per-router port usage (max of in/out degree over routers)."""
        if self.num_directed_links == 0:
            return 0
        return int(max(self.out_degree().max(), self.in_degree().max()))

    def neighbors_out(self, i: int) -> List[int]:
        return np.nonzero(self.adj[i])[0].tolist()

    def neighbors_in(self, j: int) -> List[int]:
        return np.nonzero(self.adj[:, j])[0].tolist()

    def has_link(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])

    # -- distances --------------------------------------------------------------------
    def hop_matrix(self) -> np.ndarray:
        """All-pairs minimum hop counts (``inf`` where unreachable).

        Materializes the dense n×n matrix; metric queries that only need
        aggregates should prefer :meth:`hop_stats`, which streams CSR
        BFS blocks and never allocates O(n²).
        """
        if self._dist is None:
            graph = csr_matrix(self.adj.astype(np.int8))
            self._dist = shortest_path(graph, method="D", unweighted=True)
        return self._dist

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(indptr, indices)`` CSR view of the adjacency."""
        if self._csr is None:
            self._csr = _csr.build_csr(self.adj)
        return self._csr

    def hop_stats(self) -> _csr.HopStats:
        """Cached all-pairs hop aggregates via CSR multi-source BFS."""
        if self._hop_stats is None:
            indptr, indices = self.csr()
            self._hop_stats = _csr.hop_stats(indptr, indices, self.n)
        return self._hop_stats

    def is_connected(self) -> bool:
        """Strong connectivity (every router reaches every other)."""
        if self._dist is not None:  # already paid for the dense matrix
            return bool(np.isfinite(self._dist).all())
        if self._hop_stats is not None:
            return self._hop_stats.connected
        indptr, indices = self.csr()
        rindptr, rindices = _csr.build_csr(self.adj.T)
        return _csr.is_strongly_connected(
            indptr, indices, rindptr, rindices, self.n
        )

    # -- mutation (returns new objects; Topology is conceptually immutable) ------------
    def with_link(self, i: int, j: int) -> "Topology":
        adj = self.adj.copy()
        adj[i, j] = True
        return Topology.from_adjacency(self.layout, adj, self.name, self.link_class)

    def without_link(self, i: int, j: int) -> "Topology":
        adj = self.adj.copy()
        adj[i, j] = False
        return Topology.from_adjacency(self.layout, adj, self.name, self.link_class)

    def reversed(self) -> "Topology":
        return Topology.from_adjacency(
            self.layout, self.adj.T, f"{self.name}-rev", self.link_class
        )

    # -- validation ----------------------------------------------------------------------
    def violations(
        self, radix: Optional[int] = None, link_class: Optional[str] = None
    ) -> List[str]:
        """Human-readable list of constraint violations (empty when valid)."""
        problems: List[str] = []
        if self.adj.diagonal().any():
            problems.append("self-links present")
        if radix is not None:
            out_bad = np.nonzero(self.out_degree() > radix)[0]
            in_bad = np.nonzero(self.in_degree() > radix)[0]
            for r in out_bad:
                problems.append(f"router {r} out-degree {self.out_degree(int(r))} > radix {radix}")
            for r in in_bad:
                problems.append(f"router {r} in-degree {self.in_degree(int(r))} > radix {radix}")
        cls = link_class or self.link_class
        if cls is not None:
            valid = set(self.layout.valid_links(cls))
            for i, j in self.directed_links:
                if (i, j) not in valid:
                    problems.append(
                        f"link ({i},{j}) spans {self.layout.span(i, j)}, "
                        f"exceeding class {cls!r}"
                    )
        if not self.is_connected():
            problems.append("not strongly connected")
        return problems

    def check(self, radix: Optional[int] = None, link_class: Optional[str] = None) -> None:
        problems = self.violations(radix=radix, link_class=link_class)
        if problems:
            raise ValueError(f"{self.name}: " + "; ".join(problems))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Topology({self.name!r}, {self.layout.rows}x{self.layout.cols}, "
            f"links={self.num_links})"
        )
