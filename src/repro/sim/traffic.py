"""Synthetic traffic patterns (Garnet Synthetic Traffic equivalents).

Patterns used in the paper's evaluation:

* **uniform random** ("coherence traffic", Fig. 6a): destinations uniform
  over all other routers;
* **memory traffic** (Fig. 6b): destinations uniform over the
  memory-controller routers (outer columns) — the hot-spot pattern whose
  "true contention" binds tighter than the sparsest cut;
* **shuffle** (Fig. 10): ``dest = 2*src`` (low half) or
  ``(2*src + 1) mod n`` (high half), the gem5 pattern NetSmith's ShufOpt
  variant optimizes for.

Bit complement, transpose, tornado, neighbor and a hotspot mixture round
out ``repro simulate --traffic`` and the robustness grid.  Control
(1 flit) and data (9 flit) packets are injected with equal likelihood.

A pattern is a :class:`TrafficSpec`: frozen pure data, so it pickles into
worker processes and its :meth:`TrafficSpec.as_dict` doc is part of every
simulation task's cache key.  Its destination law is a :class:`DestSpec`,
built once per spec by its kind's function in :data:`TRAFFIC_KINDS`.
Every engine draws from that spec: :class:`~repro.sim.trace.TraceStream`
pre-generates the fast engine's injection traces, turbo's
:func:`~repro.sim.trace.pregenerate_batch` draws whole lanes, and the
closed loop replays its draws from raw words.  The per-packet scalar
laws the reference oracles call live in ``tests/traffic_oracle.py``: they
are the independent definition every DestSpec must match.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any, ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from ..topology import Layout
from .burst import BurstSpec


@dataclass
class DestSpec:
    """Vectorizable description of a destination distribution.

    ``kind`` selects the draw recipe (matching the scalar laws exactly,
    including RNG consumption):

    * ``"table"`` — deterministic permutations: ``dst = table[src]``,
      no RNG draws;
    * ``"uniform"`` — ``d = integers(n-1)``; ``d if d < src else d+1``;
    * ``"memory"`` — ``d = integers(bounds[src])``;
      ``dst = table[src, d]`` (per-src candidate rows, right-padded);
    * ``"hotspot"`` — one ``random()`` hot/uniform decision, then a
      ``"memory"``-style draw over the hotspot row (``bounds[src] == 0``
      falls through to the uniform recipe, consuming one draw either
      way).
    """

    kind: str
    table: Optional[np.ndarray] = None
    bounds: Optional[np.ndarray] = None
    hot_fraction: float = 0.0

    def min_int_bound(self, n_nodes: int) -> int:
        """Smallest ``integers()`` bound any destination draw can use.

        The trace generator's fully vectorized path requires every
        reachable bound to be ``>= 2``: numpy's ``integers(1)`` returns
        0 *without consuming a draw*, which breaks constant-per-packet
        stream accounting (those patterns take the scalar-emulation
        path instead).
        """
        if self.kind == "table":
            return 1 << 32  # no integer draws at all
        if self.kind == "uniform":
            return n_nodes - 1
        if self.kind == "memory":
            return int(self.bounds.min())
        # hotspot: hot rows with candidates, or the uniform fallthrough
        reachable = [n_nodes - 1]
        nonzero = self.bounds[self.bounds > 0]
        if nonzero.size:
            reachable.append(int(nonzero.min()))
        return min(reachable)


@dataclass(frozen=True)
class TrafficSpec:
    """A synthetic traffic pattern as pure data.

    ``kind`` names the destination law, a key of :data:`TRAFFIC_KINDS`.
    Uniform, shuffle and bit-complement traffic read ``n_nodes``; memory,
    transpose, tornado and neighbor traffic read the ``rows`` x ``cols``
    grid; hotspot traffic reads ``n_nodes``, ``hotspots`` and
    ``hot_fraction``.  ``burst`` optionally modulates injection
    (:mod:`repro.sim.burst`): its gates scale the per-cycle injection
    threshold from a dedicated RNG chain, so the destination and size
    draws are unchanged and bursty patterns stay bit-identical across
    engines.

    Construction validates the fields, so a bad pattern is refused before
    any engine runs.
    """

    kind: str
    n_nodes: int = 0
    rows: int = 0
    cols: int = 0
    hotspots: Tuple[int, ...] = ()
    hot_fraction: float = 0.5
    burst: Optional[BurstSpec] = None

    #: Probability that a packet is a data packet (else control).
    data_fraction: ClassVar[float] = 0.5

    def __post_init__(self):
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind {self.kind!r}: expected one of "
                f"{', '.join(TRAFFIC_KINDS)}"
            )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be within [0, 1], got {self.hot_fraction!r}"
            )
        if self.kind == "hotspot":
            if len(self.hotspots) == 0:
                raise ValueError(
                    "hotspot traffic must name at least one router "
                    "(got an empty sequence)"
                )
            bad = [h for h in self.hotspots if not 0 <= h < self.n_nodes]
            if bad:
                raise ValueError(
                    f"hotspot routers {bad} outside [0, {self.n_nodes})"
                )

    @property
    def n_routers(self) -> int:
        """The router count this pattern is sized for: ``rows * cols``
        for the grid kinds, ``n_nodes`` for the others."""
        if self.kind in GRID_KINDS:
            return self.rows * self.cols
        return self.n_nodes

    @cached_property
    def dest_spec(self) -> DestSpec:
        """The destination law as arrays, built on first use."""
        return TRAFFIC_KINDS[self.kind](self)

    def dest_spec_for(self, n_routers: int) -> DestSpec:
        """:attr:`dest_spec`, refused (``ValueError``) unless the
        pattern is sized for a network of ``n_routers`` routers.  Both
        open-loop engines' traces take their destination law here."""
        if self.n_routers != n_routers:
            raise ValueError(
                f"{self.kind} traffic is sized for {self.n_routers} "
                f"routers, but the network has {n_routers}"
            )
        return self.dest_spec

    def with_burst(self, burst: Optional[BurstSpec]) -> "TrafficSpec":
        """This pattern modulated by ``burst`` (``None``: stationary)."""
        return dataclasses.replace(self, burst=burst)

    # -- constructors --------------------------------------------------------
    @classmethod
    def uniform(cls, n_nodes: int) -> "TrafficSpec":
        """Uniform all-to-all (the paper's coherence traffic)."""
        return cls("uniform", n_nodes=n_nodes)

    @classmethod
    def memory(cls, layout: Layout) -> "TrafficSpec":
        """All nodes to uniformly-chosen memory-controller routers."""
        return cls("memory", rows=layout.rows, cols=layout.cols)

    @classmethod
    def shuffle(cls, n_nodes: int) -> "TrafficSpec":
        """gem5's shuffle permutation (paper Section V-E)."""
        return cls("shuffle", n_nodes=n_nodes)

    @classmethod
    def bit_complement(cls, n_nodes: int) -> "TrafficSpec":
        """Garnet's bit-complement permutation: ``dest = n-1-src``."""
        return cls("bit_complement", n_nodes=n_nodes)

    @classmethod
    def transpose(cls, layout: Layout) -> "TrafficSpec":
        """Matrix transpose ``(x, y) -> (y, x)``; on non-square grids
        out-of-range transposes wrap modulo the grid, as in Garnet."""
        return cls("transpose", rows=layout.rows, cols=layout.cols)

    @classmethod
    def tornado(cls, layout: Layout) -> "TrafficSpec":
        """Half-way around the row ring: the classic adversary for
        ring-like topologies (stresses long horizontal paths)."""
        return cls("tornado", rows=layout.rows, cols=layout.cols)

    @classmethod
    def neighbor(cls, layout: Layout) -> "TrafficSpec":
        """East neighbor with wraparound: the best case for meshes, and
        it exposes topologies that sacrificed local links."""
        return cls("neighbor", rows=layout.rows, cols=layout.cols)

    @classmethod
    def hotspot(
        cls, n_nodes: int, hotspots: Sequence[int], hot_fraction: float = 0.5
    ) -> "TrafficSpec":
        """``hot_fraction`` of traffic to the ``hotspots`` routers, the
        rest uniform (a general-purpose stress pattern)."""
        return cls(
            "hotspot",
            n_nodes=n_nodes,
            hotspots=tuple(sorted(hotspots)),
            hot_fraction=hot_fraction,
        )

    # -- (de)serialization ---------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "n_nodes": self.n_nodes,
            "rows": self.rows,
            "cols": self.cols,
            "hotspots": list(self.hotspots),
            "hot_fraction": self.hot_fraction,
            "burst": None if self.burst is None else list(self.burst.key()),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TrafficSpec":
        burst = doc["burst"]
        return cls(
            kind=doc["kind"],
            n_nodes=doc["n_nodes"],
            rows=doc["rows"],
            cols=doc["cols"],
            hotspots=tuple(doc["hotspots"]),
            hot_fraction=doc["hot_fraction"],
            burst=None if burst is None else BurstSpec(*burst),
        )


# ---------------------------------------------------------------------------
# DestSpec constructors, one per kind.
# ---------------------------------------------------------------------------

def _choice_rows(candidates: np.ndarray, n_nodes: int):
    """Per-src candidate rows (right-padded) + per-src bounds."""
    rows = [candidates[candidates != s] for s in range(n_nodes)]
    bounds = np.array([r.size for r in rows], dtype=np.int64)
    width = max(1, int(bounds.max()))
    table = np.zeros((n_nodes, width), dtype=np.int64)
    for s, r in enumerate(rows):
        table[s, : r.size] = r
    return table, bounds


def _permutation(dst: np.ndarray) -> DestSpec:
    """A table spec, each self-mapping moved on to the next router."""
    n = dst.size
    src = np.arange(n, dtype=np.int64)
    return DestSpec("table", table=np.where(dst == src, (dst + 1) % n, dst))


def _grid_xy(spec: TrafficSpec):
    """Every router's ``(x, y)`` grid coordinates, row-major as in
    :class:`~repro.topology.Layout`."""
    src = np.arange(spec.rows * spec.cols, dtype=np.int64)
    return src % spec.cols, src // spec.cols


def _uniform(spec: TrafficSpec) -> DestSpec:
    return DestSpec("uniform")


def _memory(spec: TrafficSpec) -> DestSpec:
    layout = Layout(rows=spec.rows, cols=spec.cols)
    table, bounds = _choice_rows(np.array(layout.mc_routers()), layout.n)
    return DestSpec("memory", table=table, bounds=bounds)


def _shuffle(spec: TrafficSpec) -> DestSpec:
    n = spec.n_nodes
    src = np.arange(n, dtype=np.int64)
    return _permutation(np.where(src < n // 2, 2 * src, (2 * src + 1) % n))


def _bit_complement(spec: TrafficSpec) -> DestSpec:
    return _permutation(
        spec.n_nodes - 1 - np.arange(spec.n_nodes, dtype=np.int64)
    )


def _transpose(spec: TrafficSpec) -> DestSpec:
    x, y = _grid_xy(spec)
    return _permutation((x % spec.rows) * spec.cols + y % spec.cols)


def _tornado(spec: TrafficSpec) -> DestSpec:
    x, y = _grid_xy(spec)
    cols = spec.cols
    return _permutation(y * cols + (x + cols // 2) % cols)


def _neighbor(spec: TrafficSpec) -> DestSpec:
    x, y = _grid_xy(spec)
    return DestSpec("table", table=y * spec.cols + (x + 1) % spec.cols)


def _hotspot(spec: TrafficSpec) -> DestSpec:
    table, bounds = _choice_rows(np.array(sorted(spec.hotspots)), spec.n_nodes)
    return DestSpec(
        "hotspot", table=table, bounds=bounds, hot_fraction=spec.hot_fraction
    )


#: Every traffic kind with the function that makes its :class:`DestSpec`, in
#: ``repro simulate --traffic`` order.
TRAFFIC_KINDS = {
    "uniform": _uniform,
    "memory": _memory,
    "shuffle": _shuffle,
    "bit_complement": _bit_complement,
    "transpose": _transpose,
    "tornado": _tornado,
    "neighbor": _neighbor,
    "hotspot": _hotspot,
}

#: The kinds defined on the router grid: they read ``rows`` x ``cols``,
#: every other kind reads ``n_nodes``.
GRID_KINDS = ("memory", "transpose", "tornado", "neighbor")

# The pattern constructors under their library names.
uniform_random = TrafficSpec.uniform
memory_traffic = TrafficSpec.memory
shuffle_pattern = TrafficSpec.shuffle
bit_complement = TrafficSpec.bit_complement
transpose = TrafficSpec.transpose
tornado = TrafficSpec.tornado
neighbor = TrafficSpec.neighbor
hotspot = TrafficSpec.hotspot
