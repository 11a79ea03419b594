"""Scalar per-packet traffic laws: the test-only reference for traffic.

Each synthetic kind's destination law as a closure ``dest(src, rng)``
making plain ``Generator`` calls, plus the packet-size law.  The
reference simulators (``network_oracle.py``, ``closedloop_oracle.py``)
and the trace tests draw from these one packet at a time.  They read a
:class:`~repro.sim.traffic.TrafficSpec`'s fields, never its
:class:`~repro.sim.traffic.DestSpec`, so they stay an independent
definition that the DestSpecs, the traces and the engines are
diffed against.
"""

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.sim.packet import CONTROL_FLITS, DATA_FLITS
from repro.sim.traffic import TrafficSpec
from repro.topology import Layout

DestFn = Callable[[int, np.random.Generator], int]


def uniform_random(n_nodes: int) -> DestFn:
    """Uniform all-to-all (the paper's coherence traffic)."""

    def dest(src: int, rng: np.random.Generator) -> int:
        d = int(rng.integers(n_nodes - 1))
        return d if d < src else d + 1

    return dest


def memory_traffic(layout: Layout) -> DestFn:
    """All nodes to uniformly-chosen memory-controller routers (hot spot)."""
    mcs = layout.mc_routers()
    mcs_arr = np.array(mcs)

    def dest(src: int, rng: np.random.Generator) -> int:
        choices = mcs_arr[mcs_arr != src]
        return int(choices[rng.integers(choices.size)])

    return dest


def shuffle_pattern(n_nodes: int) -> DestFn:
    """gem5's shuffle permutation (paper Section V-E)."""

    def dest(src: int, rng: np.random.Generator) -> int:
        if src < n_nodes // 2:
            d = 2 * src
        else:
            d = (2 * src + 1) % n_nodes
        # permutation may map a node to itself only if n is degenerate
        return d if d != src else (d + 1) % n_nodes

    return dest


def bit_complement(n_nodes: int) -> DestFn:
    """Garnet's bit-complement permutation: ``dest = n-1-src``."""

    def dest(src: int, rng: np.random.Generator) -> int:
        d = n_nodes - 1 - src
        return d if d != src else (d + 1) % n_nodes

    return dest


def transpose(layout: Layout) -> DestFn:
    """Matrix-transpose pattern: (x, y) -> (y, x), clipped to the grid.

    On non-square grids out-of-range transposes wrap modulo the grid —
    the standard generalization used by Garnet for rectangular meshes.
    """
    n = layout.n

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = layout.position(src)
        d = layout.router_at(y % layout.cols, x % layout.rows)
        return d if d != src else (d + 1) % n

    return dest


def tornado(layout: Layout) -> DestFn:
    """Tornado: half-way around the row ring — the classic adversary for
    ring-like topologies (stresses long horizontal paths)."""
    n = layout.n

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = layout.position(src)
        d = layout.router_at((x + layout.cols // 2) % layout.cols, y)
        return d if d != src else (d + 1) % n

    return dest


def neighbor(layout: Layout) -> DestFn:
    """Nearest-neighbor: east neighbor with wraparound (best case for
    meshes; exposes topologies that sacrificed local links)."""

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = layout.position(src)
        return layout.router_at((x + 1) % layout.cols, y)

    return dest


def hotspot(
    n_nodes: int, hotspots: Sequence[int], hot_fraction: float = 0.5
) -> DestFn:
    """Mixture: ``hot_fraction`` of traffic to the given hotspot routers,
    the rest uniform (general-purpose stress pattern)."""
    hot = np.array(sorted(hotspots))

    def dest(src: int, rng: np.random.Generator) -> int:
        if rng.random() < hot_fraction:
            choices = hot[hot != src]
            if choices.size:
                return int(choices[rng.integers(choices.size)])
        d = int(rng.integers(n_nodes - 1))
        return d if d < src else d + 1

    return dest


def _grid(spec: TrafficSpec) -> Layout:
    return Layout(rows=spec.rows, cols=spec.cols)


#: Each kind's closure, built from a spec's fields.
DEST_FNS = {
    "uniform": lambda s: uniform_random(s.n_nodes),
    "memory": lambda s: memory_traffic(_grid(s)),
    "shuffle": lambda s: shuffle_pattern(s.n_nodes),
    "bit_complement": lambda s: bit_complement(s.n_nodes),
    "transpose": lambda s: transpose(_grid(s)),
    "tornado": lambda s: tornado(_grid(s)),
    "neighbor": lambda s: neighbor(_grid(s)),
    "hotspot": lambda s: hotspot(s.n_nodes, s.hotspots, s.hot_fraction),
}


@lru_cache(maxsize=64)
def dest_fn(spec: TrafficSpec) -> DestFn:
    """The destination closure of ``spec`` (built once per spec)."""
    return DEST_FNS[spec.kind](spec)


def destination(spec: TrafficSpec, src: int, rng: np.random.Generator) -> int:
    """One destination for a packet from ``src``."""
    return dest_fn(spec)(src, rng)


def packet_size(spec: TrafficSpec, rng: np.random.Generator) -> int:
    """One packet's size in flits: data with ``spec.data_fraction``."""
    return DATA_FLITS if rng.random() < spec.data_fraction else CONTROL_FLITS
