"""Synthetic traffic generators (Garnet Synthetic Traffic equivalents).

Patterns used in the paper's evaluation:

* **uniform random** ("coherence traffic", Fig. 6a): destinations uniform
  over all other routers;
* **memory traffic** (Fig. 6b): destinations uniform over the
  memory-controller routers (outer columns) — the hot-spot pattern whose
  "true contention" binds tighter than the sparsest cut;
* **shuffle** (Fig. 10): ``dest = 2*src`` (low half) or
  ``(2*src + 1) mod n`` (high half), the gem5 pattern NetSmith's ShufOpt
  variant optimizes for.

Control (1 flit) and data (9 flit) packets are injected with equal
likelihood.  Generators draw from an explicit ``numpy`` RNG for
reproducibility.

Every pattern carries a :class:`DestSpec` — a pure-data description of
its destination distribution that the vectorized paths consume:
:meth:`TrafficPattern.destinations` draws many destinations in one batch
(bit-identical values *and* stream consumption to the scalar
:meth:`TrafficPattern.destination` loop), :mod:`repro.sim.trace`
pre-generates whole injection traces from it without any per-packet
Python calls, and the fast closed-loop engine replays its draws from raw
words.  The spec is required: a pattern without one is rejected at
construction, so no consumer keeps a second, scalar generation path.
The scalar ``dest_fn`` closure stays the definition the reference
oracle (``tests/network_oracle.py``) calls and the spec must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..topology import Layout
from .burst import BurstSpec
from .packet import CONTROL_FLITS, DATA_FLITS
from .rngstream import (
    doubles_from_raw,
    get_half_cache,
    halves_consumed,
    lemire32,
    set_half_cache,
    take_raw,
)


@dataclass
class DestSpec:
    """Vectorizable description of a destination distribution.

    ``kind`` selects the draw recipe (matching the scalar closures
    exactly, including RNG consumption):

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


@dataclass
class TrafficPattern:
    """A destination distribution plus the packet-size mix."""

    name: str
    n_nodes: int
    dest_fn: Callable[[int, np.random.Generator], int]
    data_fraction: float = 0.5
    #: Required: ``dest_fn``'s law in vectorizable form (checked in
    #: ``__post_init__``; the ``None`` default only lets the field keep
    #: its keyword position after the defaulted ones).
    dest_spec: Optional[DestSpec] = None
    #: Optional on/off modulation (:mod:`repro.sim.burst`).  Gates scale
    #: the per-cycle injection threshold from a dedicated RNG chain; the
    #: destination/size draw stream is unchanged, so bursty patterns stay
    #: bit-identical across engines and through :class:`~repro.sim.trace.
    #: TraceStream`.
    burst: Optional[BurstSpec] = None

    def __post_init__(self):
        if not isinstance(self.dest_spec, DestSpec):
            raise ValueError(
                f"traffic pattern {self.name!r} has no DestSpec: the fast "
                f"engines and trace generation draw destinations from it, "
                f"so pass dest_spec=DestSpec(...) describing dest_fn's law"
            )

    def with_burst(self, spec: Optional[BurstSpec]) -> "TrafficPattern":
        """A copy of this pattern modulated by ``spec``."""
        import dataclasses

        return dataclasses.replace(self, burst=spec)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        return self.dest_fn(src, rng)

    def destinations(
        self, srcs: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Destinations for a batch of sources in one vectorized pass.

        Bit-identical to ``[destination(s, rng) for s in srcs]`` — same
        values *and* the same final RNG stream position — so scalar and
        batched consumers can interleave freely.  Degenerate bounds that
        numpy special-cases (and the rare Lemire rejection) take the
        scalar loop.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        spec = self.dest_spec
        if srcs.size == 0:
            return np.empty(0, dtype=np.int64)
        if spec.kind == "table":
            return spec.table[srcs]
        if spec.kind == "uniform":
            d = rng.integers(self.n_nodes - 1, size=srcs.size)
            return d + (d >= srcs)
        if spec.kind == "memory":
            bounds = spec.bounds[srcs]
            if (bounds <= 1).any():
                return self._scalar_destinations(srcs, rng)
            vals = _lemire_batch(rng, bounds)
            if vals is None:
                return self._scalar_destinations(srcs, rng)
            return spec.table[srcs, vals]
        if spec.kind == "hotspot":
            return self._hotspot_destinations(spec, srcs, rng)
        raise ValueError(f"unknown dest spec kind {spec.kind!r}")

    def _scalar_destinations(
        self, srcs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.array(
            [int(self.dest_fn(int(s), rng)) for s in srcs], dtype=np.int64
        )

    def _hotspot_destinations(
        self, spec: DestSpec, srcs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = self.n_nodes
        hot_bounds = spec.bounds[srcs]
        if n - 1 < 2 or (hot_bounds == 1).any():
            return self._scalar_destinations(srcs, rng)
        k = srcs.size
        state0 = rng.bit_generator.state
        has, cached = get_half_cache(rng)
        fresh = k + halves_consumed(k, int(has))
        u = take_raw(rng, fresh)
        # Per element: one double (a fresh word), then one bounded draw
        # (a half-word).  Word position of element i's double:
        idx = np.arange(k)
        dpos = idx + (idx + 1 - int(has)) // 2
        hot = doubles_from_raw(u[dpos]) < spec.hot_fraction
        eff_hot = hot & (hot_bounds > 0)
        bounds = np.where(eff_hot, hot_bounds, n - 1)
        # Only every other element consumes a fresh word for its bounded
        # draw (the alternating one whose half-word cache is empty).
        consumes = ((idx + int(has)) % 2) == 0
        halves, leftover = _halfword_sequence(
            u[(dpos + 1)[consumes]], int(has), cached, k
        )
        vals, reject = lemire32(halves, bounds)
        if reject.any():
            rng.bit_generator.state = state0
            return self._scalar_destinations(srcs, rng)
        hot_dst = spec.table[srcs, np.where(eff_hot, vals, 0)]
        uni_dst = vals + (vals >= srcs)
        set_half_cache(rng, leftover is not None, leftover or 0)
        return np.where(eff_hot, hot_dst, uni_dst)

    def packet_size(self, rng: np.random.Generator) -> int:
        return DATA_FLITS if rng.random() < self.data_fraction else CONTROL_FLITS

    def demand_matrix(self) -> np.ndarray:
        """Expected flow weights W[s,d] (rows sum to 1) for analysis."""
        n = self.n_nodes
        w = np.zeros((n, n))
        probe = np.random.default_rng(12345)
        samples = 400
        for s in range(n):
            for _ in range(samples):
                w[s, self.dest_fn(s, probe)] += 1.0 / samples
        return w


def _halfword_sequence(int_words, has, cached, k):
    """The first ``k`` half-words served to bounded draws.

    ``int_words`` are the fresh words consumed *by the integer draws*,
    in order.  The half-word sequence is the pending cached high half
    (if ``has``) followed by low/high pairs of each fresh word.  Returns
    ``(halves[:k], leftover)`` where ``leftover`` is the high half left
    pending afterwards (or None).
    """
    seq = np.empty(has + 2 * int_words.size, dtype=np.uint64)
    if has:
        seq[0] = cached
    seq[has::2] = int_words & np.uint64(0xFFFFFFFF)
    seq[has + 1 :: 2] = int_words >> np.uint64(32)
    leftover = int(seq[k]) if seq.size > k else None
    return seq[:k], leftover


def _lemire_batch(rng, bounds) -> Optional[np.ndarray]:
    """Batched ``[integers(b) for b in bounds]`` (all bounds >= 2).

    Returns None if any draw would hit numpy's one-in-billions Lemire
    rejection — the caller re-runs the scalar path from the untouched
    generator state.
    """
    k = len(bounds)
    state0 = rng.bit_generator.state
    has, cached = get_half_cache(rng)
    u = take_raw(rng, halves_consumed(k, int(has)))
    halves, leftover = _halfword_sequence(u, int(has), cached, k)
    vals, reject = lemire32(halves, bounds)
    if reject.any():
        rng.bit_generator.state = state0
        return None
    set_half_cache(rng, leftover is not None, leftover or 0)
    return vals


def _dest_table(dest, n_nodes: int) -> np.ndarray:
    """Tabulate a deterministic (RNG-free) destination closure."""
    return np.array([dest(s, None) for s in range(n_nodes)], dtype=np.int64)


def _choice_rows(candidates: np.ndarray, n_nodes: int):
    """Per-src candidate rows (right-padded) + per-src bounds."""
    rows = [candidates[candidates != s] for s in range(n_nodes)]
    bounds = np.array([r.size for r in rows], dtype=np.int64)
    width = max(1, int(bounds.max()))
    table = np.zeros((n_nodes, width), dtype=np.int64)
    for s, r in enumerate(rows):
        table[s, : r.size] = r
    return table, bounds


def uniform_random(n_nodes: int) -> TrafficPattern:
    """Uniform all-to-all (the paper's coherence traffic)."""

    def dest(src: int, rng: np.random.Generator) -> int:
        d = int(rng.integers(n_nodes - 1))
        return d if d < src else d + 1

    return TrafficPattern(
        "uniform_random", n_nodes, dest, dest_spec=DestSpec("uniform")
    )


def memory_traffic(layout: Layout) -> TrafficPattern:
    """All nodes to uniformly-chosen memory-controller routers (hot spot)."""
    mcs = layout.mc_routers()
    mcs_arr = np.array(mcs)

    def dest(src: int, rng: np.random.Generator) -> int:
        choices = mcs_arr[mcs_arr != src]
        return int(choices[rng.integers(choices.size)])

    table, bounds = _choice_rows(mcs_arr, layout.n)
    return TrafficPattern(
        "memory", layout.n, dest,
        dest_spec=DestSpec("memory", table=table, bounds=bounds),
    )


def shuffle_pattern(n_nodes: int) -> TrafficPattern:
    """gem5's shuffle permutation (paper Section V-E)."""

    def dest(src: int, rng: np.random.Generator) -> int:
        if src < n_nodes // 2:
            d = 2 * src
        else:
            d = (2 * src + 1) % n_nodes
        # permutation may map a node to itself only if n is degenerate
        return d if d != src else (d + 1) % n_nodes

    return TrafficPattern(
        "shuffle", n_nodes, dest,
        dest_spec=DestSpec("table", table=_dest_table(dest, n_nodes)),
    )


def bit_complement(n_nodes: int) -> TrafficPattern:
    """Garnet's bit-complement permutation: ``dest = n-1-src``."""

    def dest(src: int, rng: np.random.Generator) -> int:
        d = n_nodes - 1 - src
        return d if d != src else (d + 1) % n_nodes

    return TrafficPattern(
        "bit_complement", n_nodes, dest,
        dest_spec=DestSpec("table", table=_dest_table(dest, n_nodes)),
    )


def transpose(layout: Layout) -> TrafficPattern:
    """Matrix-transpose pattern: (x, y) -> (y, x), clipped to the grid.

    On non-square grids out-of-range transposes wrap modulo the grid —
    the standard generalization used by Garnet for rectangular meshes.
    """
    n = layout.n

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = layout.position(src)
        d = layout.router_at(y % layout.cols, x % layout.rows)
        return d if d != src else (d + 1) % n

    return TrafficPattern(
        "transpose", n, dest,
        dest_spec=DestSpec("table", table=_dest_table(dest, n)),
    )


def tornado(layout: Layout) -> TrafficPattern:
    """Tornado: half-way around the row ring — the classic adversary for
    ring-like topologies (stresses long horizontal paths)."""
    n = layout.n

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = layout.position(src)
        d = layout.router_at((x + layout.cols // 2) % layout.cols, y)
        return d if d != src else (d + 1) % n

    return TrafficPattern(
        "tornado", n, dest,
        dest_spec=DestSpec("table", table=_dest_table(dest, n)),
    )


def neighbor(layout: Layout) -> TrafficPattern:
    """Nearest-neighbor: east neighbor with wraparound (best case for
    meshes; exposes topologies that sacrificed local links)."""
    n = layout.n

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = layout.position(src)
        return layout.router_at((x + 1) % layout.cols, y)

    return TrafficPattern(
        "neighbor", n, dest,
        dest_spec=DestSpec("table", table=_dest_table(dest, n)),
    )


def hotspot(n_nodes: int, hotspots: Sequence[int], hot_fraction: float = 0.5) -> TrafficPattern:
    """Mixture: ``hot_fraction`` of traffic to the given hotspot routers,
    the rest uniform (general-purpose stress pattern)."""
    if len(hotspots) == 0:
        raise ValueError(
            "hotspot(): hotspots must name at least one router "
            "(got an empty sequence)"
        )
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(
            f"hotspot(): hot_fraction must be within [0, 1], "
            f"got {hot_fraction!r}"
        )
    hot = np.array(sorted(hotspots))

    def dest(src: int, rng: np.random.Generator) -> int:
        if rng.random() < hot_fraction:
            choices = hot[hot != src]
            if choices.size:
                return int(choices[rng.integers(choices.size)])
        d = int(rng.integers(n_nodes - 1))
        return d if d < src else d + 1

    table, bounds = _choice_rows(hot, n_nodes)
    return TrafficPattern(
        "hotspot", n_nodes, dest,
        dest_spec=DestSpec(
            "hotspot", table=table, bounds=bounds, hot_fraction=hot_fraction
        ),
    )
