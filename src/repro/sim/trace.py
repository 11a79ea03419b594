"""Vectorized traffic traces: pre-generated injection event streams.

The reference simulator's (the test-only oracle
``tests/network_oracle.py``) per-cycle generation makes one scalar
``destination`` closure call and one scalar ``rng.random()`` size draw
per packet — the RNG-bound work PR 2's engine identified as the sweep
hot path's ceiling.  :class:`TraceStream` removes it: injection events
``(cycle, src, dst, size)`` are pre-generated in large numpy chunks from
**raw 64-bit PCG64 words** (:mod:`repro.sim.rngstream`), replicating the
reference engine's exact draw order so the fast engine's statistics stay
bit-identical to the oracle:

* per cycle, ``n`` Bernoulli doubles (the reference's ``rng.random(n)``);
* per winning node, in ascending node order, the pattern's destination
  draws and one packet-size double, interleaved exactly as the scalar
  wrappers interleave them.

Two generation paths share one buffered raw-word stream:

* the **vectorized path** (every reachable ``integers`` bound ``>= 2``;
  any rate without burst modulation, sub-unit effective rates with it)
  exploits constant per-packet word consumption: a cheap per-cycle
  prefix-sum walk pins each cycle's buffer offset, then all packets
  (each node's whole part plus its Bernoulli winner), destination draws
  (Lemire-32 with half-word cache arithmetic), and size draws of a
  whole chunk resolve as array ops;
* the **scalar-emulation path** (burst-modulated rates that can reach
  1, degenerate bounds, or the one-in-billions Lemire rejection the
  vectorized path detects and defers to) walks the same buffer with
  plain Python integer arithmetic — still far cheaper than per-packet
  Generator calls.

Both read the pattern's :class:`~repro.sim.traffic.DestSpec`, which
every :class:`~repro.sim.traffic.TrafficPattern` carries, so a trace is
the fast open-loop engine's only generation path.

A trace owns its Generator outright: it may pre-draw past the cycles
consumed so far, which is invisible to the simulation (generation is the
only RNG consumer in both engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .packet import CONTROL_FLITS, DATA_FLITS
from .rngstream import (
    DOUBLE_SCALE,
    doubles_from_raw,
    lemire32,
    lemire32_scalar,
    take_raw,
)
from .traffic import TrafficPattern

#: Cycles generated per chunk, at most.  Large enough to amortize the
#: numpy pass; the fast engine's ``run`` also stops each chunk at the
#: run's last cycle, so a run generates no cycle it does not simulate.
TRACE_CHUNK_CYCLES = 2048

_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

#: One chunk of injection events: (end_cycle, cycles, srcs, dsts, sizes)
#: with events sorted by (cycle, src) — the reference injection order —
#: covering every cycle in [previous end, end_cycle).
TraceChunk = Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class TraceStream:
    """Pre-generated injection events for one (pattern, rate, seed) run.

    Destinations follow the pattern's :class:`~repro.sim.traffic.
    DestSpec`, which every :class:`TrafficPattern` carries.
    """

    def __init__(
        self,
        traffic: TrafficPattern,
        n_nodes: int,
        rate: float,
        rng: np.random.Generator,
        chunk_cycles: int = TRACE_CHUNK_CYCLES,
    ):
        spec = traffic.dest_spec
        if rate <= 0:
            raise ValueError("TraceStream requires a positive injection rate")
        self.spec = spec
        self.n = n_nodes
        self.rate = float(rate)
        self.whole = int(self.rate)
        self.frac = self.rate - self.whole
        self.dfrac = traffic.data_fraction
        self.rng = rng
        self.chunk_cycles = int(chunk_cycles)
        self.next_cycle = 0
        # Buffered raw words + the bit generator's half-word cache state
        # (tracked here: all consumption goes through this buffer).
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._cache_has = 0
        self._cache_val = 0
        kind = spec.kind
        self._has_int = kind != "table"
        self._extra_dbl = 2 if kind == "hotspot" else 1  # non-Bernoulli doubles/packet
        # Burst gates come from a dedicated chain (deterministic from
        # cycle 0), so they never touch this raw-word buffer.
        self._burst = (
            traffic.burst.state(n_nodes) if traffic.burst is not None else None
        )
        self._vec_ok = (
            not self._has_int or spec.min_int_bound(n_nodes) >= 2
        ) and (
            traffic.burst is None
            or (self.whole == 0 and self.rate * traffic.burst.max_scale < 1.0)
        )
        # Scalar-path lookup lists (built lazily on first use).
        self._scalar_tables: Optional[tuple] = None

    # -- buffer management ---------------------------------------------------
    def _ensure(self, words: int) -> None:
        avail = self._buf.size - self._pos
        if avail >= words:
            return
        fresh = take_raw(self.rng, max(words - avail, 4096))
        if avail > 0:
            self._buf = np.concatenate([self._buf[self._pos :], fresh])
        else:
            self._buf = fresh
        self._pos = 0

    # -- public API ----------------------------------------------------------
    def next_chunk(self, max_cycles: Optional[int] = None) -> TraceChunk:
        """Generate the next chunk of cycles: at least one, at most
        ``chunk_cycles`` and, when given, at most ``max_cycles``."""
        C = self.chunk_cycles
        if max_cycles is not None:
            C = min(C, max_cycles)
        if self._vec_ok:
            out = self._chunk_vectorized(C)
            if out is not None:
                return out
            # A Lemire rejection was detected: nothing was committed, so
            # the scalar emulation below replays the same words exactly.
        return self._chunk_scalar(C)

    # -- vectorized generation -----------------------------------------------
    def _chunk_vectorized(self, C: int) -> Optional[TraceChunk]:
        n = self.n
        spec = self.spec
        frac = self.frac
        extra = self._extra_dbl
        has_int = self._has_int
        # Every node emits ``whole`` packets per cycle plus its Bernoulli
        # winner (burst modulation keeps ``whole`` at zero).
        whole_n = self.whole * n
        # Worst case one cycle: every node wins.
        kmax = whole_n + n
        worst = n + kmax * extra + ((kmax + 1) // 2 + 1 if has_int else 0)
        expect = n + int(n * self.rate * (extra + 1.5)) + 2
        self._ensure(max(worst + 1, C * expect))

        V = self._buf[self._pos :]
        D = doubles_from_raw(V)
        avail = V.size
        burst = self._burst
        if burst is None:
            W = D < frac
            P = np.concatenate(([0], np.cumsum(W)))
        else:
            # Per-cycle per-node thresholds; rate * max_scale < 1 is part
            # of _vec_ok, so the whole part stays zero under modulation.
            T = burst.rows(self.next_cycle, self.next_cycle + C) * self.rate

        # The per-cycle offset walk: data-dependent, but four integer
        # ops per cycle off the prefix sums (one n-wide compare per cycle
        # when modulated).
        offs: List[int] = []
        ks: List[int] = []
        hs: List[int] = []
        pos = 0
        h = self._cache_has
        cyc = 0
        while cyc < C and pos + worst <= avail:
            if burst is None:
                k = whole_n + int(P[pos + n]) - int(P[pos])
            else:
                k = int((D[pos : pos + n] < T[cyc]).sum())
            offs.append(pos)
            ks.append(k)
            hs.append(h)
            pos += n + extra * k
            if has_int:
                pos += (k + 1 - h) // 2
                h = (h + k) & 1
            cyc += 1

        base_cycle = self.next_cycle
        end_cycle = base_cycle + cyc
        offs_a = np.array(offs, dtype=np.int64)
        ks_a = np.array(ks, dtype=np.int64)
        total = int(ks_a.sum())
        if total == 0:
            self._commit(pos, h, None, end_cycle)
            empty = np.empty(0, dtype=np.int64)
            return end_cycle, empty, empty, empty, empty

        # All packets of the chunk, in (cycle, node) order.
        idx = offs_a[:, None] + np.arange(n)
        Wm = (D[idx] < T[:cyc]) if burst is not None else W[idx]
        rows = np.repeat(np.arange(cyc), ks_a)
        srcs = np.repeat(np.tile(np.arange(n), cyc), (Wm + self.whole).ravel())
        cycles = base_cycle + rows
        kstart = np.concatenate(([0], np.cumsum(ks_a)))
        r = np.arange(total) - kstart[rows]  # within-cycle packet rank
        off_pkt = offs_a[rows]
        h_cyc = np.array(hs, dtype=np.int64)[rows]

        if spec.kind == "table":
            sizepos = off_pkt + n + r
            dsts = spec.table[srcs]
            last_word = None
        else:
            pre = (r + 1 - h_cyc) // 2  # int words consumed by earlier ranks
            consumes = ((h_cyc + r) & 1) == 0
            if spec.kind == "hotspot":
                hotpos = off_pkt + n + 2 * r + pre
                intpos = hotpos + 1
                hb = spec.bounds[srcs]
                eff_hot = (D[hotpos] < spec.hot_fraction) & (hb > 0)
                bounds = np.where(eff_hot, hb, n - 1)
            else:
                intpos = off_pkt + n + r + pre
                if spec.kind == "uniform":
                    bounds = n - 1
                else:  # memory
                    bounds = spec.bounds[srcs]
            sizepos = intpos + consumes
            halves, last_word = self._halves(V, intpos, consumes)
            vals, reject = lemire32(halves, bounds)
            if reject.any():
                return None
            if spec.kind == "uniform":
                dsts = vals + (vals >= srcs)
            elif spec.kind == "memory":
                dsts = spec.table[srcs, vals]
            else:
                dsts = np.where(
                    eff_hot,
                    spec.table[srcs, np.where(eff_hot, vals, 0)],
                    vals + (vals >= srcs),
                )

        sizes = np.where(D[sizepos] < self.dfrac, DATA_FLITS, CONTROL_FLITS)
        self._commit(pos, h, last_word, end_cycle)
        return end_cycle, cycles, srcs, dsts.astype(np.int64), sizes

    def _halves(self, V, intpos, consumes):
        """Half-words served to the chunk's bounded draws, in order.

        Consuming draws read the low half of a fresh word; the draw
        after each reads that word's cached high half; a leading
        non-consuming draw reads the half carried over from the previous
        chunk.  Returns the halves and the last fresh word (the pending
        high-half source if the chunk ends mid-word).
        """
        halves = np.empty(intpos.size, dtype=np.uint64)
        cons_pos = intpos[consumes]
        cons_words = V[cons_pos]
        halves[consumes] = cons_words & _U32
        nc = ~consumes
        if nc.any():
            cand = np.where(consumes, intpos, np.int64(-1))
            ff = np.maximum.accumulate(cand)[nc]
            vals_nc = np.empty(ff.size, dtype=np.uint64)
            lead = ff < 0
            vals_nc[lead] = np.uint64(self._cache_val)
            vals_nc[~lead] = V[ff[~lead]] >> _S32
            halves[nc] = vals_nc
        last_word = int(cons_words[-1]) if cons_words.size else None
        return halves, last_word

    def _commit(self, consumed, cache_has, last_word, end_cycle) -> None:
        self._pos += consumed
        self._cache_has = cache_has
        if cache_has and last_word is not None:
            self._cache_val = last_word >> 32
        self.next_cycle = end_cycle

    # -- scalar emulation ----------------------------------------------------
    def _scalar_lookups(self):
        if self._scalar_tables is None:
            spec = self.spec
            table = spec.table.tolist() if spec.table is not None else None
            bounds = spec.bounds.tolist() if spec.bounds is not None else None
            self._scalar_tables = (table, bounds)
        return self._scalar_tables

    def _chunk_scalar(self, C: int) -> TraceChunk:
        """Exact scalar emulation over the raw buffer (any rate, any
        bounds, rejection loops included)."""
        n = self.n
        spec = self.spec
        kind = spec.kind
        whole = self.whole
        frac = self.frac
        dfrac = self.dfrac
        hf = spec.hot_fraction
        table, bounds = self._scalar_lookups()

        start = self._pos
        words = self._buf[start:].tolist()
        ext: List[int] = []
        navail = len(words)

        def word(i: int) -> int:
            if i < navail:
                return words[i]
            j = i - navail
            while j >= len(ext):
                ext.extend(take_raw(self.rng, 4096).tolist())
            return ext[j]

        pos = 0
        h = self._cache_has
        hval = self._cache_val

        def next32() -> int:
            nonlocal pos, h, hval
            if h:
                h = 0
                return hval
            w = word(pos)
            pos += 1
            h = 1
            hval = w >> 32
            return w & 0xFFFFFFFF

        def lem(bound: int) -> int:
            return lemire32_scalar(next32, bound)

        burst = self._burst
        rate = self.rate
        cycles: List[int] = []
        srcs: List[int] = []
        dsts: List[int] = []
        sizes: List[int] = []
        base_cycle = self.next_cycle
        for c in range(C):
            cycno = base_cycle + c
            g = burst.row(cycno) if burst is not None else None
            bern = [word(pos + i) for i in range(n)]
            pos += n
            for node in range(n):
                if g is None:
                    w = whole
                    f = frac
                else:
                    eff = rate * g[node]
                    w = int(eff)
                    f = eff - w
                count = w + (
                    1 if (bern[node] >> 11) * DOUBLE_SCALE < f else 0
                )
                for _ in range(count):
                    if kind == "table":
                        dst = table[node]
                    elif kind == "uniform":
                        d = lem(n - 1)
                        dst = d if d < node else d + 1
                    elif kind == "memory":
                        dst = table[node][lem(bounds[node])]
                    else:  # hotspot
                        dst = -1
                        if (word(pos) >> 11) * DOUBLE_SCALE < hf:
                            pos += 1
                            b = bounds[node]
                            if b:
                                dst = table[node][lem(b)]
                        else:
                            pos += 1
                        if dst < 0:
                            d = lem(n - 1)
                            dst = d if d < node else d + 1
                    size = (
                        DATA_FLITS
                        if (word(pos) >> 11) * DOUBLE_SCALE < dfrac
                        else CONTROL_FLITS
                    )
                    pos += 1
                    cycles.append(cycno)
                    srcs.append(node)
                    dsts.append(dst)
                    sizes.append(size)

        if ext:
            self._buf = np.concatenate(
                [self._buf, np.array(ext, dtype=np.uint64)]
            )
        self._pos = start + pos
        self._cache_has = h
        self._cache_val = hval
        end_cycle = base_cycle + C
        self.next_cycle = end_cycle
        return (
            end_cycle,
            np.array(cycles, dtype=np.int64),
            np.array(srcs, dtype=np.int64),
            np.array(dsts, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
        )


# -- batched pregeneration (turbo mode) --------------------------------------
@dataclass
class BatchTrace:
    """Injection events for B ``(rate, seed)`` lanes with a leading batch axis.

    Events for every lane are pre-generated in one vectorized pass and
    stored flat, lane-major, sorted ``(node, cycle)`` within each lane so
    the batched engine can walk each source node's queue with a single
    per-``(lane, node)`` cursor.  ``seg_start[b, v] : seg_end[b, v]``
    delimits lane ``b`` node ``v``'s events; ``lane_bounds[b] :
    lane_bounds[b + 1]`` delimits lane ``b`` as a whole.

    Unlike :class:`TraceStream`, the draws here are *not* draw-order
    compatible with the reference engine: each lane consumes its own
    ``default_rng(seed)`` stream in bulk array order (turbo mode's
    documented relaxation).  Burst gates still come from the spec-seeded
    dedicated chain, so the gate sequence is shared by every lane and
    identical to the one the exact engines consume.
    """

    n_lanes: int
    n_nodes: int
    cycles: int
    ev_cycle: np.ndarray  # (E,) int64 — generation cycle of each event
    ev_src: np.ndarray  # (E,) int64
    ev_dst: np.ndarray  # (E,) int64
    ev_size: np.ndarray  # (E,) int64 flits
    seg_start: np.ndarray  # (B, n) int64 indices into the flat arrays
    seg_end: np.ndarray  # (B, n) int64
    lane_bounds: np.ndarray  # (B + 1,) int64

    def offered_in(self, lo: int, hi: int) -> np.ndarray:
        """Per-lane event count with generation cycle in ``[lo, hi)``."""
        out = np.zeros(self.n_lanes, dtype=np.int64)
        for b in range(self.n_lanes):
            seg = self.ev_cycle[self.lane_bounds[b] : self.lane_bounds[b + 1]]
            out[b] = int(((seg >= lo) & (seg < hi)).sum())
        return out


def _batch_dests(
    spec, srcs: np.ndarray, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Vectorized destination draws for one lane's event list."""
    k = srcs.size
    if spec.kind == "table":
        return spec.table[srcs]
    if spec.kind == "uniform":
        d = rng.integers(0, n - 1, size=k)
        return d + (d >= srcs)
    if spec.kind == "memory":
        bounds = spec.bounds[srcs]
        if (bounds <= 0).any():
            raise ValueError("memory pattern with an empty candidate row")
        return spec.table[srcs, rng.integers(bounds)]
    # hotspot: a hot_fraction coin picks a hotspot row when the source
    # has candidates, else a uniform non-self draw.
    bounds = spec.bounds[srcs]
    eff_hot = (rng.random(k) < spec.hot_fraction) & (bounds > 0)
    hot = spec.table[srcs, rng.integers(np.maximum(bounds, 1))]
    d = rng.integers(0, n - 1, size=k)
    return np.where(eff_hot, hot, d + (d >= srcs))


def pregenerate_batch(
    traffic: TrafficPattern,
    n_nodes: int,
    lanes: Sequence[Tuple[float, int]],
    cycles: int,
) -> BatchTrace:
    """Pre-generate ``cycles`` cycles of injection events for all lanes.

    ``lanes`` is the batch: one ``(rate, seed)`` pair per replica.  Each
    lane draws per-cycle Bernoulli/Poisson-floor counts, destinations,
    and sizes in whole-array passes from its own ``default_rng(seed)``;
    rates ``>= 1`` (or burst-scaled past 1) inject ``floor(eff)`` packets
    per node per cycle plus a Bernoulli remainder, matching the exact
    engines' count law with a relaxed draw order.
    """
    spec = traffic.dest_spec
    n = int(n_nodes)
    C = int(cycles)
    B = len(lanes)
    gates = (
        traffic.burst.state(n).rows(0, C) if traffic.burst is not None else None
    )
    node_ids = np.arange(n, dtype=np.int64)
    cyc_tile = np.tile(np.arange(C, dtype=np.int64), n)

    chunks_cycle: List[np.ndarray] = []
    chunks_src: List[np.ndarray] = []
    chunks_dst: List[np.ndarray] = []
    chunks_size: List[np.ndarray] = []
    seg_start = np.zeros((B, n), dtype=np.int64)
    seg_end = np.zeros((B, n), dtype=np.int64)
    lane_bounds = np.zeros(B + 1, dtype=np.int64)
    off = 0
    for b, (rate, seed) in enumerate(lanes):
        rate = float(rate)
        rng = np.random.default_rng(int(seed))
        if rate <= 0.0:
            seg_start[b] = seg_end[b] = off
            lane_bounds[b + 1] = off
            continue
        if gates is None:
            whole = int(rate)
            cnt = whole + (rng.random((C, n)) < (rate - whole)).astype(
                np.int64
            )
        else:
            eff = rate * gates
            whole_m = np.floor(eff)
            cnt = whole_m.astype(np.int64) + (
                rng.random((C, n)) < (eff - whole_m)
            ).astype(np.int64)
        cnt_t = cnt.T  # (n, C): node-major so each segment is cycle-sorted
        node_tot = cnt_t.sum(axis=1)
        k = int(node_tot.sum())
        seg_end_b = np.cumsum(node_tot) + off
        seg_start[b] = seg_end_b - node_tot
        seg_end[b] = seg_end_b
        lane_bounds[b + 1] = off + k
        off += k
        if k == 0:
            continue
        srcs = np.repeat(node_ids, node_tot)
        cycs = np.repeat(cyc_tile, cnt_t.ravel())
        dsts = _batch_dests(spec, srcs, rng, n).astype(np.int64)
        sizes = np.where(
            rng.random(k) < traffic.data_fraction, DATA_FLITS, CONTROL_FLITS
        ).astype(np.int64)
        chunks_cycle.append(cycs)
        chunks_src.append(srcs)
        chunks_dst.append(dsts)
        chunks_size.append(sizes)

    cat = lambda xs: (
        np.concatenate(xs) if xs else np.empty(0, dtype=np.int64)
    )
    return BatchTrace(
        n_lanes=B,
        n_nodes=n,
        cycles=C,
        ev_cycle=cat(chunks_cycle),
        ev_src=cat(chunks_src),
        ev_dst=cat(chunks_dst),
        ev_size=cat(chunks_size),
        seg_start=seg_start,
        seg_end=seg_end,
        lane_bounds=lane_bounds,
    )
