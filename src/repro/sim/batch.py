"""Batched multi-replica engine: S seeds x R rates in one fused loop.

Every paper figure is a sweep of many ``(rate, seed)`` measurements over
the *same* :class:`~repro.sim.fastnet.CompiledNetwork`.  The per-point
engines exploit that only across processes; this module adds the batch
dimension *inside* the engine.  :func:`run_batch` advances B independent
replicas ("lanes") of one compiled table through a single numpy cycle
loop over struct-of-arrays state — every per-slot quantity grows a
leading lane axis, so one pass of array ops per cycle advances all
lanes at once.

This is the ``turbo`` engine.  All lanes' injection events are
pre-generated in one vectorized pass per lane
(:func:`~repro.sim.trace.pregenerate_batch`) and the cycle loop is
branch-free across lanes.  Turbo is statistically validated, not
bit-exact: per-point KS tests pin its latency/throughput distributions
against the fast engine (see ``tests/test_batch.py``).  Bit-exact
seed replicas are per-point ``engine="fast"`` runs.

What turbo gives up (the documented relaxations):

1. **Draw order** — each lane consumes its own ``default_rng(seed)``
   stream in bulk array passes instead of replaying the fast engine's
   interleaved per-packet draws.  Same count law, same destination and
   size marginals, different stream.  Burst gates still come from the
   spec-seeded dedicated chain, so modulated lanes see the *identical*
   gate sequence the fast engine sees.
2. **Same-cycle credit ripple** — the fast engine arbitrates routers in
   ascending index with same-cycle visibility of earlier routers'
   credit releases.  Turbo grants all outputs simultaneously against
   start-of-cycle credit/busy state (one cycle of extra credit latency
   in the worst case).
3. **Round-robin pointer semantics** — the fast engine rotates a pointer
   over the per-cycle *requester list*; turbo rotates a rank threshold
   over the router's *static input scan order* (injection VCs first,
   then link VCs in topology order — the same order the fast engine
   scans).  Both are livelock-free rotating priorities.

Restrictions (raise ``ValueError``): fault schedules and closed-loop
hooks are unsupported (use the fast engine).

``ENGINES["turbo"]`` registers :class:`TurboNetworkSimulator`, a
single-point adapter (a 1-lane batch), so ``--engine turbo`` works
everywhere an engine name is accepted.  A lane's result depends only on
its own ``(rate, seed)`` — never on its batchmates — which is what lets
the runner cache batched results under single-point keys.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..routing.tables import RoutingTable
from .fastnet import ENGINES, CompiledNetwork
from .network import (
    DEFAULT_VC_BUFFER_FLITS,
    LINK_LATENCY,
    ROUTER_LATENCY,
    SimStats,
)
from .trace import BatchTrace, pregenerate_batch
from .traffic import TrafficSpec

#: "Never" sentinel in the dense int32 gate arrays (far beyond any
#: cycle count, with headroom so ``_BIG + small`` cannot overflow).
_BIG = 1 << 30

#: Dense dict-table forwarding is materialized as an n^3 array; past
#: this many routers that is no longer a reasonable trade — use a
#: destination-keyed (CSR) table instead.
_DICT_FWD_MAX_N = 128


class _TurboAux:
    """Turbo-only static tables derived from one :class:`CompiledNetwork`.

    Built once per compile (memoized on the compile instance): slot ->
    owning router, slot -> static arbitration rank within that router's
    input scan order, and a dense forwarding gather table.
    """

    def __init__(self, cn: CompiledNetwork):
        n, V, L = cn.n, cn.num_vcs, cn.num_links
        ns = cn.num_slots
        slot_router = np.empty(ns, dtype=np.int32)
        r_rank = np.empty(ns, dtype=np.int32)
        for r in range(n):
            for i, base in enumerate(cn.in_bases[r]):
                for vc in range(V):
                    slot_router[base + vc] = r
                    r_rank[base + vc] = i * V + vc
        self.slot_router = slot_router
        self.r_rank = r_rank
        #: rank span: strictly greater than any rank, used to rotate
        #: priorities without wraparound arithmetic.
        self.rank_span = int(r_rank.max()) + 1 if ns else 1
        self.eject_tgt = L + slot_router  # request target when key == -1
        self.ch_dst = np.array(cn.ch_dst, dtype=np.int32)
        self.slot_vc = np.array(cn.slot_vc, dtype=np.int32)
        self.inj_base = np.array(cn.inj_base, dtype=np.int32)
        # Forwarding as one flat gather: destination-keyed tables index
        # by (router, dst); dict tables need the full (router, src, dst)
        # key and are densified (guarded by _DICT_FWD_MAX_N).
        if cn.fwd_dst is not None:
            self.fwd_flat = np.array(cn.fwd_dst, dtype=np.int32)
            self.fwd_by_src = False
        else:
            if n > _DICT_FWD_MAX_N:
                raise ValueError(
                    f"turbo mode would densify a dict routing table to "
                    f"{n}^3 entries; use a destination-keyed table for "
                    f"n > {_DICT_FWD_MAX_N}"
                )
            flat = np.full(n * n * n, -1, dtype=np.int32)
            for key, ch in cn.fwd.items():
                flat[key] = ch
            self.fwd_flat = flat
            self.fwd_by_src = True

    @classmethod
    def for_compiled(cls, cn: CompiledNetwork) -> "_TurboAux":
        cached = cn.__dict__.get("_turbo_aux")
        if cached is None:
            cached = cls(cn)
            cn.__dict__["_turbo_aux"] = cached
        return cached


def _run_turbo(
    cn: CompiledNetwork,
    trace: BatchTrace,
    warmup: int,
    measure: int,
    vc_cap: int,
    hop_delay: int,
) -> List[SimStats]:
    """Advance all lanes of ``trace`` through the fused SoA loop."""
    aux = _TurboAux.for_compiled(cn)
    n, V, L = cn.n, cn.num_vcs, cn.num_links
    ns = cn.num_slots
    no = L + n  # outputs: link channels then ejection ports
    B = trace.n_lanes
    total = warmup + measure
    cap = max(1, int(vc_cap))  # >= packets per VC (min packet = 1 flit)

    ev_cycle = trace.ev_cycle
    ev_dst = trace.ev_dst
    ev_size = trace.ev_size
    flow = trace.ev_src * n + ev_dst
    if flow.size and not cn.flow_ok_np[flow].all():
        raise ValueError(
            "turbo mode requires a fully-routable table (no fault "
            "schedules); use engine='fast' for degraded tables"
        )
    if ev_size.size and int(ev_size.max()) >= 64:
        raise ValueError("turbo mode packs sizes in 6 bits (flits < 64)")
    ev_vc = cn.vc_of_np[flow]
    # Request key and size pack into one word: kv = (key + 1) << 6 | size
    # — one gather recovers both in the hot scan.
    ev_kv = ((cn.inj_key_np[flow] + 1) << 6) | ev_size
    n_events = ev_cycle.size

    # -- SoA state, leading lane axis -----------------------------------------
    # Everything dense is int32: the loop is memory-bound on (B, ns)
    # scans, so halving the element size is a direct bandwidth win.
    # Ring record: [ready, kv, src, dst, birth] — one fused array so
    # enqueue/dequeue are single scatters/gathers.
    ring = np.zeros((B, ns, cap, 5), dtype=np.int32)
    q_head = np.zeros((B, ns), dtype=np.int32)
    q_count = np.zeros((B, ns), dtype=np.int32)
    # Dense head gate: h_next[b, s] is the next cycle at which slot s of
    # lane b could possibly act — the head's ready time, a snooze-until
    # time after losing arbitration, or _BIG when empty.  The whole
    # switching scan is one compare against it.  Busy timers are
    # monotone and a head can only change via a grant (which requires
    # the gate to have passed), so a stale gate can never delay a fresh
    # head.
    h_next = np.full((B, ns), _BIG, dtype=np.int32)
    h_kv = np.zeros((B, ns), dtype=np.int32)
    free = np.full((B, ns), int(vc_cap), dtype=np.int32)
    out_busy = np.zeros((B, no), dtype=np.int32)
    rr = np.zeros((B, no), dtype=np.int32)  # next-rank thresholds
    best = np.full((B, no), _BIG, dtype=np.int32)  # per-output arbitration
    ptr = trace.seg_start.copy()
    seg_end = trace.seg_end
    # Injection gate, same trick as h_next: the next cycle node (b, v)
    # could inject = max(next pending event's cycle, serialization
    # ready time), bumped to cyc + 1 on a credit stall.
    if n_events:
        has0 = ptr < seg_end
        inj_gate = np.where(
            has0, ev_cycle[np.where(has0, ptr, 0)], _BIG
        ).astype(np.int32)
    else:
        inj_gate = np.full((B, n), _BIG, dtype=np.int32)

    # Ejections accumulate packed: count in the high word, flits in the
    # low word — one scatter-add instead of two.
    ej_acc = np.zeros(B, dtype=np.int64)
    lat_sum = np.zeros(B, dtype=np.float64)
    lat_count = np.zeros(B, dtype=np.int64)

    rank_span = aux.rank_span
    slot_vc = aux.slot_vc
    inj_base = aux.inj_base
    eject_tgt = aux.eject_tgt
    r_rank = aux.r_rank
    ch_dst = aux.ch_dst
    fwd_flat = aux.fwd_flat
    fwd_by_src = aux.fwd_by_src
    last_ev = max(n_events - 1, 0)

    # Flat views: the hot loop addresses (lane, x) pairs as single flat
    # indices — 1-D gathers/scatters dispatch measurably faster than
    # their 2-D fancy-indexing equivalents, and ``minimum.at`` skips the
    # multi-index iterator entirely.
    ring3 = ring.reshape(B * ns, cap, 5)
    q_headf = q_head.ravel()
    q_countf = q_count.ravel()
    h_nextf = h_next.ravel()
    h_kvf = h_kv.ravel()
    freef = free.ravel()
    out_busyf = out_busy.ravel()
    rrf = rr.ravel()
    bestf = best.ravel()
    ptrf = ptr.ravel()
    inj_gatef = inj_gate.ravel()
    seg_endf = seg_end.ravel()

    for cyc in range(total):
        measuring = cyc >= warmup

        # -- injection: <= 1 packet per (lane, node) per cycle ---------------
        ii = np.flatnonzero(inj_gatef <= cyc)
        if ii.size:
            bb = ii // n
            nn = ii - bb * n
            e = ptrf[ii]
            size = ev_size[e]
            fi = bb * ns + inj_base[nn] + ev_vc[e]
            okj = freef[fi] >= size
            if not okj.all():
                stall = ~okj
                inj_gatef[ii[stall]] = cyc + 1
                ii, nn, e = ii[okj], nn[okj], e[okj]
                size, fi = size[okj], fi[okj]
            if ii.size:
                kv = ev_kv[e]
                ready = cyc + size
                pos = (q_headf[fi] + q_countf[fi]) % cap
                ring3[fi, pos] = np.stack(
                    [ready, kv, nn, ev_dst[e], ev_cycle[e]], axis=1
                )
                was_empty = q_countf[fi] == 0
                q_countf[fi] += 1
                freef[fi] -= size
                e1 = e + 1
                ptrf[ii] = e1
                nxt = np.where(
                    e1 < seg_endf[ii],
                    ev_cycle[np.minimum(e1, last_ev)],
                    _BIG,
                )
                inj_gatef[ii] = np.maximum(nxt, ready)
                if was_empty.any():
                    wfi = fi[was_empty]
                    h_nextf[wfi] = ready[was_empty]
                    h_kvf[wfi] = kv[was_empty]

        # -- switching: all outputs of all lanes arbitrate at once -----------
        ci = np.flatnonzero(h_nextf <= cyc)
        if ci.size == 0:
            continue
        cb = ci // ns
        cs = ci - cb * ns
        kv = h_kvf[ci]
        key = (kv >> 6) - 1
        size_c = kv & 63
        is_link_c = key >= 0
        ct = np.where(is_link_c, key, eject_tgt[cs])
        co = cb * no + ct
        fo = cb * ns + np.where(is_link_c, ct * V + slot_vc[cs], 0)
        ok = (out_busyf[co] <= cyc) & (
            ~is_link_c | (freef[fo] >= size_c)
        )
        # Rotating-priority arbitration: lowest (rank - rr) mod span
        # wins each (lane, output); ranks are unique within a router, so
        # the winner is unique.  Blocked candidates arbitrate at _BIG so
        # they can never win (the reset value _BIG - 1 keeps them from
        # tying on an all-blocked output), without materializing
        # filtered copies.
        prio = (r_rank[cs] - rrf[co]) % rank_span
        prio = np.where(ok, prio, _BIG)
        bestf[co] = _BIG - 1
        np.minimum.at(bestf, co, prio)
        win = prio == bestf[co]
        wi = ci[win]
        if wi.size:
            cow = co[win]
            wsize, wlink = size_c[win], is_link_c[win]
            rrf[cow] = r_rank[cs[win]] + 1
            out_busyf[cow] = cyc + wsize
        # Non-winners retry when the output's (post-grant) busy timer
        # expires; a credit-blocked head at an idle output retries next
        # cycle (start-of-cycle credit means this cycle's releases are
        # only visible then anyway).
        lose = ~win
        h_nextf[ci[lose]] = np.maximum(out_busyf[co[lose]], cyc + 1)
        if wi.size == 0:
            continue

        # Dequeue winners (unique flat (lane, slot) indices).
        hd = q_headf[wi]
        rec = ring3[wi, hd]  # (k, 5)
        wsrc, wdst, wbirth = rec[:, 2], rec[:, 3], rec[:, 4]
        freef[wi] += wsize
        q_headf[wi] = (hd + 1) % cap
        q_countf[wi] -= 1
        more = q_countf[wi] > 0
        h_nextf[wi[~more]] = _BIG
        if more.any():
            mi = wi[more]
            rec2 = ring3[mi, q_headf[mi]]
            h_nextf[mi] = rec2[:, 0]
            h_kvf[mi] = rec2[:, 1]

        ej = ~wlink
        if measuring and ej.any():
            jb = cb[win][ej]
            jsize = wsize[ej]
            np.add.at(ej_acc, jb, jsize.astype(np.int64) + (1 << 32))
            lm = wbirth[ej] >= warmup
            if lm.any():
                lat = (cyc + jsize - wbirth[ej])[lm].astype(np.float64)
                np.add.at(lat_sum, jb[lm], lat)
                np.add.at(lat_count, jb[lm], 1)

        if wlink.any():
            fi2 = fo[win][wlink]
            lsize = wsize[wlink]
            lsrc, ldst = wsrc[wlink], wdst[wlink]
            v = ch_dst[ct[win][wlink]]
            if fwd_by_src:
                nkey = fwd_flat[(v * n + lsrc) * n + ldst]
            else:
                nkey = fwd_flat[v * n + ldst]
            nkey = np.where(ldst == v, -1, nkey)
            nkv = ((nkey + 1) << 6) | lsize
            ready2 = cyc + lsize + hop_delay
            freef[fi2] -= lsize
            pos = (q_headf[fi2] + q_countf[fi2]) % cap
            ring3[fi2, pos] = np.stack(
                [ready2, nkv, lsrc, ldst, wbirth[wlink]], axis=1
            )
            was_empty = q_countf[fi2] == 0
            q_countf[fi2] += 1
            if was_empty.any():
                nfi = fi2[was_empty]
                h_nextf[nfi] = ready2[was_empty]
                h_kvf[nfi] = nkv[was_empty]

    offered = trace.offered_in(warmup, warmup + measure)
    return [
        SimStats(
            cycles=measure,
            offered_packets=int(offered[b]),
            ejected_packets=int(ej_acc[b] >> 32),
            ejected_flits=int(ej_acc[b] & 0xFFFFFFFF),
            latency_sum=float(lat_sum[b]),
            latency_count=int(lat_count[b]),
            n_nodes=n,
            lost_packets=0,
        )
        for b in range(B)
    ]


def run_batch(
    table: RoutingTable,
    traffic: TrafficSpec,
    lanes: Sequence[Tuple[float, int]],
    warmup: int,
    measure: int,
    vc_buffer_flits: int = DEFAULT_VC_BUFFER_FLITS,
    router_latency: int = ROUTER_LATENCY,
    link_latency: int = LINK_LATENCY,
    extra_hop_latency: int = 0,
    compiled: Optional[CompiledNetwork] = None,
) -> List[SimStats]:
    """Measure every ``(rate, seed)`` lane of one table in one call.

    Returns one :class:`SimStats` per lane, in lane order.  A lane's
    result depends only on its own ``(rate, seed)`` — batch composition
    never changes it (tests pin this), so results are cacheable under
    per-point keys.
    """
    lanes = [(float(r), int(s)) for r, s in lanes]
    if compiled is None:
        compiled = CompiledNetwork.for_table(table)
    elif compiled.table is not table:
        raise ValueError("compiled network was built for a different table")
    trace = pregenerate_batch(traffic, compiled.n, lanes, warmup + measure)
    hop_delay = router_latency + link_latency + extra_hop_latency
    return _run_turbo(
        compiled, trace, warmup, measure, vc_buffer_flits, hop_delay
    )


class TurboNetworkSimulator:
    """Single-point adapter over the turbo batch loop.

    Drop-in for the engine registry (``engine="turbo"``): same
    constructor surface as :class:`FastNetworkSimulator`, ``run`` is a
    one-lane :func:`run_batch`.  Statistically validated against the
    fast engine, not bit-exact — and single-use: one ``run`` per
    instance.
    """

    def __init__(
        self,
        table: RoutingTable,
        traffic: TrafficSpec,
        injection_rate: float,
        seed: int = 0,
        vc_buffer_flits: int = DEFAULT_VC_BUFFER_FLITS,
        router_latency: int = ROUTER_LATENCY,
        link_latency: int = LINK_LATENCY,
        extra_hop_latency: int = 0,
        compiled: Optional[CompiledNetwork] = None,
        faults=None,
    ):
        if faults is not None:
            raise ValueError(
                "turbo mode does not support fault schedules; use "
                "engine='fast'"
            )
        self.table = table
        self.traffic = traffic
        self.rate = float(injection_rate)
        self.seed = int(seed)
        self.vc_cap = vc_buffer_flits
        self.router_latency = router_latency
        self.link_latency = link_latency
        self.extra_hop_latency = extra_hop_latency
        self.cn = (
            compiled
            if compiled is not None
            else CompiledNetwork.for_table(table)
        )
        self.n = self.cn.n
        self._ran = False

    def run(self, warmup: int, measure: int) -> SimStats:
        if self._ran:
            raise RuntimeError(
                "TurboNetworkSimulator is single-use: construct a new "
                "instance per measurement"
            )
        self._ran = True
        if self.rate <= 0:
            return SimStats(
                cycles=measure,
                offered_packets=0,
                ejected_packets=0,
                ejected_flits=0,
                latency_sum=0.0,
                latency_count=0,
                n_nodes=self.n,
                lost_packets=0,
            )
        return run_batch(
            self.table,
            self.traffic,
            [(self.rate, self.seed)],
            warmup,
            measure,
            vc_buffer_flits=self.vc_cap,
            router_latency=self.router_latency,
            link_latency=self.link_latency,
            extra_hop_latency=self.extra_hop_latency,
            compiled=self.cn,
        )[0]


ENGINES["turbo"] = TurboNetworkSimulator
