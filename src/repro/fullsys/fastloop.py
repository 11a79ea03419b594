"""Flat-array closed-loop (request/response) engine: the production one.

:class:`FastClosedLoopSimulator` runs every closed-loop simulation
(Fig. 8, the report's PARSEC section, the recovery grid) on the open-loop
:class:`~repro.sim.fastnet.FastNetworkSimulator`'s compiled-network
flat arrays and worklist/sleep arbitration.  Its contract is the
reference engine's cycle-level semantics and RNG draw order, down to
bit-identical :class:`~repro.fullsys.closedloop.ClosedLoopStats`: the
differential suites in ``tests/test_fastloop.py`` and
``tests/test_closedloop_faults.py`` pin it to the oracle in
``tests/closedloop_oracle.py``.

Closed-loop traffic cannot be trace-fed: whether a router draws at all
on a given cycle depends on its outstanding-request count, which depends
on every earlier arbitration decision.  The injection stream is instead
generated cycle-by-cycle through two narrow hooks the fast engine's
fused loop exposes:

* ``_closed_gen`` replaces the generation block with the retry tick
  (timeout scan, backoff releases, retransmissions) followed by
  demand-driven request injection (per-router MLP budget,
  memory-vs-directory target split, destination draws) and the release
  of matured replies from a service-latency heap;
* ``_closed_eject`` observes every ejection: a live request schedules
  its data reply after the directory/memory service latency; a returning
  reply retires the transaction, releases the router's MLP slot, and
  accounts the round trip.

Most cycles issue nothing, so ``_closed_gen`` runs only on cycles where
it can act.  Each word chunk carries a **win index**: the positions whose
word wins a demand draw, found with one numpy threshold.  Between calls
the eligible count ``E`` (routers below their MLP cap) is fixed, so the
next win falls ``(win - pos) // E`` cycles ahead; the hook returns the
earliest of that cycle, the reply heap's head and the retry heaps' heads
as its **due** cycle, and the fused loop calls it only from then on (and
on each segment's first cycle).  ``_closed_eject`` lowers ``due`` when
it schedules a reply or frees a capped router.  A call first consumes
the skipped cycles' ``E`` losing words each in one step, then **walks
only the winners** of its own cycle: the ``k``-th demand word belongs to
the ``k``-th eligible router in ascending order.

The reference engine's draws are scalar ``Generator`` calls —
``random()`` per demand/memory-fraction decision, ``integers(k)`` per
target pick.  This engine replays that exact stream from buffered **raw
64-bit PCG64 words** (:mod:`repro.sim.rngstream`), following the
pattern's :class:`~repro.sim.traffic.DestSpec` for destinations: doubles
are ``(word >> 11) * 2**-53``, bounded draws are Lemire-32 over the
half-word stream with the bit generator's ``has_uint32`` cache tracked
arithmetically — plain Python integer ops instead of per-draw Generator
dispatch.  Backoff delays come from the policy's *dedicated* RNG
(:class:`~repro.fullsys.closedloop.RetryPolicy`), so the retry machinery
never perturbs the replayed packet-draw stream.

Packets ride the fast engine's 6-tuple records; the closed-loop
metadata lives in the birth field.  Requests encode
``tid << 33 | birth << 1 | is_mem`` and replies ``tid << 32 | birth``
(birth cycles fit 32 bits by a huge margin) — the transaction id is
what survives fault-epoch swaps, timeout retransmissions, and stale
duplicates, while the record's flit size distinguishes the two classes
(requests are 1-flit control, replies 9-flit data).  Reply-heap tuples
are ordered exactly as the reference's, so same-cycle releases pop in
the same order.  Fault epochs run through the open-loop engine's
``_advance`` segmentation; the ``_apply_epoch`` override collects the
canonical walk's dropped records and feeds their transactions to the
shared retry path in sorted-tid order.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import List, Optional

import numpy as np

from ..routing.tables import RoutingTable
from ..sim.fastnet import _NEVER, CompiledNetwork, FastNetworkSimulator
from ..sim.packet import CONTROL_FLITS, DATA_FLITS
from ..sim.rngstream import DOUBLE_SCALE, take_raw
from ..sim.traffic import TrafficSpec
from .closedloop import (
    _IN_NET,
    _T_BIRTH,
    _T_MEM,
    _T_NODE,
    CDC_LATENCY,
    DIRECTORY_LATENCY_NS,
    MEMORY_LATENCY_NS,
    ClosedLoopRetryCore,
    RetryPolicy,
    validate_closed_loop,
)

#: DestSpec kinds compiled to integer tags for the generation hot loop.
_KIND = {"table": 0, "uniform": 1, "memory": 2, "hotspot": 3}

#: Raw words pulled from the Generator per buffer refill.
_WORD_CHUNK = 4096

_U32 = 0xFFFFFFFF


class FastClosedLoopSimulator(ClosedLoopRetryCore, FastNetworkSimulator):
    """Request/response simulation with bounded outstanding requests."""

    #: Construction validates that any fault schedule comes with a
    #: RetryPolicy, so the fused loop's epoch segmentation is safe here.
    _closed_faults = True

    def __init__(
        self,
        table: RoutingTable,
        traffic: TrafficSpec,
        demand_rate: float,
        mlp_per_node: int = 8,
        memory_fraction: float = 0.5,
        mc_routers: Optional[List[int]] = None,
        noi_clock_ghz: float = 3.0,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        compiled: Optional[CompiledNetwork] = None,
        **sim_kw,
    ):
        sim_kw.setdefault("extra_hop_latency", CDC_LATENCY)
        faults = sim_kw.get("faults")
        super().__init__(
            table, traffic, injection_rate=0.0, seed=seed,
            compiled=compiled, **sim_kw,
        )
        self.demand_rate = float(demand_rate)
        self.mlp = int(mlp_per_node)
        self.memory_fraction = float(memory_fraction)
        self.mc_routers = list(
            mc_routers if mc_routers is not None
            else self.topo.layout.mc_routers()
        )
        validate_closed_loop(
            self.n, self.demand_rate, self.memory_fraction,
            self.mc_routers, self.mlp, faults=faults, retry=retry,
        )
        self.directory_cycles = max(
            1, int(round(DIRECTORY_LATENCY_NS * noi_clock_ghz))
        )
        self.memory_cycles = max(
            1, int(round(MEMORY_LATENCY_NS * noi_clock_ghz))
        )
        self._init_closed_state(retry)

        n = self.n
        # Per-source memory-target rows (the reference rebuilds
        # ``[m for m in mc_routers if m != node]`` per draw; the rows are
        # deterministic, so compile them once) + Lemire thresholds.
        self._mc_rows = [
            tuple(m for m in self.mc_routers if m != node)
            for node in range(n)
        ]
        self._mc_bounds = [len(r) for r in self._mc_rows]
        self._mc_thresh = [
            (1 << 32) % b if b >= 2 else 0 for b in self._mc_bounds
        ]

        # Raw-word draw stream (emulated scalar Generator calls): the
        # current chunk, the read position, and the chunk's demand-win
        # index — the ascending positions whose word wins a demand draw
        # at ``_wdemand`` — with its cursor.  Only the words a win draws
        # are read as Python ints (``_raw.item``), a few per win.
        self._raw = np.empty(0, dtype=np.uint64)
        self._wins: List[int] = [0]  # the empty chunk's end sentinel
        self._wdemand = self.demand_rate
        self._wi = 0
        self._wpos = 0
        self._whas = 0  # pending high half-word (has_uint32 emulation)
        self._wval = 0
        # Demand schedule: the last cycle whose demand words are consumed
        # (the hook skips the cycles it cannot act on) and the number of
        # routers at their MLP cap, which draw nothing.
        self._gen_cycle = -1
        self._ncap = 0

        spec = traffic.dest_spec
        self._kind = _KIND[spec.kind]
        self._dtable = spec.table.tolist() if spec.table is not None else None
        self._dbounds = (
            spec.bounds.tolist() if spec.bounds is not None else None
        )
        self._dthresh = (
            [(1 << 32) % b if b >= 2 else 0 for b in self._dbounds]
            if self._dbounds is not None else None
        )
        self._uni_thresh = (1 << 32) % (n - 1) if n - 1 >= 2 else 0
        self._hot_fraction = spec.hot_fraction

    # -- engine adapters -------------------------------------------------------
    def _unroutable(self, node: int, dst: int) -> bool:
        return not self.flow_ok[node * self.n + dst]

    def _run_span(self, ncycles: int) -> None:
        self._advance(ncycles)

    def _retransmit(self, cycle, pending, in_flight, pid):
        """Inject this cycle's backoff releases (cold path: only entered
        when the retry heaps have matured entries)."""
        txn = self.txn
        source_q = self.source_q
        vc_of = self.vc_of
        inj_key = self.inj_key
        n = self.n
        for tid, node, dst in self._retry_tick(cycle):
            t = txn[tid]
            f = node * n + dst
            source_q[node].append((
                vc_of[f], inj_key[f], CONTROL_FLITS, dst,
                (tid << 33) | (t[_T_BIRTH] << 1) | t[_T_MEM],
            ))
            pending |= 1 << node
            in_flight += 1
            pid += 1
        return pending, in_flight, pid

    # -- demand word stream ----------------------------------------------------
    def _refill(self):
        """Draw the next raw-word chunk and index its demand wins."""
        raw = take_raw(self.rng, _WORD_CHUNK)
        self._raw = raw
        self._index_wins()
        return raw, self._wins

    def _index_wins(self) -> None:
        """Threshold the chunk once at the current demand rate.

        ``w >> 11 < 2**53`` converts to a double exactly, so this is the
        scalar test ``(w >> 11) * 2**-53 < demand`` word for word.  The
        index ends with the chunk length as a sentinel, so its cursor
        always names the next position where the walk must stop: a win,
        or the refill.
        """
        demand = self.demand_rate
        self._wdemand = demand
        raw = self._raw
        wins = np.flatnonzero((raw >> 11) * DOUBLE_SCALE < demand).tolist()
        wins.append(len(raw))
        self._wins = wins

    def _settle(self, cycle: int) -> None:
        """Consume the demand words of the cycles up to ``cycle`` that
        the hook skipped: one known-losing word per eligible router."""
        self._wpos += (self.n - self._ncap) * (cycle - self._gen_cycle)
        self._gen_cycle = cycle

    def _recount_caps(self) -> None:
        mlp = self.mlp
        self._ncap = sum(1 for o in self.outstanding if o >= mlp)

    # -- engine hooks ----------------------------------------------------------
    # Both hooks are plain methods, bound on access and never stored on
    # the instance: a bound method kept in its own instance's attributes
    # is a reference cycle, which would leave every finished simulator
    # to the cyclic GC.
    def _closed_gen(self, cycle, pending, in_flight, pid):
        """Demand-driven injection, draws replayed from raw PCG64 words.

        The fused loop calls this only on cycles where it can act (and on
        each segment's first cycle); it returns the updated accumulators
        and the next such cycle.  The cycles skipped since the last call
        drew one losing demand word per eligible router each, so their
        words are consumed first, in one step.  The retry tick runs next
        (retransmissions precede a node's same-cycle fresh demand — the
        reference's ``_generate`` order), then this cycle's demand draws
        (:meth:`_demand_walk`, entered only when one of them wins or the
        chunk runs out), then the release of matured replies, exactly as
        the reference orders it.

        Between calls the eligible count ``E`` (routers below their MLP
        cap) is fixed, so the next win at stream position ``p`` falls on
        cycle ``cycle + 1 + (p - pos) // E``.  The hook is next due at
        the earliest of that cycle, the reply heap's head and the retry
        heaps' heads; :meth:`_closed_eject` lowers it when a reply is
        scheduled or a capped router is freed.
        """
        n = self.n
        self._settle(cycle - 1)
        pos = self._wpos
        self._gen_cycle = cycle
        retry = self.retry
        if retry is not None and (
            (self._deadline_q and self._deadline_q[0][0] <= cycle)
            or (self._retry_q and self._retry_q[0][0] <= cycle)
        ):
            pending, in_flight, pid = self._retransmit(
                cycle, pending, in_flight, pid
            )
            self._recount_caps()
        if self.demand_rate != self._wdemand:
            self._index_wins()
            self._wi = bisect_left(self._wins, pos)
        if self._wins[self._wi] - pos >= n - self._ncap:
            self._wpos = pos + n - self._ncap  # every draw loses
        else:
            self._wpos = pos
            pending, in_flight, pid = self._demand_walk(
                cycle, pending, in_flight, pid
            )

        replies = self.pending_replies
        if replies and replies[0][0] <= cycle:
            pending, in_flight, pid = self._release_replies(
                cycle, pending, in_flight, pid
            )
        e = n - self._ncap
        due = (
            cycle + 1 + (self._wins[self._wi] - self._wpos) // e
            if e else _NEVER
        )
        if replies and replies[0][0] < due:
            due = replies[0][0]
        if retry is not None:
            dq = self._deadline_q
            if dq and dq[0][0] < due:
                due = dq[0][0]
            rq = self._retry_q
            if rq and rq[0][0] < due:
                due = rq[0][0]
        return pending, in_flight, pid, due

    def _demand_walk(self, cycle, pending, in_flight, pid):
        """One cycle's demand draws, visiting only the winning routers.

        The cycle's ``k``-th demand word belongs to the ``k``-th eligible
        router in ascending index order, so the walk jumps along the win
        index instead of visiting every router.  A win draws one
        memory-fraction double, then either a bounded draw over the
        router's MC row or the pattern's destination recipe; those words
        are skipped by the cursor.  Every refill re-indexes and resets
        the cursor, wherever it falls.
        """
        n = self.n
        mlp = self.mlp
        outstanding = self.outstanding
        ncap = self._ncap
        e = n - ncap
        elig = (
            [r for r in range(n) if outstanding[r] < mlp] if ncap
            else range(n)
        )
        raw = self._raw
        word = raw.item
        wlen = len(raw)
        wins = self._wins
        pos = self._wpos
        wi = self._wi
        h = self._whas
        hv = self._wval
        memf = self.memory_fraction
        source_q = self.source_q
        vc_of = self.vc_of
        inj_key = self.inj_key
        mc_rows = self._mc_rows
        mc_bounds = self._mc_bounds
        mc_thresh = self._mc_thresh
        kind = self._kind
        dtable = self._dtable
        dbounds = self._dbounds
        dthresh = self._dthresh
        uni_bound = n - 1
        uni_thresh = self._uni_thresh
        scale = DOUBLE_SCALE
        req_size = CONTROL_FLITS
        txn = self.txn
        tid_c = self._tid
        issued = self.issued
        faulty = self._faulty
        flow_ok = self.flow_ok
        retry = self.retry
        dq = self._deadline_q
        timeout = retry.timeout if retry is not None else 0

        k = 0  # demand words of this cycle consumed so far
        while True:
            at = wins[wi]
            if at - pos >= e - k:
                pos += e - k  # the cycle's remaining draws lose
                break
            if at == wlen:
                # The chunk ends mid-cycle; its remaining words lose.
                k += wlen - pos
                raw, wins = self._refill()
                word, wlen, pos, wi = raw.item, len(raw), 0, 0
                continue
            k += at - pos + 1
            pos = at + 1
            node = elig[k - 1]
            if pos == wlen:
                raw, wins = self._refill()
                word, wlen, pos, wi = raw.item, len(raw), 0, 0
            w = word(pos)
            pos += 1
            row = None
            b = -1  # -1: destination already resolved (no bounded draw)
            if (w >> 11) * scale < memf:
                is_mem = 1
                b = mc_bounds[node]
                t = mc_thresh[node]
                row = mc_rows[node]
            else:
                is_mem = 0
                if kind == 0:  # deterministic permutation
                    dst = dtable[node]
                elif kind == 1:  # uniform over others
                    b = uni_bound
                    t = uni_thresh
                elif kind == 2:  # memory pattern rows
                    b = dbounds[node]
                    t = dthresh[node]
                    row = dtable[node]
                else:  # hotspot: hot/uniform decision double first
                    if pos == wlen:
                        raw, wins = self._refill()
                        word, wlen, pos, wi = raw.item, len(raw), 0, 0
                    w = word(pos)
                    pos += 1
                    hb = dbounds[node]
                    if (w >> 11) * scale < self._hot_fraction and hb > 0:
                        b = hb
                        t = dthresh[node]
                        row = dtable[node]
                    else:
                        b = uni_bound
                        t = uni_thresh
            if b >= 0:
                if b == 0:
                    raise ValueError(
                        f"destination draw with empty candidate set at "
                        f"router {node} — degenerate traffic pattern"
                    )
                if b == 1:
                    # numpy's ``integers(1)``: 0, consuming nothing.
                    val = 0
                else:
                    # Lemire-32 over the half-word stream (low half of a
                    # fresh word first, high half cached), rejection
                    # loop included.
                    while True:
                        if h:
                            h = 0
                            u = hv
                        else:
                            if pos == wlen:
                                raw, wins = self._refill()
                                word, wlen, pos, wi = raw.item, len(raw), 0, 0
                            w2 = word(pos)
                            pos += 1
                            h = 1
                            hv = w2 >> 32
                            u = w2 & _U32
                        prod = u * b
                        if (prod & _U32) >= t:
                            val = prod >> 32
                            break
                if row is None:
                    dst = val if val < node else val + 1
                else:
                    dst = row[val]
            while wins[wi] < pos:
                wi += 1  # step over the win and the words it drew
            tid = tid_c
            tid_c += 1
            txn[tid] = [node, dst, is_mem, cycle, 0, 0]  # 0 == _IN_NET
            issued += 1
            o = outstanding[node] + 1
            outstanding[node] = o
            if o >= mlp:
                ncap += 1
            if faulty and not flow_ok[node * n + dst]:
                # Unroutable under the degraded table: defer to backoff
                # (all draws already made — the stream stays pristine).
                self._defer_new(tid, cycle)
                continue
            f = node * n + dst
            source_q[node].append(
                (vc_of[f], inj_key[f], req_size, dst,
                 (tid << 33) | (cycle << 1) | is_mem)
            )
            pending |= 1 << node
            in_flight += 1
            pid += 1
            if retry is not None:
                heappush(dq, (cycle + timeout, tid, 0))

        self._wpos = pos
        self._wi = wi
        self._whas = h
        self._wval = hv
        self._tid = tid_c
        self.issued = issued
        self._ncap = ncap
        return pending, in_flight, pid

    def _release_replies(self, cycle, pending, in_flight, pid):
        """Move matured replies into their servers' source queues, after
        the cycle's request injection — the reference's ``_generate``
        order.  Callers guard on the heap head, so the common no-reply
        cycle never pays the call.  Under faults, a reply whose server
        died (or whose path home vanished) times its transaction out
        instead of injecting."""
        replies = self.pending_replies
        source_q = self.source_q
        vc_of = self.vc_of
        inj_key = self.inj_key
        n = self.n
        faulty = self._faulty
        flow_ok = self.flow_ok
        txn = self.txn
        while replies and replies[0][0] <= cycle:
            _, rdst, server, size, birth, tid = heappop(replies)
            if faulty and not flow_ok[server * n + rdst]:
                t = txn.get(tid)
                if t is not None and t[5] == _IN_NET:
                    self._timeout_txn(tid, t, cycle)
                    self._recount_caps()
                continue
            f = server * n + rdst
            source_q[server].append(
                (vc_of[f], inj_key[f], size, rdst, (tid << 32) | birth)
            )
            pending |= 1 << server
            in_flight += 1
            pid += 1
        return pending, in_flight, pid

    def _closed_eject(self, cycle, rec, in_flight, due):
        """Mirror of the reference ``_on_eject``: live requests schedule
        their reply after the service latency; returning replies retire
        the transaction and account the round trip.  Stale packets —
        their transaction already failed, completed, or re-entered
        backoff — eject silently.  Returns the in-flight count and the
        generation hook's due cycle, lowered to the reply's release or,
        when a capped router is freed, to the next cycle."""
        size = rec[2]
        meta = rec[5]
        if size == CONTROL_FLITS:
            # request at its home node: meta = tid << 33 | birth << 1 | mem
            tid = meta >> 33
            t = self.txn.get(tid)
            if t is None or t[5] != _IN_NET:
                return in_flight, due
            ready = cycle + (
                self.memory_cycles if t[_T_MEM] else self.directory_cycles
            )
            heappush(
                self.pending_replies,
                (ready, t[_T_NODE], rec[4], DATA_FLITS, t[_T_BIRTH], tid),
            )
            return in_flight, (ready if ready < due else due)
        # reply came home (at rec[4]): request complete.  (The fused
        # loop's eject path already decremented in-flight for the reply
        # packet itself.)  meta = tid << 32 | birth.
        tid = meta >> 32
        t = self.txn.pop(tid, None)
        if t is None:
            return in_flight, due
        node = rec[4]
        outstanding = self.outstanding
        o = outstanding[node]
        if o >= self.mlp:
            # The router draws again from the next cycle on: this and the
            # skipped cycles drew at the old eligible count.
            self._settle(cycle)
            self._ncap -= 1
            due = cycle + 1
        outstanding[node] = o - 1 if o > 1 else 0
        self.completed_total += 1
        if self._measure_rtts:
            self.completed += 1
            self.rtt_sum += cycle - (meta & _U32)
        return in_flight, due

    # -- fault epochs ----------------------------------------------------------
    def _apply_epoch(self, epoch) -> None:
        """Epoch swap + drop recovery, mirroring the reference: the
        canonical walk's dropped records route their transactions into
        the shared retry path (sorted-tid order, so both engines consume
        the backoff stream identically).  The cycles before the swap
        drew at the old eligible count, so their words settle first."""
        self._settle(self.cycle - 1)
        log: List[tuple] = []
        self._drop_log = log
        try:
            super()._apply_epoch(epoch)
        finally:
            self._drop_log = None
        if log:
            self._fail_or_retry_dropped(
                (
                    (meta >> 33) if size == CONTROL_FLITS else (meta >> 32)
                    for size, meta in log
                ),
                self.cycle,
            )
            self._recount_caps()
