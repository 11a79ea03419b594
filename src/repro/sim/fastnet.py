"""Flat-array fast engine: the production open-loop NoI simulator.

``FastNetworkSimulator`` implements the network model of
:mod:`repro.sim.network` with the cycle-level semantics and RNG draw
order of the reference object-graph simulator (the test-only oracle
``tests/network_oracle.py``) — differential tests assert bit-identical
:class:`SimStats` and per-link flit counts against it — but with the
dict-of-objects hot path compiled down to integer-indexed flat
structures:

* **compiled networks** — the dense ``(node, src, dst) -> next hop``
  and per-flow VC tables, channel id maps, input scan orders, and VC
  occupancy decode tables derived from a :class:`~repro.routing.tables.
  RoutingTable` live in a :class:`CompiledNetwork`, built **once per
  table** (memoized on the table instance) and shared by every
  simulator instance — all rate points of a sweep and all bisection
  probes of a saturation search reuse one compile, leaving only O(#VC
  slots) per-run state to allocate per measurement;
* **pre-generated traffic traces** — injection events for every
  :class:`~repro.sim.traffic.TrafficSpec` are pre-computed in large
  numpy chunks by :class:`~repro.sim.trace.TraceStream` from the
  spec's :class:`~repro.sim.traffic.DestSpec`, replicating the
  reference engine's exact RNG draw order from raw PCG64 words.  The
  generation block of the cycle loop is then just "drain this cycle's
  precomputed arrivals": zero per-packet Python RNG calls, and no
  second, scalar generation path;
* **integer channel ids** — directed link ``k`` of the topology is
  channel ``k``; the injection pseudo-channel of router ``r`` is channel
  ``L + r``.  Per-(channel, VC) state lives in flat lists indexed by
  ``slot = channel*num_vcs + vc``;
* **tuple queues with unpacked scan state** — a queued packet is one
  ``(ready, key, size, src, dst, birth)`` tuple; each (channel, VC)
  queue keeps its head tuple in ``heads[slot]`` (promotion is a single
  store) with the tail in a deque, and a per-channel bitmask tracks
  occupied VCs so the arbitration scan only touches non-empty queues;
* **enqueue-time routing** — ``key`` is the packet's request at its next
  router (-1 = eject there, else the output channel id), precomputed
  when the packet is enqueued, so the scan never consults the routing
  table;
* **per-slot snooze timers** — a head blocked until a provable cycle
  (its own arrival time, the requested output channel's busy timer, the
  ejection port's busy timer) records that cycle in ``snooze[slot]``;
  until then each revisit costs one integer compare.  A record that
  becomes a head (enqueued into an empty VC, or promoted from a tail)
  gets the later of its arrival and its output's busy expiry at once.
  Busy timers are monotone, so a snoozed head can never miss the first
  cycle at which the reference would have granted it;
* **runnable-router bitmask with a timer wheel** — arbitration visits
  only routers in the ``runnable`` mask (ascending bit order — the
  reference's same-cycle credit propagation order).  Each visit ends
  with the router's next possible grant cycle: the earliest head
  timer, the new busy expiry of every output it granted while other
  requesters lost, and the snooze of every head it promoted.  A router
  that cannot grant on the next cycle parks itself in a cycle-indexed
  wheel until then, whether or not it acted, and is re-armed when that
  cycle arrives, when a new head arrives for it (at the head's snooze;
  a tail append cannot act before its head leaves), or when downstream
  credit it was blocked on is released (pops re-arm the upstream router
  only if a grant actually failed on that buffer — ``cwait``).  Skipped
  cycles are exactly the cycles in which the reference arbitration
  would have been a no-op;
* **fused batch loop** — generation, injection, and arbitration for a
  whole ``run`` segment execute inside one loop frame
  (:meth:`_run_cycles`), so the ~30 hot state containers bind to locals
  once per segment instead of once per cycle, and measurement counters
  accumulate in locals that are flushed back when the segment ends.

This engine is the workhorse behind sweeps, saturation searches and
the closed loop (``engine="fast"``).  It also counts the flits each
directed link carries (:attr:`FastNetworkSimulator.link_flits`), the
per-link activity :func:`~repro.sim.stats.measure_activity` hands to
the power model, and its own router visits
(:attr:`FastNetworkSimulator.router_visits`).

One caveat of trace-fed generation: the simulator's Generator is
consumed in pre-drawn chunks, so mutating ``sim.rate`` mid-run diverges
from the reference's draw stream for the remaining cycles (setting it to
0 — draining — is exact: generation stops outright, matching the
reference's ``lam <= 0`` early-out).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..routing.tables import RoutingTable
from .network import (
    DEFAULT_VC_BUFFER_FLITS,
    LINK_LATENCY,
    ROUTER_LATENCY,
    SimStats,
)
from .trace import TraceStream
from .traffic import TrafficSpec

#: Queued packet record: (ready, key, size, src, dst, birth) where
#: ``key`` is the precomputed request at the downstream router (-1 =
#: eject there, else the output channel id to request).
PacketRecord = Tuple[int, int, int, int, int, int]

#: Injection event record: (cycle, node, vc, key, size, dst).
EventRecord = Tuple[int, int, int, int, int, int]

#: Engine name -> simulator class (:data:`ENGINES`).  ``DEFAULT_ENGINE``
#: is what sweeps, the runner, and the CLI use unless told otherwise.
DEFAULT_ENGINE = "fast"

_NEVER = 1 << 60  # sentinel wake time: no pending timer found yet
_NO_KEY = -2  # sentinel: no ready request collected yet this scan
_LOST = -3  # event key: flow unroutable in the current fault epoch


def resolve_engine(engine: str):
    """Map an engine name to its simulator class."""
    if engine == "turbo" and "turbo" not in ENGINES:
        # The batched module registers the turbo adapter on import;
        # resolve it lazily so worker processes that only import this
        # module still honor engine="turbo" task payloads.
        from . import batch  # noqa: F401  (registers ENGINES["turbo"])
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}: expected one of {sorted(ENGINES)}"
        ) from None


class CompiledNetwork:
    """Immutable flat-array compilation of one :class:`RoutingTable`.

    Everything a :class:`FastNetworkSimulator` derives from the table
    alone — no per-run parameters, no mutable state — so one compile
    serves every (rate, seed, buffer-size) measurement over that table.
    Obtain instances through :meth:`for_table`, which memoizes the
    compile on the table object itself.
    """

    def __init__(self, table: RoutingTable):
        self.table = table
        topo = table.topology
        n = topo.n
        V = table.num_vcs
        links = list(topo.directed_links)
        L = len(links)
        self.n = n
        self.num_vcs = V
        self.num_links = L

        # Channel id space: links 0..L-1, injection pseudo-channels L..L+n-1.
        out_id = [-1] * (n * n)
        for ch, (u, v) in enumerate(links):
            out_id[u * n + v] = ch
        self.out_id = out_id

        # Routing state: the hot loop asks "which output channel does
        # the packet (src, dst) parked at router v request next?".
        # Destination-keyed (CSR) tables answer from a flat n² array;
        # dict tables, whose hop may depend on the source, answer from a
        # sparse dict over the (v, src, dst) triples the table actually
        # names.  Both store the *request key* (the output channel id,
        # ``out_id`` pre-applied), never the raw hop — and neither
        # materializes the historical dense n³ next-hop list.
        if getattr(table, "dest_keyed", False):
            nm = table.next_matrix()
            self.fwd = None
            self.fwd_dst = [
                -1 if hop < 0 else out_id[(k // n) * n + hop]
                for k, hop in enumerate(nm.tolist())
            ]
            vc_of = np.where(table.flow_mask, table.flow_vc, 0).tolist()
        else:
            fwd = {}
            for (node, src, dst), hop in table.next_hop.items():
                fwd[(node * n + src) * n + dst] = out_id[node * n + hop]
            self.fwd = fwd
            self.fwd_dst = None
            vc_of = [0] * (n * n)
            for (src, dst), vc in table.flow_vc.items():
                vc_of[src * n + dst] = vc
        self.vc_of = vc_of
        self.ch_dst = [v for _, v in links]  # downstream router per link
        self.ch_src = [u for u, _ in links]  # upstream router per link
        # Per-router input scan order mirrors the reference exactly:
        # injection channel first, then link channels in topology order.
        in_bases: List[List[int]] = [[(L + r) * V] for r in range(n)]
        for ch, (_, v) in enumerate(links):
            in_bases[v].append(ch * V)
        self.in_bases = [tuple(b) for b in in_bases]
        self.inj_base = [(L + r) * V for r in range(n)]

        nq = (L + n) * V
        self.num_slots = nq
        # Scan helpers: occupancy-mask -> tuple of set VC indices
        # (ascending, i.e. the reference VC scan order), and slot ->
        # upstream router to wake when that buffer frees (-1 for
        # injection slots, which have no upstream arbiter).
        self.vcs_of = [
            tuple(vc for vc in range(V) if m >> vc & 1) for m in range(1 << V)
        ]
        self.slot_src = [
            self.ch_src[slot // V] if slot < L * V else -1 for slot in range(nq)
        ]
        self.slot_ch = [s // V for s in range(nq)]
        # Grant-path decode tables: slot -> VC index, channel base slot,
        # and the occupancy-bit clear mask, so dequeues never divide.
        self.slot_vc = [s % V for s in range(nq)]
        self.slot_qbase = [s - s % V for s in range(nq)]
        self.slot_clear = [~(1 << (s % V)) for s in range(nq)]

        # Injection-time request key per flow: the output channel a
        # source-queued packet will request at its own router (-1 =
        # immediate ejection, src == dst).  Shared by the closed-loop
        # hooks and epoch re-keying and, as a numpy table, by vectorized
        # trace-event compilation.
        if self.fwd_dst is not None:
            # Destination-keyed: the at-source request key *is* the
            # (node, dst) forward key, diagonal already -1.
            inj_key = list(self.fwd_dst)
        else:
            inj_key = [-1] * (n * n)
            for (node, src, dst), _hop in table.next_hop.items():
                if node == src:
                    inj_key[src * n + dst] = self.fwd[(node * n + src) * n + dst]
        self.inj_key = inj_key
        self.inj_key_np = np.array(inj_key, dtype=np.int64)
        self.vc_of_np = np.array(vc_of, dtype=np.int64)

        # Flow liveness: True iff the table can route (src, dst).
        # Self-traffic always delivers.  Survivor tables of a fault epoch
        # omit unreachable flows; the engines count their traffic as lost.
        if self.fwd_dst is not None:
            ok = np.asarray(table.flow_mask, dtype=bool).copy()
            ok[np.arange(n) * (n + 1)] = True
            flow_ok = ok.tolist()
        else:
            flow_ok = [False] * (n * n)
            for src in range(n):
                flow_ok[src * n + src] = True
            for (src, dst) in table.flow_vc:
                flow_ok[src * n + dst] = True
        self.flow_ok = flow_ok
        self.flow_ok_np = np.array(flow_ok, dtype=bool)

    @classmethod
    def for_table(cls, table: RoutingTable) -> "CompiledNetwork":
        """The table's compiled form, built at most once per table."""
        cached = table.__dict__.get("_compiled_network")
        if cached is None:
            cached = cls(table)
            table.__dict__["_compiled_network"] = cached
        return cached


class FastNetworkSimulator:
    """One open-loop simulation bound to a routing table and traffic."""

    #: Closed-loop extension points (see :mod:`repro.fullsys.fastloop`).
    #: ``_closed_gen(cycle, pending, in_flight, pid)`` replaces the whole
    #: generation block when set (demand-driven injection is state-
    #: dependent, so it cannot be trace-fed) and returns the updated
    #: accumulators plus ``due``, the next cycle on which it can act; the
    #: loop calls it only once ``cycle >= due`` and on the first cycle of
    #: every ``_run_cycles`` segment.  ``_closed_eject(cycle, rec,
    #: in_flight, due)`` observes every ejection (the reference engine's
    #: ``_on_eject`` hook) and returns the updated in-flight count and
    #: ``due``, lowered when the ejection gives the generation hook work.
    #: ``None`` (the default) costs the open-loop hot path one pointer
    #: test per cycle / per ejection.
    _closed_gen = None
    _closed_eject = None

    #: Whether the closed-loop hooks (if any) honor fault epochs.  The
    #: closed-loop subclass flips this to True: its construction-time
    #: validation guarantees a retry policy accompanies any fault
    #: schedule, so epoch swaps can route dropped requests into the
    #: retry path instead of stranding their transactions.
    _closed_faults = False

    #: Epoch-swap drop collector: a list set by the closed-loop subclass
    #: around ``_apply_epoch``; dropped records append ``(size, meta)``.
    _drop_log = None

    #: Trace chunk length override (None = :data:`~repro.sim.trace.
    #: TRACE_CHUNK_CYCLES`); tests shrink it to stress chunk boundaries.
    trace_chunk_cycles: Optional[int] = None

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
        # Fault timelines swap the active table at epoch boundaries; the
        # simulation starts on epoch 0's table (the pristine base, padded
        # to the timeline's common VC count when a later epoch needs
        # more layers), whose compile supersedes any caller-shared one.
        self._timeline = None
        self._epoch_i = 0
        self._faulty = faults is not None
        if faults is not None:
            from ..faults.timeline import FaultTimeline

            self._timeline = FaultTimeline.for_table(table, faults)
            table = self._timeline.epochs[0].table
            compiled = self._timeline.epochs[0].compiled
        self.table = table
        self.topo = table.topology
        self.traffic = traffic
        self.rate = float(injection_rate)
        self.rng = np.random.default_rng(seed)
        self.vc_cap = vc_buffer_flits
        self.hop_delay = router_latency + link_latency + extra_hop_latency

        if compiled is None:
            compiled = CompiledNetwork.for_table(table)
        elif compiled.table is not table:
            raise ValueError("compiled network was built for a different table")
        self.cn = compiled
        n = compiled.n
        self.n = n
        self.num_vcs = compiled.num_vcs
        self.num_links = compiled.num_links
        # Hot-loop views of the immutable compile.
        self.fwd = compiled.fwd
        self.fwd_dst = compiled.fwd_dst
        self.vc_of = compiled.vc_of
        self.out_id = compiled.out_id
        self.inj_key = compiled.inj_key
        self.ch_dst = compiled.ch_dst
        self.in_bases = compiled.in_bases
        self.inj_base = compiled.inj_base
        self.vcs_of = compiled.vcs_of
        self.slot_src = compiled.slot_src
        self.slot_ch = compiled.slot_ch
        self.slot_vc = compiled.slot_vc
        self.slot_qbase = compiled.slot_qbase
        self.slot_clear = compiled.slot_clear
        self.flow_ok = compiled.flow_ok

        # -- per-run mutable state (cheap: O(slots)) -----------------------
        nq = compiled.num_slots
        V = compiled.num_vcs
        L = compiled.num_links
        # Queue state per slot: head record, earliest cycle the head
        # could possibly act (snooze), tail deque, per-channel occupancy
        # bitmask (indexed by the channel's base slot), and the
        # credit-waiter flag (an upstream grant failed on this buffer).
        self.heads: List[Optional[PacketRecord]] = [None] * nq
        self.snooze = [0] * nq
        self.tail: List[Deque[PacketRecord]] = [deque() for _ in range(nq)]
        self.masks = [0] * nq
        self.cwait = [0] * nq

        self.free = [self.vc_cap] * nq
        self.busy_until = [0] * L
        #: Flits granted onto each directed link (topology order) since
        #: cycle 0, warmup included — the per-link activity counter.
        self.link_flits = [0] * L
        #: Router arbitration visits since cycle 0 (a cost counter, like
        #: ``link_flits`` outside :class:`SimStats`).
        self.router_visits = 0
        self.rr = [0] * L
        self.inj_busy = [0] * n
        self.ej_busy = [0] * n
        self.ej_rr = [0] * n
        # Source-side state: per-node generated-packet queue plus a
        # bitmask of nodes whose queue is non-empty.
        self.source_q: List[Deque[Tuple[int, int, int, int, int]]] = [
            deque() for _ in range(n)
        ]
        self.pending = 0
        # Source ports not provably blocked (inj-port serialization or
        # full inj buffer); blocked ports re-arm via the injection wheel
        # or an inj-buffer credit release.
        self.pollable = (1 << n) - 1
        self.iwheel: Dict[int, int] = {}
        # Worklist state: the runnable-router mask, per-router wake
        # times (0 = runnable now), and the cycle-indexed timer wheel.
        self.runnable = (1 << n) - 1
        self.wake = [0] * n
        self.wheel: Dict[int, int] = {}

        # Trace state: pre-generated injection events (built lazily on
        # the first generating segment; rebuilt if the rate changes).
        self._trace: Optional[TraceStream] = None
        self._events: List[EventRecord] = []
        self._ev_i = 0
        self._trace_end = 0
        # The cycle the current ``run`` ends on: chunks stop there.
        self._run_end = 0

        self._pid = 0
        self.cycle = 0
        self.measuring = False
        self.measure_start = 0
        self.offered = 0
        self.ejected = 0
        self.ejected_flits = 0
        self.lat_sum = 0.0
        self.lat_count = 0
        self.in_flight = 0
        self.lost = 0

    # -- trace plumbing --------------------------------------------------------
    def _trace_for(self, lam: float) -> TraceStream:
        """The event trace for rate ``lam`` (rebuilt if the rate changed)."""
        trace = self._trace
        if trace is None or trace.rate != lam:
            chunk = self.trace_chunk_cycles
            trace = TraceStream(
                self.traffic, self.n, lam, self.rng,
                **({"chunk_cycles": chunk} if chunk else {}),
            )
            trace.next_cycle = self.cycle
            self._trace = trace
            self._events = []
            self._ev_i = 0
            self._trace_end = self.cycle
        return trace

    def _compile_events(self, chunk) -> Tuple[List[EventRecord], int]:
        """Turn one trace chunk into ready-to-inject event tuples.

        The flow's VC and injection-time request key resolve here with
        two vectorized gathers, so the cycle loop only drains tuples.
        """
        end, cyc, src, dst, size = chunk
        if cyc.size == 0:
            return [], end
        flow = src * self.n + dst
        vc = self.cn.vc_of_np[flow]
        key = self.cn.inj_key_np[flow]
        if self._faulty:
            # Flows the current epoch's table cannot route drain as
            # ``_LOST`` events (counted, never enqueued).
            key = np.where(self.cn.flow_ok_np[flow], key, _LOST)
        return (
            list(
                zip(
                    cyc.tolist(),
                    src.tolist(),
                    vc.tolist(),
                    key.tolist(),
                    size.tolist(),
                    dst.tolist(),
                )
            ),
            end,
        )

    # -- the fused cycle loop --------------------------------------------------
    def _run_cycles(self, ncycles: int) -> None:
        """Advance the simulation by ``ncycles`` cycles.

        One loop frame owns generation, injection, and arbitration so
        every hot container is a local.  Each cycle performs, in order:
        per-node generation (draining the pre-generated trace), source-
        queue injection, and per-router arbitration in ascending router
        index — exactly the reference's per-cycle ``step`` sequence.
        """
        if ncycles <= 0:
            return
        cycle = self.cycle
        end = cycle + ncycles
        n = self.n
        V = self.num_vcs

        # generation / injection state: this cycle's arrivals are
        # precomputed trace tuples (the differential suite pins them to
        # the reference's draws).
        lam = self.rate
        gen_fn = self._closed_gen
        eject_fn = self._closed_eject
        due = cycle  # the closed-loop hook runs on a segment's first cycle
        trace = self._trace_for(lam) if lam > 0 and gen_fn is None else None
        use_trace = trace is not None
        events = self._events
        ev_i = self._ev_i
        ev_len = len(events)
        trace_end = self._trace_end
        run_end = self._run_end
        source_q = self.source_q
        pending = self.pending
        pollable = self.pollable
        iwheel = self.iwheel
        iwheel_pop = iwheel.pop
        iwheel_get = iwheel.get
        inj_base = self.inj_base
        inj_busy = self.inj_busy
        num_links = self.num_links
        link_slots = num_links * V

        # switching state
        wake = self.wake
        wheel = self.wheel
        wheel_pop = wheel.pop
        wheel_get = wheel.get
        runnable = self.runnable
        masks = self.masks
        heads = self.heads
        snooze = self.snooze
        tail = self.tail
        free = self.free
        cwait = self.cwait
        slot_ch = self.slot_ch
        busy_until = self.busy_until
        link_flits = self.link_flits
        rr = self.rr
        ej_busy = self.ej_busy
        ej_rr = self.ej_rr
        in_bases = self.in_bases
        out_id = self.out_id
        fwd = self.fwd
        fwd_dst = self.fwd_dst
        ch_dst = self.ch_dst
        vcs_of = self.vcs_of
        slot_src = self.slot_src
        slot_vc = self.slot_vc
        slot_qbase = self.slot_qbase
        slot_clear = self.slot_clear
        hop_delay = self.hop_delay
        one = [0]  # reusable single-requester list (fast path)

        # measurement accumulators (flushed back on exit)
        measuring = self.measuring
        measure_start = self.measure_start
        pid = self._pid
        offered = self.offered
        lost = self.lost
        ejected = self.ejected
        ejected_flits = self.ejected_flits
        lat_sum = self.lat_sum
        lat_count = self.lat_count
        in_flight = self.in_flight
        visits = 0

        while cycle < end:
            # -- generation: drain this cycle's precomputed arrivals (the
            # trace replicates the reference's draw stream bit-exactly).
            # Closed-loop mode replaces the block outright: injection is
            # demand-driven (per-node outstanding budgets) so each
            # cycle's draws depend on simulation state.  The hook names
            # the next cycle it can act on; the cycles before it are
            # skipped.
            if gen_fn is not None:
                if cycle >= due:
                    pending, in_flight, pid, due = gen_fn(
                        cycle, pending, in_flight, pid
                    )
            elif use_trace:
                if cycle >= trace_end:
                    events, trace_end = self._compile_events(trace.next_chunk(
                        run_end - cycle if run_end > cycle else None
                    ))
                    ev_i = 0
                    ev_len = len(events)
                while ev_i < ev_len:
                    ev = events[ev_i]
                    if ev[0] != cycle:
                        break
                    ev_i += 1
                    node = ev[1]
                    key = ev[3]
                    if key == _LOST:
                        if measuring:
                            offered += 1
                            lost += 1
                        continue
                    pid += 1
                    source_q[node].append((ev[2], key, ev[4], ev[5], cycle))
                    pending |= 1 << node
                    in_flight += 1
                    if measuring:
                        offered += 1

            # -- injection: serialized source ports, ascending node order.
            # Only nodes with a backlog that are not provably blocked are
            # visited; blocked ones park in the injection wheel (port
            # timer) or wait for an inj-buffer credit release.
            ifired = iwheel_pop(cycle, 0)
            if ifired:
                pollable |= ifired
            m = pending & pollable
            if m:
                while m:
                    lsb = m & -m
                    m ^= lsb
                    node = lsb.bit_length() - 1
                    busy_t = inj_busy[node]
                    if busy_t > cycle:
                        pollable ^= lsb
                        iwheel[busy_t] = iwheel_get(busy_t, 0) | lsb
                        continue
                    sq = source_q[node]
                    vc, key, size, dst, birth = sq[0]
                    base = inj_base[node]
                    slot = base + vc
                    if free[slot] < size:
                        # Re-armed when a pop frees this node's inj buffer.
                        pollable ^= lsb
                        continue
                    sq.popleft()
                    if not sq:
                        pending ^= lsb
                    free[slot] -= size
                    ready = cycle + size
                    inj_busy[node] = ready
                    # The port now serializes until ``ready``; park it.
                    pollable ^= lsb
                    iwheel[ready] = iwheel_get(ready, 0) | lsb
                    rec = (ready, key, size, node, dst, birth)
                    bit = 1 << vc
                    if masks[base] & bit:
                        # A tail record cannot act before its head
                        # leaves, which takes a visit of this router.
                        tail[slot].append(rec)
                    else:
                        masks[base] |= bit
                        heads[slot] = rec
                        # A new head waits for its arrival and for the
                        # output it requests to free.
                        b = busy_until[key] if key >= 0 else ej_busy[node]
                        snz = ready if ready >= b else b
                        snooze[slot] = snz
                        if snz < wake[node]:
                            # The node's router sleeps past that cycle:
                            # re-arm it then.
                            wake[node] = snz
                            wheel[snz] = wheel_get(snz, 0) | lsb

            # -- switching: runnable routers in ascending index order
            # (the reference's same-cycle credit propagation order).
            fired = wheel_pop(cycle, 0)
            if fired:
                runnable |= fired
                while fired:
                    fl = fired & -fired
                    fired ^= fl
                    wake[fl.bit_length() - 1] = 0
            # Iterate the LIVE mask, ascending: a credit release by
            # router v re-arms an upstream router u' immediately, and if
            # u' > v the reference lets it act later in the same cycle.
            u = -1
            while True:
                m_live = runnable >> (u + 1)
                if not m_live:
                    break
                u += (m_live & -m_live).bit_length()
                ubit = 1 << u
                visits += 1
                # Scan this router's occupied input queues in the
                # reference order and bucket ready heads per requested
                # output channel (-1 = the ejection port).  Outputs
                # mid-serialization (and a busy ejection port) are
                # skipped at scan time: the reference builds their
                # request lists too, but never touches state for them,
                # so dropping them here is observationally identical.
                # ``wake_t`` accumulates the earliest deterministic
                # timer (packet arrival / busy expiry) for the sleep
                # decision; the single-requester common case avoids
                # building a dict at all.
                requests: Optional[dict] = None
                k1 = _NO_KEY
                s1 = 0
                wake_t = _NEVER
                ej_busy_u = ej_busy[u]
                for base in in_bases[u]:
                    m = masks[base]
                    if not m:
                        continue
                    for vc in vcs_of[m]:
                        slot = base + vc
                        t_ = snooze[slot]
                        if t_ > cycle:
                            if t_ < wake_t:
                                wake_t = t_
                            continue
                        key = heads[slot][1]
                        if key >= 0:
                            b = busy_until[key]
                            if b > cycle:
                                snooze[slot] = b
                                if b < wake_t:
                                    wake_t = b
                                continue
                        elif ej_busy_u > cycle:
                            snooze[slot] = ej_busy_u
                            if ej_busy_u < wake_t:
                                wake_t = ej_busy_u
                            continue
                        if requests is not None:
                            lst = requests.get(key)
                            if lst is None:
                                requests[key] = [slot]
                            else:
                                lst.append(slot)
                        elif k1 == _NO_KEY:
                            k1 = key
                            s1 = slot
                        else:
                            requests = {k1: [s1]}
                            lst = requests.get(key)
                            if lst is None:
                                requests[key] = [slot]
                            else:
                                lst.append(slot)
                if requests is not None:
                    items = requests.items()
                elif k1 == _NO_KEY:
                    items = ()
                else:
                    one[0] = s1
                    items = ((k1, one),)
                # Grants lower ``wake_t`` to the router's next possible
                # grant cycle: requesters that lost an output retry once
                # it frees, and a head promoted from a tail waits for
                # its arrival and its output.  Requesters of an output
                # that granted nothing were all credit-blocked; ``cwait``
                # re-arms the router for them.
                for key, reqs in items:
                    if key < 0:
                        # Ejection port: serialized, one grant per cycle.
                        nr = len(reqs)
                        if nr == 1:
                            start = 0
                            slot = reqs[0]
                        else:
                            start = ej_rr[u] % nr
                            slot = reqs[start]
                        rec = heads[slot]
                        size = rec[2]
                        done = cycle + size
                        ej_busy[u] = done
                        if nr > 1 and done < wake_t:
                            wake_t = done
                        t = tail[slot]
                        if t:
                            nxt_rec = t.popleft()
                            heads[slot] = nxt_rec
                            nk = nxt_rec[1]
                            b = busy_until[nk] if nk >= 0 else done
                            snz = nxt_rec[0]
                            if b > snz:
                                snz = b
                            snooze[slot] = snz
                            if snz < wake_t:
                                wake_t = snz
                        else:
                            masks[slot_qbase[slot]] &= slot_clear[slot]
                        free[slot] += size
                        if slot >= link_slots:
                            # Freed inj-buffer space: the source port may
                            # retry.
                            pollable |= 1 << (slot_ch[slot] - num_links)
                        elif cwait[slot]:
                            # Freed credit an upstream grant failed on:
                            # re-arm that router and unpark the output.
                            cwait[slot] = 0
                            runnable |= 1 << slot_src[slot]
                        ej_rr[u] = start + 1
                        in_flight -= 1
                        if measuring:
                            # Accepted throughput counts every delivery
                            # in the window; latency samples only
                            # window-born packets (mirrors the reference
                            # `_eject` exactly).
                            ejected += 1
                            ejected_flits += size
                            birth = rec[5]
                            if birth >= measure_start:
                                lat_sum += done - birth
                                lat_count += 1
                        if eject_fn is not None:
                            in_flight, due = eject_fn(
                                cycle, rec, in_flight, due
                            )
                        continue
                    out = key
                    nr = len(reqs)
                    start = 0 if nr == 1 else rr[out] % nr
                    out_base = out * V
                    # round-robin among requestors, skipping those
                    # blocked by missing downstream credit (virtual
                    # cut-through).
                    for k in range(nr):
                        slot = reqs[start + k - nr if start + k >= nr else start + k]
                        rec = heads[slot]
                        size = rec[2]
                        vc = slot_vc[slot]
                        oslot = out_base + vc
                        if free[oslot] < size:
                            cwait[oslot] = 1
                            continue
                        done = cycle + size
                        busy_until[out] = done
                        if nr > 1 and done < wake_t:
                            wake_t = done
                        t = tail[slot]
                        if t:
                            nxt_rec = t.popleft()
                            heads[slot] = nxt_rec
                            nk = nxt_rec[1]
                            b = busy_until[nk] if nk >= 0 else ej_busy[u]
                            snz = nxt_rec[0]
                            if b > snz:
                                snz = b
                            snooze[slot] = snz
                            if snz < wake_t:
                                wake_t = snz
                        else:
                            masks[slot_qbase[slot]] &= slot_clear[slot]
                        free[slot] += size
                        if slot >= link_slots:
                            pollable |= 1 << (slot_ch[slot] - num_links)
                        elif cwait[slot]:
                            cwait[slot] = 0
                            runnable |= 1 << slot_src[slot]
                        free[oslot] -= size
                        link_flits[out] += size
                        v = ch_dst[out]
                        src = rec[3]
                        dst = rec[4]
                        if dst == v:
                            nkey = -1
                        elif fwd_dst is not None:
                            nkey = fwd_dst[v * n + dst]
                        else:
                            nkey = fwd[(v * n + src) * n + dst]
                        ready = done + hop_delay
                        nrec = (ready, nkey, size, src, dst, rec[5])
                        bit = 1 << vc
                        if masks[out_base] & bit:
                            tail[oslot].append(nrec)
                        else:
                            masks[out_base] |= bit
                            heads[oslot] = nrec
                            b = busy_until[nkey] if nkey >= 0 else ej_busy[v]
                            snz = ready if ready >= b else b
                            snooze[oslot] = snz
                            if snz < wake[v]:
                                # The downstream router sleeps past
                                # that cycle: re-arm it then.
                                wake[v] = snz
                                wheel[snz] = wheel_get(snz, 0) | (1 << v)
                        nxt = start + k + 1
                        rr[out] = nxt - nr if nxt >= nr else nxt
                        break
                if wake_t > cycle + 1:
                    # No head can be granted next cycle: park the router
                    # until its next possible grant, skipping exactly the
                    # no-op cycles.  Arrivals of new heads re-arm it at
                    # their own bound, and credit releases via ``cwait``.
                    runnable ^= ubit
                    wake[u] = wake_t
                    if wake_t != _NEVER:
                        wheel[wake_t] = wheel_get(wake_t, 0) | ubit
            cycle += 1

        self.cycle = cycle
        self.pending = pending
        self.pollable = pollable
        self.runnable = runnable
        self._events = events
        self._ev_i = ev_i
        self._trace_end = trace_end
        self._pid = pid
        self.offered = offered
        self.ejected = ejected
        self.ejected_flits = ejected_flits
        self.lat_sum = lat_sum
        self.lat_count = lat_count
        self.in_flight = in_flight
        self.lost = lost
        self.router_visits += visits

    # -- fault epochs ----------------------------------------------------------
    def _advance(self, ncycles: int) -> None:
        """Advance ``ncycles``, applying fault epochs at their start
        cycles (before that cycle's generation — the reference's
        ``step`` order), and running the fused loop between them."""
        tl = self._timeline
        if tl is None:
            self._run_cycles(ncycles)
            return
        if self._closed_gen is not None and not self._closed_faults:
            raise ValueError(
                "fault schedule attached to closed-loop generation hooks "
                "without timeout/retry support: an epoch swap would strand "
                "in-flight request transactions.  Construct a closed-loop "
                "simulator with a RetryPolicy (faults=... requires "
                "retry=...) instead of installing _closed_gen on the "
                "open-loop engine."
            )
        eps = tl.epochs
        end = self.cycle + ncycles
        while self.cycle < end:
            i = self._epoch_i
            while i + 1 < len(eps) and eps[i + 1].start <= self.cycle:
                i += 1
                self._apply_epoch(eps[i])
            self._epoch_i = i
            nxt = eps[i + 1].start if i + 1 < len(eps) else end
            self._run_cycles(min(end, nxt) - self.cycle)

    def _apply_epoch(self, epoch) -> None:
        """Swap in a fault epoch's compiled network.

        Mirrors the reference engine's ``_apply_epoch`` walk exactly:
        every queued record is visited in canonical order (link channels
        0..L-1 then injection channels, VCs ascending, FIFO within a
        VC), dropped if its current router died, it is in transit on a
        link that died, or its flow became unroutable — and otherwise
        re-keyed as if freshly injected at its current router (new VC,
        new request key from the survivor table).  Port/link busy timers
        survive untouched: hardware serialization outlives a table swap.
        """
        cn_new = epoch.compiled
        dead_routers = epoch.dead_routers
        dead_channels = epoch.dead_channels
        n = self.n
        V = self.num_vcs
        L = self.num_links
        cycle = self.cycle
        vc_cap = self.vc_cap
        heads = self.heads
        snooze = self.snooze
        tail = self.tail
        masks = self.masks
        free = self.free
        ch_dst = self.ch_dst
        vcs_of = self.vcs_of
        vc_of_new = cn_new.vc_of
        inj_key_new = cn_new.inj_key
        flow_ok_new = cn_new.flow_ok
        dropped = 0
        drop_log = self._drop_log

        for ch in range(L + n):
            base = ch * V
            m = masks[base]
            if not m:
                continue
            cur = ch_dst[ch] if ch < L else ch - L
            ch_dead = cur in dead_routers
            link_dead = ch in dead_channels
            per_vc: List[List[PacketRecord]] = [[] for _ in range(V)]
            for vc in vcs_of[m]:
                slot = base + vc
                recs = [heads[slot]]
                recs.extend(tail[slot])
                for rec in recs:
                    ready, _key, size, _src, dst, birth = rec
                    if (
                        ch_dead
                        or (link_dead and ready > cycle)
                        or (dst != cur and not flow_ok_new[cur * n + dst])
                    ):
                        dropped += 1
                        if drop_log is not None:
                            drop_log.append((size, birth))
                        continue
                    if dst == cur:
                        # Key is already -1 (eject here); keep the VC so
                        # the record keeps its slot.
                        per_vc[vc].append(
                            (ready, -1, size, cur, dst, birth)
                        )
                    else:
                        per_vc[vc_of_new[cur * n + dst]].append(
                            (
                                ready,
                                inj_key_new[cur * n + dst],
                                size,
                                cur,
                                dst,
                                birth,
                            )
                        )
            mask = 0
            for vc in range(V):
                slot = base + vc
                q = per_vc[vc]
                if q:
                    mask |= 1 << vc
                    heads[slot] = q[0]
                    snooze[slot] = q[0][0]
                    tail[slot] = deque(q[1:])
                    free[slot] = vc_cap - sum(r[2] for r in q)
                else:
                    heads[slot] = None
                    snooze[slot] = 0
                    tail[slot] = deque()
                    free[slot] = vc_cap
            masks[base] = mask

        # Source queues: drop dead-node and unroutable backlog, re-key
        # the rest.
        pending = 0
        for node in range(n):
            sq = self.source_q[node]
            if not sq:
                continue
            if node in dead_routers:
                dropped += len(sq)
                if drop_log is not None:
                    drop_log.extend(
                        (size, birth) for (_vc, _key, size, _dst, birth) in sq
                    )
                sq.clear()
                continue
            kept: Deque[Tuple[int, int, int, int, int]] = deque()
            for (vc, key, size, dst, birth) in sq:
                if dst != node and not flow_ok_new[node * n + dst]:
                    dropped += 1
                    if drop_log is not None:
                        drop_log.append((size, birth))
                    continue
                if dst == node:
                    kept.append((vc, key, size, dst, birth))
                else:
                    kept.append(
                        (
                            vc_of_new[node * n + dst],
                            inj_key_new[node * n + dst],
                            size,
                            dst,
                            birth,
                        )
                    )
            self.source_q[node] = kept
            if kept:
                pending |= 1 << node
        self.pending = pending

        # Every live router re-scans from scratch under the new tables;
        # snooze/cwait state tied to old request keys is stale.
        live_mask = 0
        for r in range(n):
            if r not in dead_routers:
                live_mask |= 1 << r
        self.cwait = [0] * cn_new.num_slots
        self.runnable = live_mask
        self.wake = [0] * n
        self.wheel.clear()
        self.pollable = live_mask
        self.iwheel.clear()

        # Pending trace events were compiled against the old tables;
        # re-resolve VC / request key / liveness under the new ones.
        events = self._events
        ev_i = self._ev_i
        if ev_i < len(events):
            fresh: List[EventRecord] = []
            for (c, node, _vc, _key, size, dst) in events[ev_i:]:
                flow = node * n + dst
                if not flow_ok_new[flow]:
                    fresh.append((c, node, 0, _LOST, size, dst))
                else:
                    fresh.append(
                        (c, node, vc_of_new[flow], inj_key_new[flow], size, dst)
                    )
            self._events = fresh
        else:
            self._events = []
        self._ev_i = 0

        self.in_flight -= dropped
        if self.measuring:
            self.lost += dropped

        self.cn = cn_new
        self.table = epoch.table
        self.fwd = cn_new.fwd
        self.fwd_dst = cn_new.fwd_dst
        self.vc_of = cn_new.vc_of
        self.out_id = cn_new.out_id
        self.inj_key = cn_new.inj_key
        self.ch_dst = cn_new.ch_dst
        self.in_bases = cn_new.in_bases
        self.inj_base = cn_new.inj_base
        self.vcs_of = cn_new.vcs_of
        self.slot_src = cn_new.slot_src
        self.slot_ch = cn_new.slot_ch
        self.slot_vc = cn_new.slot_vc
        self.slot_qbase = cn_new.slot_qbase
        self.slot_clear = cn_new.slot_clear
        self.flow_ok = cn_new.flow_ok

    # -- public stepping API ---------------------------------------------------
    def step(self) -> None:
        """Advance one cycle (generation, injection, arbitration)."""
        self._advance(1)

    def run(self, warmup: int, measure: int) -> SimStats:
        """Warm up, then measure for ``measure`` cycles."""
        if self.trace_chunk_cycles is None:
            # Generate only the cycles this run simulates; ``step`` and
            # the test override keep whole chunks.
            self._run_end = self.cycle + warmup + measure
        self._advance(warmup)
        self.measuring = True
        self.measure_start = self.cycle
        self._advance(measure)
        self.measuring = False
        return SimStats(
            cycles=measure,
            offered_packets=self.offered,
            ejected_packets=self.ejected,
            ejected_flits=self.ejected_flits,
            latency_sum=self.lat_sum,
            latency_count=self.lat_count,
            n_nodes=self.n,
            lost_packets=self.lost,
        )


ENGINES = {"fast": FastNetworkSimulator}
