"""Reference open-loop network simulator on the object-graph engine.

The A/B oracle for :class:`repro.sim.fastnet.FastNetworkSimulator`, the
production engine that replaced it (kept verbatim but for a build
counter): per-channel dicts of ``deque`` queues keyed by
``(u, v)`` channel tuples, :class:`Packet` objects, one scalar
``Generator`` call per draw (the laws of ``traffic_oracle.py``), and a
scan of every router every cycle.
The fast engine must give identical :class:`~repro.sim.network.SimStats`
(and, per directed link, identical flit counts), so the differential
suites run both.  :class:`InstrumentedSimulator` adds the oracle's
per-channel activity accounting, which pins the fast engine's
``link_flits`` and :func:`repro.sim.stats.measure_activity`.

Tests and the engine benchmark reach the oracle as
``engine="reference"`` through :func:`register_reference`, which puts it
into the production engine registry for one test.  Test-only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.routing.tables import RoutingTable
from repro.sim import fastnet
from repro.sim.network import (
    DEFAULT_VC_BUFFER_FLITS,
    LINK_LATENCY,
    ROUTER_LATENCY,
    SimStats,
)
from repro.sim.traffic import TrafficSpec
from traffic_oracle import destination, packet_size

Channel = Tuple[int, int]


@dataclass(slots=True)
class Packet:
    """One network packet traversing the NoI.

    ``tid`` is the closed-loop transaction id: a request and the reply it
    triggers share one, so timeout/retry bookkeeping can match a stale
    retransmission (or a packet dropped by a fault epoch) back to its
    transaction.  Open-loop packets leave it 0.
    """

    pid: int
    src: int
    dst: int
    size_flits: int
    birth_cycle: int
    vc: int = 0
    is_data: bool = False
    tid: int = 0

    def latency(self, eject_cycle: int) -> int:
        return eject_cycle - self.birth_cycle


class NetworkSimulator:
    """One simulation instance bound to a routing table and traffic."""

    #: Simulators built so far (subclasses included), so a test that
    #: routes ``engine="reference"`` here can assert that it really ran.
    built = 0

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
        faults=None,
    ):
        NetworkSimulator.built += 1
        # Fault mode swaps in the timeline's (possibly VC-padded) base
        # table before any sizing happens; `faults=None` leaves the
        # pristine path untouched.
        self._timeline = None
        self._epoch_i = 0
        self._faulty = faults is not None
        if faults is not None:
            from repro.faults.timeline import FaultTimeline

            self._timeline = FaultTimeline.for_table(table, faults)
            table = self._timeline.epochs[0].table
        self.table = table
        self.topo = table.topology
        self.traffic = traffic
        self.rate = float(injection_rate)
        self.rng = np.random.default_rng(seed)
        self.vc_cap = vc_buffer_flits
        self.hop_delay = router_latency + link_latency + extra_hop_latency
        self.num_vcs = table.num_vcs

        n = self.topo.n
        self.n = n
        # physical channels: directed links plus one injection pseudo-channel
        # per router (key (-1, r)); ejection handled by per-router port.
        self.channels: List[Channel] = list(self.topo.directed_links)
        self.inputs_of: Dict[int, List[Channel]] = {
            r: [(-1, r)] for r in range(n)
        }
        for (u, v) in self.channels:
            self.inputs_of[v].append((u, v))

        all_queues = self.channels + [(-1, r) for r in range(n)]
        self.queues: Dict[Channel, List[Deque[Tuple[int, Packet]]]] = {
            c: [deque() for _ in range(self.num_vcs)] for c in all_queues
        }
        self.free_flits: Dict[Channel, List[int]] = {
            c: [self.vc_cap] * self.num_vcs for c in all_queues
        }
        self.busy_until: Dict[Channel, int] = {c: 0 for c in self.channels}
        self.rr: Dict[Channel, int] = {c: 0 for c in self.channels}
        self.inj_busy = [0] * n
        self.ej_busy = [0] * n
        self.ej_rr = [0] * n
        self.source_q: List[Deque[Packet]] = [deque() for _ in range(n)]

        self._pid = 0
        self.cycle = 0
        # Grant-site observer: called as cb(out_channel, pkt) whenever a
        # packet wins output arbitration.  ``None`` (the default) keeps
        # the hot path free of instrumentation cost.
        self._grant_cb = None
        # measurement state
        self.measuring = False
        self.measure_start = 0
        self.offered = 0
        self.ejected = 0
        self.ejected_flits = 0
        self.lat_sum = 0.0
        self.lat_count = 0
        self.lost = 0
        self.in_flight = 0
        # Bursty modulation: a dedicated gate chain scales the per-cycle
        # Bernoulli threshold; the packet-draw stream is untouched.
        self._burst = (
            traffic.burst.state(self.n) if traffic.burst is not None else None
        )

    # -- injection ------------------------------------------------------------
    def _generate(self) -> None:
        lam = self.rate
        if lam <= 0:
            return
        draws = self.rng.random(self.n)
        gates = self._burst.row(self.cycle) if self._burst is not None else None
        flow_vc = self.table.flow_vc
        for node in range(self.n):
            # Bernoulli per cycle; rates above 1.0 inject multiple packets.
            eff = lam if gates is None else lam * gates[node]
            count = int(eff) + (1 if draws[node] < eff - int(eff) else 0)
            for _ in range(count):
                dst = destination(self.traffic, node, self.rng)
                size = packet_size(self.traffic, self.rng)
                if self._faulty and (node, dst) not in flow_vc:
                    # The degraded table cannot route this flow: the
                    # packet is offered (all its draws were made, so the
                    # RNG stream matches the pristine run) but lost.
                    if self.measuring:
                        self.offered += 1
                        self.lost += 1
                    continue
                pkt = Packet(
                    pid=self._pid,
                    src=node,
                    dst=dst,
                    size_flits=size,
                    birth_cycle=self.cycle,
                    vc=self.table.vc(node, dst),
                    is_data=size > 1,
                )
                self._pid += 1
                self.source_q[node].append(pkt)
                self.in_flight += 1
                if self.measuring:
                    self.offered += 1

    def _inject(self) -> None:
        for node in range(self.n):
            if self.inj_busy[node] > self.cycle or not self.source_q[node]:
                continue
            pkt = self.source_q[node][0]
            inj = (-1, node)
            if self.free_flits[inj][pkt.vc] < pkt.size_flits:
                continue
            self.source_q[node].popleft()
            self.free_flits[inj][pkt.vc] -= pkt.size_flits
            self.inj_busy[node] = self.cycle + pkt.size_flits
            self.queues[inj][pkt.vc].append((self.cycle + pkt.size_flits, pkt))

    # -- switching -------------------------------------------------------------
    def _arbitrate_router(self, u: int) -> None:
        # Collect ready head packets per requested output.
        requests: Dict[Optional[int], List[Tuple[Channel, int]]] = {}
        for in_ch in self.inputs_of[u]:
            qs = self.queues[in_ch]
            for vc in range(self.num_vcs):
                q = qs[vc]
                if not q:
                    continue
                ready, pkt = q[0]
                if ready > self.cycle:
                    continue
                if pkt.dst == u:
                    requests.setdefault(None, []).append((in_ch, vc))
                else:
                    v = self.table.hop(u, pkt.src, pkt.dst)
                    requests.setdefault(v, []).append((in_ch, vc))

        for v, reqs in requests.items():
            if v is None:
                self._eject(u, reqs)
                continue
            out = (u, v)
            if self.busy_until[out] > self.cycle:
                continue
            # round-robin among requestors, skipping those blocked downstream
            start = self.rr[out] % len(reqs)
            for k in range(len(reqs)):
                in_ch, vc = reqs[(start + k) % len(reqs)]
                _, pkt = self.queues[in_ch][vc][0]
                if self.free_flits[out][pkt.vc] < pkt.size_flits:
                    continue
                self.queues[in_ch][vc].popleft()
                self.free_flits[in_ch][vc] += pkt.size_flits
                self.free_flits[out][pkt.vc] -= pkt.size_flits
                done = self.cycle + pkt.size_flits
                self.busy_until[out] = done
                self.queues[out][pkt.vc].append((done + self.hop_delay, pkt))
                self.rr[out] = (start + k + 1) % len(reqs)
                if self._grant_cb is not None:
                    self._grant_cb(out, pkt)
                break

    def _eject(self, u: int, reqs: List[Tuple[Channel, int]]) -> None:
        if self.ej_busy[u] > self.cycle:
            return
        start = self.ej_rr[u] % len(reqs)
        in_ch, vc = reqs[start]
        _, pkt = self.queues[in_ch][vc].popleft()
        self.free_flits[in_ch][vc] += pkt.size_flits
        self.ej_busy[u] = self.cycle + pkt.size_flits
        self.ej_rr[u] = start + 1
        self.in_flight -= 1
        if self.measuring:
            # Accepted throughput counts every packet delivered during the
            # measurement window, including warmup-born packets draining
            # through it — otherwise throughput is understated near
            # saturation (where transit times stretch past the window
            # boundary) and the acceptance-floor test flags too early.
            self.ejected += 1
            self.ejected_flits += pkt.size_flits
            if pkt.birth_cycle >= self.measure_start:
                # Latency is still sampled only for packets born inside
                # the window: a warmup-born packet's age is not a
                # steady-state latency observation.
                self.lat_sum += pkt.latency(self.cycle + pkt.size_flits)
                self.lat_count += 1
        self._on_eject(pkt)

    def _on_eject(self, pkt: Packet) -> None:
        """Hook for closed-loop extensions (full-system model)."""

    #: When a closed-loop subclass sets this to a list around an epoch
    #: swap, ``_apply_epoch`` appends every dropped packet to it instead
    #: of losing them silently — the retry path re-arms their
    #: transactions.  ``None`` (open loop) keeps the drop-and-count
    #: behavior.
    _drop_log = None

    # -- fault epochs ---------------------------------------------------------
    def _apply_epoch(self, epoch) -> None:
        """Swap in a fault epoch's table at the start of its cycle.

        The canonical walk (link channels in topology order, then
        injection channels by router, VCs ascending, FIFO within each)
        drops packets the new network cannot carry and re-keys the
        survivors to the flow (current router, dst); both engines
        implement this identical contract, so stats stay bit-equal.
        Buffer credits are recomputed from surviving occupancy; port and
        link timers keep running across the swap.
        """
        new_table = epoch.table
        flow_vc = new_table.flow_vc
        dead_links = epoch.dead_links
        dead_routers = epoch.dead_routers
        cycle = self.cycle
        V = self.num_vcs
        dropped = 0
        drop_log = self._drop_log

        all_queues = self.channels + [(-1, r) for r in range(self.n)]
        for ch in all_queues:
            qs = self.queues[ch]
            cur = ch[1]  # downstream router (== the router, for injection)
            link_dead = ch[0] >= 0 and ch in dead_links
            ch_dead = cur in dead_routers
            per_vc: List[List[Tuple[int, Packet]]] = [[] for _ in range(V)]
            for vc in range(V):
                for ready, pkt in qs[vc]:
                    if (
                        ch_dead
                        or (link_dead and ready > cycle)
                        or (cur != pkt.dst and (cur, pkt.dst) not in flow_vc)
                    ):
                        dropped += 1
                        if drop_log is not None:
                            drop_log.append(pkt)
                        continue
                    pkt.src = cur
                    if cur != pkt.dst:
                        pkt.vc = flow_vc[(cur, pkt.dst)]
                    per_vc[pkt.vc].append((ready, pkt))
            for vc in range(V):
                qs[vc] = deque(per_vc[vc])

        for c in all_queues:
            ff = self.free_flits[c]
            for vc in range(V):
                ff[vc] = self.vc_cap - sum(
                    p.size_flits for _, p in self.queues[c][vc]
                )

        for node in range(self.n):
            sq = self.source_q[node]
            if not sq:
                continue
            keep: Deque[Packet] = deque()
            for pkt in sq:
                if node in dead_routers or (
                    node != pkt.dst and (node, pkt.dst) not in flow_vc
                ):
                    dropped += 1
                    if drop_log is not None:
                        drop_log.append(pkt)
                    continue
                if node != pkt.dst:
                    pkt.vc = flow_vc[(node, pkt.dst)]
                keep.append(pkt)
            self.source_q[node] = keep

        self.in_flight -= dropped
        if self.measuring:
            self.lost += dropped
        self.table = new_table

    # -- main loop ----------------------------------------------------------------
    def step(self) -> None:
        tl = self._timeline
        if tl is not None:
            while (
                self._epoch_i + 1 < len(tl.epochs)
                and tl.epochs[self._epoch_i + 1].start <= self.cycle
            ):
                self._epoch_i += 1
                self._apply_epoch(tl.epochs[self._epoch_i])
        self._generate()
        self._inject()
        for u in range(self.n):
            self._arbitrate_router(u)
        self.cycle += 1

    def run(self, warmup: int, measure: int) -> SimStats:
        """Warm up, then measure for ``measure`` cycles."""
        for _ in range(warmup):
            self.step()
        self.measuring = True
        self.measure_start = self.cycle
        for _ in range(measure):
            self.step()
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


class DeadlockError(RuntimeError):
    """Raised when the watchdog sees packets in flight but no ejections
    for ``watchdog_cycles`` consecutive cycles."""


@dataclass
class ChannelStats:
    """Activity accounting for one directed channel."""

    busy_cycles: int = 0
    packets: int = 0
    flits: int = 0

    def utilization(self, cycles: int) -> float:
        return self.busy_cycles / cycles if cycles else 0.0


@dataclass
class InstrumentationReport:
    """Everything the extended simulator measured."""

    cycles: int
    channel_stats: Dict[Channel, ChannelStats]
    latencies: np.ndarray

    @property
    def mean_utilization(self) -> float:
        if not self.channel_stats:
            return 0.0
        return float(
            np.mean([s.utilization(self.cycles) for s in self.channel_stats.values()])
        )

    @property
    def max_utilization(self) -> float:
        if not self.channel_stats:
            return 0.0
        return float(
            np.max([s.utilization(self.cycles) for s in self.channel_stats.values()])
        )

    def hottest_channels(self, k: int = 5) -> List[Tuple[Channel, float]]:
        """The k most-utilized channels (the simulated bottlenecks —
        compare against MCLB's predicted max-load channels)."""
        items = [
            (ch, s.utilization(self.cycles)) for ch, s in self.channel_stats.items()
        ]
        return sorted(items, key=lambda kv: -kv[1])[:k]

    def latency_percentiles(self, qs=(50, 90, 99)) -> Dict[int, float]:
        if self.latencies.size == 0:
            return {q: float("nan") for q in qs}
        return {q: float(np.percentile(self.latencies, q)) for q in qs}

    def activity_factor(self) -> float:
        """Mean channel utilization — the DSENT activity input."""
        return self.mean_utilization


class InstrumentedSimulator(NetworkSimulator):
    """Base simulator + per-channel activity, latency samples, watchdog."""

    def __init__(
        self,
        table: RoutingTable,
        traffic: TrafficSpec,
        injection_rate: float,
        watchdog_cycles: int = 8000,
        **kw,
    ):
        super().__init__(table, traffic, injection_rate, **kw)
        self.watchdog_cycles = int(watchdog_cycles)
        self._last_eject_cycle = 0
        self._channel_stats: Dict[Channel, ChannelStats] = {
            c: ChannelStats() for c in self.channels
        }
        self._latency_samples: List[int] = []
        # Channel occupancy is recorded at the grant site (the base
        # simulator invokes the callback for every arbitration win), so
        # idle channels cost nothing — unlike snapshotting ``busy_until``
        # for every outgoing channel of every router each cycle.
        self._grant_cb = self._record_grant

    def _record_grant(self, channel: Channel, pkt: Packet) -> None:
        st = self._channel_stats[channel]
        st.busy_cycles += pkt.size_flits
        st.packets += 1
        st.flits += pkt.size_flits

    def _on_eject(self, pkt: Packet) -> None:
        self._last_eject_cycle = self.cycle
        # Mirror the base accounting: latency samples only for packets
        # born inside the measurement window (matching ``lat_count``).
        if self.measuring and pkt.birth_cycle >= self.measure_start:
            self._latency_samples.append(self.cycle + pkt.size_flits - pkt.birth_cycle)
        super()._on_eject(pkt)

    def step(self) -> None:
        super().step()
        if (
            self.in_flight > 0
            and self.cycle - self._last_eject_cycle > self.watchdog_cycles
        ):
            raise DeadlockError(
                f"no ejection for {self.watchdog_cycles} cycles with "
                f"{self.in_flight} packets in flight at cycle {self.cycle} "
                f"(deadlock or pathological livelock)"
            )

    def report(self) -> InstrumentationReport:
        return InstrumentationReport(
            cycles=max(self.cycle, 1),
            channel_stats=dict(self._channel_stats),
            latencies=np.asarray(self._latency_samples, dtype=float),
        )


def register_reference(monkeypatch) -> None:
    """Serve ``engine="reference"`` from :class:`NetworkSimulator` until
    the test ends.

    Production registers only ``fast`` and ``turbo``.  This puts the
    oracle into the same registry, so ``run_point``, the sweeps and
    ``resolve_engine`` reach it exactly as they reach a production
    engine.
    """
    monkeypatch.setitem(fastnet.ENGINES, "reference", NetworkSimulator)
    assert fastnet.resolve_engine("reference") is NetworkSimulator, (
        "engine='reference' does not resolve to the oracle"
    )
