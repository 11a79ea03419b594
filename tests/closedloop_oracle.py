"""Reference closed-loop simulator on the object-graph network engine.

This is the closed-loop engine that :class:`repro.fullsys.fastloop.
FastClosedLoopSimulator` replaced in production, kept as the A/B
oracle (verbatim but for a build counter): a subclass of the reference
:class:`network_oracle.NetworkSimulator` that makes one scalar
``Generator`` call per demand, memory-fraction and destination draw,
and steps the whole network every cycle.  The fast engine must give
identical :class:`~repro.fullsys.closedloop.ClosedLoopStats`, window
series and transaction state (the Fig. 8 and recovery results depend
on it).  Tests and the closed-loop benchmark substitute it for the
production class with ``monkeypatch`` (:func:`run_on_oracle`).
Test-only.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional

from network_oracle import NetworkSimulator, Packet
from repro.fullsys import speedup
from repro.fullsys.closedloop import (
    _IN_NET,
    _T_BIRTH,
    _T_MEM,
    _T_NODE,
    _T_STATE,
    CDC_LATENCY,
    DIRECTORY_LATENCY_NS,
    MEMORY_LATENCY_NS,
    ClosedLoopRetryCore,
    RetryPolicy,
    validate_closed_loop,
)
from repro.routing.tables import RoutingTable
from repro.sim.packet import CONTROL_FLITS, DATA_FLITS
from repro.sim.traffic import TrafficSpec
from traffic_oracle import destination


class ClosedLoopSimulator(ClosedLoopRetryCore, NetworkSimulator):
    """Request/response simulation with bounded outstanding requests."""

    #: Simulators built so far, so a test that substitutes this class
    #: can assert that it really ran.
    built = 0

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
        **sim_kw,
    ):
        ClosedLoopSimulator.built += 1
        sim_kw.setdefault("extra_hop_latency", CDC_LATENCY)
        faults = sim_kw.get("faults")
        super().__init__(table, traffic, injection_rate=0.0, seed=seed, **sim_kw)
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
        # service delays are wall-clock; convert to this NoI's cycles
        self.directory_cycles = max(1, int(round(DIRECTORY_LATENCY_NS * noi_clock_ghz)))
        self.memory_cycles = max(1, int(round(MEMORY_LATENCY_NS * noi_clock_ghz)))
        self._init_closed_state(retry)

    # -- engine adapters ----------------------------------------------------
    def _unroutable(self, node: int, dst: int) -> bool:
        return (node, dst) not in self.table.flow_vc

    def _run_span(self, ncycles: int) -> None:
        for _ in range(ncycles):
            self.step()

    def _send_request(self, node: int, dst: int, tid: int) -> None:
        """Inject one request (or retransmission) for transaction ``tid``."""
        pkt = Packet(
            pid=self._pid,
            src=node,
            dst=dst,
            size_flits=CONTROL_FLITS,
            birth_cycle=self.txn[tid][_T_BIRTH],
            vc=self.table.vc(node, dst),
            tid=tid,
        )
        self._pid += 1
        self.source_q[node].append(pkt)
        self.in_flight += 1

    # -- demand-driven request injection ------------------------------------
    def _generate(self) -> None:
        cycle = self.cycle
        retry = self.retry
        if retry is not None:
            # Timeouts, then backoff releases: retransmissions enter a
            # node's source queue ahead of its same-cycle fresh demand.
            for tid, node, dst in self._retry_tick(cycle):
                self._send_request(node, dst, tid)
        faulty = self._faulty
        for node in range(self.n):
            if self.outstanding[node] >= self.mlp:
                continue
            if self.rng.random() >= self.demand_rate:
                continue
            is_mem = self.rng.random() < self.memory_fraction
            if is_mem:
                choices = [m for m in self.mc_routers if m != node]
                dst = choices[int(self.rng.integers(len(choices)))]
            else:
                dst = destination(self.traffic, node, self.rng)
            tid = self._tid
            self._tid += 1
            self.txn[tid] = [node, dst, 1 if is_mem else 0, cycle, 0, _IN_NET]
            self.issued += 1
            self.outstanding[node] += 1
            if faulty and self._unroutable(node, dst):
                # The degraded table cannot carry the flow (dead source,
                # dead target, or partition): all draws were made, so the
                # packet-RNG stream matches a pristine run, but the
                # request defers into backoff instead of injecting.
                self._defer_new(tid, cycle)
                continue
            self._send_request(node, dst, tid)
            if retry is not None:
                heappush(self._deadline_q, (cycle + retry.timeout, tid, 0))

        # release matured replies into their servers' source queues
        while self.pending_replies and self.pending_replies[0][0] <= cycle:
            _, rdst, server, size, req_birth, tid = heappop(self.pending_replies)
            if faulty and self._unroutable(server, rdst):
                # The server (or the path home) died while serving: the
                # reply cannot be sent — time the attempt out.
                t = self.txn.get(tid)
                if t is not None and t[_T_STATE] == _IN_NET:
                    self._timeout_txn(tid, t, cycle)
                continue
            pkt = Packet(
                pid=self._pid,
                src=server,
                dst=rdst,
                size_flits=size,
                birth_cycle=req_birth,  # RTT measured from request birth
                vc=self.table.vc(server, rdst),
                is_data=True,
                tid=tid,
            )
            self._pid += 1
            self.source_q[server].append(pkt)
            self.in_flight += 1

    def _on_eject(self, pkt: Packet) -> None:
        if not pkt.is_data:
            # request arrived at its home node: schedule the data reply.
            # (A stale retransmission artifact — its transaction already
            # failed, completed, or re-entered backoff — generates none.)
            t = self.txn.get(pkt.tid)
            if t is None or t[_T_STATE] != _IN_NET:
                return
            service = self.memory_cycles if t[_T_MEM] else self.directory_cycles
            heappush(
                self.pending_replies,
                (
                    self.cycle + service,
                    t[_T_NODE],  # requester (pkt.src is re-keyed by epochs)
                    pkt.dst,
                    DATA_FLITS,
                    t[_T_BIRTH],
                    pkt.tid,
                ),
            )
        else:
            # reply came home: request complete.  (``_eject`` already
            # decremented ``in_flight`` for the reply packet itself.)
            t = self.txn.pop(pkt.tid, None)
            if t is None:
                return  # duplicate reply of an already-retired transaction
            node = pkt.dst
            self.outstanding[node] = max(0, self.outstanding[node] - 1)
            self.completed_total += 1
            if self._measure_rtts:
                self.completed += 1
                self.rtt_sum += self.cycle - pkt.birth_cycle

    # -- fault epochs --------------------------------------------------------
    def _apply_epoch(self, epoch) -> None:
        """Epoch swap + drop recovery: packets the new network cannot
        carry route their transactions into the retry path instead of
        being silently lost."""
        log: List[Packet] = []
        self._drop_log = log
        try:
            super()._apply_epoch(epoch)
        finally:
            self._drop_log = None
        if log:
            self._fail_or_retry_dropped((pkt.tid for pkt in log), self.cycle)


def run_on_oracle(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with :class:`ClosedLoopSimulator` in place
    of the production engine that :mod:`repro.fullsys.speedup` builds.

    Fails unless the oracle was built, so a call path that stops going
    through ``speedup.FastClosedLoopSimulator`` cannot pass by running
    the fast engine against itself.
    """
    before = ClosedLoopSimulator.built
    with monkeypatch.context() as m:
        m.setattr(speedup, "FastClosedLoopSimulator", ClosedLoopSimulator)
        out = fn(*args, **kwargs)
    assert ClosedLoopSimulator.built > before, "the closed-loop oracle never ran"
    return out
