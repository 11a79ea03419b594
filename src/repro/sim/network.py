"""The NoI network model's parameters and its measurement record.

The open-loop engines (:mod:`repro.sim.fastnet`, the production engine,
and the batched :mod:`repro.sim.batch`) model an input-queued,
virtual-channel, virtual-cut-through network (the HeteroGarnet
substitute):

* each directed link is a physical channel with 1 flit/cycle capacity; a
  packet of ``k`` flits occupies its channel for ``k`` cycles
  (serialization) and then lands in the downstream per-VC input buffer
  after the router pipeline (2 cycles) plus link traversal (1 cycle);
* per-(channel, VC) input buffers have finite flit capacity; a packet
  only advances when its *entire* size fits downstream (virtual
  cut-through), producing the same backpressure-driven saturation
  behaviour as credit-based wormhole at far lower simulation cost;
* VC selection is static per flow from the deadlock-free assignment
  (:mod:`repro.routing.vc_alloc`), so per-VC channel dependency graphs
  stay acyclic and the simulated network cannot deadlock;
* output arbitration is round-robin among requesting input queues;
* injection and ejection are modeled as explicit serialized ports, so
  local port bottlenecks (paper II-D) are present but provisioned
  per-router as the paper assumes.

This module holds what the engines share: the model's latencies and
buffer depth, and :class:`SimStats`, the average packet latency
(cycles) and accepted throughput of one measurement window;
:mod:`repro.sim.sweep` converts these into the paper's
latency-vs-throughput curves with per-class clock scaling.  The
reference implementation the engines are tested against is the
object-graph simulator in ``tests/network_oracle.py`` (test-only).
"""

from __future__ import annotations

from dataclasses import dataclass

ROUTER_LATENCY = 2  # cycles per router pipeline (Table IV)
LINK_LATENCY = 1  # cycles per link traversal
DEFAULT_VC_BUFFER_FLITS = 18  # two data packets per VC buffer


@dataclass
class SimStats:
    """Measurement-window statistics."""

    cycles: int
    offered_packets: int
    ejected_packets: int
    ejected_flits: int
    latency_sum: float
    latency_count: int
    n_nodes: int
    #: Packets lost during the window: generated for flows the current
    #: (fault-degraded) table cannot route, or dropped at a fault epoch
    #: (in transit on a dying link, or stranded by re-routing).  Always
    #: 0 without a fault schedule.
    lost_packets: int = 0

    @property
    def avg_latency_cycles(self) -> float:
        if self.latency_count == 0:
            return float("nan")
        return self.latency_sum / self.latency_count

    @property
    def delivered_fraction(self) -> float:
        """Ejected / offered over the window (1.0 when nothing offered).

        The degraded-delivery metric of fault scenarios.  Warmup-born
        packets draining through the window can push this slightly above
        1 near zero load; fault losses pull it below.
        """
        if self.offered_packets == 0:
            return 1.0
        return self.ejected_packets / self.offered_packets

    @property
    def throughput_packets_node_cycle(self) -> float:
        return self.ejected_packets / (self.n_nodes * self.cycles)

    @property
    def deliverable_packets_node_cycle(self) -> float:
        """Offered load minus fault losses, per node per cycle.

        The acceptance baseline for saturation classification: packets a
        fault destroyed (unroutable flows, epoch-swap drops) can never be
        accepted, so counting them against the network would misread
        fault loss as congestion.  Equals the offered rate when
        fault-free (``lost_packets`` is 0).
        """
        return (self.offered_packets - self.lost_packets) / (
            self.n_nodes * self.cycles
        )
