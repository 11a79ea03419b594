"""Flit-serialized, VC-aware NoI network simulator and traffic generators."""

from .fastnet import (
    DEFAULT_ENGINE,
    ENGINES,
    CompiledNetwork,
    FastNetworkSimulator,
    resolve_engine,
)
from .network import (
    DEFAULT_VC_BUFFER_FLITS,
    LINK_LATENCY,
    ROUTER_LATENCY,
    SimStats,
)
from .packet import CONTROL_FLITS, DATA_FLITS, MEAN_FLITS_PER_PACKET
from .stats import measure_activity
from .sweep import (
    ReplicaPoint,
    SweepPoint,
    SweepResult,
    find_saturation,
    latency_throughput_curve,
    run_point,
    summarize_replicas,
)
from .batch import TurboNetworkSimulator, run_batch
from .burst import BURST_KINDS, BurstSpec, BurstState, parse_burst
from .trace import TRACE_CHUNK_CYCLES, BatchTrace, TraceStream, pregenerate_batch
from .traffic import (
    DestSpec,
    TrafficSpec,
    bit_complement,
    hotspot,
    memory_traffic,
    neighbor,
    shuffle_pattern,
    tornado,
    transpose,
    uniform_random,
)

__all__ = [
    "FastNetworkSimulator",
    "CompiledNetwork",
    "TraceStream",
    "TRACE_CHUNK_CYCLES",
    "DestSpec",
    "ENGINES",
    "DEFAULT_ENGINE",
    "resolve_engine",
    "SimStats",
    "CONTROL_FLITS",
    "DATA_FLITS",
    "MEAN_FLITS_PER_PACKET",
    "TrafficSpec",
    "BURST_KINDS",
    "BurstSpec",
    "BurstState",
    "parse_burst",
    "uniform_random",
    "memory_traffic",
    "shuffle_pattern",
    "hotspot",
    "bit_complement",
    "transpose",
    "tornado",
    "neighbor",
    "measure_activity",
    "latency_throughput_curve",
    "find_saturation",
    "summarize_replicas",
    "run_point",
    "run_batch",
    "BatchTrace",
    "pregenerate_batch",
    "TurboNetworkSimulator",
    "ReplicaPoint",
    "SweepPoint",
    "SweepResult",
    "ROUTER_LATENCY",
    "LINK_LATENCY",
    "DEFAULT_VC_BUFFER_FLITS",
]
