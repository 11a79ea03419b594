"""Full-system model: PARSEC profiles, closed-loop request/response
simulation, and the execution-time speedup analysis of Fig. 8."""

from .closedloop import (
    CDC_LATENCY,
    DIRECTORY_LATENCY_NS,
    MEMORY_LATENCY_NS,
    ClosedLoopStats,
    RetryPolicy,
    validate_closed_loop,
    validate_closed_loop_faults,
)
from .fastloop import FastClosedLoopSimulator
from .speedup import (
    CORE_CLOCK_GHZ,
    Figure8Row,
    WorkloadResult,
    demand_rate_for,
    geomean_speedups,
    parsec_sweep,
    run_workload,
)
from .workloads import BY_NAME, PARSEC, WorkloadProfile, workload

__all__ = [
    "FastClosedLoopSimulator",
    "validate_closed_loop",
    "validate_closed_loop_faults",
    "RetryPolicy",
    "ClosedLoopStats",
    "DIRECTORY_LATENCY_NS",
    "MEMORY_LATENCY_NS",
    "CDC_LATENCY",
    "WorkloadProfile",
    "PARSEC",
    "BY_NAME",
    "workload",
    "WorkloadResult",
    "Figure8Row",
    "run_workload",
    "parsec_sweep",
    "geomean_speedups",
    "demand_rate_for",
    "CORE_CLOCK_GHZ",
]
