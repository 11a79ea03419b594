"""Derived simulation statistics: recovery transients and link activity.

:class:`WindowSample` and :func:`recovery_metrics` turn the closed-loop
engines' windowed counters into time-to-drain and settling times after a
fault heals.  :func:`measure_activity` is the simulation-to-DSENT
hand-off: the mean per-link utilization the paper feeds into DSENT
("activity statistics on just the NoI topology was input to DSENT",
Section V-D), counted by the fast engine on the data path that carries
the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..routing.tables import RoutingTable
from .fastnet import FastNetworkSimulator
from .traffic import TrafficSpec


@dataclass(frozen=True)
class WindowSample:
    """Closed-loop counters over one measurement window.

    ``issued``/``completed``/``failed``/``retried``/``rtt_sum`` are
    deltas over ``[start, end)``; ``backlog`` (live transactions holding
    MLP slots) and ``net_in_flight`` (packets in the network) are
    snapshots at ``end``.  Produced by the closed-loop engines'
    ``run_windows`` and consumed by :func:`recovery_metrics`.
    """

    start: int
    end: int
    issued: int
    completed: int
    failed: int
    retried: int
    rtt_sum: float
    backlog: int
    net_in_flight: int

    @property
    def avg_rtt(self) -> float:
        """Mean round trip of requests completed in this window."""
        if self.completed == 0:
            return float("nan")
        return self.rtt_sum / self.completed

    def as_dict(self) -> Dict[str, float]:
        return {
            "start": self.start,
            "end": self.end,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "rtt_sum": self.rtt_sum,
            "backlog": self.backlog,
            "net_in_flight": self.net_in_flight,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "WindowSample":
        return cls(
            start=int(d["start"]),
            end=int(d["end"]),
            issued=int(d["issued"]),
            completed=int(d["completed"]),
            failed=int(d["failed"]),
            retried=int(d["retried"]),
            rtt_sum=float(d["rtt_sum"]),
            backlog=int(d["backlog"]),
            net_in_flight=int(d["net_in_flight"]),
        )


@dataclass(frozen=True)
class RecoveryMetrics:
    """Transient recovery quantities after a ``link_up``/``router_up``.

    Both times are measured from ``recovery_cycle`` to the *end* of the
    first window satisfying the criterion, and are ``inf`` when the run
    never settles:

    * ``time_to_drain`` — backlog (live transactions) back within
      tolerance of the pre-fault baseline;
    * ``settling_time`` — windowed mean RTT back within tolerance of the
      pre-fault baseline.
    """

    fault_cycle: int
    recovery_cycle: int
    baseline_backlog: float
    baseline_rtt: float
    time_to_drain: float
    settling_time: float

    @property
    def recovered(self) -> bool:
        return (
            self.time_to_drain != float("inf")
            and self.settling_time != float("inf")
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "fault_cycle": self.fault_cycle,
            "recovery_cycle": self.recovery_cycle,
            "baseline_backlog": self.baseline_backlog,
            "baseline_rtt": self.baseline_rtt,
            "time_to_drain": self.time_to_drain,
            "settling_time": self.settling_time,
        }


def recovery_metrics(
    samples: List[WindowSample],
    fault_cycle: int,
    recovery_cycle: int,
    tolerance: float = 0.25,
    baseline_windows: int = 3,
) -> RecoveryMetrics:
    """Time-to-drain and latency-settling time from windowed stats.

    The baseline is the mean over the last ``baseline_windows`` windows
    that end at or before ``fault_cycle`` (the closest-to-steady-state
    pre-fault view; the warmup ramp at the start of the run is excluded
    by construction).  A post-recovery window counts as drained/settled
    when its backlog / mean RTT is at most ``baseline * (1 + tolerance)
    + 1`` — the ``+ 1`` absolute slack keeps tiny baselines from
    demanding sub-unit precision of integer counters.
    """
    pre = [s for s in samples if s.end <= fault_cycle]
    if not pre:  # degenerate placement: fall back to the first window
        pre = samples[:1]
    tail = pre[-baseline_windows:]
    base_backlog = sum(s.backlog for s in tail) / len(tail)
    done = sum(s.completed for s in tail)
    base_rtt = (
        sum(s.rtt_sum for s in tail) / done if done > 0 else float("nan")
    )

    drain_limit = base_backlog * (1.0 + tolerance) + 1.0
    rtt_limit = (
        base_rtt * (1.0 + tolerance) + 1.0
        if base_rtt == base_rtt  # not NaN
        else float("inf")
    )
    time_to_drain = float("inf")
    settling_time = float("inf")
    for s in samples:
        if s.start < recovery_cycle:
            continue
        if time_to_drain == float("inf") and s.backlog <= drain_limit:
            time_to_drain = float(s.end - recovery_cycle)
        if (
            settling_time == float("inf")
            and s.completed > 0
            and s.avg_rtt <= rtt_limit
        ):
            settling_time = float(s.end - recovery_cycle)
        if time_to_drain != float("inf") and settling_time != float("inf"):
            break
    return RecoveryMetrics(
        fault_cycle=int(fault_cycle),
        recovery_cycle=int(recovery_cycle),
        baseline_backlog=base_backlog,
        baseline_rtt=base_rtt,
        time_to_drain=time_to_drain,
        settling_time=settling_time,
    )


def measure_activity(
    table: RoutingTable,
    traffic: TrafficSpec,
    rate: float,
    warmup: int = 300,
    measure: int = 1200,
    seed: int = 0,
) -> float:
    """Simulated mean link utilization at an operating point — the
    activity factor for :func:`repro.power.analyze` (the paper's
    simulation→DSENT hand-off).

    Each directed link's utilization is the flits it carried over the
    whole run (warmup plus measurement) per cycle, from the fast
    engine's :attr:`~repro.sim.fastnet.FastNetworkSimulator.link_flits`.
    """
    sim = FastNetworkSimulator(table, traffic, rate, seed=seed)
    sim.run(warmup, measure)
    return float(np.mean([f / max(sim.cycle, 1) for f in sim.link_flits]))
