"""Closed-loop (request/response) semantics for full-system runs.

The paper's full-system traffic (Table IV) has this structure:

* each NoI router aggregates a concentration of cores (4 per router; the
  outer columns host memory controllers instead, Fig. 2(b));
* cores issue *requests* (1-flit control packets) to a directory/memory
  target and stall-track them until the *response* (9-flit data) returns;
  per-router outstanding-request budget models the cores' aggregate MLP;
* responses are generated at the destination after a fixed service
  latency (directory lookup / DRAM access);
* the NoC-to-NoI clock-domain crossing (CDC) adds per-hop latency via
  ``extra_hop_latency`` (2 cycles per crossing pair, Table IV).

The measured quantity is the mean request round-trip — the "average
packet delay of coherence and memory traffic" the paper reports — which
:mod:`repro.fullsys.speedup` converts into execution-time speedups.

This module holds what is engine-independent: the latency constants,
:class:`RetryPolicy`, the configuration checks, :class:`ClosedLoopStats`
and the transaction machinery of :class:`ClosedLoopRetryCore`.  The
production engine is :class:`~repro.fullsys.fastloop.
FastClosedLoopSimulator`; ``tests/closedloop_oracle.py`` holds the
reference engine it is pinned to.

Fault tolerance
---------------

With a :class:`RetryPolicy`, every request is a *transaction* tracked
from issue to completion or failure:

* ``IN_NET``: a request (or its reply) is traveling, with a timeout
  deadline armed at (re)transmission time;
* ``BACKOFF``: the last attempt timed out (or the packet was dropped by
  a fault-epoch swap, or the flow was unroutable at injection time); the
  transaction waits out a randomized exponential backoff before
  retransmitting.

Backoff delays come from a *dedicated* RNG stream seeded by the policy —
never the packet-draw stream — mirroring the burst gate-chain contract,
so a degraded run's demand draws match the pristine run's bit for bit.
A transaction that exhausts its retry budget counts as failed and frees
its MLP slot; conservation (``issued == completed + failed +
in-flight``) is asserted at the end of every run.  The fast engine and
the reference oracle share the machinery below via
:class:`ClosedLoopRetryCore` and stay bit-identical under fault
schedules (``tests/test_closedloop_faults.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.stats import WindowSample
from .config import TABLE4

#: Service latency (ns) at the destination before the reply; wall-clock
#: quantities so the NoI clock class does not distort directory/DRAM time.
DIRECTORY_LATENCY_NS = 4.0
MEMORY_LATENCY_NS = 14.0
#: CDC + NoC traversal charged per NoI hop pair in full-system mode.
CDC_LATENCY = 2

#: Transaction states (``txn`` value index ``_T_STATE``).
_IN_NET = 0
_BACKOFF = 1

#: ``txn`` value layout: [node, dst, is_mem, birth, attempt, state].
_T_NODE, _T_DST, _T_MEM, _T_BIRTH, _T_ATTEMPT, _T_STATE = range(6)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff semantics for closed-loop requests.

    A request whose reply has not returned within ``timeout`` cycles of
    its (re)transmission times out.  Up to ``retries`` retransmissions
    are attempted; attempt ``a`` first waits a uniform random backoff of
    ``1 .. backoff * 2**(a-1)`` cycles drawn from a dedicated RNG stream
    seeded by ``seed`` — never from the packet-draw stream (the same
    isolation contract as the burst gate chain), so retry timing cannot
    perturb demand draws.  A transaction that exhausts the budget counts
    as ``failed_requests`` and releases its MLP slot.
    """

    timeout: int = TABLE4.request_timeout_cycles
    retries: int = TABLE4.request_max_retries
    backoff: int = TABLE4.retry_backoff_cycles
    seed: int = 0

    def __post_init__(self):
        if self.timeout < 1:
            raise ValueError(
                f"retry timeout must be >= 1 cycle, got {self.timeout!r}"
            )
        if self.retries < 0:
            raise ValueError(
                f"retry budget must be >= 0, got {self.retries!r}"
            )
        if self.backoff < 1:
            raise ValueError(
                f"retry backoff base must be >= 1 cycle, got {self.backoff!r}"
            )

    # -- (de)serialization (runner payloads) --------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "timeout": self.timeout,
            "retries": self.retries,
            "backoff": self.backoff,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RetryPolicy":
        return cls(
            timeout=int(d["timeout"]),
            retries=int(d["retries"]),
            backoff=int(d["backoff"]),
            seed=int(d.get("seed", 0)),
        )

    def key(self) -> tuple:
        return (self.timeout, self.retries, self.backoff, self.seed)


def validate_closed_loop_faults(faults, retry) -> None:
    """Reject the one unsupported combination: faults without retries.

    A non-empty :class:`~repro.faults.FaultSchedule` requires a
    :class:`RetryPolicy`: an epoch swap can drop in-flight requests or
    replies, and without timeout/retry semantics those transactions
    would hold their MLP slots forever.  Shared by both engines and the
    runner payload builders/decoders, so the combination fails with the
    same error everywhere — before any simulation runs.
    """
    if faults is None or not getattr(faults, "events", ()):
        return
    if retry is None:
        raise ValueError(
            "closed-loop simulation with a fault schedule requires a "
            "RetryPolicy: an epoch swap can drop in-flight requests or "
            "replies, and without timeout/retry semantics those "
            "transactions would hang forever.  Pass retry=RetryPolicy(...) "
            "(CLI: --timeout/--retries/--backoff) or drop faults=."
        )


def validate_closed_loop(
    n: int,
    demand_rate: float,
    memory_fraction: float,
    mc_routers: Sequence[int],
    mlp_per_node: int,
    faults=None,
    retry: Optional[RetryPolicy] = None,
) -> None:
    """Reject closed-loop configurations that would crash or mis-draw.

    Shared by both closed-loop engines so they fail identically.  The
    memory-target draw picks uniformly from ``mc_routers`` minus the
    source, so every router must be left with at least one candidate —
    an empty MC list (or a single MC drawing its own traffic) used to
    surface as an opaque ``integers(0)`` crash mid-simulation.  The
    ``faults``/``retry`` pair is checked by
    :func:`validate_closed_loop_faults`.
    """
    if not 0.0 <= demand_rate < 1.0:
        raise ValueError(
            f"demand_rate must be in [0, 1) — one Bernoulli request "
            f"trial per router per cycle — got {demand_rate!r}"
        )
    if not 0.0 <= memory_fraction <= 1.0:
        raise ValueError(
            f"memory_fraction must be in [0, 1], got {memory_fraction!r}"
        )
    if mlp_per_node < 1:
        raise ValueError(
            f"mlp_per_node must be >= 1, got {mlp_per_node!r}"
        )
    mcs = list(mc_routers)
    if not mcs:
        raise ValueError(
            "mc_routers is empty: closed-loop traffic needs at least one "
            "memory-controller router (pass mc_routers=... or use a "
            "layout with MC columns)"
        )
    bad = sorted({m for m in mcs if not 0 <= m < n})
    if bad:
        raise ValueError(
            f"mc_routers {bad} outside [0, {n}) for this {n}-router network"
        )
    if memory_fraction > 0 and len(set(mcs)) == 1:
        raise ValueError(
            f"mc_routers contains only router {mcs[0]}: that router has "
            f"no memory target to send to (memory_fraction="
            f"{memory_fraction}); provide a second MC or set "
            f"memory_fraction=0"
        )
    validate_closed_loop_faults(faults, retry)


@dataclass
class ClosedLoopStats:
    """Round-trip statistics from one closed-loop run.

    The retry counters cover the *whole* run (warmup included — failures
    and retries are lifecycle events, not steady-state samples), while
    ``completed_requests``/``rtt_sum`` remain measurement-window
    quantities as before.
    """

    cycles: int
    completed_requests: int
    rtt_sum: float
    n_nodes: int
    issued_requests: int = 0
    failed_requests: int = 0
    retried_requests: int = 0
    in_flight_requests: int = 0

    @property
    def avg_round_trip_cycles(self) -> float:
        if self.completed_requests == 0:
            return float("nan")
        return self.rtt_sum / self.completed_requests

    @property
    def request_throughput(self) -> float:
        return self.completed_requests / (self.n_nodes * self.cycles)

    @property
    def failed_fraction(self) -> float:
        """Failed transactions as a fraction of all issued ones."""
        if self.issued_requests == 0:
            return 0.0
        return self.failed_requests / self.issued_requests


class ClosedLoopRetryCore:
    """Transaction machinery shared by both closed-loop engines.

    The engines differ only in how they move packets; everything about a
    transaction's lifecycle — issue, timeout, backoff, retransmission,
    failure, completion, conservation — lives here so it cannot drift
    between them.  Subclasses provide:

    * ``_unroutable(node, dst)`` — can the *current* epoch's table route
      the flow?
    * ``_run_span(ncycles)`` — advance the underlying engine.

    State: ``txn`` maps a transaction id to the mutable record
    ``[node, dst, is_mem, birth, attempt, state]``; ``_deadline_q`` is a
    heap of ``(deadline, tid, attempt)`` (entries whose attempt no
    longer matches are stale and skipped — completion and retransmission
    cancel deadlines lazily); ``_retry_q`` is a heap of ``(ready, tid)``
    backoff releases.  Timeout scans, retransmission releases, drop
    processing, and backoff draws all happen in deterministic (heap /
    sorted-tid) order, so the dedicated retry RNG stream advances
    identically in both engines.
    """

    def _init_closed_state(self, retry: Optional[RetryPolicy]) -> None:
        self.retry = retry
        self._retry_rng = (
            np.random.default_rng(retry.seed) if retry is not None else None
        )
        self.txn: Dict[int, list] = {}
        self._tid = 0
        self._deadline_q: List[Tuple[int, int, int]] = []
        self._retry_q: List[Tuple[int, int]] = []
        self.issued = 0
        self.completed_total = 0
        self.failed = 0
        self.retried = 0
        self.outstanding = [0] * self.n
        # Reference-ordered reply heap: (ready, requester, server, size,
        # request_birth, tid) — identical tuples in both engines, so
        # same-cycle releases pop identically.
        self.pending_replies: List[Tuple[int, int, int, int, int, int]] = []
        self.completed = 0
        self.rtt_sum = 0.0
        self._measure_rtts = False

    # -- lifecycle ----------------------------------------------------------
    def _timeout_txn(self, tid: int, t: list, cycle: int) -> None:
        """Attempt ``t`` is gone (timeout, epoch drop, or unroutable):
        either fail the transaction or park it in backoff."""
        retry = self.retry
        if retry is None or t[_T_ATTEMPT] >= retry.retries:
            del self.txn[tid]
            node = t[_T_NODE]
            o = self.outstanding[node] - 1
            self.outstanding[node] = o if o > 0 else 0
            self.failed += 1
            return
        t[_T_ATTEMPT] += 1
        t[_T_STATE] = _BACKOFF
        self.retried += 1
        u = self._retry_rng.random()
        delay = 1 + int(u * retry.backoff * (1 << (t[_T_ATTEMPT] - 1)))
        heappush(self._retry_q, (cycle + delay, tid))

    def _defer_new(self, tid: int, cycle: int) -> None:
        """A freshly issued request whose flow the degraded fabric cannot
        route: park it in backoff *without* burning a retry attempt (it
        was never injected), drawing the delay from the same dedicated
        stream."""
        self.txn[tid][_T_STATE] = _BACKOFF
        u = self._retry_rng.random()
        delay = 1 + int(u * self.retry.backoff)
        heappush(self._retry_q, (cycle + delay, tid))

    def _retry_tick(self, cycle: int) -> List[Tuple[int, int, int]]:
        """Run one cycle's timeout scan and backoff releases.

        Returns the ``(tid, node, dst)`` retransmissions to inject this
        cycle, in deterministic heap order, with their new deadlines
        already armed.  A release whose flow is (still) unroutable burns
        an attempt and re-enters backoff — under a transient fault the
        transaction survives to retry after recovery; under a permanent
        one it converges to failure.
        """
        txn = self.txn
        dq = self._deadline_q
        while dq and dq[0][0] <= cycle:
            _, tid, attempt = heappop(dq)
            t = txn.get(tid)
            if t is None or t[_T_ATTEMPT] != attempt or t[_T_STATE] != _IN_NET:
                continue  # stale deadline: completed, failed, or retried
            self._timeout_txn(tid, t, cycle)
        out: List[Tuple[int, int, int]] = []
        rq = self._retry_q
        retry = self.retry
        while rq and rq[0][0] <= cycle:
            _, tid = heappop(rq)
            t = txn.get(tid)
            if t is None:
                continue  # completed while in backoff (late reply)
            node, dst = t[_T_NODE], t[_T_DST]
            if self._unroutable(node, dst):
                self._timeout_txn(tid, t, cycle)
                continue
            t[_T_STATE] = _IN_NET
            heappush(dq, (cycle + retry.timeout, tid, t[_T_ATTEMPT]))
            out.append((tid, node, dst))
        return out

    def _fail_or_retry_dropped(self, tids, cycle: int) -> None:
        """Route transactions whose packet a fault-epoch swap dropped
        into the retry path.  Processing in ascending-tid order decouples
        the retry RNG stream from the engines' queue-walk order."""
        txn = self.txn
        for tid in sorted(set(tids)):
            t = txn.get(tid)
            if t is None or t[_T_STATE] != _IN_NET:
                continue  # already in backoff (only a stale packet died)
            self._timeout_txn(tid, t, cycle)

    # -- invariants and results ---------------------------------------------
    def _check_conservation(self) -> None:
        """``issued == completed + failed + in-flight`` and every live
        transaction holds exactly one MLP slot."""
        live = len(self.txn)
        held = sum(self.outstanding)
        if (
            self.issued != self.completed_total + self.failed + live
            or held != live
        ):
            raise RuntimeError(
                f"closed-loop request conservation violated: "
                f"issued={self.issued} != completed={self.completed_total} "
                f"+ failed={self.failed} + in-flight={live} "
                f"(MLP slots held: {held})"
            )

    def _closed_stats(self, measure: int) -> ClosedLoopStats:
        return ClosedLoopStats(
            cycles=measure,
            completed_requests=self.completed,
            rtt_sum=self.rtt_sum,
            n_nodes=self.n,
            issued_requests=self.issued,
            failed_requests=self.failed,
            retried_requests=self.retried,
            in_flight_requests=len(self.txn),
        )

    def _run_span(self, ncycles: int) -> None:
        raise NotImplementedError

    def _unroutable(self, node: int, dst: int) -> bool:
        raise NotImplementedError

    # -- public API ---------------------------------------------------------
    def run_closed_loop(self, warmup: int, measure: int) -> ClosedLoopStats:
        self._run_span(warmup)
        self._measure_rtts = True
        self._run_span(measure)
        self._measure_rtts = False
        self._check_conservation()
        return self._closed_stats(measure)

    def run_windows(self, total: int, window: int) -> List[WindowSample]:
        """Advance ``total`` cycles, sampling cumulative counters every
        ``window`` cycles — the input to
        :func:`repro.sim.stats.recovery_metrics`.  RTT measurement is on
        for the whole span (transient windows are the point)."""
        if window < 1:
            raise ValueError(f"window must be >= 1 cycle, got {window!r}")
        samples: List[WindowSample] = []
        self._measure_rtts = True
        done = 0
        while done < total:
            w = min(window, total - done)
            start = self.cycle
            i0 = self.issued
            c0 = self.completed
            f0 = self.failed
            r0 = self.retried
            rtt0 = self.rtt_sum
            self._run_span(w)
            done += w
            samples.append(WindowSample(
                start=start,
                end=self.cycle,
                issued=self.issued - i0,
                completed=self.completed - c0,
                failed=self.failed - f0,
                retried=self.retried - r0,
                rtt_sum=self.rtt_sum - rtt0,
                backlog=sum(self.outstanding),
                net_in_flight=self.in_flight,
            ))
        self._measure_rtts = False
        self._check_conservation()
        return samples

