"""Supervised-executor overhead and chaos-recovery wall-clock benchmark.

Two questions, both about the fault-tolerant execution layer (PR 9):

1. What does supervision *cost* on a healthy run?  The same sweep is
   fanned through the supervised pool with and without a retry policy
   armed; the overhead ratio must stay small — supervision is a
   sliding-window ``wait()`` loop over the same futures, not a second
   scheduler.
2. What does recovery *cost* under faults?  A chaos run with a worker
   crash and a transient exception injected must converge to the exact
   fault-free curve, and the wall-clock tax of pool restart + retries
   is recorded so the perf trajectory of the recovery path is tracked
   across PRs.

The faults come from the test-only harness ``tests/chaos_harness.py``.
Results land in ``BENCH_supervision.json`` (schema: benchmarks/conftest):
wall seconds per leg, overhead ratio, and the chaos leg's RunHealth
counters.
"""

import contextlib
import os
import sys
import tempfile
import time

from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.runner import Runner, TaskRetryPolicy
from repro.runner.tasks import TrafficSpec, sim_point_payload
from repro.topology import Layout, Topology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))
from chaos_harness import ChaosSpec, armed  # noqa: E402  (test-only fault injector)

RATES = (0.02, 0.06, 0.12)
BUDGET = dict(warmup=80, measure=200, seed=0)


def _table():
    layout = Layout(rows=2, cols=3)
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    topo = Topology.from_undirected(layout, edges, name="mesh2x3", link_class="small")
    routes = ndbt_route(topo, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


def _points(curve):
    return [
        (p.offered_rate, p.avg_latency_cycles, p.throughput_packets_node_cycle)
        for p in curve.points
    ]


def _sweep(table, cache_dir, retry=None, chaos=None, parallel=2):
    injected = armed(chaos) if chaos is not None else contextlib.nullcontext()
    with injected, Runner(
        parallel=parallel, cache_dir=cache_dir, retry=retry
    ) as runner:
        t0 = time.perf_counter()
        curve = runner.curve(
            table, TrafficSpec.uniform(6), RATES, link_class="small", **BUDGET
        )
        return time.perf_counter() - t0, curve, runner.health


def test_supervision_overhead_and_chaos_recovery(once, bench_record,
                                                 require_parallel):
    table = _table()
    payloads = [
        sim_point_payload(table, TrafficSpec.uniform(6), r, **BUDGET)
        for r in RATES
    ]

    def harness():
        with tempfile.TemporaryDirectory() as tmp:
            bare_s, bare, _ = _sweep(table, tmp + "/bare")
            sup_s, sup, _ = _sweep(
                table, tmp + "/sup",
                retry=TaskRetryPolicy(timeout=30.0, retries=2),
            )
            chaos = ChaosSpec.select(
                payloads, seed=1, crash=1, exc=1, fail_attempts=1
            )
            chaos_s, chaotic, health = _sweep(
                table, tmp + "/chaos",
                retry=TaskRetryPolicy(timeout=30.0, retries=3,
                                      backoff=0.01, max_pool_restarts=10),
                chaos=chaos,
            )
            return bare_s, bare, sup_s, sup, chaos_s, chaotic, health

    bare_s, bare, sup_s, sup, chaos_s, chaotic, health = once(harness)
    overhead = sup_s / bare_s if bare_s else float("inf")

    print(f"\nsupervision: bare {bare_s:.2f}s | supervised {sup_s:.2f}s "
          f"(x{overhead:.2f}) | chaos recovery {chaos_s:.2f}s")
    print(f"chaos leg: {health.summary()}")

    assert _points(sup) == _points(bare), (
        "arming a retry policy changed a fault-free sweep's numbers"
    )
    assert _points(chaotic) == _points(bare), (
        "chaos recovery did not converge to the fault-free curve"
    )
    assert health.retries >= 1, "injected transient never retried"
    # The injected crash is recovered either by pool restart or, on a
    # degenerate 1-worker pool, never fires in-worker; only require it
    # when the pool really fanned out.
    if health.inline_fallbacks == 0 and health.pool_restarts:
        assert health.crashes >= 1
    # Supervision on a healthy sweep must not balloon the wall clock.
    # The sweep itself is seconds-scale; allow generous CI noise.
    assert overhead < 3.0, (
        f"supervised sweep took {overhead:.2f}x the bare sweep"
    )

    bench_record(
        bare_wall_s=round(bare_s, 3),
        supervised_wall_s=round(sup_s, 3),
        overhead_ratio=round(overhead, 3),
        chaos_wall_s=round(chaos_s, 3),
        chaos_retries=health.retries,
        chaos_crashes=health.crashes,
        chaos_pool_restarts=health.pool_restarts,
        chaos_quarantined=health.quarantined,
        rates=len(RATES),
    )
