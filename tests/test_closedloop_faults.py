"""Closed-loop fault tolerance: timeout/retry semantics under epoch swaps.

The contract under test, for BOTH closed-loop engines:

* **bit-identical behaviour** — the differential matrix (topologies x
  fault schedules x workload points x seeds) pins stats, per-node
  outstanding counts, and pending-reply heaps equal between the
  reference oracle (``tests/closedloop_oracle.py``) and the fast
  engine, faults and retries active;
* **request conservation** — every issued request is completed, failed,
  or live (`issued == completed + failed + in_flight`), asserted by the
  engines themselves after every run and re-checked here;
* **deadlock freedom** — after the last repair, stopping demand drains
  every live transaction in bounded time (no request is stranded by an
  epoch swap);
* **retry monotonicity** — a larger retry budget never completes fewer
  requests on the same scenario;
* **targeted validation** — a fault schedule without a retry policy is
  a documented ``ValueError`` naming the fix, raised consistently from
  both engine constructors and the runner payload builders.
"""

import numpy as np
import pytest

from closedloop_oracle import ClosedLoopSimulator
from repro.experiments.registry import NDBT, routed_table
from repro.faults import FaultSchedule, central_link_faults, central_router_fault
from repro.fullsys.closedloop import RetryPolicy, validate_closed_loop_faults
from repro.fullsys.fastloop import FastClosedLoopSimulator
from repro.sim import uniform_random
from repro.sim.stats import WindowSample, recovery_metrics
from repro.topology import expert_topology

BUDGET = dict(warmup=120, measure=320)

RETRY = RetryPolicy(timeout=64, retries=5, backoff=8, seed=1)


def _table(name, n):
    return routed_table(expert_topology(name, n), NDBT)


def _flap(schedule_events, up_cycle):
    """A permanent-outage schedule plus matching recovery events."""
    from repro.faults import FaultEvent

    ups = [
        FaultEvent(up_cycle, e.kind.replace("_down", "_up"), e.target)
        for e in schedule_events
    ]
    return FaultSchedule.of(list(schedule_events) + ups)


def _schedules(topo):
    return {
        "linkflap": _flap(
            central_link_faults(topo, 1, cycle=150).events, 330
        ),
        "routerflap": _flap(
            central_router_fault(topo, cycle=160).events, 340
        ),
        "two-links": central_link_faults(topo, 2, cycle=170),
    }


def _pair(table, seed, faults, retry=RETRY, **kw):
    """Run both engines on identical inputs; return (ref, fast)."""
    n = table.topology.n
    params = dict(
        demand_rate=kw.pop("demand_rate", 0.03),
        mlp_per_node=kw.pop("mlp_per_node", 8),
        memory_fraction=kw.pop("memory_fraction", 0.4),
        seed=seed, retry=retry, faults=faults, **kw,
    )
    ref = ClosedLoopSimulator(table, uniform_random(n), **params)
    fast = FastClosedLoopSimulator(table, uniform_random(n), **params)
    assert not isinstance(ref, FastClosedLoopSimulator)  # a real oracle
    return ref, fast


def _assert_mirrors(ref, fast):
    assert ref.outstanding == fast.outstanding
    assert sorted(ref.pending_replies) == sorted(fast.pending_replies)
    assert ref.issued == fast.issued
    assert ref.failed == fast.failed
    assert ref.retried == fast.retried
    assert sorted(ref.txn) == sorted(fast.txn)


def _assert_conservation(sim):
    assert sim.issued == sim.completed_total + sim.failed + len(sim.txn)
    assert sum(sim.outstanding) == len(sim.txn)


# ---------------------------------------------------------------------------
# The differential matrix: engines bit-identical under faults + retries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "demand,memf", [(0.03, 0.4), (0.012, 0.7)], ids=["coherence", "memory"]
)
@pytest.mark.parametrize("sched_key", ["linkflap", "routerflap", "two-links"])
@pytest.mark.parametrize("topo_name,n", [("Mesh", 16), ("FoldedTorus", 20)])
def test_fault_matrix_engines_bit_identical(
    topo_name, n, sched_key, demand, memf, seed
):
    table = _table(topo_name, n)
    faults = _schedules(table.topology)[sched_key]
    ref, fast = _pair(
        table, seed, faults, demand_rate=demand, memory_fraction=memf
    )
    sref = ref.run_closed_loop(**BUDGET)
    sfast = fast.run_closed_loop(**BUDGET)
    assert sref == sfast
    _assert_mirrors(ref, fast)
    _assert_conservation(ref)
    _assert_conservation(fast)


def test_windowed_runs_bit_identical_under_faults():
    table = _table("Mesh", 16)
    faults = _schedules(table.topology)["linkflap"]
    ref, fast = _pair(table, 7, faults)
    wr = ref.run_windows(500, 50)
    wf = fast.run_windows(500, 50)
    assert wr == wf
    assert len(wr) == 10
    assert all(isinstance(w, WindowSample) for w in wr)
    # deltas reconcile with the engine totals
    assert sum(w.issued for w in wr) == ref.issued
    assert sum(w.failed for w in wr) == ref.failed
    assert wr[-1].backlog == sum(ref.outstanding)


def test_timeout_only_retries_without_faults():
    """A tight timeout fires retransmissions on congestion alone; the
    engines agree and nothing is lost."""
    table = _table("Mesh", 16)
    retry = RetryPolicy(timeout=24, retries=4, backoff=4, seed=2)
    ref, fast = _pair(table, 5, None, retry=retry, demand_rate=0.05)
    sref = ref.run_closed_loop(**BUDGET)
    sfast = fast.run_closed_loop(**BUDGET)
    assert sref == sfast
    assert ref.retried > 0
    _assert_mirrors(ref, fast)
    _assert_conservation(ref)


# ---------------------------------------------------------------------------
# Property tests: conservation, drain, monotonicity, random schedules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine_cls", [ClosedLoopSimulator, FastClosedLoopSimulator])
def test_drains_to_zero_after_recovery(engine_cls):
    """Deadlock freedom: once the fault heals and demand stops, every
    live transaction completes or fails — none is stranded."""
    table = _table("Mesh", 16)
    faults = _schedules(table.topology)["linkflap"]
    sim = engine_cls(
        table, uniform_random(16), demand_rate=0.03, mlp_per_node=8,
        memory_fraction=0.4, seed=9, retry=RETRY, faults=faults,
    )
    sim.run_closed_loop(120, 320)  # past the repair at cycle 330... almost
    sim._run_span(40)  # definitely past it
    sim.demand_rate = 0.0
    for _ in range(40):
        if not sim.txn:
            break
        sim._run_span(50)
    assert not sim.txn, f"{len(sim.txn)} transactions stranded"
    assert sum(sim.outstanding) == 0
    assert sim.issued == sim.completed_total + sim.failed


def test_more_retries_never_complete_fewer():
    """Monotonicity of the retry budget on a fixed fault scenario."""
    table = _table("Mesh", 16)
    faults = _schedules(table.topology)["two-links"]
    done = []
    for retries in (0, 2, 5):
        sim = FastClosedLoopSimulator(
            table, uniform_random(16), demand_rate=0.03, mlp_per_node=8,
            memory_fraction=0.4, seed=4,
            retry=RetryPolicy(timeout=64, retries=retries, backoff=8, seed=1),
            faults=faults,
        )
        sim.run_closed_loop(120, 500)
        _assert_conservation(sim)
        done.append(sim.completed_total)
    assert done == sorted(done), f"completed not monotone in budget: {done}"


@pytest.mark.parametrize("case", range(4))
def test_random_fault_schedules_conserve_requests(case):
    """Randomized link/router flaps: whatever the epoch swaps drop, the
    retry path reclaims — conservation and engine agreement hold."""
    rng = np.random.default_rng(100 + case)
    table = _table("FoldedTorus", 20)
    topo = table.topology
    pairs = sorted({(min(u, v), max(u, v)) for (u, v) in topo.directed_links})
    picks = rng.choice(len(pairs), size=2, replace=False)
    down = int(rng.integers(130, 200))
    up = int(rng.integers(280, 380))
    sched = FaultSchedule.of(
        list(FaultSchedule.link_outage(
            [pairs[i] for i in picks], down_cycle=down, up_cycle=up
        ).events)
        + list(FaultSchedule.router_outage(
            [int(rng.integers(topo.n))], down_cycle=down + 20, up_cycle=up + 20
        ).events)
    )
    seed = int(rng.integers(1 << 16))
    ref, fast = _pair(table, seed, sched)
    sref = ref.run_closed_loop(**BUDGET)
    sfast = fast.run_closed_loop(**BUDGET)
    assert sref == sfast
    _assert_mirrors(ref, fast)
    _assert_conservation(ref)
    _assert_conservation(fast)


# ---------------------------------------------------------------------------
# Validation surface
# ---------------------------------------------------------------------------

class TestValidation:
    def test_faults_without_retry_rejected_by_both_engines(self):
        table = _table("Mesh", 16)
        faults = central_link_faults(table.topology, 1, cycle=50)
        for cls in (ClosedLoopSimulator, FastClosedLoopSimulator):
            with pytest.raises(ValueError, match="requires a RetryPolicy"):
                cls(table, uniform_random(16), demand_rate=0.02, faults=faults)

    def test_empty_schedule_needs_no_retry(self):
        validate_closed_loop_faults(FaultSchedule.of([]), None)
        validate_closed_loop_faults(None, None)

    def test_payload_builders_validate_client_side(self):
        from repro.fullsys.workloads import workload
        from repro.runner import tasks

        table = _table("Mesh", 16)
        faults = central_link_faults(table.topology, 1, cycle=50)
        w = workload("x264")
        with pytest.raises(ValueError, match="requires a RetryPolicy"):
            tasks.closed_loop_payload(
                table, w, None, 100, 200, 0, faults=faults, retry=None
            )
        with pytest.raises(ValueError, match="requires a RetryPolicy"):
            tasks.recovery_payload(
                table, w, None, faults, None, 500, 50, 0
            )

    def test_retry_policy_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0)
        rp = RetryPolicy(timeout=96, retries=5, backoff=8, seed=3)
        assert RetryPolicy.from_dict(rp.as_dict()) == rp


# ---------------------------------------------------------------------------
# Recovery metrics (pure window math)
# ---------------------------------------------------------------------------

def _window(start, end, backlog, completed=10, rtt=50.0):
    return WindowSample(
        start=start, end=end, issued=completed, completed=completed,
        failed=0, retried=0, rtt_sum=rtt * completed,
        backlog=backlog, net_in_flight=backlog,
    )


class TestRecoveryMetrics:
    def test_finite_recovery(self):
        samples = (
            [_window(i * 50, (i + 1) * 50, 20) for i in range(4)]       # base
            + [_window(200 + i * 50, 250 + i * 50, 80, rtt=200.0)
               for i in range(4)]                                        # fault
            + [_window(400 + i * 50, 450 + i * 50, b, rtt=r)
               for i, (b, r) in enumerate([(60, 120.0), (24, 55.0),
                                           (21, 50.0)])]                 # heal
        )
        m = recovery_metrics(samples, fault_cycle=200, recovery_cycle=400)
        assert m.baseline_backlog == pytest.approx(20.0)
        assert m.time_to_drain == 100.0  # second post-repair window
        assert m.settling_time == 100.0
        assert m.recovered

    def test_never_drains_is_inf(self):
        samples = [_window(i * 50, (i + 1) * 50, 20) for i in range(4)] + [
            _window(200 + i * 50, 250 + i * 50, 90) for i in range(6)
        ]
        m = recovery_metrics(samples, fault_cycle=200, recovery_cycle=250)
        assert m.time_to_drain == float("inf")
        assert not m.recovered

    def test_no_completions_baseline_gives_nan_rtt(self):
        samples = [
            _window(0, 50, 10, completed=0),
            _window(50, 100, 10, completed=0),
            _window(100, 150, 10),
        ]
        m = recovery_metrics(samples, fault_cycle=100, recovery_cycle=100)
        assert m.baseline_rtt != m.baseline_rtt  # NaN
        assert m.settling_time == 50.0  # rtt criterion degrades to trivial
