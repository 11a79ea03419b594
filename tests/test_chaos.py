"""Fault-injection differential suite for the supervised runner.

The contract under test: any sweep run under injected faults — worker
crashes, task hangs, transient exceptions, torn cache writes — completes
with results bit-identical to the fault-free run, with RunHealth
counters matching the injected fault counts; poison payloads are
quarantined with structured failure artifacts while the rest of the
wave completes; and a SIGINT-killed sweep resumes from the journal with
100% cache hits for everything it finished.  Faults come from
``chaos_harness``, which patches them into the executor's task seam.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from chaos_harness import (
    ChaosError,
    ChaosSpec,
    armed,
    chaos_call,
    tear_cache_entries,
)
from curve_helper import run_curve
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.runner import (
    ParallelExecutor,
    QuarantineError,
    Runner,
    TaskFailure,
    TaskRetryPolicy,
    TrafficSpec,
    payload_fingerprint,
    task_key,
)
from repro.runner import journal as journal_mod
from repro.runner.tasks import sim_point_payload
from repro.topology import Layout, Topology

RATES = (0.02, 0.06, 0.12, 0.2, 0.3)
BUDGET = dict(warmup=80, measure=200, seed=0)

#: Generous retry budgets for fault tests: the *counters* prove how many
#: retries actually happened; the budget just must not get in the way.
LENIENT = dict(retries=3, backoff=0.01, max_pool_restarts=10)


@pytest.fixture(scope="module")
def table():
    layout = Layout(rows=2, cols=3)
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    topo = Topology.from_undirected(layout, edges, name="mesh2x3", link_class="small")
    routes = ndbt_route(topo, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


@pytest.fixture(scope="module")
def payloads(table):
    return [
        sim_point_payload(
            table, TrafficSpec.uniform(6), rate,
            BUDGET["warmup"], BUDGET["measure"], BUDGET["seed"],
            engine="fast",
        )
        for rate in RATES
    ]


@pytest.fixture(scope="module")
def live_payloads(payloads):
    """Payloads the wave-scheduled sweep actually executes.

    The curve saturates at 0.12 and retires at the end of that wave, so
    the 0.3 point is never submitted — a fault injected on it would
    never fire.  Counter-equality tests must pick victims from here.
    """
    return payloads[:4]


@pytest.fixture(scope="module")
def baseline(table, tmp_path_factory):
    """The fault-free serial curve every chaotic run must reproduce."""
    with Runner(parallel=1,
                cache_dir=str(tmp_path_factory.mktemp("baseline"))) as r:
        return curve_points(run_curve(
            r, table, TrafficSpec.uniform(6), RATES, **BUDGET,
        ))


def curve_points(curve):
    return [
        (p.offered_rate, p.avg_latency_cycles,
         p.throughput_packets_node_cycle, p.saturated)
        for p in curve.points
    ]


def chaotic_curve(table, tmp_path, chaos, retry=None, parallel=2):
    runner = Runner(
        parallel=parallel, cache_dir=str(tmp_path / "cache"),
        retry=retry or TaskRetryPolicy(**LENIENT),
    )
    with armed(chaos), runner:
        curve = run_curve(runner, table, TrafficSpec.uniform(6), RATES,
                          **BUDGET)
        return curve_points(curve), runner.health


# ---------------------------------------------------------------------------
# policy / spec plumbing
# ---------------------------------------------------------------------------

def test_retry_policy_validates_and_round_trips():
    with pytest.raises(ValueError):
        TaskRetryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        TaskRetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        TaskRetryPolicy(backoff=-0.1)
    with pytest.raises(ValueError):
        TaskRetryPolicy(max_pool_restarts=-1)


def test_retry_policy_backoff_is_deterministic_and_capped():
    p = TaskRetryPolicy(backoff=0.5)
    assert p.delay(0) == 0.0
    assert p.delay(1) == 0.5
    assert p.delay(2) == 1.0
    assert p.delay(30) == pytest.approx(5.0)  # BACKOFF_CAP


def test_chaos_select_is_deterministic_and_disjoint(payloads):
    a = ChaosSpec.select(payloads, seed=0, crash=1, hang=1, exc=2, delay=1)
    b = ChaosSpec.select(payloads, seed=0, crash=1, hang=1, exc=2, delay=1)
    assert a == b
    classes = [set(a.crash), set(a.hang), set(a.exc), set(a.delay)]
    assert sum(len(c) for c in classes) == len(set().union(*classes)) == 5
    assert (ChaosSpec.select(payloads, seed=1, exc=2).exc
            != ChaosSpec.select(payloads, seed=0, exc=2).exc)
    with pytest.raises(ValueError):
        ChaosSpec.select(payloads, exc=len(payloads) + 1)


def test_chaos_call_injects_only_below_fail_attempts(payloads):
    spec = ChaosSpec.select(payloads, seed=0, exc=1, fail_attempts=2)
    victim = next(p for p in payloads if payload_fingerprint(p) in spec.exc)
    with pytest.raises(ChaosError):
        chaos_call(spec, 0, lambda p: "ran", victim)
    with pytest.raises(ChaosError):
        chaos_call(spec, 1, lambda p: "ran", victim)
    assert chaos_call(spec, 2, lambda p: "ran", victim) == "ran"
    bystander = next(p for p in payloads if payload_fingerprint(p) not in spec.exc)
    assert chaos_call(spec, 0, lambda p: "ran", bystander) == "ran"


# ---------------------------------------------------------------------------
# differential: injected faults, bit-identical results, matching counters
# ---------------------------------------------------------------------------

def test_transient_exceptions_differential(table, live_payloads, baseline, tmp_path):
    chaos = ChaosSpec.select(live_payloads, seed=0, exc=2)
    points, health = chaotic_curve(table, tmp_path, chaos)
    assert points == baseline
    # Each victim fails exactly once (fail_attempts=1) then succeeds.
    assert health.retries == 2
    assert health.quarantined == 0
    assert health.crashes == 0 and health.timeouts == 0


def test_worker_crash_recovery_differential(table, live_payloads, baseline, tmp_path):
    chaos = ChaosSpec.select(live_payloads, seed=0, crash=1)
    points, health = chaotic_curve(table, tmp_path, chaos)
    assert points == baseline
    assert health.crashes >= 1
    assert health.pool_restarts >= 1
    assert health.quarantined == 0
    # The completed results of the collapsed wave were kept, not redone:
    # only the crash victim was ever charged a retry.
    assert health.retries <= 1


def test_hang_timeout_retry_differential(table, live_payloads, baseline, tmp_path):
    chaos = ChaosSpec.select(live_payloads, seed=0, hang=1, hang_s=30.0)
    retry = TaskRetryPolicy(timeout=2.0, **LENIENT)
    t0 = time.monotonic()
    points, health = chaotic_curve(table, tmp_path, chaos, retry=retry)
    # Far less than the 30s hang: the deadline reclaimed the worker.
    assert time.monotonic() - t0 < 20.0
    assert points == baseline
    assert health.timeouts == 1
    assert health.pool_restarts >= 1
    assert health.quarantined == 0


def test_combined_chaos_fig6_style_differential(table, live_payloads, baseline, tmp_path):
    """The flagship acceptance test: crashes, hangs, transient
    exceptions, and delays all at once — same curve, counted faults."""
    chaos = ChaosSpec.select(
        live_payloads, seed=3, crash=1, hang=1, exc=1, delay=1, hang_s=30.0,
    )
    retry = TaskRetryPolicy(timeout=2.5, **LENIENT)
    points, health = chaotic_curve(table, tmp_path, chaos, retry=retry)
    assert points == baseline
    assert health.quarantined == 0
    assert health.retries >= 1  # at least the injected exception
    assert health.crashes >= 1
    assert health.timeouts == 1


# ---------------------------------------------------------------------------
# quarantine: poison tasks fail loudly, the wave completes
# ---------------------------------------------------------------------------

def test_poison_task_quarantined_wave_completes(table, live_payloads, tmp_path):
    # fail_attempts beyond any budget: the victim is a true poison task.
    chaos = ChaosSpec.select(live_payloads, seed=0, exc=1, fail_attempts=99)
    runner = Runner(
        parallel=2, cache_dir=str(tmp_path / "cache"),
        retry=TaskRetryPolicy(retries=1, backoff=0.0),
    )
    with armed(chaos), runner:
        with pytest.raises(QuarantineError) as ei:
            run_curve(runner, table, TrafficSpec.uniform(6), RATES, **BUDGET)
        failures = ei.value.failures
        assert len(failures) == 1
        f = failures[0]
        assert f.kind == "error"
        assert f.attempts == 2  # first try + one retry
        assert f.task == "sim_point"
        assert len(f.tracebacks) == 2
        assert "ChaosError" in f.tracebacks[-1]
        assert f.payload_hash in chaos.exc
        # Structured failure artifact on disk.
        artifact = os.path.join(
            str(tmp_path / "cache"), "failures", f"{f.key}.json",
        )
        with open(artifact) as fh:
            doc = json.load(fh)
        assert doc["attempts"] == 2 and doc["kind"] == "error"
        assert doc["key"] == f.key
        # The rest of the wave completed and was cached before the raise.
        assert runner.stats.puts >= 1
        assert runner.health.quarantined == 1

    # A clean rerun on the same cache recomputes only the poisoned point.
    with Runner(parallel=1, cache_dir=str(tmp_path / "cache")) as r2:
        run_curve(r2, table, TrafficSpec.uniform(6), RATES, **BUDGET)
        assert r2.health.quarantined == 0
        assert r2.stats.hits >= 1


def test_quarantine_error_carries_task_failures(table, payloads, tmp_path):
    chaos = ChaosSpec.select(payloads, seed=0, exc=1, fail_attempts=99)
    runner = Runner(
        parallel=2, cache_dir=str(tmp_path / "cache"),
        retry=TaskRetryPolicy(retries=0, backoff=0.0),
    )
    with armed(chaos), runner:
        with pytest.raises(QuarantineError) as ei:
            runner.run_tasks("sim_point", payloads)
        fails = ei.value.failures
        assert len(fails) == 1 and fails[0].attempts == 1
        assert runner.failures == fails
        # Every other payload of the wave completed and was cached.
        assert runner.stats.puts == len(payloads) - 1


# ---------------------------------------------------------------------------
# degradation: repeated collapse falls back to inline execution
# ---------------------------------------------------------------------------

def test_inline_degradation_after_repeated_collapse(table, live_payloads, baseline,
                                                    tmp_path):
    # A poison crasher with a tiny restart budget: the pool is written
    # off, and the inline path (pid-guarded injectors never fire in the
    # supervisor) still completes every payload correctly.
    chaos = ChaosSpec.select(live_payloads, seed=0, crash=1, fail_attempts=99)
    retry = TaskRetryPolicy(retries=5, backoff=0.0, max_pool_restarts=1)
    points, health = chaotic_curve(table, tmp_path, chaos, retry=retry)
    assert points == baseline
    assert health.pool_restarts == 2  # budget 1 + the final write-off
    assert health.inline_fallbacks >= 1
    assert health.quarantined == 0


# ---------------------------------------------------------------------------
# torn cache writes: discovered, evicted, recomputed, repopulated
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["truncate", "garbage"])
def test_torn_cache_writes_evicted_and_repopulated(table, payloads, baseline,
                                                   tmp_path, mode):
    cache_dir = str(tmp_path / "cache")
    with Runner(parallel=1, cache_dir=cache_dir) as r1:
        points = curve_points(run_curve(
            r1, table, TrafficSpec.uniform(6), RATES, **BUDGET,
        ))
        assert points == baseline
    keys = [task_key("sim_point", p) for p in payloads]
    torn_count = tear_cache_entries(cache_dir, keys[:2], mode=mode)
    assert torn_count >= 1  # sweeps can retire past saturation; >=1 torn

    # Second run discovers the torn entries: evicted, recomputed,
    # repopulated — and the results still match.
    with Runner(parallel=1, cache_dir=cache_dir) as r2:
        points = curve_points(run_curve(
            r2, table, TrafficSpec.uniform(6), RATES, **BUDGET,
        ))
        assert points == baseline
        assert r2.stats.errors == torn_count
        assert r2.health.cache_evictions == torn_count
        assert r2.stats.puts == torn_count

    # Third run: fully healed, 100% hits.
    with Runner(parallel=1, cache_dir=cache_dir) as r3:
        points = curve_points(run_curve(
            r3, table, TrafficSpec.uniform(6), RATES, **BUDGET,
        ))
        assert points == baseline
        assert r3.stats.misses == 0 and r3.stats.errors == 0


# ---------------------------------------------------------------------------
# journal: declared/done scanning, torn lines, SIGINT resume
# ---------------------------------------------------------------------------

def test_journal_scan_classifies_and_skips_torn_lines(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"ev": "run", "version": 1}) + "\n")
        fh.write(json.dumps({"ev": "wave", "task": "t", "keys": ["a", "b", "c"]}) + "\n")
        fh.write(json.dumps({"ev": "done", "key": "a"}) + "\n")
        fh.write(json.dumps({"ev": "quarantined", "key": "b"}) + "\n")
        fh.write('{"ev": "done", "key": "c"')  # torn mid-write
    scan = journal_mod.scan(path)
    assert scan["done"] == {"a"}
    assert scan["quarantined"] == {"b"}
    assert scan["interrupted"] == {"c"}
    assert journal_mod.scan(str(tmp_path / "missing.jsonl"))["done"] == set()


_SIGINT_CHILD = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from chaos_harness import ChaosSpec, armed
from curve_helper import run_curve
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.runner import Runner, TrafficSpec
from repro.runner.tasks import sim_point_payload
from repro.topology import Layout, Topology

layout = Layout(rows=2, cols=3)
edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
topo = Topology.from_undirected(layout, edges, name="mesh2x3", link_class="small")
routes = ndbt_route(topo, seed=0)
table = build_routing_table(routes, assign_vcs(routes, seed=0))
payloads = [
    sim_point_payload(table, TrafficSpec.uniform(6), r, 80, 200, 0,
                      engine="fast")
    for r in (0.02, 0.06, 0.12, 0.2, 0.3)
]
# Delay every task so the parent can SIGINT us mid-wave.
chaos = ChaosSpec.select(payloads, seed=0, delay=len(payloads), delay_s=0.35)
runner = Runner(parallel=2, cache_dir={cache!r})
print("READY", flush=True)
with armed(chaos):
    run_curve(runner, table, TrafficSpec.uniform(6),
              (0.02, 0.06, 0.12, 0.2, 0.3), warmup=80, measure=200, seed=0)
print("FINISHED", flush=True)
"""


def test_sigint_killed_sweep_resumes_from_journal(table, baseline, tmp_path):
    cache_dir = str(tmp_path / "cache")
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    script = _SIGINT_CHILD.format(src=src, tests=tests, cache=cache_dir)
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    journal_path = os.path.join(cache_dir, journal_mod.JOURNAL_NAME)
    try:
        # Wait until at least one task has been journaled done, then
        # kill the run mid-wave.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail("child finished before it could be interrupted")
            if journal_mod.scan(journal_path)["done"]:
                break
            time.sleep(0.05)
        else:
            pytest.fail("child never journaled a completed task")
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0  # it really was killed mid-run

    # Scan before the resuming Runner truncates the journal.
    scan = journal_mod.scan(journal_path)
    done = set(scan["done"])
    assert done  # the parent waited for this

    with Runner(parallel=1, cache_dir=cache_dir) as r:
        points = curve_points(run_curve(
            r, table, TrafficSpec.uniform(6), RATES, **BUDGET,
        ))
        assert points == baseline
        # Every task the killed run completed is a cache hit (resumed);
        # nothing it finished is recomputed.  A kill between a task's
        # cache write and its ``done`` line leaves more hits than
        # ``done`` keys, and those count as resumed too.
        assert r.health.resumed == r.stats.hits >= len(done)
        assert r.health.interrupted == len(scan["interrupted"])


def test_resume_counts_hits_the_killed_run_never_journaled_done(
    table, baseline, payloads, tmp_path
):
    """The state a kill between ``cache.put`` and ``journal.done``
    leaves, built directly: the killed run declared five keys, journaled
    one done, and cached two.  Both cached results count as resumed."""
    from repro.runner.cache import ResultCache
    from repro.runner.tasks import sim_point_task

    cache_dir = str(tmp_path / "cache")
    cache = ResultCache(cache_dir)
    keys = [task_key("sim_point", p) for p in payloads]
    for payload, key in zip(payloads[:2], keys[:2]):
        cache.put(key, sim_point_task(payload))
    with open(os.path.join(cache_dir, journal_mod.JOURNAL_NAME), "w") as fh:
        for rec in (
            {"ev": "run", "version": 1, "pid": 0},
            {"ev": "wave", "task": "sim_point", "keys": keys},
            {"ev": "done", "key": keys[0]},
        ):
            fh.write(json.dumps(rec) + "\n")

    with Runner(parallel=1, cache_dir=cache_dir) as r:
        points = curve_points(run_curve(
            r, table, TrafficSpec.uniform(6), RATES, **BUDGET,
        ))
        assert points == baseline
        assert r.stats.hits == 2
        assert r.health.resumed == 2
        assert r.health.interrupted == 4


# ---------------------------------------------------------------------------
# executor plumbing satellites
# ---------------------------------------------------------------------------

def test_atexit_registered_once_across_pool_restarts(payloads, monkeypatch):
    import atexit as atexit_mod

    registered = []
    monkeypatch.setattr(
        atexit_mod, "register",
        lambda fn, *a, **k: registered.append(fn) or fn,
    )
    import repro.runner.executor as executor_mod
    monkeypatch.setattr(executor_mod.atexit, "register", atexit_mod.register)

    chaos = ChaosSpec.select(payloads, seed=0, crash=1, fail_attempts=2)
    ex = ParallelExecutor(2, retry=TaskRetryPolicy(**LENIENT))
    try:
        with armed(chaos):
            outcomes = ex.map_outcomes(_double, list(range(6)))
            assert outcomes == [x * 2 for x in range(6)]
            assert ex.health.pool_restarts == 0
            # Force real restarts through the crash path on sim payloads.
            ex2 = ParallelExecutor(2, retry=TaskRetryPolicy(**LENIENT))
            ex2.map_outcomes(_identity, payloads)
        assert ex2.health.pool_restarts >= 1
        assert registered.count(ex2.close) == 1
        ex2.close()
    finally:
        ex.close()
    assert registered.count(ex.close) == 1


def _double(x):
    return x * 2


def _identity(p):
    return {"echo": True}


def test_map_outcomes_quarantines_poison_payload():
    ex = ParallelExecutor(2, retry=TaskRetryPolicy(retries=1, backoff=0.0))
    try:
        outcomes = ex.map_outcomes(_poison_four, list(range(6)))
        poisoned = outcomes.pop(4)
        assert isinstance(poisoned, TaskFailure) and poisoned.attempts == 2
        assert outcomes == [0, 1, 2, 3, 5]
        assert ex.health.quarantined == 1
    finally:
        ex.close()


def _poison_four(x):
    if x == 4:
        raise ValueError("poison")
    return x


# ---------------------------------------------------------------------------
# CLI: quarantined runs exit non-zero with a failure table
# ---------------------------------------------------------------------------

def test_cli_quarantined_run_exits_2_with_failure_table(
    table, tmp_path, monkeypatch, capsys,
):
    from repro import cli
    from repro.runner import tasks as rtasks
    from repro.topology import save

    topo_path = str(tmp_path / "mesh2x3.json")
    save(table.topology, topo_path)

    real_fn, decode = rtasks.TASK_FUNCTIONS["sim_point"]

    def poisoned(payload):
        # Poison the FIRST rate of the sweep: the tiny mesh saturates
        # early and the wave scheduler retires the curve at saturation,
        # so later rates are never guaranteed to execute.
        if abs(payload["rate"] - 0.1) < 1e-9:
            raise RuntimeError("injected cell failure")
        return real_fn(payload)

    monkeypatch.setitem(rtasks.TASK_FUNCTIONS, "sim_point", (poisoned, decode))
    rc = cli.main([
        "simulate", topo_path, "--policy", "ndbt",
        "--points", "4", "--max-rate", "0.4",
        "--warmup", "80", "--measure", "200",
        "--task-retries", "1", "--health",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "quarantined" in err
    assert "sim_point" in err  # the per-cell failure table names the task
    assert "injected cell failure" in err
    assert "health:" in err  # --health still reports on failure

    # The healthy rates were cached before the quarantine surfaced: the
    # failure artifact directory exists alongside them.
    failures_dir = tmp_path / "cache" / "failures"
    assert failures_dir.is_dir() and list(failures_dir.glob("*.json"))
