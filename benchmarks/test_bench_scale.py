"""Scale benchmark: sparse representations vs router count.

Seven measurements back the sparse-at-scale work and the per-table costs:

* **Incremental SA APSP** — the same annealing run (identical seed,
  steps, config) with the production ``IncrementalAPSP`` vs the
  full-recompute oracle (``tests/apsp_oracle.py``, substituted with
  ``monkeypatch``) at n=256.  Both share one move loop, one RNG call
  sequence and exact integer distances, so the resulting links and
  objective are asserted *bit-identical*; the floor asserts the
  production run is >= 3x faster (each move recomputes only the
  affected rows/columns of the hop matrix instead of all pairs, by
  scipy's BFS at this size).
* **Exact cuts** — one exhaustive cut scan (every bipartition) of
  Kite-Small-20 and of a random 22-router digraph, by the split-half
  cut tables vs the chunked mask-by-mask oracle
  (``tests/cut_oracle.py``), best of several calls each.  Values and
  members are asserted identical; the floor asserts the tables are
  >= 8x faster per call at 20 routers, where every SCOp SA move and
  Table II row pays one scan.
* **Small SA moves** — the same comparison on explore's 4x5 medium
  point (6000 steps, seed 0), where each move's affected slice is a
  few rows of 20 routers and the dense BFS recomputes them; the floor
  asserts >= 2.5x (the best of 2 runs per side counts).
* **Incremental CDG** — deadlock-free VC assignment of one 48-router
  table (FoldedTorus, NDBT, seed 0, ``max_vcs=14``) by the integer CDG
  vs the networkx oracle it replaced (``tests/cdg_oracle.py``, whose
  memoized ``path_dependencies`` makes it a little faster than the
  replaced code, so the ratio is conservative).  The assignments are
  asserted identical; the floor asserts the integer CDG is >= 10x
  faster (it removes and re-adds routes' reference counts instead of
  rebuilding a graph per eviction and per balancing trial).
* **Incremental Kite greedy** — Kite-Large at 48 routers by the
  one-link relaxation of the current hop matrix vs the greedy it
  replaced (``tests/kite_oracle.py``: one scipy APSP per candidate
  link).  The edges are asserted identical; the floor asserts the
  relaxation is >= 8x faster.
* **Canonical table keys** — ``task_key`` of one prebuilt sim-point
  payload on the FoldedTorus-48 NDBT table, with the table doc marked
  canonical by construction vs the old walk over every entry
  (``tests/hashing_oracle.py``).  The keys are asserted identical; the
  floor asserts the production key is >= 3x faster.
* **Per-layer timings vs n** — graph metrics (sparse multi-source BFS),
  destination-tree routing into a CSR table, fast-engine compilation
  from that table, and a short incremental anneal, at n in {64, 256,
  1024}.  No floor: these rows make scale regressions attributable
  across PRs.

Results land in ``BENCH_scale.json`` (schema: benchmarks/conftest).
"""

import os
import sys
import time

import numpy as np

from repro.core import search
from repro.core.netsmith import NetSmithConfig
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.routing.dest_tree import bfs_dest_table
from repro.runner import TrafficSpec, task_key
from repro.runner.tasks import sim_point_payload
from repro.sim.fastnet import CompiledNetwork
from repro.topology import (
    Layout,
    average_hops,
    diameter,
    expert_topology,
    kite,
    metrics,
    standard_layout,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))
import apsp_oracle  # noqa: E402  (test-only full-recompute APSP)
import cdg_oracle  # noqa: E402  (test-only networkx reference)
import cut_oracle  # noqa: E402  (test-only chunked mask-by-mask cut scan)
import hashing_oracle  # noqa: E402  (test-only walking hash)
import kite_oracle  # noqa: E402  (test-only per-candidate APSP greedy)

APSP_SPEEDUP_FLOOR = 3.0
APSP_GRID = (16, 16)  # n = 256, the floor's contract point
APSP_STEPS = 150

CUT_SPEEDUP_FLOOR = 8.0
CUT_TOPOLOGY = ("Kite-Small", 20)  # the floor's contract point
CUT_RANDOM_N = 22  # the exhaustive limit; recorded, no floor
CUT_CALLS = {"oracle": 3, "tables": 5}  # best of this many calls counts

SMALL_SA_SPEEDUP_FLOOR = 2.5
SMALL_SA_CASE = (4, 5, "medium")  # explore-sa's grid; the floor's contract point
SMALL_SA_STEPS = 6000

CDG_SPEEDUP_FLOOR = 10.0
CDG_TOPOLOGY = ("FoldedTorus", 48)  # NDBT, seed 0: the floor's contract point
CDG_MAX_VCS = 14

KITE_SPEEDUP_FLOOR = 8.0
KITE_CASE = ("large", 48)  # the floor's contract point

KEY_SPEEDUP_FLOOR = 3.0
KEY_TOPOLOGY = CDG_TOPOLOGY  # the CDG floor's table (NDBT, seed 0)
KEY_REPS = 20  # keys hashed per timing; the best of 5 timings counts

SCALE_GRIDS = ((8, 8), (16, 16), (32, 32))
SCALE_SA_STEPS = 30


def _anneal(rows, cols, steps, link_class="medium", seed=1):
    cfg = NetSmithConfig(
        layout=Layout(rows=rows, cols=cols), link_class=link_class, radix=4
    )
    t0 = time.perf_counter()
    result = search.anneal_topology(
        cfg, objective="latency", steps=steps, seed=seed
    )
    return time.perf_counter() - t0, result


def _anneal_oracle(monkeypatch, *args, **kwargs):
    """``_anneal`` with every move's hop matrix recomputed in full."""
    with monkeypatch.context() as m:
        m.setattr(search, "IncrementalAPSP", apsp_oracle.FullAPSP)
        return _anneal(*args, **kwargs)


def _assert_identical(inc, full):
    # Bit-identical results: same RNG sequence, exact integer distances.
    assert inc.objective == full.objective, (
        f"incremental APSP changed the SA objective: "
        f"{inc.objective!r} != {full.objective!r}"
    )
    assert sorted(inc.topology.directed_links) == sorted(
        full.topology.directed_links
    ), "incremental APSP changed the SA search trajectory"


def test_incremental_apsp_speedup(once, bench_record, monkeypatch):
    rows, cols = APSP_GRID

    def harness():
        full_s, full = _anneal_oracle(monkeypatch, rows, cols, APSP_STEPS)
        inc_s, inc = _anneal(rows, cols, APSP_STEPS)
        return full_s, full, inc_s, inc

    full_s, full, inc_s, inc = once(harness)
    speedup = full_s / inc_s

    n = rows * cols
    print(f"\nSA APSP at n={n} ({APSP_STEPS} steps):")
    print(f"  full        {full_s:7.2f}s  objective {full.objective:.1f}")
    print(f"  incremental {inc_s:7.2f}s  objective {inc.objective:.1f}")
    print(f"  speedup {speedup:.2f}x (floor {APSP_SPEEDUP_FLOOR}x)")

    _assert_identical(inc, full)

    bench_record(
        n_routers=n,
        sa_steps=APSP_STEPS,
        full_wall_s=round(full_s, 3),
        incremental_wall_s=round(inc_s, 3),
        speedup=round(speedup, 3),
        floor=APSP_SPEEDUP_FLOOR,
        objective=full.objective,
    )
    assert speedup >= APSP_SPEEDUP_FLOOR, (
        f"incremental SA APSP only {speedup:.2f}x faster than full "
        f"recompute at n={n} (floor {APSP_SPEEDUP_FLOOR}x)"
    )


def test_exact_cut_speedup(once, bench_record):
    name, n = CUT_TOPOLOGY
    rng = np.random.default_rng(0)
    big = (rng.random((CUT_RANDOM_N, CUT_RANDOM_N)) < 0.2).astype(np.int8)
    np.fill_diagonal(big, 0)
    cases = {f"{name}-{n}": expert_topology(name, n).adj,
             f"random-{CUT_RANDOM_N}": big}

    def harness():
        return {
            label: (
                _best_of(cut_oracle.cut_scan, adj, reps=1,
                         rounds=CUT_CALLS["oracle"]),
                _best_of(metrics._cut_scan, adj, reps=1,
                         rounds=CUT_CALLS["tables"]),
            )
            for label, adj in cases.items()
        }

    timings = once(harness)
    print("\nExact cut scan per call (best of "
          f"{CUT_CALLS['oracle']} oracle / {CUT_CALLS['tables']} table calls):")
    speedups = {}
    for label, (oracle_s, tables_s) in timings.items():
        ref = cut_oracle.cut_scan(cases[label])
        got = metrics._cut_scan(cases[label])
        assert (got[0], got[2]) == (ref[0], ref[2]), (
            f"split-half cut tables changed the cut values of {label}"
        )
        assert all(np.array_equal(g, r) for g, r in
                   ((got[1], ref[1]), (got[3], ref[3]))), (
            f"split-half cut tables changed the cut members of {label}"
        )
        speedups[label] = oracle_s / tables_s
        print(f"  {label:<16} oracle {oracle_s * 1e3:7.1f} ms  tables "
              f"{tables_s * 1e3:6.1f} ms  speedup {speedups[label]:.1f}x")
        bench_record(**{label: {
            "oracle_ms": round(oracle_s * 1e3, 2),
            "tables_ms": round(tables_s * 1e3, 2),
            "speedup": round(speedups[label], 2),
            "sparsest_value": ref[0],
        }})
    floor_label = f"{name}-{n}"
    bench_record(floor=CUT_SPEEDUP_FLOOR, floor_case=floor_label)
    assert speedups[floor_label] >= CUT_SPEEDUP_FLOOR, (
        f"split-half cut tables only {speedups[floor_label]:.2f}x faster "
        f"per call than the chunked scan on {floor_label} "
        f"(floor {CUT_SPEEDUP_FLOOR}x)"
    )


def test_small_sa_speedup(once, bench_record, monkeypatch):
    rows, cols, link_class = SMALL_SA_CASE
    args = (rows, cols, SMALL_SA_STEPS, link_class)

    def harness():
        full_s = inc_s = float("inf")
        for _ in range(2):
            s, full = _anneal_oracle(monkeypatch, *args, seed=0)
            full_s = min(full_s, s)
            s, inc = _anneal(*args, seed=0)
            inc_s = min(inc_s, s)
        return full_s, full, inc_s, inc

    full_s, full, inc_s, inc = once(harness)
    speedup = full_s / inc_s

    label = f"{rows}x{cols}-{link_class}"
    print(f"\nSA moves on {label} ({SMALL_SA_STEPS} steps, best of 2):")
    print(f"  full        {full_s:7.2f}s  objective {full.objective:.1f}")
    print(f"  incremental {inc_s:7.2f}s  objective {inc.objective:.1f}")
    print(f"  speedup {speedup:.2f}x (floor {SMALL_SA_SPEEDUP_FLOOR}x)")

    _assert_identical(inc, full)

    bench_record(
        grid=label,
        n_routers=rows * cols,
        sa_steps=SMALL_SA_STEPS,
        full_wall_s=round(full_s, 3),
        incremental_wall_s=round(inc_s, 3),
        speedup=round(speedup, 3),
        floor=SMALL_SA_SPEEDUP_FLOOR,
        objective=full.objective,
    )
    assert speedup >= SMALL_SA_SPEEDUP_FLOOR, (
        f"SA moves only {speedup:.2f}x faster than full recompute on "
        f"{label} (floor {SMALL_SA_SPEEDUP_FLOOR}x)"
    )


def test_incremental_cdg_speedup(once, bench_record):
    name, n = CDG_TOPOLOGY
    routes = ndbt_route(expert_topology(name, n), seed=0)

    def harness():
        t0 = time.perf_counter()
        ref = cdg_oracle.assign_vcs(routes, max_vcs=CDG_MAX_VCS, seed=0)
        t1 = time.perf_counter()
        vca = assign_vcs(routes, max_vcs=CDG_MAX_VCS, seed=0)
        return t1 - t0, ref, time.perf_counter() - t1, vca

    oracle_s, ref, inc_s, vca = once(harness)
    speedup = oracle_s / inc_s

    print(f"\nVC assignment of {name}-{n} (NDBT, seed 0, max_vcs={CDG_MAX_VCS}):")
    print(f"  networkx oracle {oracle_s:7.2f}s  {ref.num_vcs} VCs")
    print(f"  integer CDG     {inc_s:7.2f}s  {vca.num_vcs} VCs")
    print(f"  speedup {speedup:.2f}x (floor {CDG_SPEEDUP_FLOOR}x)")

    assert (vca.num_vcs, vca.assignment, vca.layers) == (
        ref.num_vcs, ref.assignment, ref.layers
    ), "integer CDG changed the VC assignment"

    bench_record(
        topology=f"{name}-{n}",
        policy="ndbt",
        max_vcs=CDG_MAX_VCS,
        num_vcs=vca.num_vcs,
        oracle_wall_s=round(oracle_s, 3),
        incremental_wall_s=round(inc_s, 3),
        speedup=round(speedup, 3),
        floor=CDG_SPEEDUP_FLOOR,
    )
    assert speedup >= CDG_SPEEDUP_FLOOR, (
        f"integer CDG VC assignment only {speedup:.2f}x faster than the "
        f"networkx oracle on {name}-{n} (floor {CDG_SPEEDUP_FLOOR}x)"
    )


def test_incremental_kite_speedup(once, bench_record):
    size, n = KITE_CASE
    layout = standard_layout(n)

    def harness():
        t0 = time.perf_counter()
        ref = kite_oracle.kite(layout, size)
        t1 = time.perf_counter()
        got = kite(layout, size)
        return t1 - t0, ref, time.perf_counter() - t1, got

    oracle_s, ref, inc_s, got = once(harness)
    speedup = oracle_s / inc_s

    print(f"\nKite-{size.capitalize()}-{n} greedy:")
    print(f"  APSP per candidate  {oracle_s:7.2f}s  {ref.num_links} links")
    print(f"  one-link relaxation {inc_s:7.2f}s  {got.num_links} links")
    print(f"  speedup {speedup:.2f}x (floor {KITE_SPEEDUP_FLOOR}x)")

    assert got.directed_links == ref.directed_links, (
        "one-link relaxation changed the Kite edges"
    )

    bench_record(
        topology=f"Kite-{size.capitalize()}-{n}",
        num_links=got.num_links,
        oracle_wall_s=round(oracle_s, 3),
        incremental_wall_s=round(inc_s, 3),
        speedup=round(speedup, 3),
        floor=KITE_SPEEDUP_FLOOR,
    )
    assert speedup >= KITE_SPEEDUP_FLOOR, (
        f"Kite greedy only {speedup:.2f}x faster than one APSP per "
        f"candidate on Kite-{size.capitalize()}-{n} "
        f"(floor {KITE_SPEEDUP_FLOOR}x)"
    )


def _best_of(fn, arg, reps=KEY_REPS, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best / reps


def test_canonical_table_key_speedup(once, bench_record):
    name, n = KEY_TOPOLOGY
    routes = ndbt_route(expert_topology(name, n), seed=0)
    table = build_routing_table(
        routes, assign_vcs(routes, max_vcs=CDG_MAX_VCS, seed=0)
    )
    payload = sim_point_payload(
        table, TrafficSpec.uniform(n), 0.1, warmup=250, measure=800, seed=0,
    )

    def harness():
        walk_s = _best_of(
            lambda p: hashing_oracle.task_key("sim_point", p), payload,
        )
        key_s = _best_of(lambda p: task_key("sim_point", p), payload)
        return walk_s, key_s

    walk_s, key_s = once(harness)
    speedup = walk_s / key_s

    print(f"\nsim_point task key on {name}-{n} (NDBT, seed 0):")
    print(f"  walked doc     {walk_s * 1e3:7.2f}ms")
    print(f"  canonical doc  {key_s * 1e3:7.2f}ms")
    print(f"  speedup {speedup:.2f}x (floor {KEY_SPEEDUP_FLOOR}x)")

    assert task_key("sim_point", payload) == hashing_oracle.task_key(
        "sim_point", payload
    ), "canonical table doc changed the task key"

    bench_record(
        topology=f"{name}-{n}",
        policy="ndbt",
        table_entries=len(payload["table"]["next_hop"]),
        walk_ms=round(walk_s * 1e3, 3),
        canonical_ms=round(key_s * 1e3, 3),
        speedup=round(speedup, 3),
        floor=KEY_SPEEDUP_FLOOR,
    )
    assert speedup >= KEY_SPEEDUP_FLOOR, (
        f"canonical table key only {speedup:.2f}x faster than walking "
        f"the doc on {name}-{n} (floor {KEY_SPEEDUP_FLOOR}x)"
    )


def test_scale_timings(once, bench_record):
    def harness():
        rows_out = []
        for rows, cols in SCALE_GRIDS:
            n = rows * cols
            sa_s, seed_result = _anneal(rows, cols, SCALE_SA_STEPS)
            topo = seed_result.topology

            t0 = time.perf_counter()
            hops = average_hops(topo)
            diam = diameter(topo)
            metric_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            table = bfs_dest_table(topo, max_vcs=14)
            route_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            CompiledNetwork(table)
            compile_s = time.perf_counter() - t0

            rows_out.append({
                "n_routers": n,
                "sa_steps": SCALE_SA_STEPS,
                "sa_wall_s": round(sa_s, 3),
                "metric_wall_s": round(metric_s, 4),
                "route_wall_s": round(route_s, 3),
                "compile_wall_s": round(compile_s, 3),
                "avg_hops": round(hops, 4),
                "diameter": diam,
                "num_vcs": table.num_vcs,
            })
        return rows_out

    rows_out = once(harness)

    print("\nper-layer wall time vs n (seconds):")
    print(f"{'n':>6} {'sa(30)':>8} {'metrics':>8} {'route':>8} "
          f"{'compile':>8} {'vcs':>4}")
    for r in rows_out:
        print(f"{r['n_routers']:>6} {r['sa_wall_s']:>8.2f} "
              f"{r['metric_wall_s']:>8.3f} {r['route_wall_s']:>8.2f} "
              f"{r['compile_wall_s']:>8.2f} {r['num_vcs']:>4}")

    bench_record(grids=[f"{r}x{c}" for r, c in SCALE_GRIDS], rows=rows_out)
