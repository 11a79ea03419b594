"""Engine benchmark: flat-array fast engine vs the reference simulator.

The reference is the test-only oracle ``tests/network_oracle.py``,
registered as ``engine="reference"`` for every benchmark here.

Runs the fig6-style uniform-traffic sweep (4x5 grid, medium link class,
fig6 budgets and rates, stop-after-saturation) with both engines,
verifies the curves are bit-identical, and reports the wall-clock
speedup.  PR 2's engine was bounded at ~2.3x aggregate by shared
RNG-draw-order work (one scalar destination closure call and one scalar
size draw per packet); the trace-fed engine pre-generates injection
events in vectorized chunks and shares one compiled network across all
rate points, which clears the >=3x aggregate target.  The assertion
floor is 3x (low-load points, where the worklist/sleep machinery
additionally skips idle cycles outright, must clear 4x); the measured
ratios are printed and persisted to ``BENCH_engine.json`` either way.

The batched multi-replica benchmark adds the batched engine: all
``BATCH_SEEDS x len(DEFAULT_RATES)`` lanes of one topology advanced as
a single SoA turbo batch (relaxed cross-replica draw order,
KS-validated by ``tests/test_batch.py``), which must clear a 10x
aggregate floor over the reference and a 2x floor over the fast engine
running the same lanes point by point (``turbo_vs_fast``: the bar turbo
must clear to keep its place beside the bit-exact engine).  Every
record carries ``mode`` (the engine: ``fast`` or ``turbo``) and
``batch_shape`` fields so BENCH_engine.json distinguishes the per-point
and batched rows.
"""

import os
import sys
import time

import pytest

from repro.experiments.fig6 import DEFAULT_RATES
from repro.experiments.registry import roster, routed_entry
from repro.sim import (
    latency_throughput_curve,
    run_batch,
    run_point,
    uniform_random,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))
import network_oracle  # noqa: E402  (test-only reference engine)

REPS = 3  # interleaved repetitions; min cancels scheduler noise

#: Asserted speedup floors (conservative vs typical measurements, so the
#: benchmark stays meaningful under CI timer noise).
AGGREGATE_FLOOR = 3.0
LOW_LOAD_FLOOR = 4.0

#: Batched-engine benchmark: seed replicas per rate, and the turbo
#: floor (relaxed draw-order, fused SoA loop over all lanes) against the
#: per-replica reference cost.
BATCH_SEEDS = 16
TURBO_FLOOR = 10.0
TURBO_VS_FAST_FLOOR = 2.0
BATCH_REPS = 2  # min of 2 bounds the wall clock of the reference leg


@pytest.fixture(autouse=True)
def reference_engine(monkeypatch):
    network_oracle.register_reference(monkeypatch)


def _sweep(table, engine):
    return latency_throughput_curve(
        table, uniform_random(20), DEFAULT_RATES,
        warmup=400, measure=1500, seed=0, engine=engine,
    )


def _timed_sweeps(table):
    best = {"reference": float("inf"), "fast": float("inf")}
    curves = {}
    for _ in range(REPS):
        for engine in ("reference", "fast"):
            t0 = time.perf_counter()
            curves[engine] = _sweep(table, engine)
            best[engine] = min(best[engine], time.perf_counter() - t0)
    return best, curves


def test_engine_speedup_fig6_medium(once, bench_record):
    entries = roster("medium", 20, allow_generate=False)
    tables = [(e.name, routed_entry(e, seed=0)) for e in entries]

    def harness():
        return {name: _timed_sweeps(table) for name, table in tables}

    results = once(harness)

    print("\nEngine speedup — fig6-style uniform sweep (4x5, medium class)")
    tot_ref = tot_fast = 0.0
    per_topology = {}
    for name, (best, curves) in results.items():
        # equal results: point-for-point identical curves
        ref_pts = curves["reference"].points
        fast_pts = curves["fast"].points
        assert len(ref_pts) == len(fast_pts), name
        for pa, pb in zip(ref_pts, fast_pts):
            assert pa == pb, name
        ratio = best["reference"] / best["fast"]
        tot_ref += best["reference"]
        tot_fast += best["fast"]
        per_topology[name] = {
            "reference_s": best["reference"],
            "fast_s": best["fast"],
            "speedup": ratio,
        }
        print(f"  {name:<18} reference={best['reference']*1e3:7.1f} ms  "
              f"fast={best['fast']*1e3:7.1f} ms  speedup={ratio:4.2f}x")
    agg = tot_ref / tot_fast
    print(f"  {'AGGREGATE':<18} reference={tot_ref*1e3:7.1f} ms  "
          f"fast={tot_fast*1e3:7.1f} ms  speedup={agg:4.2f}x")
    bench_record(
        workload="fig6 medium uniform sweep (4x5)",
        mode="fast",
        batch_shape=[1, len(DEFAULT_RATES)],
        reference_s=tot_ref,
        fast_s=tot_fast,
        speedup=agg,
        floor=AGGREGATE_FLOOR,
        per_topology=per_topology,
    )
    assert agg >= AGGREGATE_FLOOR, (
        f"fast engine speedup regressed: {agg:.2f}x < {AGGREGATE_FLOOR}x"
    )


def test_engine_speedup_low_load_point(once, bench_record):
    """At sub-saturation operating points the trace and the sleep
    machinery compound: precomputed arrivals plus skipped idle cycles
    clear 4x+."""
    entry = roster("medium", 20, allow_generate=False)[0]
    table = routed_entry(entry, seed=0)

    def harness():
        best = {"reference": float("inf"), "fast": float("inf")}
        stats = {}
        for _ in range(REPS):
            for engine in ("reference", "fast"):
                t0 = time.perf_counter()
                stats[engine] = run_point(
                    table, uniform_random(20), 0.02,
                    warmup=400, measure=1500, seed=0, engine=engine,
                )
                best[engine] = min(best[engine], time.perf_counter() - t0)
        return best, stats

    best, stats = once(harness)
    assert stats["reference"] == stats["fast"]
    ratio = best["reference"] / best["fast"]
    print(f"\nlow-load point (rate 0.02): reference={best['reference']*1e3:.1f} ms "
          f"fast={best['fast']*1e3:.1f} ms  speedup={ratio:.2f}x")
    bench_record(
        workload="single low-load point (rate 0.02)",
        mode="fast",
        batch_shape=[1, 1],
        reference_s=best["reference"],
        fast_s=best["fast"],
        speedup=ratio,
        floor=LOW_LOAD_FLOOR,
    )
    assert ratio >= LOW_LOAD_FLOOR, f"low-load speedup regressed: {ratio:.2f}x"


def test_engine_speedup_batched_multi_replica(once, bench_record):
    """Batched multi-replica engine on the fig6 medium sweep: S seed
    replicas x every DEFAULT_RATE of one routed topology, advanced as
    one SoA batch.  The reference cost is one measured single-seed
    full-grid reference sweep scaled by S (the reference engine shares
    nothing across seeds, so its cost is linear in replicas); the batch
    runs all S x R lanes with no early stop, so the comparison is
    grid-for-grid.  Turbo must clear ``TURBO_FLOOR``.  The fast engine
    runs the same S x R lanes point by point, also with no early stop;
    turbo must clear ``TURBO_VS_FAST_FLOOR`` over it."""
    entry = roster("medium", 20, allow_generate=False)[0]
    table = routed_entry(entry, seed=0)
    traffic = uniform_random(20)
    rates = [float(r) for r in DEFAULT_RATES]
    lanes = [(r, s) for s in range(BATCH_SEEDS) for r in rates]
    budget = dict(warmup=400, measure=1500)

    def harness():
        best = {
            "reference": float("inf"), "fast": float("inf"),
            "turbo": float("inf"),
        }
        for _ in range(BATCH_REPS):
            t0 = time.perf_counter()
            for rate in rates:
                run_point(table, traffic, rate, seed=0, engine="reference",
                          **budget)
            best["reference"] = min(best["reference"],
                                    time.perf_counter() - t0)
            t0 = time.perf_counter()
            for rate, seed in lanes:
                run_point(table, traffic, rate, seed=seed, engine="fast",
                          **budget)
            best["fast"] = min(best["fast"], time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_batch(table, traffic, lanes, **budget)
            best["turbo"] = min(best["turbo"], time.perf_counter() - t0)
        return best

    best = once(harness)

    ref_agg = best["reference"] * BATCH_SEEDS
    turbo_speedup = ref_agg / best["turbo"]
    turbo_vs_fast = best["fast"] / best["turbo"]
    shape = [BATCH_SEEDS, len(rates)]
    print(f"\nbatched multi-replica sweep ({entry.name}, "
          f"{shape[0]}x{shape[1]} lanes)")
    print(f"  reference {best['reference']:.2f}s/seed -> "
          f"{ref_agg:.1f}s for {BATCH_SEEDS} seeds")
    print(f"  fast per point {best['fast']:.2f}s")
    print(f"  turbo batch {best['turbo']:.2f}s  speedup "
          f"{turbo_speedup:.2f}x over reference, "
          f"{turbo_vs_fast:.2f}x over fast")
    bench_record(
        workload=f"fig6 medium batched sweep ({entry.name})",
        mode="turbo",
        batch_shape=shape,
        reference_per_seed_s=best["reference"],
        reference_s=ref_agg,
        fast_s=best["fast"],
        turbo_s=best["turbo"],
        speedup=turbo_speedup,
        floor=TURBO_FLOOR,
        turbo_vs_fast=turbo_vs_fast,
        turbo_vs_fast_floor=TURBO_VS_FAST_FLOOR,
    )
    assert turbo_speedup >= TURBO_FLOOR, (
        f"turbo batch speedup {turbo_speedup:.2f}x < {TURBO_FLOOR}x "
        f"aggregate over the reference on {shape} lanes"
    )
    assert turbo_vs_fast >= TURBO_VS_FAST_FLOOR, (
        f"turbo batch {turbo_vs_fast:.2f}x < {TURBO_VS_FAST_FLOOR}x over "
        f"the fast engine on {shape} lanes"
    )
