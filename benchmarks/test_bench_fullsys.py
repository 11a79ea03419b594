"""Closed-loop engine benchmark: fast full-system engine vs the oracle.

Runs the Fig. 8-style PARSEC sweep over the medium-class roster (plus
the mesh baseline) through :func:`~repro.fullsys.speedup.run_workload`
twice per pair: as production runs it, and with the reference oracle
(``tests/closedloop_oracle.py``) substituted for the production engine.
It verifies the :class:`~repro.fullsys.speedup.WorkloadResult` values
are bit-identical and reports the wall-clock speedup.  The fast engine
shares the open-loop engine's compiled-network + worklist/sleep
machinery and replays the reference's scalar demand/destination draws
from raw PCG64 words; low-MPKI benchmarks (mostly-idle networks, where
sleeping routers skip whole cycles) clear 4x+, while MLP-saturated
high-MPKI benchmarks are arbitration-bound and land near 2.5x.  The
asserted aggregate floor is 3x (measured ~3.5x); per-pair ratios are
printed and persisted to ``BENCH_fullsys.json`` either way.
"""

import os
import sys
import time

from repro.experiments.registry import NDBT, roster, routed_entry, routed_table
from repro.fullsys import PARSEC
from repro.fullsys.speedup import run_workload
from repro.topology import expert_topology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests"))
import closedloop_oracle  # noqa: E402  (test-only reference engine)

REPS = 3  # interleaved repetitions; min cancels scheduler noise

#: Benchmarks spanning the MPKI (and therefore demand-rate) range —
#: the same subset the fig8 experiment and report use at fast budgets.
WORKLOADS = ("blackscholes", "ferret", "streamcluster", "canneal")

#: Asserted speedup floors (conservative vs typical measurements, so the
#: benchmark stays meaningful under CI timer noise).
AGGREGATE_FLOOR = 3.0
LOW_MPKI_FLOOR = 4.0

BUDGET = dict(warmup=400, measure=1500, seed=0)


def _timed_runs(monkeypatch, table, workload):
    best = {"reference": float("inf"), "fast": float("inf")}
    results = {}
    for _ in range(REPS):
        t0 = time.perf_counter()
        results["reference"] = closedloop_oracle.run_on_oracle(
            monkeypatch, run_workload, table, workload, **BUDGET
        )
        best["reference"] = min(best["reference"], time.perf_counter() - t0)
        t0 = time.perf_counter()
        results["fast"] = run_workload(table, workload, **BUDGET)
        best["fast"] = min(best["fast"], time.perf_counter() - t0)
    return best, results


def test_closed_loop_speedup_parsec_medium(once, bench_record, monkeypatch):
    mesh_table = routed_table(expert_topology("Mesh", 20), NDBT, seed=0)
    entries = roster("medium", 20, allow_generate=False)
    tables = [("Mesh", mesh_table)] + [
        (e.name, routed_entry(e, seed=0)) for e in entries
    ]
    workloads = [w for w in PARSEC if w.name in WORKLOADS]

    def harness():
        return {
            (w.name, name): _timed_runs(monkeypatch, table, w)
            for w in workloads
            for name, table in tables
        }

    results = once(harness)

    print("\nClosed-loop engine speedup — PARSEC medium sweep (4x5)")
    tot_ref = tot_fast = 0.0
    low_ref = low_fast = 0.0
    per_pair = {}
    for (wname, tname), (best, res) in results.items():
        # equal results: bit-identical WorkloadResult either engine
        assert res["reference"] == res["fast"], (wname, tname)
        ratio = best["reference"] / best["fast"]
        tot_ref += best["reference"]
        tot_fast += best["fast"]
        if wname == "blackscholes":
            low_ref += best["reference"]
            low_fast += best["fast"]
        per_pair[f"{wname}/{tname}"] = {
            "reference_s": best["reference"],
            "fast_s": best["fast"],
            "speedup": ratio,
        }
        print(f"  {wname:<14} {tname:<18} "
              f"reference={best['reference']*1e3:7.1f} ms  "
              f"fast={best['fast']*1e3:7.1f} ms  speedup={ratio:4.2f}x")
    agg = tot_ref / tot_fast
    low = low_ref / low_fast
    print(f"  {'AGGREGATE':<33} reference={tot_ref*1e3:7.1f} ms  "
          f"fast={tot_fast*1e3:7.1f} ms  speedup={agg:4.2f}x")
    print(f"  {'LOW-MPKI (blackscholes)':<33} "
          f"reference={low_ref*1e3:7.1f} ms  "
          f"fast={low_fast*1e3:7.1f} ms  speedup={low:4.2f}x")
    bench_record(
        workload="fig8 PARSEC medium sweep (4x5, 4 benchmarks)",
        reference_s=tot_ref,
        fast_s=tot_fast,
        speedup=agg,
        floor=AGGREGATE_FLOOR,
        low_mpki_speedup=low,
        low_mpki_floor=LOW_MPKI_FLOOR,
        per_pair=per_pair,
    )
    assert agg >= AGGREGATE_FLOOR, (
        f"closed-loop fast engine speedup regressed: "
        f"{agg:.2f}x < {AGGREGATE_FLOOR}x"
    )
    assert low >= LOW_MPKI_FLOOR, (
        f"low-MPKI closed-loop speedup regressed: "
        f"{low:.2f}x < {LOW_MPKI_FLOOR}x"
    )
