"""Fig. 8: PARSEC speedups and packet-latency reductions vs mesh."""

import numpy as np
import pytest

from repro.experiments import fig8_results
from repro.fullsys.workloads import PARSEC


def test_fig8_parsec(once):
    # Subset of benchmarks spanning the MPKI range keeps the bench under
    # a few minutes; the slow variant covers all twelve.
    subset = [w for w in PARSEC if w.name in
              ("blackscholes", "raytrace", "ferret", "streamcluster", "canneal")]
    res = once(
        fig8_results,
        workloads=subset,
        warmup=400,
        measure=1500,
        max_entries_per_class=3,
    )

    print("\nFig. 8 — speedup over mesh (bars) / latency reduction (markers)")
    names = sorted(res.geomean)
    for row in res.rows:
        print(f"  {row.workload}:")
        for n in names:
            print(
                f"    {n:<18} speedup={row.speedups[n]:.3f} "
                f"latency-red={row.latency_reductions[n]:+.1%}"
            )
    print(f"  GEOMEAN: { {n: round(res.geomean[n], 3) for n in names} }")

    # Paper: all topologies beat mesh; sensitivity grows with MPKI;
    # NetSmith always posts the largest latency reduction.
    assert all(v > 1.0 for v in res.geomean.values())

    by_wl = {r.workload: r for r in res.rows}
    low = max(by_wl["blackscholes"].speedups.values())
    high = max(by_wl["canneal"].speedups.values())
    assert high > low

    assert res.netsmith_always_best_latency()

    # NetSmith leads the geomean — allowing the Kite-Small near-tie the
    # paper itself reports (within 1%; our compressed model can flip the
    # fourth decimal under simulation noise).
    best = res.best_topology()
    print(f"best geomean topology: {best}")
    best_v = max(res.geomean.values())
    ns_best = max(v for k, v in res.geomean.items() if k.startswith("NS-"))
    assert ns_best >= best_v - 0.005
    if not best.startswith("NS-"):
        assert best == "Kite-Small"


@pytest.mark.slow
def test_fig8_parsec_full(once):
    res = once(
        fig8_results, warmup=600, measure=2500,
    )
    print("\nFig. 8 (all 12 PARSEC) GEOMEAN:")
    for n, v in sorted(res.geomean.items(), key=lambda kv: -kv[1]):
        print(f"  {n:<18} {v:.3f}")
    best_v = max(res.geomean.values())
    ns_best = max(v for k, v in res.geomean.items() if k.startswith("NS-"))
    assert ns_best >= best_v - 0.005
    best = res.best_topology()
    if not best.startswith("NS-"):
        assert best == "Kite-Small"
