"""Fig. 9: power and area relative to mesh."""

import math

from repro.experiments import fig9_rows, ns_large_vs_small_dynamic


def test_fig9_power_area(once):
    rows = once(fig9_rows)

    print("\nFig. 9 — power/area normalized to mesh (lower is better)")
    for r in rows:
        n = r.normalized
        print(
            f"  {r.name:<18} static={n['static_power']:.2f} "
            f"dynamic={n['dynamic_power']:.2f} total={n['total_power']:.2f} | "
            f"router-area={n['router_area']:.2f} wire-area={n['wire_area']:.2f}"
        )

    # Paper: leakage roughly flat (same routers; modest wire-repeater
    # variation), wire area dominates, all NoIs tiny vs interposer.
    for r in rows:
        assert 0.8 < r.normalized["static_power"] < 1.6, r.name
        assert r.raw.wire_area_mm2 > r.raw.router_area_mm2, r.name
        assert r.raw.interposer_area_fraction < 0.03, r.name

    # Paper: NetSmith-large ~17% lower dynamic power than NetSmith-small
    # (slower clock on longer links); we accept a generous band.
    ratio = ns_large_vs_small_dynamic(rows)
    if not math.isnan(ratio):
        print(f"NS large/small dynamic-power ratio: {ratio:.2f} (paper ~0.83)")
        assert 0.6 < ratio < 1.0

    # NetSmith's aggressive link usage costs wire area vs experts in the
    # same class (the paper's stated overhead).
    by_name = {r.name: r for r in rows}
    if "NS-LatOp-large" in by_name and "DoubleButterfly" in by_name:
        assert (
            by_name["NS-LatOp-large"].normalized["wire_area"]
            >= by_name["DoubleButterfly"].normalized["wire_area"]
        )
