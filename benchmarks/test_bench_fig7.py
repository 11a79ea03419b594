"""Fig. 7: isolating topology vs routing benefits (large class)."""

from repro.experiments import fig7_bars, mclb_gain_summary


def test_fig7_topology_vs_routing(once):
    bars = once(fig7_bars, "large", warmup=250, measure=900)

    print("\nFig. 7 — large topologies, NDBT vs MCLB (flits/node/cycle bounds)")
    for b in bars:
        print(
            f"  {b.topology:<18} {b.routing:<5} measured={b.measured_saturation:.3f} "
            f"cut={b.cut_bound:.3f} occ={b.occupancy_bound:.3f} "
            f"routed={b.routed_bound:.3f} binding={b.binding_bound}"
        )

    gains = mclb_gain_summary(bars)
    print(f"MCLB/NDBT measured gains: { {k: round(v, 2) for k, v in gains.items()} }")

    # Paper: MCLB routing improves observed saturation on every topology
    # it is compared on (allowing simulation noise of a few percent).
    assert gains, "need at least one NDBT/MCLB pair"
    assert all(g >= 0.95 for g in gains.values())
    assert any(g > 1.0 for g in gains.values())

    # Paper: NetSmith's bounds (and measured throughput) exceed experts'.
    ns = [b for b in bars if b.topology.startswith("NS-")]
    experts_mclb = [
        b for b in bars if not b.topology.startswith("NS-") and b.routing == "mclb"
    ]
    assert ns and experts_mclb
    best_ns = max(b.measured_saturation for b in ns)
    best_ex = max(b.measured_saturation for b in experts_mclb)
    assert best_ns >= best_ex * 0.99

    # Paper: expert topologies are cut-bound, NetSmith occupancy-bound.
    for b in ns:
        assert b.binding_bound == "occupancy" or b.cut_bound > 1.0
