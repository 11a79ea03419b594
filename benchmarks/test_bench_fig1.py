"""Fig. 1: latency vs saturation-throughput scatter (analytical)."""

from repro.experiments import fig1_points, pareto_front


def test_fig1_scatter(once):
    points = once(fig1_points, 20)

    print("\nFig. 1 points (avg hops vs saturation bound, flits/node/cycle)")
    for p in sorted(points, key=lambda p: (p.link_class, p.avg_hops)):
        marker = "solid(NS)" if p.is_netsmith else "hollow"
        print(
            f"  {p.name:<18} {p.link_class:<7} hops={p.avg_hops:5.2f} "
            f"sat={p.saturation_bound:5.3f} [{marker}]"
        )

    front = pareto_front(points)
    front_names = {p.name for p in front}
    print(f"Pareto frontier: {sorted(front_names)}")

    # Paper: NetSmith points populate the frontier; the only expert design
    # that may reach it is Kite-Small.
    non_ns_front = {n for n in front_names if not n.startswith("NS-")}
    assert non_ns_front <= {"Kite-Small"}, non_ns_front
    assert any(n.startswith("NS-") for n in front_names)

    # Strict dominance in medium/large: best NS beats best expert on BOTH
    # axes (paper Fig. 1's headline).
    for cls in ("medium", "large"):
        cls_pts = [p for p in points if p.link_class == cls]
        ns_best_hops = min(p.avg_hops for p in cls_pts if p.is_netsmith)
        ex_best_hops = min(p.avg_hops for p in cls_pts if not p.is_netsmith)
        ns_best_sat = max(p.saturation_bound for p in cls_pts if p.is_netsmith)
        ex_best_sat = max(p.saturation_bound for p in cls_pts if not p.is_netsmith)
        assert ns_best_hops < ex_best_hops
        assert ns_best_sat >= ex_best_sat * 0.99
