"""Tests for the experiment harness (fast paths only; the full sweeps run
as benchmarks)."""

import math

import pytest

from repro.experiments import (
    MCLB,
    NDBT,
    PAPER_TABLE2_20,
    fig4_render,
    fig5_curves,
    fig9_rows,
    format_table,
    ns_large_vs_small_dynamic,
    pareto_front,
    roster,
    routed_table,
    table2,
)
from repro.experiments.fig1 import Fig1Point
from repro.topology import (
    LAYOUT_4X5,
    Topology,
    expert_topology,
    folded_torus,
    mesh,
)


class TestRegistry:
    def test_roster_medium_contains_ft_and_ns(self):
        entries = roster("medium", 20, allow_generate=False)
        names = {e.name for e in entries}
        assert "FoldedTorus" in names
        assert any(n.startswith("NS-LatOp") for n in names)

    def test_roster_policies(self):
        for e in roster("medium", 20, allow_generate=False):
            if e.name.startswith("NS-"):
                assert e.policy == MCLB
            elif not e.name.startswith("LPBT"):
                assert e.policy == NDBT

    def test_routed_table_cached(self):
        ft = folded_torus(LAYOUT_4X5)
        a = routed_table(ft, NDBT, seed=0)
        b = routed_table(ft, NDBT, seed=0)
        assert a is b

    def test_routed_table_memo_keys_on_links(self):
        """Same name and link count, different links: the memo must not
        serve the first topology's table for the second."""
        grid = mesh(LAYOUT_4X5)
        swapped = [
            link for link in grid.directed_links
            if link not in ((0, 1), (1, 0))
        ] + [(0, 6), (6, 0)]
        a = Topology(LAYOUT_4X5, grid.directed_links, name="X")
        b = Topology(LAYOUT_4X5, swapped, name="X")
        assert a.num_directed_links == b.num_directed_links == 62
        ta = routed_table(a, NDBT, seed=0)
        tb = routed_table(b, NDBT, seed=0)
        assert ta is not tb
        assert sorted(ta.topology.directed_links) == sorted(a.directed_links)
        assert sorted(tb.topology.directed_links) == sorted(b.directed_links)
        assert routed_table(b, NDBT, seed=0) is tb

    def test_routed_table_mclb(self):
        ft = folded_torus(LAYOUT_4X5)
        t = routed_table(ft, MCLB, seed=0, use_cache=False)
        t.validate()

    def test_unknown_policy(self):
        ft = folded_torus(LAYOUT_4X5)
        with pytest.raises(ValueError):
            routed_table(ft, "xy-routing", use_cache=False)


class TestTable2:
    def test_rows_have_paper_references(self):
        rows = table2(20, link_classes=("medium",))
        refd = [r for r in rows if r.paper is not None]
        assert refd, "at least FoldedTorus must match a published row"

    def test_folded_torus_exact_match(self):
        rows = table2(20, link_classes=("medium",))
        ft = next(r for r in rows if r.measured.name == "FoldedTorus")
        links, diam, hops, bw = ft.paper
        assert ft.measured.num_links == links
        assert ft.measured.diameter == diam
        assert abs(ft.measured.avg_hops - hops) < 0.01
        assert ft.measured.bisection_bw == bw

    def test_format_table_contains_header(self):
        rows = table2(20, link_classes=("medium",))
        text = format_table(rows, 20)
        assert "Table II (20 routers)" in text
        assert "FoldedTorus" in text


class TestFig1:
    def test_pareto_front_logic(self):
        pts = [
            Fig1Point("A", "small", False, 2.0, 1.0, 1.0),
            Fig1Point("B", "small", False, 2.5, 0.8, 0.8),  # dominated by A
            Fig1Point("C", "small", True, 1.8, 0.9, 0.9),
        ]
        front = {p.name for p in pareto_front(pts)}
        assert front == {"A", "C"}


class TestFig4:
    def test_render_contains_cut(self):
        res = fig4_render(20)
        assert "sparsest cut value" in res.rendering
        u, v = res.cut.partition
        assert len(u) + len(v) == 20


@pytest.mark.slow
class TestFig5:
    def test_reduced_curves_structure(self):
        res = fig5_curves(time_limit=6.0)
        assert set(res.curves) == {"small", "medium", "large"}
        order = res.convergence_order()
        assert len(order) == 3
        # curves exist and gaps are weakly tightening (the paper's
        # convergence *ordering* is asserted at full scale in the bench)
        for curve in res.curves.values():
            assert curve.samples
            xs, ys = curve.series()
            finite = ys[ys == ys]
            if finite.size:
                assert finite[-1] <= finite[0] + 1e-9


class TestFig9:
    def test_rows_normalized_to_mesh(self):
        rows = fig9_rows(link_classes=("medium",))
        assert rows
        for r in rows:
            assert r.normalized["static_power"] == pytest.approx(1.0, rel=0.4)

    def test_ns_large_vs_small_dynamic_below_one(self):
        rows = fig9_rows()
        ratio = ns_large_vs_small_dynamic(rows)
        if not math.isnan(ratio):
            assert ratio < 1.0  # large runs at a slower clock
