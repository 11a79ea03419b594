"""Tests for expert baseline topologies and reconstruction machinery."""

import pytest

import kite_oracle
from repro.topology import (
    LAYOUT_4X5,
    LAYOUT_8X6,
    RADIX,
    Layout,
    Signature,
    Topology,
    average_hops,
    bisection_bandwidth,
    butter_donut,
    diameter,
    double_butterfly,
    expert_topology,
    experts_for_class,
    folded_torus,
    kite,
    mesh,
    reconstruct,
    standard_layout,
)
from repro.topology import expert_data
from repro.topology.expert import EXPERT_FAMILIES


class TestMesh:
    def test_structure(self):
        m = mesh(LAYOUT_4X5)
        assert m.num_links == 31
        assert m.is_symmetric
        assert m.max_radix() <= RADIX

    def test_valid_small_class(self):
        mesh(LAYOUT_4X5).check(radix=RADIX, link_class="small")


class TestFoldedTorus:
    def test_degree_exactly_four(self):
        ft = folded_torus(LAYOUT_4X5)
        assert all(d == 4 for d in ft.out_degree())
        assert all(d == 4 for d in ft.in_degree())

    def test_medium_class_valid(self):
        folded_torus(LAYOUT_4X5).check(radix=RADIX, link_class="medium")

    def test_scales_to_8x6(self):
        ft = folded_torus(LAYOUT_8X6)
        assert ft.n == 48
        ft.check(radix=RADIX, link_class="medium")
        assert ft.num_links == 96  # degree-4 torus on 48 nodes


class TestPatternGenerators:
    @pytest.mark.parametrize("gen", [butter_donut, double_butterfly])
    def test_valid_and_connected(self, gen):
        t = gen(LAYOUT_4X5)
        t.check(radix=RADIX, link_class="large")

    @pytest.mark.parametrize("gen", [butter_donut, double_butterfly])
    def test_scales_to_48(self, gen):
        t = gen(LAYOUT_8X6)
        t.check(radix=RADIX, link_class="large")

    def test_kite_small_valid(self):
        t = kite(LAYOUT_4X5, "small")
        t.check(radix=RADIX, link_class="small")

    def test_kite_rejects_bad_size(self):
        with pytest.raises(ValueError):
            kite(LAYOUT_4X5, "gigantic")


#: Every class at the standard sizes, plus layouts with other aspect
#: ratios, down to one row, in the large class (the most candidate
#: spans); more cases would push the oracle past a few seconds.
KITE_CASES = [
    (standard_layout(n), size)
    for n in (16, 20, 24, 30)
    for size in ("small", "medium", "large")
] + [
    (Layout(rows=r, cols=c), "large")
    for r, c in ((3, 7), (2, 9), (5, 5), (1, 6))
]


@pytest.mark.parametrize(
    "layout,size", KITE_CASES,
    ids=[f"{l.rows}x{l.cols}-{size}" for l, size in KITE_CASES],
)
def test_kite_matches_per_candidate_apsp_oracle(layout, size):
    """The one-link relaxation picks exactly the edges that a full APSP
    per candidate picks (``tests/kite_oracle.py``)."""
    got = kite(layout, size)
    ref = kite_oracle.kite(layout, size)
    assert got.directed_links == ref.directed_links
    assert (got.name, got.link_class) == (ref.name, ref.link_class)


class TestExpertRegistry:
    def test_families_cover_all_classes(self):
        assert set(EXPERT_FAMILIES.values()) == {"small", "medium", "large"}

    def test_expert_topology_mesh(self):
        assert expert_topology("Mesh", 20).num_links == 31

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            expert_topology("Hypercube", 20)

    def test_experts_for_class(self):
        larges = experts_for_class("large", 20)
        names = {t.name for t in larges}
        assert "ButterDonut" in names and "Kite-Large" in names

    def test_frozen_lookup_preferred(self):
        key = ("UnitTestTopo", 20)
        try:
            expert_data.register("UnitTestTopo", 20, [(0, 1), (1, 2)])
            assert expert_data.lookup("UnitTestTopo", 20) == [(0, 1), (1, 2)]
        finally:
            expert_data.FROZEN.pop(key, None)

    def test_frozen_expert_matches_signature_when_registered(self):
        """If the generation pass registered Kite-Small, it must be close
        to the published Table II row."""
        frozen = expert_data.lookup("Kite-Small", 20)
        if frozen is None:
            pytest.skip("Kite-Small reconstruction not registered")
        t = Topology.from_undirected(LAYOUT_4X5, frozen, link_class="small")
        t.check(radix=RADIX, link_class="small")
        assert t.num_links == 38
        assert abs(average_hops(t) - 2.38) < 0.05
        assert abs(bisection_bandwidth(t) - 8) <= 1


class TestReconstruction:
    def test_reconstruct_tiny_signature(self):
        """Match a signature we know is achievable: the folded torus's."""
        ft = folded_torus(LAYOUT_4X5)
        sig = Signature(
            num_links=40,
            diameter=4,
            avg_hops=round(average_hops(ft), 2),
            bisection_bw=10,
        )
        edges, cost = reconstruct(
            LAYOUT_4X5, "medium", sig, steps=1500, restarts=1, seed=2,
            initial=[tuple(sorted(e)) for e in ft.directed_links],
        )
        assert cost < 2.0  # starts at the answer; must stay there
        t = Topology.from_undirected(LAYOUT_4X5, edges)
        assert t.is_connected()
        assert t.max_radix() <= RADIX
