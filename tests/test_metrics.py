"""Unit + property tests for topology metrics (hops, cuts, bounds)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    LAYOUT_4X5,
    Layout,
    Topology,
    average_hops,
    bisection_bandwidth,
    cut_throughput_bound,
    diameter,
    folded_torus,
    hop_histogram,
    link_length_histogram,
    mesh,
    metrics,
    occupancy_throughput_bound,
    saturation_bound,
    sparsest_cut,
    summarize,
    total_wire_length,
)


@pytest.fixture(scope="module")
def ft20():
    return folded_torus(LAYOUT_4X5)


@pytest.fixture(scope="module")
def mesh20():
    return mesh(LAYOUT_4X5)


class TestHopStats:
    def test_ring_average(self):
        lay = Layout(rows=1, cols=4)
        t = Topology.from_undirected(lay, [(0, 1), (1, 2), (2, 3), (0, 3)])
        # symmetric 4-ring: distances 1,2,1 from every node -> avg 4/3
        assert average_hops(t) == pytest.approx(4 / 3)
        assert diameter(t) == 2

    def test_mesh_4x5_known_values(self, mesh20):
        # 4x5 mesh: avg Manhattan distance, diameter 7
        assert diameter(mesh20) == 7
        assert average_hops(mesh20) == pytest.approx(3.0, abs=0.01)

    def test_folded_torus_matches_table2(self, ft20):
        """Table II: Folded Torus = 40 links, diam 4, avg 2.32, BW 10."""
        assert ft20.num_links == 40
        assert diameter(ft20) == 4
        assert average_hops(ft20) == pytest.approx(2.32, abs=0.005)
        assert bisection_bandwidth(ft20) == 10

    def test_disconnected_average_inf(self):
        lay = Layout(rows=1, cols=3)
        t = Topology(lay, [(0, 1), (1, 0)])
        assert average_hops(t) == math.inf
        with pytest.raises(ValueError):
            diameter(t)

    def test_hop_histogram_sums_to_pairs(self, ft20):
        h = hop_histogram(ft20)
        assert sum(h.values()) == 20 * 19
        assert set(h) == {1, 2, 3, 4}


class TestCuts:
    def test_bisection_of_ring(self):
        lay = Layout(rows=1, cols=4)
        t = Topology.from_undirected(lay, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert bisection_bandwidth(t) == 2

    def test_bisection_odd_n_raises(self):
        lay = Layout(rows=1, cols=3)
        t = Topology.from_undirected(lay, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            bisection_bandwidth(t)

    def test_sparsest_cut_line_graph(self):
        # 1x4 path: sparsest cut splits in the middle: 1 edge / (2*2)
        lay = Layout(rows=1, cols=4)
        t = Topology.from_undirected(lay, [(0, 1), (1, 2), (2, 3)])
        cut = sparsest_cut(t)
        assert cut.value == pytest.approx(1 / 4)
        assert cut.exact

    def test_sparsest_cut_partition_valid(self, ft20):
        cut = sparsest_cut(ft20)
        u, v = cut.partition
        assert len(u) + len(v) == 20
        assert set(u).isdisjoint(v)

    def test_asymmetric_direction_minimum(self):
        # one-way heavy: U->V has 2 links, V->U has 1
        lay = Layout(rows=1, cols=4)
        t = Topology(
            lay,
            [(0, 1), (1, 0), (0, 2), (2, 3), (3, 2), (3, 1), (1, 3), (2, 0)],
        )
        cut = sparsest_cut(t)
        assert cut.value > 0  # computes without error; min-direction logic

    def test_heuristic_close_to_exact_on_20(self, ft20):
        exact = sparsest_cut(ft20).value
        heur, _ = metrics._heuristic_cut(ft20.adj, "sparsest", 24, 1)
        assert heur >= exact - 1e-12  # heuristic can only overestimate
        assert heur <= exact * 1.5 + 1e-9

    def test_heuristic_bisection_close(self, ft20):
        exact = bisection_bandwidth(ft20)
        heur, _ = metrics._heuristic_cut(ft20.adj, "bisection", 24, 1)
        assert int(round(heur)) >= exact


class TestBounds:
    def test_cut_bound_formula(self, ft20):
        cut = sparsest_cut(ft20)
        assert cut_throughput_bound(ft20) == pytest.approx(19 * cut.value)

    def test_occupancy_bound_formula(self, ft20):
        expect = ft20.num_directed_links / (20 * average_hops(ft20))
        assert occupancy_throughput_bound(ft20) == pytest.approx(expect)

    def test_saturation_is_min(self, ft20):
        assert saturation_bound(ft20) == pytest.approx(
            min(cut_throughput_bound(ft20), occupancy_throughput_bound(ft20))
        )


class TestWireAccounting:
    def test_mesh_link_histogram(self, mesh20):
        h = link_length_histogram(mesh20)
        assert h[(1, 0)] == 31  # all mesh links are unit-length

    def test_total_wire_mesh(self, mesh20):
        assert total_wire_length(mesh20) == pytest.approx(62.0)  # 31 duplex * 2

    def test_folded_torus_has_length2(self, ft20):
        h = link_length_histogram(ft20)
        assert (2, 0) in h


class TestSummarize:
    def test_row_fields(self, ft20):
        s = summarize(ft20)
        assert s.name == "FoldedTorus"
        assert s.as_row()[1:] == (40, 4, 2.32, 10, round(s.sparsest_cut_value, 4))


def _random_connected(data, max_n=8):
    rows = data.draw(st.integers(2, 3))
    cols = data.draw(st.integers(2, 3))
    lay = Layout(rows=rows, cols=cols)
    n = lay.n
    # ring backbone + random extras guarantees strong connectivity
    links = {(i, (i + 1) % n) for i in range(n)} | {((i + 1) % n, i) for i in range(n)}
    extra = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=10,
        )
    )
    return Topology(lay, list(links | extra))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_property_avg_hops_at_least_one(data):
    t = _random_connected(data)
    assert average_hops(t) >= 1.0
    assert diameter(t) >= 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_property_adding_link_never_hurts_hops(data):
    t = _random_connected(data)
    before = average_hops(t)
    absent = [
        (i, j)
        for i in range(t.n)
        for j in range(t.n)
        if i != j and not t.has_link(i, j)
    ]
    if absent:
        t2 = t.with_link(*absent[0])
        assert average_hops(t2) <= before + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_property_sparsest_cut_le_scaled_bisection(data):
    """sparsest <= bisection/(n/2)^2 since bisections are a subset of cuts."""
    t = _random_connected(data)
    if t.n % 2:
        return
    sc = sparsest_cut(t).value
    bb = bisection_bandwidth(t)
    assert sc <= bb / (t.n / 2) ** 2 + 1e-12
