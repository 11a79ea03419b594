"""Tests for channel-load analysis and throughput bounds."""

import numpy as np
import pytest

from repro.routing import (
    channel_loads,
    enumerate_shortest_paths,
    ndbt_route,
    single_shortest_paths,
    throughput_bounds,
)
from repro.topology import LAYOUT_4X5, Layout, Topology, folded_torus


class TestChannelLoads:
    def test_directed_ring_loads(self):
        """On a directed 4-ring every channel carries the same load:
        total link traversals / 4 channels = (4*(1+2+3))/4 = 6."""
        lay = Layout(rows=1, cols=4)
        t = Topology(lay, [(0, 1), (1, 2), (2, 3), (3, 0)])
        routes = single_shortest_paths(t, seed=0)
        la = channel_loads(routes)
        assert la.max_load == 6
        assert la.mean_load == pytest.approx(6.0)
        assert la.num_flows == 12

    def test_saturation_injection(self):
        lay = Layout(rows=1, cols=4)
        t = Topology(lay, [(0, 1), (1, 2), (2, 3), (3, 0)])
        la = channel_loads(single_shortest_paths(t, seed=0))
        assert la.saturation_injection(4) == pytest.approx(3 / 6)

    def test_weighted_loads(self):
        lay = Layout(rows=1, cols=3)
        t = Topology.from_undirected(lay, [(0, 1), (1, 2)])
        routes = single_shortest_paths(t, seed=0)
        w = np.zeros((3, 3))
        w[0, 2] = 2.0  # only one flow matters, doubled
        la = channel_loads(routes, weights=w)
        assert la.max_load == 2
        assert la.num_flows == 1

    def test_multi_path_rejected(self):
        ft = folded_torus(LAYOUT_4X5)
        full = enumerate_shortest_paths(ft)
        with pytest.raises(ValueError):
            channel_loads(full)

    def test_empty_loads(self):
        lay = Layout(rows=1, cols=3)
        t = Topology.from_undirected(lay, [(0, 1), (1, 2)])
        routes = single_shortest_paths(t, seed=0)
        la = channel_loads(routes, weights=np.zeros((3, 3)))
        assert la.max_load == 0
        assert la.saturation_injection(3) == float("inf")


class TestThroughputBounds:
    def test_bounds_ordering_folded_torus(self):
        """NDBT's random selection can't beat the best possible routed
        bound, which can't beat the topology-level bounds."""
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        tb = throughput_bounds(ft, routes)
        assert tb.routed_bound <= min(tb.cut_bound, tb.occupancy_bound) + 1e-9
        assert tb.analytical == pytest.approx(min(tb.cut_bound, tb.occupancy_bound))
        assert tb.binding in ("cut", "occupancy")

    def test_folded_torus_cut_bound_value(self):
        """FT sparsest cut = 10/100 -> cut bound = 20 * 0.0833.. wait:
        the known exact sparsest-cut value is checked in metrics tests;
        here we pin the bound's consistency."""
        from repro.topology import sparsest_cut

        ft = folded_torus(LAYOUT_4X5)
        tb = throughput_bounds(ft, ndbt_route(ft, seed=0))
        assert tb.cut_bound == pytest.approx(19 * sparsest_cut(ft).value)
