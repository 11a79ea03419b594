"""Additional tests for the reconstruction search internals."""

import numpy as np
import pytest

from repro.topology import LAYOUT_4X5, Layout, Signature, Topology, folded_torus
from repro.topology.reconstruct import (
    _balanced_cut_samples,
    _estimate_bisection,
    _random_valid_topology,
    anneal,
)
from repro.topology.metrics import bisection_bandwidth


class TestBisectionEstimator:
    def test_estimate_upper_bounds_exact(self):
        """The sampled estimator can only overestimate the true minimum."""
        ft = folded_torus(LAYOUT_4X5)
        masks = _balanced_cut_samples(20, LAYOUT_4X5, count=64, seed=0)
        est = _estimate_bisection(ft.adj, masks)
        assert est >= bisection_bandwidth(ft)

    def test_geometric_cuts_included(self):
        """The horizontal split (the usual true bisection on grids) is in
        the sample set, so the estimate is exact for grid-regular nets."""
        ft = folded_torus(LAYOUT_4X5)
        masks = _balanced_cut_samples(20, LAYOUT_4X5, count=0, seed=0)
        est = _estimate_bisection(ft.adj, masks)
        assert est == bisection_bandwidth(ft)  # 10, via row cut

    def test_masks_are_balanced(self):
        masks = _balanced_cut_samples(20, LAYOUT_4X5, count=32, seed=1)
        assert all(m.sum() == 10 for m in masks)


class TestRandomValidTopology:
    def test_respects_radix(self):
        rng = np.random.default_rng(0)
        allowed = LAYOUT_4X5.valid_links("small")
        edges = _random_valid_topology(LAYOUT_4X5, allowed, 38, 4, rng)
        deg = np.zeros(20, dtype=int)
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        assert deg.max() <= 4

    def test_connected(self):
        rng = np.random.default_rng(1)
        allowed = LAYOUT_4X5.valid_links("medium")
        edges = _random_valid_topology(LAYOUT_4X5, allowed, 35, 4, rng)
        t = Topology.from_undirected(LAYOUT_4X5, edges)
        assert t.is_connected()


class TestAnnealMoves:
    def test_anneal_reaches_target_link_count(self):
        lay = Layout(rows=2, cols=4)
        allowed = lay.valid_links("small")

        def cost(t):
            return 0.0  # only the link-count term drives the search

        edges, c = anneal(lay, allowed, num_links=11, radix=3,
                          cost_fn=cost, steps=400, seed=3)
        assert len(edges) == 11
        assert c == pytest.approx(0.0)

    def test_anneal_optimizes_custom_cost(self):
        """Minimize diameter as a custom objective."""
        from repro.topology.metrics import diameter

        lay = Layout(rows=2, cols=4)
        allowed = lay.valid_links("medium")

        def cost(t):
            try:
                return float(diameter(t))
            except ValueError:
                return 1e9

        edges, c = anneal(lay, allowed, num_links=12, radix=4,
                          cost_fn=cost, steps=600, seed=5)
        t = Topology.from_undirected(lay, edges)
        assert diameter(t) <= 3
