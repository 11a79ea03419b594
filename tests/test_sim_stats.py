"""Tests for simulator instrumentation, extra traffic, and generators."""

import numpy as np
import pytest

from repro.routing import assign_vcs, build_routing_table, ndbt_route, single_shortest_paths
from repro.sim import (
    FastNetworkSimulator,
    bit_complement,
    measure_activity,
    neighbor,
    shuffle_pattern,
    tornado,
    transpose,
    uniform_random,
)
from repro.topology import (
    LAYOUT_4X5,
    Layout,
    Topology,
    average_hops,
    folded_torus,
    mesh,
    ring,
    torus,
)


@pytest.fixture(scope="module")
def ft_table():
    ft = folded_torus(LAYOUT_4X5)
    r = ndbt_route(ft, seed=0)
    return build_routing_table(r, assign_vcs(r, seed=0))


class TestInstrumentation:
    def test_channel_utilization_in_unit_range(self, ft_table):
        sim = FastNetworkSimulator(ft_table, uniform_random(20), 0.1, seed=0)
        sim.run(200, 800)
        util = [f / sim.cycle for f in sim.link_flits]
        assert len(util) == len(ft_table.topology.directed_links)
        assert 0.0 < np.mean(util) <= 1.0
        assert max(util) <= 1.0 + 1e-9

    def test_utilization_grows_with_load(self, ft_table):
        def util(rate):
            return measure_activity(ft_table, uniform_random(20), rate,
                                    warmup=200, measure=800)

        assert util(0.12) > util(0.03)

    def test_measure_activity_helper(self, ft_table):
        a = measure_activity(ft_table, uniform_random(20), 0.1,
                             warmup=200, measure=600)
        assert 0.0 < a < 1.0


class TestExtraTraffic:
    def test_bit_complement_involution(self):
        table = bit_complement(20).dest_spec.table
        for s in range(20):
            d = table[s]
            if d == 19 - s:  # non-degenerate case
                assert table[d] == s

    def test_transpose_square_grid(self):
        lay = Layout(rows=4, cols=4)
        table = transpose(lay).dest_spec.table
        # (1,2) -> (2,1)
        assert table[lay.router_at(1, 2)] == lay.router_at(2, 1)

    def test_tornado_half_way(self):
        table = tornado(LAYOUT_4X5).dest_spec.table
        src = LAYOUT_4X5.router_at(0, 1)
        assert table[src] == LAYOUT_4X5.router_at(2, 1)

    def test_neighbor_wraps(self):
        table = neighbor(LAYOUT_4X5).dest_spec.table
        src = LAYOUT_4X5.router_at(4, 0)
        assert table[src] == LAYOUT_4X5.router_at(0, 0)

    def test_no_self_destinations(self):
        """No permutation maps a source to itself."""
        for tp in (shuffle_pattern(20), bit_complement(20),
                   transpose(LAYOUT_4X5), tornado(LAYOUT_4X5),
                   neighbor(LAYOUT_4X5)):
            assert tp.dest_spec.kind == "table", tp.kind
            assert (tp.dest_spec.table != np.arange(20)).all(), tp.kind


def concentrated_mesh(layout: Layout, concentration: int = 2) -> Topology:
    """Concentrated mesh: a mesh over every ``concentration``-th router
    column, with the skipped columns chained to their host router.

    This mirrors cmesh's resource profile at the NoI scale (fewer mesh
    routers, each serving a wider strip), so the paper's reason for
    omitting it ("poor metrics") is checkable against mesh.
    """
    if concentration < 1:
        raise ValueError("concentration must be >= 1")
    edges = []
    hubs = list(range(0, layout.cols, concentration))
    for y in range(layout.rows):
        # chain each non-hub column to its left hub
        for x in range(layout.cols):
            if x in hubs:
                continue
            host = max(h for h in hubs if h < x)
            prev = x - 1 if x - 1 >= host else host
            edges.append((layout.router_at(prev, y), layout.router_at(x, y)))
        # hub mesh: horizontal hub-to-hub (may exceed small class)
        for a, b in zip(hubs, hubs[1:]):
            edges.append((layout.router_at(a, y), layout.router_at(b, y)))
    for x in hubs:
        for y in range(layout.rows - 1):
            edges.append((layout.router_at(x, y), layout.router_at(x, y + 1)))
    return Topology.from_undirected(
        layout, sorted(set(tuple(sorted(e)) for e in edges)),
        name=f"CMesh-{concentration}", link_class=None,
    )


class TestGenerators:
    def test_ring_connected_low_degree(self):
        r = ring(LAYOUT_4X5)
        assert r.is_connected()
        assert r.max_radix() <= 2

    def test_torus_metrics_beat_mesh(self):
        t = torus(LAYOUT_4X5)
        m = mesh(LAYOUT_4X5)
        assert average_hops(t) < average_hops(m)
        assert t.num_links == 40

    def test_torus_violates_link_classes(self):
        t = torus(LAYOUT_4X5)
        assert any("exceeding class" in p
                   for p in t.violations(link_class="large"))

    def test_cmesh_connected(self):
        cm = concentrated_mesh(LAYOUT_4X5, concentration=2)
        assert cm.is_connected()

    def test_cmesh_trades_bisection_for_hops(self):
        """The paper's justification for omitting cmesh ("poor metrics"):
        the hub spine narrows the bisection relative to mesh even though
        long hub links save a few hops."""
        from repro.topology import bisection_bandwidth

        cm = concentrated_mesh(LAYOUT_4X5, concentration=2)
        m = mesh(LAYOUT_4X5)
        assert bisection_bandwidth(cm) <= bisection_bandwidth(m)

    def test_cmesh_bad_concentration(self):
        with pytest.raises(ValueError):
            concentrated_mesh(LAYOUT_4X5, concentration=0)
