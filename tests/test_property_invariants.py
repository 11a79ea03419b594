"""Cross-cutting property-based tests: invariants that must hold for
*any* valid topology, not just the paper's.

Random strongly-connected topologies are generated on small grids, then
pushed through routing, VC assignment, analysis, and short simulations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fullsys.config import TABLE4
from repro.routing import (
    assign_vcs,
    build_cdg,
    build_routing_table,
    channel_loads,
    enumerate_shortest_paths,
    is_acyclic,
    single_shortest_paths,
)
from repro.sim import FastNetworkSimulator, uniform_random
from repro.topology import (
    Layout,
    Topology,
    average_hops,
    bisection_bandwidth,
    occupancy_throughput_bound,
    sparsest_cut,
)


@st.composite
def connected_topologies(draw, max_rows=3, max_cols=3):
    rows = draw(st.integers(2, max_rows))
    cols = draw(st.integers(2, max_cols))
    lay = Layout(rows=rows, cols=cols)
    n = lay.n
    # bidirectional snake guarantees strong connectivity
    snake = []
    for y in range(rows):
        xs = range(cols) if y % 2 == 0 else range(cols - 1, -1, -1)
        snake.extend(lay.router_at(x, y) for x in xs)
    links = set()
    for k in range(n - 1):
        links.add((snake[k], snake[k + 1]))
        links.add((snake[k + 1], snake[k]))
    extra = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    return Topology(lay, list(links | extra), name="prop")


COMMON = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**COMMON)
@given(t=connected_topologies())
def test_paths_minimality_invariant(t):
    ps = enumerate_shortest_paths(t, max_paths_per_pair=8)
    ps.validate()  # checks minimality + link existence for every pair


@settings(**COMMON)
@given(t=connected_topologies())
def test_vc_layers_always_acyclic(t):
    routes = single_shortest_paths(t, seed=1)
    vca = assign_vcs(routes, max_vcs=10, seed=1)
    for layer in vca.layers:
        assert is_acyclic(build_cdg(layer))
    assert sum(len(l) for l in vca.layers) == t.n * (t.n - 1)


@settings(**COMMON)
@given(t=connected_topologies())
def test_occupancy_bound_vs_routed_bound(t):
    """Routed max-load bound can never exceed the occupancy bound (the
    occupancy bound assumes perfectly balanced loads)."""
    routes = single_shortest_paths(t, seed=2)
    routed = channel_loads(routes).saturation_injection(t.n)
    occ = occupancy_throughput_bound(t)
    assert routed <= occ * (1 + 1e-9)


@settings(**COMMON)
@given(t=connected_topologies())
def test_cut_value_positive_for_connected(t):
    assert sparsest_cut(t).value > 0


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(t=connected_topologies(max_rows=2, max_cols=3), seed=st.integers(0, 100))
def test_simulation_packet_conservation(t, seed):
    """No packet is lost: after injection stops, the network drains."""
    routes = single_shortest_paths(t, seed=0)
    vca = assign_vcs(routes, max_vcs=10, seed=0)
    table = build_routing_table(routes, vca)
    sim = FastNetworkSimulator(table, uniform_random(t.n), 0.08, seed=seed)
    sim.run(100, 300)
    sim.rate = 0.0
    for _ in range(5000):
        sim.step()
        if sim.in_flight == 0:
            break
    assert sim.in_flight == 0


class TestTable4Config:
    def test_core_count(self):
        assert TABLE4.num_cores == 64

    def test_noi_matches_standard_layout(self):
        assert TABLE4.noi_routers == 20
        assert TABLE4.noi_dims == (4, 5)

    def test_concentration_figures(self):
        # 64 cores over 12 middle-column routers; 16 MCs over 8 outer
        assert TABLE4.cores_per_noi_router == pytest.approx(64 / 12)
        assert TABLE4.mcs_per_noi_router == pytest.approx(2.0)

    def test_vc_budgets(self):
        assert TABLE4.total_vcs == 10
        assert TABLE4.escape_vcs_mclb == 6
        assert TABLE4.escape_vcs_ndbt == 2

    def test_sim_constants_match_table4(self):
        from repro.sim import LINK_LATENCY, ROUTER_LATENCY
        from repro.sim.packet import LINK_WIDTH_BYTES

        assert ROUTER_LATENCY == TABLE4.router_latency_cycles
        assert LINK_WIDTH_BYTES == TABLE4.link_width_bytes
        assert LINK_LATENCY == 1

    def test_fullsys_uses_core_clock(self):
        from repro.fullsys import CORE_CLOCK_GHZ

        assert CORE_CLOCK_GHZ == TABLE4.core_clock_ghz
