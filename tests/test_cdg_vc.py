"""Tests for CDG construction and deadlock-free VC assignment."""

import os
import subprocess
import sys

import pytest

from repro.routing import (
    assign_vcs,
    build_cdg,
    build_routing_table,
    find_cycle,
    is_acyclic,
    ndbt_route,
    path_dependencies,
    paths_are_deadlock_free,
    single_shortest_paths,
    validate_assignment,
)
from repro.routing.paths import PathSet
from repro.topology import LAYOUT_4X5, Layout, Topology, folded_torus, mesh


class TestCDG:
    def test_path_dependencies(self):
        deps = path_dependencies((0, 1, 2, 3))
        assert deps == [(((0, 1)), ((1, 2))), (((1, 2)), ((2, 3)))]

    def test_single_hop_no_deps(self):
        assert path_dependencies((0, 1)) == []

    def test_build_cdg_nodes_are_channels(self):
        g = build_cdg([(0, 1, 2)])
        assert g.has_edge((0, 1), (1, 2))

    def test_cycle_detected_in_ring_routes(self):
        # routes that chase each other around a 4-ring
        paths = [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]
        g = build_cdg(paths)
        assert not is_acyclic(g)
        cyc = find_cycle(g)
        assert cyc is not None and len(cyc) >= 3

    def test_acyclic_routes(self):
        paths = [(0, 1, 2), (0, 1, 3)]
        assert paths_are_deadlock_free(paths)

    def test_find_cycle_none_for_dag(self):
        g = build_cdg([(0, 1, 2)])
        assert find_cycle(g) is None

    def test_successors_follow_first_surviving_route(self):
        """Channel (0,1) leads round two cycles.  Its edge to (1,2) is
        first induced by route 0; once route 0 is evicted, the edge to
        (1,3) (route 1) comes before it (route 2)."""
        paths = [(5, 0, 1, 2), (0, 1, 3), (0, 1, 2),
                 (1, 2, 0), (2, 0, 1), (1, 3, 0), (3, 0, 1)]
        g = build_cdg(paths)
        assert find_cycle(g) == [((0, 1), (1, 2)), ((1, 2), (2, 0)), ((2, 0), (0, 1))]
        assert g.evict(((5, 0), (0, 1))) == [0]
        assert find_cycle(g) == [((0, 1), (1, 3)), ((1, 3), (3, 0)), ((3, 0), (0, 1))]


class TestVCAssignment:
    def test_ring_needs_two_vcs(self):
        lay = Layout(rows=1, cols=4)
        t = Topology(lay, [(0, 1), (1, 2), (2, 3), (3, 0)])
        routes = single_shortest_paths(t, seed=0)
        vca = assign_vcs(routes, seed=0)
        assert vca.num_vcs >= 2
        validate_assignment(routes, vca)

    def test_folded_torus_four_vcs(self):
        """Paper IV-A: 4 VCs suffice for all 20-router configurations,
        with Folded Torus binding the minimum at 4."""
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        assert 2 <= vca.num_vcs <= 4
        validate_assignment(routes, vca)

    def test_mesh_within_paper_vc_budget(self):
        """Paper IV-A: 4 VCs suffice for every 20-router configuration.
        Mesh monotone paths still mix turn directions, so layers > 1."""
        m = mesh(LAYOUT_4X5)
        routes = ndbt_route(m, seed=0)
        vca = assign_vcs(routes, seed=0)
        assert vca.num_vcs <= 4
        validate_assignment(routes, vca)

    def test_every_layer_acyclic(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=1)
        vca = assign_vcs(routes, seed=1)
        for layer in vca.layers:
            assert is_acyclic(build_cdg(layer))

    def test_layer_weights_balanced(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        w = vca.layer_weights()
        if len(w) > 1:
            assert max(w) - min(w) <= max(w)  # sanity: no empty layers
            assert min(w) > 0

    def test_multi_path_input_rejected(self):
        m = mesh(LAYOUT_4X5)
        from repro.routing import enumerate_shortest_paths

        full = enumerate_shortest_paths(m)
        with pytest.raises(ValueError):
            assign_vcs(full)

    def test_max_vcs_enforced(self):
        lay = Layout(rows=1, cols=4)
        t = Topology(lay, [(0, 1), (1, 2), (2, 3), (3, 0)])
        routes = single_shortest_paths(t, seed=0)
        with pytest.raises(RuntimeError):
            assign_vcs(routes, max_vcs=1)


class TestRoutingTable:
    def test_table_routes_all_flows(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        table = build_routing_table(routes, vca)
        table.validate()
        assert table.num_vcs == vca.num_vcs

    def test_route_of_matches_source_paths(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        table = build_routing_table(routes)
        for (s, d), plist in routes.paths.items():
            assert table.route_of(s, d) == plist[0]

    def test_vc_consistency(self):
        ft = folded_torus(LAYOUT_4X5)
        routes = ndbt_route(ft, seed=0)
        vca = assign_vcs(routes, seed=0)
        table = build_routing_table(routes, vca)
        for (s, d), vc in vca.assignment.items():
            assert table.vc(s, d) == vc

    def test_default_single_vc(self):
        m = mesh(LAYOUT_4X5)
        routes = ndbt_route(m, seed=0)
        table = build_routing_table(routes)
        assert table.num_vcs == 1
        assert table.vc(0, 1) == 0


_WITHOUT_NETWORKX = """
import sys
sys.path.insert(0, {src!r})
sys.modules["networkx"] = None  # any import of networkx now fails
import repro
from repro.routing import assign_vcs, ndbt_route, validate_assignment
from repro.topology import expert_topology

routes = ndbt_route(expert_topology("Kite-Small", 20), seed=0)
vca = assign_vcs(routes, seed=0)
validate_assignment(routes, vca)
print(vca.num_vcs)
"""


def test_vc_assignment_needs_no_networkx():
    """networkx is a test-suite dependency only: routing and deadlock-free
    VC assignment run with it unimportable."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX.format(src=src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 1
