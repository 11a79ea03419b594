"""Tests for SCOp (lazy sparsest-cut) and MCLB routing MILPs."""

import numpy as np
import pytest

from repro.core import NetSmithConfig, generate_scop, mclb_route
from repro.core.netsmith import build_distance_formulation
from repro.milp import MAXIMIZE
from repro.routing import channel_loads, enumerate_shortest_paths, single_shortest_paths
from repro.topology import Layout, Topology, folded_torus, LAYOUT_4X5, sparsest_cut
from scop_oracle import exhaustive_cut_constraints


@pytest.fixture(scope="module")
def scop_tiny():
    cfg = NetSmithConfig(
        layout=Layout(rows=2, cols=3), link_class="small", radix=3, diameter_bound=4
    )
    return generate_scop(cfg, time_limit=30, max_iterations=15)


class TestSCOp:
    def test_converges(self, scop_tiny):
        gen, diag = scop_tiny
        assert diag.claimed_b <= diag.true_b + 1e-6

    def test_objective_is_true_sparsest_cut(self, scop_tiny):
        gen, _ = scop_tiny
        actual = sparsest_cut(gen.topology, exact=True).value
        assert gen.objective == pytest.approx(actual)

    def test_valid_topology(self, scop_tiny):
        gen, _ = scop_tiny
        gen.topology.check(radix=3, link_class="small")

    def test_lazy_matches_exhaustive_on_tiny(self):
        """Ablation: lazy cut generation reaches the same optimum as
        materializing every C6 row (2x2 grid: 8 cuts)."""
        cfg = NetSmithConfig(
            layout=Layout(rows=2, cols=2), link_class="small", radix=2,
            diameter_bound=3,
        )
        lazy, _ = generate_scop(cfg, time_limit=20, max_iterations=20)

        h = build_distance_formulation(cfg, sense=MAXIMIZE)
        b = h.model.add_var("B", lb=0.0, ub=4.0)
        n_cuts = exhaustive_cut_constraints(h, b)
        assert n_cuts == (1 << (cfg.layout.n - 1)) - 1
        h.model.set_objective(b - 1e-4 * h.total_hops)
        res = h.model.solve(time_limit=20)
        assert res.ok
        exhaustive_topo = h.extract_topology(res)
        exhaustive_b = sparsest_cut(exhaustive_topo, exact=True).value
        assert lazy.objective == pytest.approx(exhaustive_b, abs=1e-6)

    def test_too_large_raises(self):
        cfg = NetSmithConfig(layout=Layout(rows=6, cols=5), link_class="small")
        with pytest.raises(ValueError):
            generate_scop(cfg, time_limit=1)

    def test_exhaustive_cap(self):
        cfg = NetSmithConfig(
            layout=Layout(rows=4, cols=5), link_class="small", diameter_bound=5
        )
        h = build_distance_formulation(cfg, sense=MAXIMIZE)
        b = h.model.add_var("B", lb=0.0)
        with pytest.raises(ValueError):
            exhaustive_cut_constraints(h, b, max_n=12)


class TestMCLB:
    def test_never_worse_than_random(self):
        ft = folded_torus(LAYOUT_4X5)
        rand_load = channel_loads(single_shortest_paths(ft, seed=0)).max_load
        res = mclb_route(ft, time_limit=60)
        assert res.max_channel_load <= rand_load + 1e-9

    def test_folded_torus_reaches_cut_bound(self):
        """MCLB on FT achieves max load 12 -> saturation 20/12, exactly
        the sparsest-cut bound (the Fig. 7 'approaches tighter bound'
        behaviour)."""
        ft = folded_torus(LAYOUT_4X5)
        res = mclb_route(ft, time_limit=60)
        assert res.max_channel_load == pytest.approx(12.0)

    def test_routes_are_single_minimal_paths(self):
        ft = folded_torus(LAYOUT_4X5)
        res = mclb_route(ft, time_limit=60)
        res.routes.validate()
        assert all(len(v) == 1 for v in res.routes.paths.values())

    def test_objective_equals_recomputed_load(self):
        ft = folded_torus(LAYOUT_4X5)
        res = mclb_route(ft, time_limit=60)
        assert channel_loads(res.routes).max_load == pytest.approx(
            res.max_channel_load
        )

    def test_weighted_demand(self):
        lay = Layout(rows=1, cols=4)
        t = Topology.from_undirected(lay, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = np.zeros((4, 4))
        w[0, 2] = 1.0
        w[1, 3] = 1.0
        res = mclb_route(t, weights=w, time_limit=30)
        assert res.max_channel_load <= 1.0 + 1e-9  # disjoint two-hop routes exist

    def test_precomputed_pathset_accepted(self):
        ft = folded_torus(LAYOUT_4X5)
        ps = enumerate_shortest_paths(ft, max_paths_per_pair=8)
        res = mclb_route(ft, path_set=ps, time_limit=60)
        assert res.num_paths_considered == ps.total_paths
