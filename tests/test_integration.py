"""End-to-end integration tests: the full NetSmith pipeline.

Each test exercises multiple subsystems together, the way the examples
and benchmarks do: generate -> validate -> route -> VC-assign -> simulate
-> analyze, on instances small enough to be fast but large enough that
the coupling is real.
"""

import math

import numpy as np
import pytest

from repro.core import (
    NetSmithConfig,
    anneal_topology,
    generate_latop,
    mclb_route,
    netsmith_topology,
)
from repro.experiments import MCLB, NDBT, routed_table
from repro.fullsys import run_workload, workload
from repro.power import analyze
from repro.routing import (
    assign_vcs,
    build_routing_table,
    channel_loads,
    enumerate_shortest_paths,
    ndbt_route,
    paths_are_deadlock_free,
    validate_assignment,
)
from repro.sim import (
    FastNetworkSimulator,
    find_saturation,
    measure_activity,
    run_point,
    uniform_random,
)
from repro.topology import (
    LAYOUT_4X5,
    Layout,
    average_hops,
    expert_topology,
    loads,
    dumps,
    sparsest_cut,
)


class TestGenerateRouteSimulate:
    """The quickstart pipeline on a 2x4 substrate."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        cfg = NetSmithConfig(
            layout=Layout(rows=2, cols=4), link_class="medium", radix=3,
            diameter_bound=4,
        )
        gen = generate_latop(cfg, time_limit=45)
        routed = mclb_route(gen.topology, time_limit=30)
        vca = assign_vcs(routed.routes, seed=0)
        table = build_routing_table(routed.routes, vca)
        return cfg, gen, routed, vca, table

    def test_generated_is_valid(self, pipeline):
        cfg, gen, *_ = pipeline
        gen.topology.check(radix=cfg.radix, link_class=cfg.link_class)

    def test_routes_respect_topology(self, pipeline):
        *_, routed, vca, table = pipeline[1:], None, None  # readability
        cfg, gen, routed, vca, table = pipeline
        routed.routes.validate()
        table.validate()

    def test_vc_layers_deadlock_free(self, pipeline):
        cfg, gen, routed, vca, table = pipeline
        validate_assignment(routed.routes, vca)
        for layer in vca.layers:
            assert paths_are_deadlock_free(layer)

    def test_simulates_without_deadlock(self, pipeline):
        cfg, gen, routed, vca, table = pipeline
        sim = FastNetworkSimulator(table, uniform_random(8), 0.1, seed=0)
        stats = sim.run(300, 900)
        assert stats.ejected_packets > 0
        assert math.isfinite(stats.avg_latency_cycles)
        # With injection off the network drains to empty: nothing is
        # stuck behind a dependency cycle.
        sim.rate = 0.0
        for _ in range(3000):
            sim.step()
            if sim.in_flight == 0:
                break
        assert sim.in_flight == 0

    def test_mclb_load_matches_sim_bottleneck(self, pipeline):
        """The channel MCLB predicts as most loaded should be among the
        hottest simulated channels near saturation."""
        cfg, gen, routed, vca, table = pipeline
        analysis = channel_loads(routed.routes)
        predicted = {
            ch for ch, l in analysis.loads.items() if l == analysis.max_load
        }
        sim = FastNetworkSimulator(table, uniform_random(8), 0.25, seed=0)
        sim.run(300, 1200)
        links = table.topology.directed_links
        by_flits = sorted(range(len(links)), key=lambda k: -sim.link_flits[k])
        hottest = {links[k] for k in by_flits[:8]}
        assert predicted & hottest or analysis.max_load <= 2


class TestFrozenArtifactsPipeline:
    """Frozen NetSmith designs must survive the whole toolchain."""

    @pytest.mark.parametrize("cls", ["small", "medium", "large"])
    def test_latop_designs_end_to_end(self, cls):
        topo = netsmith_topology("latop", cls, 20, allow_generate=False)
        topo.check(radix=4, link_class=cls)
        table = routed_table(topo, MCLB, use_cache=False)
        table.validate()
        stats = run_point(table, uniform_random(20), 0.05, warmup=200, measure=600)
        assert stats.ejected_packets > 0

    def test_latop_beats_mesh_everywhere(self):
        mesh_t = expert_topology("Mesh", 20)
        for cls in ("small", "medium", "large"):
            ns = netsmith_topology("latop", cls, 20, allow_generate=False)
            assert average_hops(ns) < average_hops(mesh_t)
            assert sparsest_cut(ns).value > sparsest_cut(mesh_t).value

    def test_serialization_roundtrip_through_pipeline(self):
        topo = netsmith_topology("latop", "medium", 20, allow_generate=False)
        clone = loads(dumps(topo))
        assert np.array_equal(clone.adj, topo.adj)
        # the clone routes identically
        r1 = ndbt_route(topo, seed=3)
        r2 = ndbt_route(clone, seed=3)
        assert r1.paths == r2.paths


class TestSimToPowerHandoff:
    def test_activity_feeds_power_model(self):
        topo = expert_topology("FoldedTorus", 20)
        table = routed_table(topo, NDBT)
        act = measure_activity(table, uniform_random(20), 0.1,
                               warmup=200, measure=600)
        pa = analyze(topo, activity=act)
        assert pa.dynamic_power_mw > 0
        # higher load -> more activity -> more dynamic power
        act_hi = measure_activity(table, uniform_random(20), 0.16,
                                  warmup=200, measure=600)
        assert analyze(topo, activity=act_hi).dynamic_power_mw > pa.dynamic_power_mw


class TestFullSystemPipeline:
    def test_workload_on_generated_topology(self):
        """Close the loop: a freshly generated topology through the
        full-system model."""
        sa = anneal_topology(
            NetSmithConfig(layout=LAYOUT_4X5, link_class="medium"),
            objective="latency", steps=600, seed=8,
        )
        table = routed_table(sa.topology, MCLB, use_cache=False)
        res = run_workload(table, workload("ferret"), link_class="medium",
                           warmup=300, measure=900)
        assert res.cpi > workload("ferret").base_cpi
        assert res.avg_packet_latency_ns > 0


@pytest.mark.slow
class TestSaturationConsistency:
    def test_measured_saturation_below_analytical(self):
        """For every frozen design: simulated saturation must respect the
        analytical routed bound (sanity coupling of sim and analysis)."""
        from repro.sim import MEAN_FLITS_PER_PACKET

        topo = netsmith_topology("latop", "medium", 20, allow_generate=False)
        table = routed_table(topo, MCLB)
        paths = {}
        for s in range(20):
            for d in range(20):
                if s != d:
                    paths[(s, d)] = [table.route_of(s, d)]
        from repro.routing.paths import PathSet

        bound_flits = channel_loads(
            PathSet(topology=topo, paths=paths)
        ).saturation_injection(20)
        sat_pkts = find_saturation(table, uniform_random(20),
                                   warmup=200, measure=600)
        assert sat_pkts * MEAN_FLITS_PER_PACKET <= bound_flits * 1.15
