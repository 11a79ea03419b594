"""Tests for the closed-loop full-system model and speedup analysis."""

import math

import pytest

from repro.fullsys import (
    PARSEC,
    FastClosedLoopSimulator,
    WorkloadProfile,
    demand_rate_for,
    geomean_speedups,
    run_workload,
    workload,
)
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.sim import uniform_random
from repro.topology import LAYOUT_4X5, folded_torus, mesh


@pytest.fixture(scope="module")
def mesh_table():
    m = mesh(LAYOUT_4X5)
    r = ndbt_route(m, seed=0)
    return build_routing_table(r, assign_vcs(r, seed=0))


@pytest.fixture(scope="module")
def ft_table():
    ft = folded_torus(LAYOUT_4X5)
    r = ndbt_route(ft, seed=0)
    return build_routing_table(r, assign_vcs(r, seed=0))


class TestWorkloads:
    def test_twelve_benchmarks_no_vips(self):
        names = [w.name for w in PARSEC]
        assert len(names) == 12
        assert "vips" not in names
        assert "canneal" in names and "blackscholes" in names

    def test_sorted_by_mpki(self):
        mpkis = [w.l2_mpki for w in PARSEC]
        assert mpkis == sorted(mpkis)

    def test_lookup(self):
        assert workload("canneal").l2_mpki == pytest.approx(10.0)
        with pytest.raises(ValueError):
            workload("vips")

    def test_demand_rate_monotone_in_mpki(self):
        assert demand_rate_for(workload("canneal")) > demand_rate_for(
            workload("blackscholes")
        )

    def test_demand_rate_clamped(self):
        heavy = WorkloadProfile("synthetic", 100.0, 0.5, 1.0, 4.0)
        assert demand_rate_for(heavy) <= 0.45


class TestClosedLoop:
    """Behaviour of the engine :func:`run_workload` runs."""

    def test_requests_complete(self, ft_table):
        sim = FastClosedLoopSimulator(
            ft_table, uniform_random(20), demand_rate=0.05, mlp_per_node=8, seed=0
        )
        stats = sim.run_closed_loop(warmup=400, measure=1200)
        assert stats.completed_requests > 100
        assert math.isfinite(stats.avg_round_trip_cycles)

    def test_rtt_exceeds_one_way(self, ft_table):
        """Round trip includes request + service + data response."""
        sim = FastClosedLoopSimulator(
            ft_table, uniform_random(20), demand_rate=0.03, mlp_per_node=4, seed=0
        )
        stats = sim.run_closed_loop(warmup=400, measure=1200)
        assert stats.avg_round_trip_cycles > 30

    def test_outstanding_bounded(self, ft_table):
        sim = FastClosedLoopSimulator(
            ft_table, uniform_random(20), demand_rate=0.5, mlp_per_node=3, seed=0
        )
        for _ in range(600):
            sim.step()
            assert all(o <= 3 for o in sim.outstanding)

    def test_memory_fraction_routes_to_mcs(self, ft_table):
        sim = FastClosedLoopSimulator(
            ft_table, uniform_random(20), demand_rate=0.1,
            memory_fraction=1.0, seed=0,
        )
        sim.run_closed_loop(warmup=100, measure=300)
        # all destinations were MCs; just assert it ran and completed some
        assert sim.completed >= 0


class TestSpeedupModel:
    def test_high_mpki_more_sensitive(self, mesh_table, ft_table):
        """canneal must gain more from a better network than
        blackscholes (the Fig. 8 scaling)."""
        bs_base = run_workload(mesh_table, workload("blackscholes"),
                               link_class="small", warmup=300, measure=1000)
        bs_ft = run_workload(ft_table, workload("blackscholes"),
                             link_class="medium", warmup=300, measure=1000)
        ca_base = run_workload(mesh_table, workload("canneal"),
                               link_class="small", warmup=300, measure=1000)
        ca_ft = run_workload(ft_table, workload("canneal"),
                             link_class="medium", warmup=300, measure=1000)
        assert ca_ft.speedup_over(ca_base) > bs_ft.speedup_over(bs_base)

    def test_latency_reduction_positive_for_better_topo(self, mesh_table, ft_table):
        w = workload("streamcluster")
        base = run_workload(mesh_table, w, link_class="small", warmup=300, measure=1000)
        ft = run_workload(ft_table, w, link_class="medium", warmup=300, measure=1000)
        assert ft.latency_reduction_over(base) > 0

    def test_self_speedup_is_one(self, mesh_table):
        w = workload("ferret")
        a = run_workload(mesh_table, w, link_class="small", warmup=300, measure=1000)
        assert a.speedup_over(a) == pytest.approx(1.0)

    def test_geomean(self):
        from repro.fullsys import Figure8Row

        rows = [
            Figure8Row("a", {"X": 1.1, "Y": 1.0}, {}),
            Figure8Row("b", {"X": 1.21, "Y": 1.0}, {}),
        ]
        gm = geomean_speedups(rows)
        assert gm["X"] == pytest.approx(math.sqrt(1.1 * 1.21))
        assert gm["Y"] == pytest.approx(1.0)
