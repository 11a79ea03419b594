"""Tests for the network simulator: conservation, latency, saturation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.sim import (
    CONTROL_FLITS,
    DATA_FLITS,
    MEAN_FLITS_PER_PACKET,
    FastNetworkSimulator,
    TraceStream,
    find_saturation,
    latency_throughput_curve,
    memory_traffic,
    run_point,
    shuffle_pattern,
    uniform_random,
)
from repro.topology import LAYOUT_4X5, Layout, Topology, folded_torus, mesh


@pytest.fixture(scope="module")
def ft_table():
    ft = folded_torus(LAYOUT_4X5)
    routes = ndbt_route(ft, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


@pytest.fixture(scope="module")
def mesh_table():
    m = mesh(LAYOUT_4X5)
    routes = ndbt_route(m, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


class TestPacketModel:
    def test_flit_sizes(self):
        assert CONTROL_FLITS == 1
        assert DATA_FLITS == 9
        assert MEAN_FLITS_PER_PACKET == 5.0


class TestBasicSimulation:
    def test_low_load_latency_near_zero_load(self, ft_table):
        st1 = run_point(ft_table, uniform_random(20), 0.01, warmup=300, measure=800)
        st2 = run_point(ft_table, uniform_random(20), 0.02, warmup=300, measure=800)
        assert st1.avg_latency_cycles == pytest.approx(
            st2.avg_latency_cycles, rel=0.25
        )

    def test_zero_load_latency_sane(self, ft_table):
        """Zero-load latency ~ hops * (serialization + pipeline) within
        a loose band: must be > per-hop minimum and < 3x estimate."""
        st = run_point(ft_table, uniform_random(20), 0.01, warmup=300, measure=800)
        lat = st.avg_latency_cycles
        # FT avg 2.32 hops, ~3 cyc/hop pipeline+link, +2*5 serialization
        assert 10 < lat < 80

    def test_throughput_tracks_offered_at_low_load(self, ft_table):
        st = run_point(ft_table, uniform_random(20), 0.05, warmup=300, measure=1500)
        assert st.throughput_packets_node_cycle == pytest.approx(0.05, rel=0.15)

    def test_accepted_counts_all_window_deliveries(self, ft_table):
        """Accepted throughput counts every packet ejected during the
        measurement window; latency samples only window-born packets
        (the corrected accounting — ejections can outnumber samples)."""
        st = run_point(ft_table, uniform_random(20), 0.2, warmup=300, measure=300)
        assert st.ejected_packets >= st.latency_count
        assert st.ejected_flits >= st.ejected_packets  # >= 1 flit each

    def test_packet_conservation(self, ft_table):
        """No packet is created or destroyed: in_flight accounts for all
        injected minus ejected."""
        sim = FastNetworkSimulator(ft_table, uniform_random(20), 0.05, seed=1)
        sim.run(200, 800)
        total_created = sim._pid
        assert sim.in_flight >= 0
        # drain: with injection off, everything in flight must eject
        sim.rate = 0.0
        for _ in range(4000):
            sim.step()
            if sim.in_flight == 0:
                break
        assert sim.in_flight == 0

    def test_seed_determinism(self, ft_table):
        a = run_point(ft_table, uniform_random(20), 0.1, warmup=200, measure=600, seed=5)
        b = run_point(ft_table, uniform_random(20), 0.1, warmup=200, measure=600, seed=5)
        assert a.avg_latency_cycles == b.avg_latency_cycles
        assert a.ejected_packets == b.ejected_packets

    def test_different_seeds_differ(self, ft_table):
        a = run_point(ft_table, uniform_random(20), 0.1, warmup=200, measure=600, seed=1)
        b = run_point(ft_table, uniform_random(20), 0.1, warmup=200, measure=600, seed=2)
        assert a.ejected_packets != b.ejected_packets

    def test_latency_increases_with_load(self, ft_table):
        lats = []
        for rate in (0.02, 0.10, 0.16):
            st = run_point(ft_table, uniform_random(20), rate, warmup=300, measure=1000)
            lats.append(st.avg_latency_cycles)
        assert lats[0] < lats[1] < lats[2]

    def test_extra_hop_latency_raises_latency(self, ft_table):
        base = run_point(ft_table, uniform_random(20), 0.02, warmup=200, measure=600)
        slow = run_point(
            ft_table, uniform_random(20), 0.02, warmup=200, measure=600,
            extra_hop_latency=4,
        )
        assert slow.avg_latency_cycles > base.avg_latency_cycles + 3


@pytest.mark.slow
class TestSaturation:
    def test_saturation_below_routed_bound(self, ft_table):
        """Input-queued networks saturate below the analytical routed
        bound (Karol et al.; the paper's Fig. 7 gap)."""
        from repro.routing import channel_loads, ndbt_route

        ft = folded_torus(LAYOUT_4X5)
        bound_flits = channel_loads(ndbt_route(ft, seed=0)).saturation_injection(20)
        bound_packets = bound_flits / MEAN_FLITS_PER_PACKET
        sat = find_saturation(ft_table, uniform_random(20), warmup=200, measure=700)
        assert 0.3 * bound_packets < sat <= bound_packets * 1.1

    def test_mesh_saturates_before_folded_torus(self, ft_table, mesh_table):
        sat_m = find_saturation(mesh_table, uniform_random(20), warmup=200, measure=700)
        sat_f = find_saturation(ft_table, uniform_random(20), warmup=200, measure=700)
        assert sat_f > sat_m

    def test_memory_traffic_saturates_earlier(self, ft_table):
        """Fig. 6b: hot-spot memory traffic binds tighter than uniform."""
        sat_u = find_saturation(ft_table, uniform_random(20), warmup=200, measure=700)
        sat_m = find_saturation(
            ft_table, memory_traffic(LAYOUT_4X5), warmup=200, measure=700
        )
        assert sat_m < sat_u


class TestSweep:
    def test_curve_stops_after_saturation(self, ft_table):
        curve = latency_throughput_curve(
            ft_table, uniform_random(20), rates=[0.02, 0.1, 0.3, 0.5, 0.9],
            warmup=200, measure=600,
        )
        sat_flags = [p.saturated for p in curve.points]
        if any(sat_flags):
            assert sat_flags[-1]  # sweep stopped at first saturation
            assert not any(sat_flags[:-1])

    def test_clock_scaling(self, ft_table):
        curve = latency_throughput_curve(
            ft_table, uniform_random(20), rates=[0.05],
            link_class="medium", warmup=200, measure=600,
        )
        p = curve.points[0]
        assert p.latency_ns(3.0) == pytest.approx(p.avg_latency_cycles / 3.0)
        assert curve.clock_ghz == 3.0

    def test_zero_load_property(self, ft_table):
        curve = latency_throughput_curve(
            ft_table, uniform_random(20), rates=[0.02, 0.05],
            warmup=200, measure=600,
        )
        assert curve.zero_load_latency_cycles == curve.points[0].avg_latency_cycles


def traced_events(traffic, rate=0.3, cycles=200, seed=0):
    """``(src, dst, size)`` arrays of a 20-router trace's first cycles."""
    stream = TraceStream(traffic, 20, rate, np.random.default_rng(seed))
    _, _, src, dst, size = stream.next_chunk(cycles)
    return src, dst, size


class TestTrafficPatterns:
    def test_uniform_never_self(self):
        src, dst, _ = traced_events(uniform_random(20))
        assert src.size > 500
        assert (dst != src).all()
        assert set(dst.tolist()) == set(range(20))

    def test_memory_targets_mc_columns(self):
        spec = memory_traffic(LAYOUT_4X5).dest_spec
        mcs = LAYOUT_4X5.mc_routers()
        for src in range(20):
            row = spec.table[src, : spec.bounds[src]].tolist()
            assert row == [m for m in mcs if m != src]

    def test_shuffle_deterministic_dests(self):
        table = shuffle_pattern(20).dest_spec.table
        assert table[3] == 6
        assert table[12] == (2 * 12 + 1) % 20

    def test_packet_size_mix(self):
        _, _, sizes = traced_events(uniform_random(20))
        assert set(sizes.tolist()) == {CONTROL_FLITS, DATA_FLITS}
        data_frac = float(np.mean(sizes == DATA_FLITS))
        assert 0.4 < data_frac < 0.6
