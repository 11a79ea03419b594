"""Differential suite: the fast engine must match the reference engine
(the oracle in ``tests/network_oracle.py``, registered as
``engine="reference"`` for every test here) bit-for-bit, per-link flit
counts included, plus regression pins for the corrected throughput
accounting and the ``find_saturation`` base-probe fix, plus the
compiled-network reuse and trace chunk-boundary invariants."""

import numpy as np
import pytest

from network_oracle import (
    InstrumentedSimulator,
    NetworkSimulator,
    register_reference,
)
from repro.experiments.registry import NDBT, routed_table
from repro.faults import parse_faults
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.sim import (
    ENGINES,
    TRACE_CHUNK_CYCLES,
    CompiledNetwork,
    FastNetworkSimulator,
    bit_complement,
    find_saturation,
    hotspot,
    latency_throughput_curve,
    measure_activity,
    memory_traffic,
    neighbor,
    resolve_engine,
    run_point,
    shuffle_pattern,
    tornado,
    transpose,
    uniform_random,
)
from repro.topology import LAYOUT_4X5, Layout, expert_topology, folded_torus, mesh


@pytest.fixture(autouse=True)
def reference_engine(monkeypatch):
    register_reference(monkeypatch)


def _table(layout, seed=0):
    topo = folded_torus(layout)
    routes = ndbt_route(topo, seed=seed)
    # The registry's size-scaled VC budget: 8 layers suffice up to 30
    # routers, irregular 48-router networks can need a few more.
    vca = assign_vcs(routes, max_vcs=8 if topo.n <= 30 else 14, seed=seed)
    return build_routing_table(routes, vca)


LAYOUT_8X6 = Layout(rows=8, cols=6)


@pytest.fixture(scope="module")
def table_4x5():
    return _table(LAYOUT_4X5)


@pytest.fixture(scope="module")
def table_8x6():
    return _table(LAYOUT_8X6)


def _patterns(layout):
    n = layout.n
    return [
        uniform_random(n),
        memory_traffic(layout),
        shuffle_pattern(n),
        bit_complement(n),
        transpose(layout),
        tornado(layout),
        neighbor(layout),
        hotspot(n, layout.mc_routers()),
    ]


class TestEngineRegistry:
    def test_engines_registered(self):
        assert ENGINES["fast"] is FastNetworkSimulator
        assert resolve_engine("reference") is NetworkSimulator

    def test_reference_is_test_only(self, monkeypatch):
        """Production registers no oracle: without this module's
        registration, ``engine="reference"`` is an unknown engine."""
        monkeypatch.undo()
        assert "reference" not in ENGINES
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("reference")

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")


class TestDifferential4x5:
    """Identical SimStats across all seven traffic patterns (plus the
    hotspot mixture), several rates, and several seeds on the 4x5 grid."""

    @pytest.mark.parametrize("pattern_idx", range(8))
    def test_all_patterns_low_and_high_load(self, table_4x5, pattern_idx):
        traffic = _patterns(LAYOUT_4X5)[pattern_idx]
        for rate in (0.03, 0.15, 0.30):
            a = run_point(table_4x5, traffic, rate, warmup=200, measure=500,
                          seed=0, engine="reference")
            b = run_point(table_4x5, traffic, rate, warmup=200, measure=500,
                          seed=0, engine="fast")
            assert a == b, (traffic.kind, rate)

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_seeds(self, table_4x5, seed):
        traffic = uniform_random(20)
        for rate in (0.08, 0.25):
            a = run_point(table_4x5, traffic, rate, warmup=200, measure=500,
                          seed=seed, engine="reference")
            b = run_point(table_4x5, traffic, rate, warmup=200, measure=500,
                          seed=seed, engine="fast")
            assert a == b

    def test_multi_packet_per_cycle_rates(self, table_4x5):
        """Rates above 1.0 inject several packets per node per cycle."""
        traffic = uniform_random(20)
        a = run_point(table_4x5, traffic, 1.5, warmup=100, measure=300,
                      seed=3, engine="reference")
        b = run_point(table_4x5, traffic, 1.5, warmup=100, measure=300,
                      seed=3, engine="fast")
        assert a == b

    def test_extra_hop_latency_and_buffers(self, table_4x5):
        traffic = uniform_random(20)
        for kw in ({"extra_hop_latency": 4}, {"vc_buffer_flits": 9},
                   {"router_latency": 1, "link_latency": 2}):
            a = run_point(table_4x5, traffic, 0.1, warmup=150, measure=400,
                          seed=0, engine="reference", **kw)
            b = run_point(table_4x5, traffic, 0.1, warmup=150, measure=400,
                          seed=0, engine="fast", **kw)
            assert a == b, kw

    def test_curves_identical(self, table_4x5):
        traffic = uniform_random(20)
        rates = [0.02, 0.1, 0.2, 0.3, 0.4]
        built = NetworkSimulator.built
        a = latency_throughput_curve(table_4x5, traffic, rates,
                                     warmup=200, measure=500,
                                     engine="reference")
        assert NetworkSimulator.built - built == len(a.points)
        b = latency_throughput_curve(table_4x5, traffic, rates,
                                     warmup=200, measure=500, engine="fast")
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert pa == pb


@pytest.mark.slow
class TestDifferential8x6:
    @pytest.mark.parametrize("pattern_idx", range(8))
    def test_all_patterns(self, table_8x6, pattern_idx):
        traffic = _patterns(LAYOUT_8X6)[pattern_idx]
        for rate in (0.05, 0.2):
            a = run_point(table_8x6, traffic, rate, warmup=150, measure=400,
                          seed=0, engine="reference")
            b = run_point(table_8x6, traffic, rate, warmup=150, measure=400,
                          seed=0, engine="fast")
            assert a == b, (traffic.kind, rate)

    def test_seed_sweep_uniform(self, table_8x6):
        traffic = uniform_random(48)
        for seed in (0, 5):
            a = run_point(table_8x6, traffic, 0.12, warmup=150, measure=400,
                          seed=seed, engine="reference")
            b = run_point(table_8x6, traffic, 0.12, warmup=150, measure=400,
                          seed=seed, engine="fast")
            assert a == b


class TestLinkFlits:
    """``FastNetworkSimulator.link_flits`` is the oracle's per-channel
    flit count, link for link, and ``measure_activity`` is the oracle's
    ``activity_factor()`` over the same whole-run window."""

    BUDGET = dict(warmup=200, measure=600)

    def _against_oracle(self, table, traffic, rate, **kw):
        """Run both engines; return the fast link counts and the
        oracle's instrumentation report, after checking they agree."""
        ref = InstrumentedSimulator(table, traffic, rate, seed=0, **kw)
        fast = FastNetworkSimulator(table, traffic, rate, seed=0, **kw)
        assert fast.run(**self.BUDGET) == ref.run(**self.BUDGET)
        report = ref.report()
        assert fast.link_flits == [
            report.channel_stats[ch].flits
            for ch in table.topology.directed_links
        ]
        return fast.link_flits, report

    @pytest.mark.parametrize("rate", [0.03, 0.1, 0.3])
    @pytest.mark.parametrize("pattern", ["uniform", "memory"])
    def test_matches_oracle(self, table_4x5, pattern, rate):
        traffic = (
            uniform_random(20) if pattern == "uniform"
            else memory_traffic(LAYOUT_4X5)
        )
        _, report = self._against_oracle(table_4x5, traffic, rate)
        assert measure_activity(
            table_4x5, traffic, rate, seed=0, **self.BUDGET
        ) == report.activity_factor()

    def test_matches_oracle_across_fault_epochs(self, table_4x5):
        traffic = uniform_random(20)
        faults = parse_faults("300:link_down:2-7,700:link_up:2-7")
        faulted, _ = self._against_oracle(table_4x5, traffic, 0.1,
                                          faults=faults)
        plain, _ = self._against_oracle(table_4x5, traffic, 0.1)
        assert faulted != plain  # the outage re-routed traffic


class TestFastEngineBehaviour:
    def test_drain_conserves_packets(self, table_4x5):
        """With injection switched off, every in-flight packet ejects."""
        sim = FastNetworkSimulator(table_4x5, uniform_random(20), 0.1, seed=1)
        sim.run(200, 600)
        assert sim.in_flight >= 0
        sim.rate = 0.0
        for _ in range(5000):
            sim.step()
            if sim.in_flight == 0:
                break
        assert sim.in_flight == 0

    def test_step_equivalent_to_run_segments(self, table_4x5):
        """Single-cycle stepping crosses wheel/sleep state correctly."""
        traffic = uniform_random(20)
        a = FastNetworkSimulator(table_4x5, traffic, 0.12, seed=2)
        stats_a = a.run(150, 350)
        b = FastNetworkSimulator(table_4x5, traffic, 0.12, seed=2)
        for _ in range(150):
            b.step()
        b.measuring = True
        b.measure_start = b.cycle
        for _ in range(350):
            b.step()
        b.measuring = False
        assert stats_a.ejected_packets == b.ejected
        assert stats_a.latency_sum == b.lat_sum
        assert stats_a.offered_packets == b.offered


@pytest.fixture(scope="module")
def kite_small():
    """Kite-Small-20 routed by NDBT (seed 0), as in the fig6 small class."""
    return routed_table(
        expert_topology("Kite-Small", 20), NDBT, seed=0, use_cache=False,
    )


class TestRouterParking:
    """Router visits: a cost counter outside SimStats, and end-of-visit
    parking that never sleeps past a possible grant."""

    def test_visit_count_after_parking(self, kite_small):
        """An acting router whose heads are all pinned parks instead of
        being scanned again next cycle: the run makes 10148 visits,
        bounded here at 0.8 x 13514, the count without that parking."""
        sim = FastNetworkSimulator(kite_small, uniform_random(20), 0.2, seed=0)
        stats = sim.run(250, 800)
        assert 0 < sim.router_visits <= 10811
        assert not hasattr(stats, "router_visits")

    def test_acting_router_parks_until_its_next_grant(self, kite_small):
        """Buffers too deep to ever block on credit, so only timers hold
        a head back.  After each cycle, a router that granted knows each
        remaining head's next possible grant: a new head's snooze (no
        earlier than the next cycle), an old head's snooze if still
        pending, else (a requester that lost) the new busy expiry of the
        output it lost.  If none is the next cycle, the router is not
        runnable and waits in the wheel at the earliest of them.  Every
        parked router wakes no later than any head's true bound."""
        sim = FastNetworkSimulator(
            kite_small, uniform_random(20), 0.3, seed=0, vc_buffer_flits=10**6,
        )
        cn = sim.cn
        outs = [[ch for ch in range(cn.num_links) if cn.ch_src[ch] == u]
                for u in range(sim.n)]
        parked_after_grant = 0
        for _ in range(400):
            c = sim.cycle
            busy = list(sim.busy_until)
            ej = list(sim.ej_busy)
            before = list(sim.heads)
            sim.step()
            for u in range(sim.n):
                known, true = [], []
                for base in cn.in_bases[u]:
                    for vc in cn.vcs_of[sim.masks[base]]:
                        slot = base + vc
                        head = sim.heads[slot]
                        ready, key = head[:2]
                        freed = sim.busy_until[key] if key >= 0 else sim.ej_busy[u]
                        snooze = sim.snooze[slot]
                        if head is not before[slot]:
                            known.append(max(snooze, c + 1))
                        else:
                            known.append(snooze if snooze > c else freed)
                        true.append(max(ready, freed))
                ubit = 1 << u
                if not sim.runnable & ubit:
                    assert c < sim.wake[u] <= min(true, default=sim.wake[u])
                    if true:
                        assert sim.wheel[sim.wake[u]] & ubit
                granted = ej[u] != sim.ej_busy[u] or any(
                    busy[ch] != sim.busy_until[ch] for ch in outs[u]
                )
                if granted and known and min(known) > c + 1:
                    assert not sim.runnable & ubit
                    assert sim.wake[u] == min(known)
                    assert sim.wheel[sim.wake[u]] & ubit
                    parked_after_grant += 1
                elif granted and known:
                    assert sim.runnable & ubit
        assert parked_after_grant > 100


class TestThroughputAccounting:
    """Regression pins for the corrected accepted-throughput accounting."""

    def test_warmup_born_packets_count_toward_throughput(self, table_4x5):
        """Packets born during warmup but delivered inside the window
        count toward ejected/ejected_flits — but not toward latency."""
        sim = NetworkSimulator(table_4x5, uniform_random(20), 0.2, seed=0)
        sim.run(300, 200)
        # At a contended rate with a short window, deliveries always
        # outnumber latency samples: warmup-born packets drain into the
        # measurement window.
        assert sim.ejected > sim.lat_count

    def test_engines_agree_on_accounting(self, table_4x5):
        a = run_point(table_4x5, uniform_random(20), 0.25,
                      warmup=300, measure=400, seed=0, engine="reference")
        b = run_point(table_4x5, uniform_random(20), 0.25,
                      warmup=300, measure=400, seed=0, engine="fast")
        assert a.ejected_packets == b.ejected_packets
        assert a.ejected_flits == b.ejected_flits
        assert a.latency_count == b.latency_count

    def test_throughput_not_understated_at_saturation(self, table_4x5):
        """Beyond saturation the network still delivers at (roughly) its
        capacity; with the old window-born-only accounting the reported
        throughput collapsed far below it."""
        st = run_point(table_4x5, uniform_random(20), 0.6,
                       warmup=400, measure=800, seed=0)
        # Accepted throughput stays a substantial fraction of the
        # saturation rate (~0.2 for the NDBT-routed 4x5 folded torus).
        assert st.throughput_packets_node_cycle > 0.1


class TestCompiledNetworkReuse:
    def test_for_table_memoizes(self, table_4x5):
        a = CompiledNetwork.for_table(table_4x5)
        b = CompiledNetwork.for_table(table_4x5)
        assert a is b
        assert a.table is table_4x5

    def test_two_runs_from_one_compile_match_fresh_sims(self, table_4x5):
        """A shared compile is pure: reusing it across runs yields
        exactly what two fresh simulators (and the reference) yield."""
        compiled = CompiledNetwork(table_4x5)
        traffic = uniform_random(20)
        stats_shared = [
            FastNetworkSimulator(
                table_4x5, traffic, rate, seed=4, compiled=compiled
            ).run(200, 500)
            for rate in (0.1, 0.3)
        ]
        stats_fresh = [
            FastNetworkSimulator(table_4x5, traffic, rate, seed=4).run(200, 500)
            for rate in (0.1, 0.3)
        ]
        stats_ref = [
            NetworkSimulator(table_4x5, traffic, rate, seed=4).run(200, 500)
            for rate in (0.1, 0.3)
        ]
        assert stats_shared == stats_fresh == stats_ref

    def test_mismatched_compile_rejected(self, table_4x5, table_8x6):
        compiled = CompiledNetwork(table_8x6)
        with pytest.raises(ValueError, match="different table"):
            FastNetworkSimulator(
                table_4x5, uniform_random(20), 0.1, compiled=compiled
            )

    def test_curve_and_saturation_share_the_table_memo(self, table_4x5):
        """Sweeps and searches attach one compile to the table and keep
        reusing it (the per-(table, traffic) amortization the sweep
        stack rides on)."""
        table_4x5.__dict__.pop("_compiled_network", None)
        traffic = uniform_random(20)
        latency_throughput_curve(table_4x5, traffic, [0.05, 0.1],
                                 warmup=100, measure=200)
        first = table_4x5.__dict__.get("_compiled_network")
        assert first is not None
        find_saturation(table_4x5, traffic, iters=2, warmup=100, measure=200)
        assert table_4x5.__dict__.get("_compiled_network") is first


class TestTraceChunkBoundaries:
    def test_tiny_chunks_bit_identical(self, table_4x5):
        """Forcing a chunk boundary every 11 cycles (warmup and measure
        not multiples of it) must not change a single stat."""
        traffic = memory_traffic(LAYOUT_4X5)
        ref = run_point(table_4x5, traffic, 0.2, warmup=205, measure=411,
                        seed=6, engine="reference")
        sim = FastNetworkSimulator(table_4x5, traffic, 0.2, seed=6)
        sim.trace_chunk_cycles = 11
        assert sim.run(205, 411) == ref

    @pytest.mark.parametrize("rate", [0.1, 1.0])
    def test_run_generates_only_its_cycles(self, table_4x5, rate):
        """A run draws the traffic of the cycles it simulates and no
        more (rate 1.0 takes the scalar path); whole chunks, as under
        the override or ``step``, give the same stats."""
        traffic = uniform_random(20)
        sim = FastNetworkSimulator(table_4x5, traffic, rate, seed=4)
        stats = sim.run(250, 800)
        assert sim._trace.next_cycle == 1050
        whole = FastNetworkSimulator(table_4x5, traffic, rate, seed=4)
        whole.trace_chunk_cycles = TRACE_CHUNK_CYCLES
        assert whole.run(250, 800) == stats
        assert whole._trace.next_cycle == TRACE_CHUNK_CYCLES
        sim.step()
        assert sim._trace.next_cycle == 1050 + TRACE_CHUNK_CYCLES

    def test_single_hotspot_pattern_differential(self, table_4x5):
        """Single-hotspot traffic exercises the trace's scalar-emulation
        path (numpy's consume-nothing integers(1) special case) inside
        the full engine."""
        traffic = hotspot(20, [4], 0.6)
        a = run_point(table_4x5, traffic, 0.15, warmup=200, measure=500,
                      seed=2, engine="reference")
        b = run_point(table_4x5, traffic, 0.15, warmup=200, measure=500,
                      seed=2, engine="fast")
        assert a == b


class TestFindSaturationMemoization:
    def test_no_rate_simulated_twice(self, table_4x5, monkeypatch):
        import repro.sim.sweep as sweep_mod

        traffic = uniform_random(20)
        seen = []
        real = sweep_mod.run_point

        def counting(table, tr, rate, **kw):
            seen.append(rate)
            return real(table, tr, rate, **kw)

        monkeypatch.setattr(sweep_mod, "run_point", counting)
        sat = sweep_mod.find_saturation(table_4x5, traffic, lo=0.01, hi=1.0,
                                        iters=4, warmup=150, measure=300)
        assert 0.0 < sat <= 1.0
        assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
        # lo + hi + at most `iters` bisection midpoints
        assert len(seen) <= 2 + 4


class TestFindSaturationBaseProbe:
    def test_saturated_base_returns_zero(self, table_4x5):
        """A `lo` probe that already fails the acceptance floor must
        yield 0.0, not `lo` echoed back as capacity."""
        # lo far above capacity: the base probe itself is saturated.
        sat = find_saturation(table_4x5, uniform_random(20),
                              lo=0.8, hi=1.0, iters=2,
                              warmup=200, measure=500)
        assert sat == 0.0

    def test_normal_search_unaffected(self, table_4x5):
        sat = find_saturation(table_4x5, uniform_random(20),
                              lo=0.01, hi=1.0, iters=4,
                              warmup=200, measure=500)
        assert 0.05 < sat < 0.8
