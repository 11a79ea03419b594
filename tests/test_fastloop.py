"""Differential suite: fast closed-loop engine vs the reference oracle.

The fast engine's contract is *bit-identical* closed-loop behaviour
with ``tests/closedloop_oracle.py``: same RNG draw order
(demand/memory-fraction/destination draws replayed from raw PCG64
words), same reply scheduling, same
:class:`~repro.fullsys.closedloop.ClosedLoopStats` — across topologies,
PARSEC workloads, seeds, every :class:`~repro.sim.traffic.DestSpec`
kind, and through :func:`~repro.fullsys.speedup.run_workload` with the
oracle substituted for the production engine.
"""

import gc
import math
import weakref

import pytest

from closedloop_oracle import ClosedLoopSimulator, run_on_oracle
from repro.fullsys import FastClosedLoopSimulator, validate_closed_loop, workload
from repro.fullsys import fastloop
from repro.fullsys.speedup import demand_rate_for, run_workload
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.sim import uniform_random
from repro.sim.traffic import hotspot, memory_traffic, shuffle_pattern
from repro.topology import LAYOUT_4X5, Layout, Topology, folded_torus, mesh

#: Workloads spanning the MPKI (demand-rate / MLP) range.
WORKLOAD_NAMES = ("blackscholes", "x264", "streamcluster", "canneal")

BUDGET = dict(warmup=120, measure=350)


def _table(topo):
    routes = ndbt_route(topo, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


@pytest.fixture(scope="module")
def tables():
    small = Topology.from_undirected(
        Layout(rows=2, cols=3),
        [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)],
        name="mesh2x3",
        link_class="small",
    )
    return {
        "Mesh": _table(mesh(LAYOUT_4X5)),
        "FoldedTorus": _table(folded_torus(LAYOUT_4X5)),
        "mesh2x3": _table(small),
    }


def _pair(table, traffic_fn, seed, **kw):
    """Run both engines on identical inputs; return (ref, fast)."""
    ref = ClosedLoopSimulator(table, traffic_fn(), seed=seed, **kw)
    fast = FastClosedLoopSimulator(table, traffic_fn(), seed=seed, **kw)
    assert not isinstance(ref, FastClosedLoopSimulator)  # a real oracle
    sref = ref.run_closed_loop(**BUDGET)
    sfast = fast.run_closed_loop(**BUDGET)
    return (ref, sref), (fast, sfast)


class TestDifferential:
    @pytest.mark.parametrize("topo_name", ["Mesh", "FoldedTorus", "mesh2x3"])
    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_parsec_workloads(self, tables, topo_name, workload_name, seed):
        table = tables[topo_name]
        w = workload(workload_name)
        n = table.topology.n
        kw = dict(
            demand_rate=demand_rate_for(w),
            mlp_per_node=int(round(w.mlp * 3.2)),
            memory_fraction=w.memory_fraction,
        )
        (ref, sref), (fast, sfast) = _pair(
            table, lambda: uniform_random(n), seed, **kw
        )
        assert sref == sfast
        assert ref.outstanding == fast.outstanding
        assert ref.cycle == fast.cycle
        assert sorted(ref.pending_replies) == sorted(fast.pending_replies)
        # in-flight accounting agrees and stays meaningful (each live
        # packet counted once; completed transactions fully retired)
        assert ref.in_flight == fast.in_flight >= 0

    @pytest.mark.parametrize("demand,memf,mlp", [
        (0.05, 0.5, 8),
        (0.3, 0.7, 10),   # MLP-saturated
        (0.45, 0.0, 6),   # no memory traffic (memf draw still consumed)
        (0.2, 1.0, 4),    # all-memory traffic
    ])
    def test_operating_points(self, tables, demand, memf, mlp):
        table = tables["FoldedTorus"]
        (ref, sref), (fast, sfast) = _pair(
            table, lambda: uniform_random(20), 0,
            demand_rate=demand, memory_fraction=memf, mlp_per_node=mlp,
        )
        assert sref == sfast
        assert ref.outstanding == fast.outstanding

    @pytest.mark.parametrize("pattern_fn", [
        lambda n, layout: uniform_random(n),
        lambda n, layout: memory_traffic(layout),
        lambda n, layout: shuffle_pattern(n),
        lambda n, layout: hotspot(n, [0, 7, 12], 0.6),
    ], ids=["uniform", "memory", "shuffle", "hotspot"])
    def test_traffic_patterns(self, tables, pattern_fn):
        """Every DestSpec kind (uniform/memory/table/hotspot) goes
        through the raw-word destination emulation."""
        table = tables["Mesh"]
        layout = table.topology.layout
        (ref, sref), (fast, sfast) = _pair(
            table, lambda: pattern_fn(20, layout), 3,
            demand_rate=0.15, memory_fraction=0.4, mlp_per_node=6,
        )
        assert sref == sfast
        assert ref.outstanding == fast.outstanding

    def test_explicit_mc_routers(self, tables):
        table = tables["Mesh"]
        mcs = [2, 9, 17]
        (ref, sref), (fast, sfast) = _pair(
            table, lambda: uniform_random(20), 1,
            demand_rate=0.25, memory_fraction=0.8, mlp_per_node=5,
            mc_routers=mcs,
        )
        assert sref == sfast
        assert ref.mc_routers == fast.mc_routers == mcs

    def test_stats_are_meaningful(self, tables):
        """Guard against vacuous equality: the runs actually complete
        requests and measure finite round trips."""
        (_, sref), (_, sfast) = _pair(
            tables["FoldedTorus"], lambda: uniform_random(20), 0,
            demand_rate=0.1, memory_fraction=0.5, mlp_per_node=8,
        )
        assert sref.completed_requests > 50
        assert math.isfinite(sref.avg_round_trip_cycles)
        assert sref.rtt_sum == sfast.rtt_sum > 0


def _parsec_kw(name):
    w = workload(name)
    return dict(
        demand_rate=demand_rate_for(w),
        mlp_per_node=int(round(w.mlp * 3.2)),
        memory_fraction=w.memory_fraction,
    )


class TestDemandSchedule:
    """The hook runs only on cycles where it can act and walks only the
    winning routers; these pin the paths the PARSEC matrix above rarely
    reaches: refills inside a win's own draws, a demand rate changed
    between spans, and the call count itself."""

    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("workload_name", ["blackscholes", "canneal"])
    def test_small_word_chunks(self, tables, monkeypatch, chunk,
                               workload_name):
        """Tiny chunks put refills mid-cycle and between a win's demand
        word and its memory-fraction and Lemire draws."""
        monkeypatch.setattr(fastloop, "_WORD_CHUNK", chunk)
        (ref, sref), (fast, sfast) = _pair(
            tables["Mesh"], lambda: uniform_random(20), 0,
            **_parsec_kw(workload_name),
        )
        assert sref == sfast
        assert ref.outstanding == fast.outstanding
        assert sorted(ref.pending_replies) == sorted(fast.pending_replies)

    def test_demand_changed_between_spans(self, tables):
        """A new ``demand_rate`` re-indexes the chunk's wins; the cycles
        skipped before it still drew at the old rate."""
        kw = dict(demand_rate=0.03, mlp_per_node=8, memory_fraction=0.5,
                  seed=0)
        ref = ClosedLoopSimulator(tables["Mesh"], uniform_random(20), **kw)
        fast = FastClosedLoopSimulator(
            tables["Mesh"], uniform_random(20), **kw
        )
        for demand in (0.03, 0.3, 0.0, 0.05):
            ref.demand_rate = fast.demand_rate = demand
            ref._run_span(150)
            fast._run_span(150)
            assert ref.issued == fast.issued
            assert ref.completed_total == fast.completed_total
            assert ref.outstanding == fast.outstanding
        assert fast.issued > 0

    def test_hook_skips_cycles_it_cannot_act_on(self, tables, monkeypatch):
        """Low demand (blackscholes) leaves most cycles with no winning
        draw, no maturing reply and no retry work: the fused loop must
        not call the hook on them."""
        calls = []
        gen = FastClosedLoopSimulator._closed_gen

        def counting(self, cycle, *acc):
            calls.append(cycle)
            return gen(self, cycle, *acc)

        monkeypatch.setattr(FastClosedLoopSimulator, "_closed_gen", counting)
        sim = FastClosedLoopSimulator(
            tables["Mesh"], uniform_random(20), seed=0,
            **_parsec_kw("blackscholes"),
        )
        stats = sim.run_closed_loop(**BUDGET)
        cycles = BUDGET["warmup"] + BUDGET["measure"]
        assert sim.cycle == cycles
        assert stats.completed_requests > 0
        assert len(set(calls)) == len(calls)
        assert 0 < len(calls) < cycles / 4


@pytest.mark.parametrize("traffic_fn", [
    lambda: uniform_random(20),
], ids=["dest_spec"])
def test_finished_simulator_freed_without_cyclic_gc(tables, traffic_fn):
    """The engine hooks are bound on access, not stored on the instance,
    so reference counting alone frees a finished simulator."""
    gc.collect()
    gc.disable()
    try:
        sim = FastClosedLoopSimulator(
            tables["Mesh"], traffic_fn(), demand_rate=0.2, seed=0,
        )
        sim.run_closed_loop(warmup=50, measure=100)
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


class TestRunWorkloadEngine:
    def test_engine_parity_and_default(self, tables, monkeypatch):
        """``run_workload`` on the substituted oracle equals the
        production run (``run_on_oracle`` asserts the oracle ran)."""
        table = tables["FoldedTorus"]
        w = workload("streamcluster")
        kw = dict(warmup=150, measure=400)
        ref = run_on_oracle(monkeypatch, run_workload, table, w, **kw)
        assert ref == run_workload(table, w, **kw)


class TestValidation:
    @pytest.mark.parametrize("engine_cls", [
        ClosedLoopSimulator, FastClosedLoopSimulator,
    ])
    def test_bad_demand_rate(self, tables, engine_cls):
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="demand_rate"):
                engine_cls(
                    tables["Mesh"], uniform_random(20), demand_rate=bad
                )

    @pytest.mark.parametrize("engine_cls", [
        ClosedLoopSimulator, FastClosedLoopSimulator,
    ])
    def test_empty_mc_routers(self, tables, engine_cls):
        with pytest.raises(ValueError, match="mc_routers is empty"):
            engine_cls(
                tables["Mesh"], uniform_random(20), demand_rate=0.1,
                mc_routers=[],
            )

    @pytest.mark.parametrize("engine_cls", [
        ClosedLoopSimulator, FastClosedLoopSimulator,
    ])
    def test_single_mc_router_cannot_serve_itself(self, tables, engine_cls):
        """The pre-fix crash: router 5 drawing a memory target from
        ``[m for m in [5] if m != 5]`` == []."""
        with pytest.raises(ValueError, match="no memory target"):
            engine_cls(
                tables["Mesh"], uniform_random(20), demand_rate=0.1,
                mc_routers=[5], memory_fraction=0.5,
            )

    def test_single_mc_ok_without_memory_traffic(self, tables):
        """memory_fraction=0 never draws a memory target, so a single
        MC is harmless — and both engines still agree."""
        (ref, sref), (fast, sfast) = _pair(
            tables["Mesh"], lambda: uniform_random(20), 0,
            demand_rate=0.2, memory_fraction=0.0, mlp_per_node=6,
            mc_routers=[5],
        )
        assert sref == sfast

    @pytest.mark.parametrize("engine_cls", [
        ClosedLoopSimulator, FastClosedLoopSimulator,
    ])
    def test_mc_router_out_of_range(self, tables, engine_cls):
        with pytest.raises(ValueError, match="outside"):
            engine_cls(
                tables["Mesh"], uniform_random(20), demand_rate=0.1,
                mc_routers=[3, 99],
            )

    def test_validate_helper_direct(self):
        validate_closed_loop(20, 0.3, 0.5, [0, 19], 8)
        with pytest.raises(ValueError, match="memory_fraction"):
            validate_closed_loop(20, 0.3, 1.2, [0, 19], 8)
        with pytest.raises(ValueError, match="mlp_per_node"):
            validate_closed_loop(20, 0.3, 0.5, [0, 19], 0)


class TestClosedLoopBehaviour:
    """The reference suite's behavioural properties hold on the fast
    engine too (it is the default under ``run_workload``)."""

    def test_outstanding_bounded(self, tables):
        sim = FastClosedLoopSimulator(
            tables["FoldedTorus"], uniform_random(20),
            demand_rate=0.5, mlp_per_node=3, seed=0,
        )
        for _ in range(60):
            for _ in range(10):
                sim.step()
            assert all(o <= 3 for o in sim.outstanding)

    def test_rtt_exceeds_one_way(self, tables):
        sim = FastClosedLoopSimulator(
            tables["FoldedTorus"], uniform_random(20),
            demand_rate=0.03, mlp_per_node=4, seed=0,
        )
        stats = sim.run_closed_loop(warmup=400, measure=1200)
        assert stats.avg_round_trip_cycles > 30
