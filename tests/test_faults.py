"""Fault-injection scenario matrix: schedules, re-routing, both engines.

Three layers, mirroring the contract in docs/ARCHITECTURE.md
("Robustness scenarios"):

* unit tests for the declarative schedule objects (canonical sorting,
  epoch expansion, serialization, the CLI parser, the centrality-based
  convenience constructors);
* a parametrized differential matrix — topology x fault schedule x
  traffic — asserting the fast engine reproduces the reference oracle's
  (``tests/network_oracle.py``) SimStats bit-exactly, ``lost_packets``
  included, wherever the fast path claims equivalence;
* property/invariant tests on the production fast engine, where
  bit-exactness is not the claim: survivor tables route exactly the
  live same-component pairs over live fabric with acyclic per-VC CDGs
  (randomized schedules, many seeds), packets are conserved across
  fault epochs, and delivered fraction is monotone non-increasing as
  nested dead-link sets grow.
"""

import pytest

from network_oracle import NetworkSimulator
from repro.experiments.registry import NDBT, routed_table
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    FaultTimeline,
    central_link_faults,
    central_router_fault,
    parse_faults,
    survivor_table,
)
from repro.routing import build_cdg, is_acyclic
from repro.sim import (
    BurstSpec,
    CompiledNetwork,
    FastNetworkSimulator,
    hotspot,
    resolve_engine,
    uniform_random,
)
from repro.topology import expert_topology


def _table(name, n):
    return routed_table(expert_topology(name, n), NDBT)


def _duplex_pairs(topo):
    return sorted({
        (min(u, v), max(u, v))
        for (u, v) in topo.directed_links
        if topo.has_link(v, u)
    })


# ---------------------------------------------------------------------------
# Schedule objects
# ---------------------------------------------------------------------------

class TestFaultSchedule:
    def test_events_sort_canonically(self):
        a = FaultEvent(300, "link_down", (1, 2))
        b = FaultEvent(100, "router_down", (4,))
        sched = FaultSchedule.of([a, b])
        assert sched.events == (b, a)
        assert sched.key() == ((100, "router_down", (4,)), (300, "link_down", (1, 2)))

    def test_bad_kind_and_targets_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0, "meteor", (1,))
        with pytest.raises(ValueError, match="cycle"):
            FaultEvent(-1, "router_down", (1,))
        with pytest.raises(ValueError, match="target"):
            FaultEvent(0, "link_down", (1,))
        with pytest.raises(ValueError, match="target"):
            FaultEvent(0, "router_down", (1, 2))
        assert set(FAULT_KINDS) == {
            "link_down", "link_up", "router_down", "router_up"
        }

    def test_states_accumulate_and_recover(self):
        sched = FaultSchedule.of([
            FaultEvent(100, "link_down", (0, 1)),
            FaultEvent(100, "link_down", (1, 0)),
            FaultEvent(250, "router_down", (5,)),
            FaultEvent(400, "link_up", (0, 1)),
            FaultEvent(400, "link_up", (1, 0)),
        ])
        states = sched.states()
        assert [s[0] for s in states] == [0, 100, 250, 400]
        assert states[0] == (0, frozenset(), frozenset())
        assert states[1][1] == {(0, 1), (1, 0)}
        assert states[2] == (250, frozenset({(0, 1), (1, 0)}), frozenset({5}))
        assert states[3][1] == frozenset()
        assert states[3][2] == frozenset({5})

    def test_empty_schedule_state(self):
        sched = FaultSchedule()
        assert sched.is_empty
        assert sched.states() == [(0, frozenset(), frozenset())]

    def test_roundtrip_dict(self):
        sched = FaultSchedule.link_outage([(2, 7)], down_cycle=50, up_cycle=90)
        again = FaultSchedule.from_dict(sched.as_dict())
        assert again == sched
        assert again.key() == sched.key()

    def test_validate_against_topology(self):
        topo = expert_topology("Mesh", 16)
        central_link_faults(topo, 1).validate(topo)
        with pytest.raises(ValueError, match="absent"):
            FaultSchedule.link_outage([(0, 15)]).validate(topo)
        with pytest.raises(ValueError, match="out of range"):
            FaultSchedule.router_outage([99]).validate(topo)


class TestParseFaults:
    def test_link_events_expand_duplex(self):
        sched = parse_faults("500:link_down:2-7,1500:link_up:2-7")
        kinds = [(e.cycle, e.kind, e.target) for e in sched.events]
        assert (500, "link_down", (2, 7)) in kinds
        assert (500, "link_down", (7, 2)) in kinds
        assert (1500, "link_up", (2, 7)) in kinds
        assert len(sched.events) == 4

    def test_router_events(self):
        sched = parse_faults("800:router_down:4")
        assert sched.events == (FaultEvent(800, "router_down", (4,)),)

    @pytest.mark.parametrize("bad", ["oops", "10:link_down:3", "x:router_down:1"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed fault event"):
            parse_faults(bad)


class TestCentralFaults:
    def test_central_links_are_duplex_and_deterministic(self):
        topo = expert_topology("Mesh", 20)
        sched = central_link_faults(topo, 2, cycle=30)
        assert sched == central_link_faults(topo, 2, cycle=30)
        dead = sched.states()[-1][1]
        assert len(dead) == 4  # 2 full-duplex links
        for (u, v) in dead:
            assert (v, u) in dead
            assert topo.has_link(u, v)

    def test_central_router_is_max_degree(self):
        topo = expert_topology("Mesh", 20)
        (r,) = central_router_fault(topo).states()[-1][2]
        deg = topo.out_degree() + topo.in_degree()
        assert deg[r] == max(deg)


# ---------------------------------------------------------------------------
# Differential scenario matrix: reference == fast, bit for bit
# ---------------------------------------------------------------------------

def _schedules(topo):
    """The named fault scenarios of the differential matrix."""
    pair = _duplex_pairs(topo)[0]
    return {
        "empty": FaultSchedule(),
        "link-down": central_link_faults(topo, 1, cycle=150),
        "link-down-up": FaultSchedule.link_outage(
            [pair], down_cycle=100, up_cycle=250
        ),
        "router-down": central_router_fault(topo, cycle=150),
        "two-links": central_link_faults(topo, 2, cycle=120),
    }


def _traffics(topo):
    return {
        "uniform": uniform_random(topo.n),
        "hotspot": hotspot(topo.n, [1, topo.n - 2], 0.6),
        "mmpp": uniform_random(topo.n).with_burst(
            BurstSpec(kind="mmpp", p_on=0.15, p_off=0.25, seed=3)
        ),
    }


@pytest.mark.parametrize("topo_name,n", [("Mesh", 16), ("FoldedTorus", 20)])
@pytest.mark.parametrize(
    "sched_key", ["empty", "link-down", "link-down-up", "router-down", "two-links"]
)
@pytest.mark.parametrize("traffic_key", ["uniform", "hotspot", "mmpp"])
def test_engines_agree_bit_exactly(topo_name, n, sched_key, traffic_key):
    table = _table(topo_name, n)
    topo = table.topology
    sched = _schedules(topo)[sched_key]
    pat = _traffics(topo)[traffic_key]
    ref = NetworkSimulator(table, pat, 0.05, seed=7, faults=sched)
    fast = FastNetworkSimulator(
        table, pat, 0.05, seed=7,
        compiled=CompiledNetwork.for_table(table), faults=sched,
    )
    assert fast.run(100, 300) == ref.run(100, 300)


def test_empty_schedule_identical_to_no_faults():
    table = _table("Mesh", 16)
    pat = uniform_random(16)
    compiled = CompiledNetwork.for_table(table)
    for cls, kw in (
        (NetworkSimulator, {}),
        (FastNetworkSimulator, {"compiled": compiled}),
    ):
        plain = cls(table, pat, 0.08, seed=2, **kw).run(150, 400)
        empty = cls(table, pat, 0.08, seed=2, faults=FaultSchedule(), **kw).run(150, 400)
        assert empty == plain
        assert empty.lost_packets == 0


def test_small_trace_chunks_cross_fault_epochs():
    """Epoch swaps interact with every chunk boundary, not just cycle 0."""
    table = _table("Mesh", 16)
    topo = table.topology
    sched = _schedules(topo)["link-down-up"]
    pat = uniform_random(16)
    ref = NetworkSimulator(table, pat, 0.06, seed=5, faults=sched).run(80, 320)

    class TinyChunks(FastNetworkSimulator):
        trace_chunk_cycles = 17

    fast = TinyChunks(
        table, pat, 0.06, seed=5,
        compiled=CompiledNetwork.for_table(table), faults=sched,
    ).run(80, 320)
    assert fast == ref


def test_closed_loop_hooks_without_retry_rejected():
    """Installing closed-loop generation hooks on the open-loop fast
    engine under a fault schedule is a documented ValueError: an epoch
    swap would strand in-flight request transactions.  The supported
    path is a closed-loop simulator with a RetryPolicy."""
    table = _table("Mesh", 16)
    sched = central_link_faults(table.topology, 1)
    sim = FastNetworkSimulator(
        table, uniform_random(16), 0.05, seed=0,
        compiled=CompiledNetwork.for_table(table), faults=sched,
    )
    sim._closed_gen = lambda *a: a  # simulate closed-loop mode
    with pytest.raises(ValueError, match="closed-loop"):
        sim.run(10, 10)


# ---------------------------------------------------------------------------
# Invariants: conservation, survivor tables, monotonicity
# ---------------------------------------------------------------------------

#: The production open-loop engines that take fault schedules (turbo
#: rejects them): the invariants below must hold on each.
FAULT_ENGINES = ["fast"]


@pytest.mark.parametrize("engine", FAULT_ENGINES)
@pytest.mark.parametrize("sched_key", ["link-down", "router-down", "two-links"])
def test_packet_conservation_across_epochs(engine, sched_key):
    """With measurement from cycle 0, every offered packet is ejected,
    lost to a fault, or still in flight — none created or destroyed."""
    table = _table("Mesh", 16)
    sched = _schedules(table.topology)[sched_key]
    pat = uniform_random(16)
    sim = resolve_engine(engine)(table, pat, 0.08, seed=11, faults=sched)
    stats = sim.run(0, 400)
    if sched_key == "router-down":
        # generation attempts at the dead router are offered-and-lost, so
        # this scenario always exercises the lost counter; link outages
        # only lose packets caught in transit at the swap.
        assert stats.lost_packets > 0
    assert stats.offered_packets == (
        stats.ejected_packets + stats.lost_packets + sim.in_flight
    )


def _random_schedule(topo, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    pairs = _duplex_pairs(topo)
    events = []
    for _ in range(int(rng.integers(1, 4))):
        cycle = int(rng.integers(0, 500))
        if rng.random() < 0.7:
            u, v = pairs[int(rng.integers(len(pairs)))]
            events.append(FaultEvent(cycle, "link_down", (u, v)))
            events.append(FaultEvent(cycle, "link_down", (v, u)))
            if rng.random() < 0.5:
                up = cycle + int(rng.integers(50, 300))
                events.append(FaultEvent(up, "link_up", (u, v)))
                events.append(FaultEvent(up, "link_up", (v, u)))
        else:
            r = int(rng.integers(topo.n))
            events.append(FaultEvent(cycle, "router_down", (r,)))
    return FaultSchedule.of(events)


def _live_reachable_pairs(topo, dead_links, dead_routers):
    """Ordered (s, d) pairs connected over the live directed fabric."""
    live = [r for r in range(topo.n) if r not in dead_routers]
    adj = {r: [] for r in live}
    for (u, v) in topo.directed_links:
        if u in adj and v in adj and (u, v) not in dead_links:
            adj[u].append(v)
    pairs = set()
    for s in live:
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        pairs.update((s, d) for d in seen if d != s)
    return pairs


@pytest.mark.parametrize("topo_name,n", [("Mesh", 16), ("FoldedTorus", 20)])
@pytest.mark.parametrize("seed", range(6))
def test_survivor_tables_route_live_pairs_deadlock_free(topo_name, n, seed):
    """Every epoch of a random schedule: flows == the live reachable
    pairs, every route uses only live fabric, per-VC CDGs are acyclic."""
    table = _table(topo_name, n)
    topo = table.topology
    sched = _random_schedule(topo, seed)
    timeline = FaultTimeline.for_table(table, sched)
    assert [e.start for e in timeline.epochs] == [s[0] for s in sched.states()]
    for epoch, (_, dead_links, dead_routers) in zip(
        timeline.epochs, sched.states()
    ):
        t = epoch.table
        assert set(t.flow_vc) == _live_reachable_pairs(
            topo, dead_links, dead_routers
        )
        per_vc = {}
        for (s, d) in t.flow_vc:
            path = t.route_of(s, d)
            for k in range(len(path) - 1):
                u, v = path[k], path[k + 1]
                assert topo.has_link(u, v)
                assert (u, v) not in dead_links, (s, d, path)
            assert not set(path) & dead_routers, (s, d, path)
            per_vc.setdefault(t.flow_vc[(s, d)], []).append(path)
        for vc, paths in per_vc.items():
            assert is_acyclic(build_cdg(paths)), f"cyclic CDG in VC {vc}"
        # constant VC space across the timeline (the engines swap tables
        # without resizing buffers)
        assert t.num_vcs == timeline.epochs[0].table.num_vcs


def test_survivor_table_of_disconnected_fabric_is_empty():
    topo = expert_topology("Mesh", 16)
    table = _table("Mesh", 16)
    # kill every link of router 0: it stays alive but unreachable
    dead = {(u, v) for (u, v) in topo.directed_links if 0 in (u, v)}
    st = survivor_table(table, frozenset(dead), frozenset())
    assert all(0 not in pair for pair in st.flow_vc)
    assert _live_reachable_pairs(topo, dead, frozenset()) == set(st.flow_vc)


@pytest.mark.parametrize("engine", FAULT_ENGINES)
def test_delivered_fraction_monotone_in_dead_links(engine):
    """Nested dead-link sets: killing strictly more links never delivers
    a larger fraction of the offered load.

    The nested sets progressively sever every link of the most-central
    router, so the last set guarantees structural loss (its flows become
    unroutable), and the rate sits well below saturation so delivery is
    governed by reachability, not queueing dynamics — above the knee the
    claim is simply false (rerouting around a cut can *relieve* a
    congested hot link).
    """
    table = _table("Mesh", 16)
    topo = table.topology
    deg = topo.out_degree() + topo.in_degree()
    victim = int(min(range(topo.n), key=lambda i: (-int(deg[i]), i)))
    links = sorted(p for p in _duplex_pairs(topo) if victim in p)
    pat = uniform_random(16)
    fractions = []
    for k in range(len(links) + 1):
        sched = (
            FaultSchedule.link_outage(links[:k], down_cycle=0)
            if k else FaultSchedule()
        )
        sim = resolve_engine(engine)(table, pat, 0.05, seed=3, faults=sched)
        fractions.append(sim.run(0, 500).delivered_fraction)
    assert fractions[-1] < 0.95  # the fully-severed set visibly loses
    for lo, hi in zip(fractions[1:], fractions):
        assert lo <= hi + 0.02, fractions


def test_robustness_grid_refused_on_turbo_runner():
    """Every degraded leg needs fault support: a turbo runner refuses
    the grid's saturation batch before any search runs, instead of
    retrying and quarantining each faulted one."""
    from repro.experiments.robustness import robustness_grid
    from repro.runner import EngineError, Runner

    with Runner(parallel=1, no_cache=True, engine="turbo") as runner:
        with pytest.raises(EngineError, match="turbo engine does not support"):
            robustness_grid(topologies=("Mesh",), runner=runner)
        health = runner.health
    assert health.tasks <= 1  # the Mesh routing task, unless memoized
    assert health.retries == 0 and health.quarantined == 0


def test_artifacts_survive_a_doc_that_fails_to_encode(tmp_path):
    """A rewrite whose doc cannot be encoded leaves every previous
    artifact (``ranking.json`` included) byte for byte and no temp file
    behind: each file is encoded before it is touched, then replaced."""
    from repro.experiments.robustness import (
        RobustnessResult,
        ScenarioCell,
        _write_artifacts,
    )

    def result(lost):
        cell = ScenarioCell("Mesh", "link", "uniform", 0.3, 0.2, 0.1, 0.9,
                            lost, 100)
        return RobustnessResult(cells=[cell], config={"seed": 0})

    _write_artifacts(str(tmp_path), result(1))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "ranking.json" in before
    with pytest.raises(TypeError):
        _write_artifacts(str(tmp_path), result(object()))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
