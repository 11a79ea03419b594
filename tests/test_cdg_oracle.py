"""A/B tests: the integer CDG against the networkx oracle.

VC assignment draws a random edge of the cycle the CDG search reports,
so the incremental CDG must report exactly networkx's cycle for every
table to stay identical (cached tables and benchmark references depend
on it).  The oracle is the replaced networkx code, kept in
``tests/cdg_oracle.py``.
"""

import hashlib
import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdg_oracle
from repro.core.mclb import mclb_route
from repro.experiments.registry import MCLB, NDBT, RANDOM_SP, roster, routed_table
from repro.faults import FaultTimeline, reroute
from repro.routing import (
    CDG,
    assign_vcs,
    build_cdg,
    find_cycle,
    is_acyclic,
    ndbt_route,
    single_shortest_paths,
    validate_assignment,
)
from repro.routing.vc_alloc import VCAssignment
from repro.topology import Topology, expert_topology
from repro.topology.expert import EXPERT_FAMILIES
from test_faults import _random_schedule


def _routes(topo, policy, seed):
    # Rebuilt from sorted links, as the routing task does.
    topo = Topology(topo.layout, sorted(topo.directed_links))
    if policy == NDBT:
        return ndbt_route(topo, seed=seed)
    if policy == MCLB:
        return mclb_route(topo, time_limit=60.0).routes
    return single_shortest_paths(topo, seed=seed)


def _assert_same(vca: VCAssignment, ref: VCAssignment, label: str) -> None:
    assert vca.num_vcs == ref.num_vcs, label
    assert vca.assignment == ref.assignment, label
    assert vca.layers == ref.layers, label


def _ab(routes, label, max_vcs=8, seed=0):
    vca = assign_vcs(routes, max_vcs=max_vcs, seed=seed)
    _assert_same(vca, cdg_oracle.assign_vcs(routes, max_vcs=max_vcs, seed=seed), label)
    validate_assignment(routes, vca)


@pytest.mark.parametrize("link_class", ["small", "medium", "large"])
def test_fig6_tables_match_oracle(link_class):
    """The Fig. 6 roster's tables at 20 routers, routing seed 0."""
    entries = roster(link_class, 20, allow_generate=False)
    assert entries
    for entry in entries:
        _ab(_routes(entry.topology, entry.policy, 0), entry.topology.name)


@pytest.mark.parametrize("name", sorted(EXPERT_FAMILIES))
def test_ndbt_expert_families_match_oracle(name):
    _ab(_routes(expert_topology(name, 20), NDBT, 1), name, seed=1)


@pytest.mark.parametrize("name", ["Mesh", "FoldedTorus", "Kite-Small"])
def test_random_shortest_paths_match_oracle(name):
    _ab(_routes(expert_topology(name, 20), RANDOM_SP, 0), name)


@pytest.mark.parametrize("topo_name,n", [("Mesh", 16), ("FoldedTorus", 20)])
@pytest.mark.parametrize("seed", range(2))
def test_fault_epochs_match_oracle(monkeypatch, topo_name, n, seed):
    """Every survivor table of ``test_faults``' random schedules."""
    calls, refs = [], {}

    def checked(routes, max_vcs=8, seed=0, attempts=3):
        vca = assign_vcs(routes, max_vcs=max_vcs, seed=seed, attempts=attempts)
        # A repaired link can bring back an earlier epoch's routes; the
        # oracle is deterministic, so its answer is reused.
        key = (repr(sorted(routes.paths.items())), max_vcs, seed, attempts)
        if key not in refs:
            refs[key] = cdg_oracle.assign_vcs(
                routes, max_vcs=max_vcs, seed=seed, attempts=attempts
            )
        _assert_same(vca, refs[key], f"epoch {len(calls)}")
        calls.append(vca.num_vcs)
        return vca

    monkeypatch.setattr(reroute, "assign_vcs", checked)
    # A fresh table: the in-process memo's copy may already carry this
    # schedule's timeline, which would skip the re-routing under test.
    table = routed_table(expert_topology(topo_name, n), NDBT, use_cache=False)
    sched = _random_schedule(table.topology, seed)
    timeline = FaultTimeline.for_table(table, sched)
    faulted = [e for e in timeline.epochs if e.dead_links or e.dead_routers]
    assert len(calls) == len(faulted) > 0


def _digest(vca: VCAssignment) -> str:
    doc = {
        "num_vcs": vca.num_vcs,
        "assignment": sorted([list(sd), vc] for sd, vc in vca.assignment.items()),
        "layers": [[list(p) for p in layer] for layer in vca.layers],
    }
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


#: ``_digest`` of ``cdg_oracle.assign_vcs`` at 48 routers (NDBT, seed 0,
#: ``max_vcs=14``); the oracle needs ~40 s for the two, so it is pinned.
GOLDEN_48 = {
    "FoldedTorus": (13, "4d7e7b6af22dfd08bd5078edc4cb2043c1e8c193f7d9db86f05777e2d2bfdb72"),
    "Kite-Medium": (8, "c64b92640deb2f542c5f45f978f3ff943aecf6df05ee34f1ef8f7d736b623870"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_48))
def test_48_router_assignments_match_oracle_digest(name):
    routes = ndbt_route(expert_topology(name, 48), seed=0)
    vca = assign_vcs(routes, max_vcs=14, seed=0)
    assert (vca.num_vcs, _digest(vca)) == GOLDEN_48[name]


# ---------------------------------------------------------------------------
# Properties on random route sets
# ---------------------------------------------------------------------------

NODES = 4  # few channels, so routes share dependencies


@st.composite
def walks(draw):
    """A route: 2-6 nodes, consecutive ones distinct (revisits allowed)."""
    first = draw(st.integers(0, NODES - 1))
    walk = [first]
    for _ in range(draw(st.integers(1, 5))):
        step = draw(st.integers(1, NODES - 1))
        walk.append((walk[-1] + step) % NODES)
    return tuple(walk)


ROUTE_SETS = st.lists(walks(), min_size=1, max_size=16)
PROPS = dict(max_examples=50, deadline=None)


@settings(**PROPS)
@given(paths=ROUTE_SETS)
def test_find_cycle_replays_networkx(paths):
    """Searches between additions report networkx's cycle, or None
    exactly when the graph is acyclic."""
    g = CDG()
    for k, p in enumerate(paths):
        g.add(p)
        ref = cdg_oracle.build_cdg(paths[:k + 1])
        assert find_cycle(g) == cdg_oracle.find_cycle(ref)
    assert is_acyclic(g) == nx.is_directed_acyclic_graph(ref)
    assert find_cycle(build_cdg(paths)) == find_cycle(g)
    assert all(g.has_edge(a, b) for a, b in ref.edges)


@settings(**PROPS)
@given(paths=ROUTE_SETS, picks=st.lists(st.integers(0, 10**6), max_size=20))
def test_eviction_replays_networkx_on_survivors(paths, picks):
    """Evicting the routes on drawn cycle edges, as VC assignment does:
    each search equals networkx's on a graph rebuilt from the survivors."""
    g = CDG(paths)
    live = list(range(len(paths)))
    for pick in picks + [0] * len(paths):
        cycle = g.find_cycle()
        ref = cdg_oracle.build_cdg([paths[k] for k in live])
        assert cycle == cdg_oracle.find_cycle(ref)
        if cycle is None:
            break
        dep = cycle[pick % len(cycle)]
        inducing = set(ref[dep[0]][dep[1]]["paths"])
        evicted = g.evict(dep)
        assert evicted == [k for k in live if paths[k] in inducing]
        live = [k for k in live if k not in evicted]
    assert g.find_cycle() is None


@settings(**PROPS)
@given(paths=ROUTE_SETS, drops=st.lists(st.integers(0, 10**6), max_size=8))
def test_closes_cycle_agrees_with_networkx(paths, drops):
    """Greedy acyclic packing with removals, as layer balancing does."""
    g, slots, kept = CDG(), [], []
    for k, p in enumerate(paths):
        closes = not nx.is_directed_acyclic_graph(cdg_oracle.build_cdg(kept + [p]))
        assert g.closes_cycle(p) == closes
        if not closes:
            slots.append(g.add(p))
            kept.append(p)
        if k < len(drops) and kept:
            j = drops[k] % len(kept)
            g.remove(slots.pop(j))
            kept.pop(j)
    assert is_acyclic(g)
