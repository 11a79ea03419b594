"""Design-space pipeline: differential identity, portfolio, caching,
annealing invariants, and layout generalization."""

import json
import os

import pytest

from repro.core import NetSmithConfig, anneal_topology, generate_latop
from repro.core.pregenerated import netsmith_topology
from repro.core.scop import generate_scop
from repro.pipeline import (
    DesignPoint,
    design_grid,
    explore,
    generate_point,
    generate_points,
    route_topologies,
)
from repro.runner import Runner
from repro.topology import Layout, parse_layout, standard_layout

SA_STEPS = 250  # enough to rewire meaningfully, cheap enough for CI


def links_of(topo):
    return sorted(topo.directed_links)


# ---------------------------------------------------------------------------
# differential: staged generation == direct calls
# ---------------------------------------------------------------------------

def test_pipeline_sa_bit_identical_to_direct_anneal():
    # The frozen 4x5 grid, exercised live (use_frozen off).
    point = DesignPoint(
        rows=4, cols=5, link_class="medium", objective="latency",
        strategy="sa", sa_steps=SA_STEPS, seed=5, use_frozen=False,
    )
    direct = anneal_topology(
        NetSmithConfig(layout=Layout(4, 5), link_class="medium"),
        objective="latency", steps=SA_STEPS, seed=5,
    )
    staged = generate_point(point)
    assert links_of(staged.topology) == links_of(direct.topology)
    assert staged.objective == direct.objective
    assert staged.status == "heuristic"


def test_pipeline_milp_bit_identical_to_direct_latop():
    point = DesignPoint(
        rows=3, cols=3, link_class="medium", objective="latency",
        strategy="milp", time_limit=30.0, diameter_bound=4, use_frozen=False,
    )
    direct = generate_latop(
        NetSmithConfig(layout=Layout(3, 3), link_class="medium", diameter_bound=4),
        time_limit=30.0,
    )
    staged = generate_point(point)
    assert links_of(staged.topology) == links_of(direct.topology)
    assert staged.objective == direct.objective


@pytest.mark.slow
def test_pipeline_scop_bit_identical_to_direct_scop():
    cfg = NetSmithConfig(layout=Layout(3, 3), link_class="small", diameter_bound=4)
    direct, _diag = generate_scop(cfg, time_limit=20.0, max_iterations=4)
    point = DesignPoint(
        rows=3, cols=3, link_class="small", objective="sparsest_cut",
        strategy="milp", time_limit=20.0, diameter_bound=4,
        max_iterations=4, use_frozen=False,
    )
    staged = generate_point(point)
    assert links_of(staged.topology) == links_of(direct.topology)


def test_pipeline_frozen_matches_registry_4x5():
    # The frozen 4x5 configurations are served verbatim through the
    # pipeline, identical to the direct netsmith_topology call.
    for cls in ("small", "medium", "large"):
        point = DesignPoint(
            rows=4, cols=5, link_class=cls, objective="latency",
            strategy="milp",
        )
        staged = generate_point(point)
        assert staged.status == "frozen"
        assert links_of(staged.topology) == links_of(
            netsmith_topology("latop", cls, 20)
        )


def test_netsmith_topology_falls_back_through_pipeline():
    # Unregistered configuration: the live fallback runs the pipeline's
    # generation stage (SA strategy keeps it cheap) on a generalized grid.
    topo = netsmith_topology("latop", "medium", 12, strategy="sa")
    assert topo.n == 12
    assert topo.name == "NS-LatOp-medium"
    topo.check(radix=4, link_class="medium")


# ---------------------------------------------------------------------------
# portfolio semantics
# ---------------------------------------------------------------------------

def test_portfolio_beats_or_matches_both_halves():
    # Default backend (HiGHS): SA and the exact solve run as
    # complementary strategies; best-wins merge takes the better.
    common = dict(
        rows=3, cols=3, link_class="medium", objective="latency",
        time_limit=30.0, diameter_bound=4, sa_steps=SA_STEPS, use_frozen=False,
    )
    sa = generate_point(DesignPoint(strategy="sa", **common))
    milp = generate_point(DesignPoint(strategy="milp", **common))
    merged = generate_point(DesignPoint(strategy="portfolio", **common))
    assert merged.objective <= min(sa.objective, milp.objective)
    # best-wins: the merged result is one of the two halves
    assert links_of(merged.topology) in (
        links_of(sa.topology), links_of(milp.topology),
    )


def test_portfolio_seeds_bnb_initial_incumbent(monkeypatch):
    # With the bnb backend, the warm-started exact half must run
    # solve_bnb with the SA objective as its initial incumbent (the
    # MIP-start hook), and the merge can never lose to the SA half.
    seen = {}
    import repro.milp.branch_and_bound as bnb

    orig = bnb.solve_bnb

    def spy(model, **kw):
        seen["initial_incumbent"] = kw.get("initial_incumbent")
        return orig(model, **kw)

    point = DesignPoint(
        rows=2, cols=3, link_class="medium", objective="latency",
        strategy="portfolio", backend="bnb", time_limit=10.0,
        diameter_bound=3, sa_steps=SA_STEPS, use_frozen=False,
    )
    sa = generate_point(DesignPoint(**{**point.as_dict(), "strategy": "sa"}))
    # Model.solve imports solve_bnb from the module at call time, so the
    # monkeypatch intercepts the portfolio's exact half.
    monkeypatch.setattr(bnb, "solve_bnb", spy)
    merged = generate_point(point)
    assert seen.get("initial_incumbent") == sa.objective
    assert merged.objective <= sa.objective


# ---------------------------------------------------------------------------
# caching / resumability
# ---------------------------------------------------------------------------

def test_generation_and_routing_tasks_cache(tmp_path):
    point = DesignPoint(
        rows=2, cols=3, link_class="medium", objective="latency",
        strategy="sa", sa_steps=100, use_frozen=False,
    )
    with Runner(parallel=1, cache_dir=str(tmp_path)) as first:
        gen1 = generate_points([point], runner=first)[0]
        t1 = route_topologies([gen1.topology], runner=first)[0]
        assert first.stats.misses == 2 and first.stats.puts == 2

    with Runner(parallel=1, cache_dir=str(tmp_path)) as second:
        gen2 = generate_points([point], runner=second)[0]
        t2 = route_topologies([gen2.topology], runner=second)[0]
        assert second.stats.misses == 0 and second.stats.hits == 2
    assert links_of(gen1.topology) == links_of(gen2.topology)
    assert t1.next_hop == t2.next_hop
    assert t1.flow_vc == t2.flow_vc


def test_explore_rerun_is_all_cache_hits(tmp_path):
    points = design_grid(
        ["2x3", "3x3"], link_classes=("small",), objectives=("latency",),
        strategies=("sa",), sa_steps=100, use_frozen=False,
    )
    art = str(tmp_path / "artifacts")
    kw = dict(out_dir=art, eval_warmup=60, eval_measure=200, eval_iters=3)
    with Runner(parallel=1, cache_dir=str(tmp_path / "cache")) as first:
        res1 = explore(points, runner=first, **kw)
        assert first.stats.misses > 0
    with Runner(parallel=1, cache_dir=str(tmp_path / "cache")) as second:
        res2 = explore(points, runner=second, **kw)
        assert second.stats.misses == 0 and second.stats.hits > 0

    assert [r.name for r in res1.ranked()] == [r.name for r in res2.ranked()]
    assert [r.saturation_ns for r in res1.rows] == [
        r.saturation_ns for r in res2.rows
    ]
    # artifacts: one JSON per point plus the per-config and latest rankings
    files = sorted(os.listdir(art))
    assert "ranking.json" in files and len(files) == len(points) + 2
    point_files = [f for f in files if not f.startswith("ranking")]
    doc = json.load(open(os.path.join(art, point_files[0])))
    assert {
        "point", "evaluation_config", "topology", "generation", "metrics"
    } <= set(doc)


def test_explore_artifacts_record_the_runner_engine(tmp_path):
    """A fast and a turbo sweep into one directory keep a ranking each,
    each recording the engine that ran it."""
    points = design_grid(
        ["2x3"], link_classes=("small",), objectives=("latency",),
        strategies=("sa",), sa_steps=100, use_frozen=False,
    )
    art = str(tmp_path / "artifacts")
    for engine in ("fast", "turbo"):
        with Runner(parallel=1, no_cache=True, engine=engine) as runner:
            explore(points, runner=runner, out_dir=art, eval_warmup=60,
                    eval_measure=200, eval_iters=3)
    rankings = [
        json.load(open(os.path.join(art, f)))
        for f in sorted(os.listdir(art)) if f.startswith("ranking-")
    ]
    assert sorted(
        doc["evaluation_config"]["engine"] for doc in rankings
    ) == ["fast", "turbo"]


def test_sa_shuffle_points_are_labeled_shufopt():
    point = DesignPoint(
        rows=2, cols=3, link_class="medium", objective="shuffle",
        strategy="sa", sa_steps=80, use_frozen=False,
    )
    result = generate_point(point)
    assert result.topology.name == "NS-SA-ShufOpt-medium"


def test_generation_key_ignores_fields_the_strategy_never_reads():
    from repro.runner import tasks as runner_tasks, task_key

    def key(p):
        return task_key("generation", runner_tasks.generation_payload(p))

    base = dict(
        rows=3, cols=3, link_class="small", objective="latency",
        sa_steps=200, use_frozen=False,
    )
    # SA units: exact-solve budget/backend are irrelevant
    assert key(DesignPoint(strategy="sa", time_limit=5.0, **base)) == key(
        DesignPoint(strategy="sa", time_limit=300.0, backend="bnb", **base)
    )
    # MILP units: sa_steps and the RNG seed are irrelevant
    m1 = DesignPoint(strategy="milp", seed=0, **base)
    m2 = DesignPoint(strategy="milp", seed=3, **{**base, "sa_steps": 999})
    assert key(m1) == key(m2)
    # ...but consumed fields still separate keys
    assert key(DesignPoint(strategy="sa", **base)) != key(
        DesignPoint(strategy="sa", **{**base, "sa_steps": 999})
    )


def test_routing_cache_shared_across_topology_names(tmp_path):
    from repro.topology import Topology

    layout = Layout(2, 3)
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    a = Topology.from_undirected(layout, edges, name="alpha", link_class="small")
    b = Topology.from_undirected(layout, edges, name="beta", link_class="small")
    with Runner(parallel=1, cache_dir=str(tmp_path)) as runner:
        # one batch: identical link sets dedupe to a single compilation
        ta, tb = route_topologies([a, b], policy="ndbt", runner=runner)
        assert runner.stats.puts == 1
        # a later call is a pure cache hit
        tc = route_topologies([a], policy="ndbt", runner=runner)[0]
        assert runner.stats.puts == 1 and runner.stats.hits == 1
    # ...while each table keeps its caller's identity
    assert ta.topology.name == "alpha" and tb.topology.name == "beta"
    assert tc.topology.name == "alpha"
    assert ta.next_hop == tb.next_hop


def test_record_progress_bnb_survives_unreachable_diameter_seed():
    from repro.core.progress import record_progress_bnb

    # diameter 1 is unreachable at radix 4 on 12 routers: the seeding
    # anneal fails, and the recording must fall back to unseeded.
    cfg = NetSmithConfig(layout=Layout(3, 4), link_class="medium", diameter_bound=1)
    curve = record_progress_bnb(cfg, time_limit=2.0, label="impossible")
    assert curve.label == "impossible"  # completed without raising


def test_generation_failure_surfaces_solver_error():
    # A hopeless budget: the MILP finds no incumbent, and the raised
    # error must carry the solver's message, not just "failed".
    point = DesignPoint(
        rows=4, cols=5, link_class="medium", objective="latency",
        strategy="milp", time_limit=0.01, use_frozen=False,
    )
    with pytest.raises(RuntimeError) as exc:
        generate_points([point])
    assert point.label() in str(exc.value)
    assert "RuntimeError" in str(exc.value) or "solve failed" in str(exc.value)


def test_explore_skips_infeasible_scop_points():
    points = design_grid(
        ["6x6"], objectives=("sparsest_cut",), strategies=("sa",),
        sa_steps=50, use_frozen=False,
    )
    res = explore(points, eval_warmup=40, eval_measure=100, eval_iters=2)
    assert res.rows == []
    assert len(res.skipped) == 1
    assert "sparsest-cut" in res.skipped[0][1]


# ---------------------------------------------------------------------------
# annealing invariants (property-style across seeds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_anneal_preserves_radix_and_strong_connectivity(seed):
    cfg = NetSmithConfig(layout=Layout(4, 5), link_class="medium", radix=4)
    result = anneal_topology(cfg, objective="latency", steps=150, seed=seed)
    topo = result.topology
    # check() raises on radix / link-class / connectivity violations
    topo.check(radix=4, link_class="medium")
    assert topo.is_connected()
    assert int(topo.out_degree().max()) <= 4
    assert int(topo.in_degree().max()) <= 4


@pytest.mark.parametrize("seed", (0, 1))
def test_anneal_symmetric_mode_keeps_radix(seed):
    cfg = NetSmithConfig(
        layout=Layout(3, 4), link_class="medium", radix=4, symmetric=True
    )
    result = anneal_topology(cfg, objective="latency", steps=120, seed=seed)
    result.topology.check(radix=4, link_class="medium")


def test_anneal_from_initial_preserves_invariants():
    cfg = NetSmithConfig(layout=Layout(3, 4), link_class="small", radix=4)
    first = anneal_topology(cfg, objective="latency", steps=80, seed=0)
    second = anneal_topology(
        cfg, objective="latency", steps=80, seed=1, initial=first.topology
    )
    second.topology.check(radix=4, link_class="small")


def test_anneal_honors_explicit_diameter_bound():
    # SA must not silently ship a bound-violating topology: the bound
    # enters the cost and the final result is checked.
    cfg = NetSmithConfig(
        layout=Layout(4, 5), link_class="medium", radix=4, diameter_bound=5
    )
    result = anneal_topology(cfg, objective="latency", steps=400, seed=0)
    d = result.topology.hop_matrix()
    assert float(d.max()) <= 5


def test_anneal_accepts_initial_with_out_of_class_links():
    # An initial topology generated under a longer link class carries
    # links outside the small class's valid set; the anneal must run
    # (moves can drop them), not crash indexing the candidate mask.
    layout = Layout(3, 4)
    large = anneal_topology(
        NetSmithConfig(layout=layout, link_class="large", radix=4),
        objective="latency", steps=60, seed=0,
    )
    cfg = NetSmithConfig(layout=layout, link_class="small", radix=4)
    try:
        result = anneal_topology(
            cfg, objective="latency", steps=200, seed=1, initial=large.topology
        )
    except ValueError as exc:
        # acceptable outcome: the final check names the surviving
        # out-of-class links, as the pre-incremental implementation did
        assert "exceeding class" in str(exc)
    else:
        result.topology.check(radix=4, link_class="small")


# ---------------------------------------------------------------------------
# generalized layouts / design grid
# ---------------------------------------------------------------------------

def test_standard_layout_generalizes_beyond_presets():
    assert (standard_layout(20).rows, standard_layout(20).cols) == (4, 5)
    assert (standard_layout(36).rows, standard_layout(36).cols) == (6, 6)
    assert (standard_layout(12).rows, standard_layout(12).cols) == (3, 4)
    assert (standard_layout(7).rows, standard_layout(7).cols) == (1, 7)
    with pytest.raises(ValueError):
        standard_layout(1)


def test_parse_layout_and_design_grid():
    lay = parse_layout("6x6")
    assert (lay.rows, lay.cols) == (6, 6)
    with pytest.raises(ValueError):
        parse_layout("six-by-six")
    points = design_grid(
        ["4x5", (6, 6)], link_classes=("small", "medium"),
        objectives=("latency",), strategies=("sa",), seeds=(0, 1),
    )
    assert len(points) == 8
    assert len({p.label() for p in points}) == 8


def test_design_point_codec_roundtrip():
    point = DesignPoint(
        rows=6, cols=6, link_class="large", objective="shuffle",
        strategy="portfolio", radix=3, diameter_bound=6, seed=2,
        time_limit=12.5, sa_steps=321, backend="bnb", use_frozen=False,
    )
    assert DesignPoint.from_dict(point.as_dict()) == point


def test_design_point_validation():
    with pytest.raises(ValueError):
        DesignPoint(rows=4, cols=5, objective="bandwidth").validate()
    with pytest.raises(ValueError):
        DesignPoint(rows=4, cols=5, strategy="genetic").validate()
    with pytest.raises(ValueError):
        DesignPoint(rows=6, cols=6, objective="sparsest_cut").validate()
    with pytest.raises(ValueError):
        DesignPoint(rows=4, cols=5, radix=0).validate()
