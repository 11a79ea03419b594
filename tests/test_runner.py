"""Runner subsystem: parallel==serial, caching, corruption fallback."""

import json
import os
import pickle

import numpy as np
import pytest

import hashing_oracle
from curve_helper import run_curve
from repro.experiments.registry import NDBT, routed_table
from repro.faults import FaultSchedule
from repro.fullsys import RetryPolicy, workload
from repro.fullsys.workloads import PARSEC
from repro.routing.dest_tree import bfs_dest_table
from repro.runner import (
    MISS,
    CurveJob,
    ParallelExecutor,
    ResultCache,
    Runner,
    SaturationJob,
    TrafficSpec,
    canonical_json,
    config_hash,
    decode_table,
    encode_table,
    task_key,
)
from repro.runner import tasks as runner_tasks
from repro.runner.artifacts import _BUILDERS, generate_all
from repro.runner.hashing import CanonicalDoc, canonicalize
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.sim import (
    BurstSpec,
    TraceStream,
    find_saturation,
    latency_throughput_curve,
    uniform_random,
)
from repro.topology import Layout, Topology, expert_topology

RATES = (0.02, 0.06, 0.12, 0.2, 0.3)
BUDGET = dict(warmup=80, measure=200, seed=0)


@pytest.fixture(scope="module")
def table():
    """A small 2x3 mesh: cheap to simulate, real enough to saturate."""
    layout = Layout(rows=2, cols=3)
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    topo = Topology.from_undirected(layout, edges, name="mesh2x3", link_class="small")
    routes = ndbt_route(topo, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


@pytest.fixture(scope="module")
def serial_curve(table):
    return latency_throughput_curve(
        table, uniform_random(6), RATES, name="mesh2x3", link_class="small", **BUDGET
    )


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def test_config_hash_ignores_dict_order_and_numpy_typing():
    a = {"x": 1, "y": [1, 2, 3], "z": {"k": 2.5}}
    b = {"z": {"k": np.float64(2.5)}, "y": (np.int64(1), 2, 3), "x": np.int32(1)}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "x": 2})
    assert config_hash({"a": np.bool_(True)}) == config_hash({"a": True})


def test_canonical_json_rejects_unhashable_types():
    with pytest.raises(TypeError):
        canonical_json(object())


# ---------------------------------------------------------------------------
# key stability: table docs are canonical by construction
# ---------------------------------------------------------------------------

#: Task keys and table digests recorded before table docs became
#: :class:`CanonicalDoc` (hashing walked every doc then).  Cached results
#: stay valid only while these hold.
GOLDEN_KEYS = {
    "kite_small_ndbt": {
        "closed_loop": "3e737c80ec0753780f8f2d7fe6d1bb3d8b821052be36f579cfb359c4db03a113",
        "recovery": "f7e383b7c79e948bd0a0237f75647cefb471f12f83438ec8b04caab8bda72eff",
        "sat_search": "476bdd71ffc5254668df69beeaa41cd5aed8631b11b2ac2bfbde867643279c7c",
        "sim_batch": "efa7496a22020a889399b82140fe1f3b30ee02461b092b7a79fc2a8d8cf97012",
        "sim_point": "16ed963bbe6771b737ebd7bdbfb2f84f33aeeca2aa05a7f46924c4460892def1",
        "table": "7a9dcc25b6b1e93703efe4e27d42dcd143bcad0bdb2804c8615a87566c01aa5c",
    },
    "mesh_bfs": {
        "closed_loop": "2947ade80b9b7b38a6ae789bcccabf384aee484864d643081c2fab4df601cf7e",
        "recovery": "54811fde6eecd7e1559f367159a65d0bf74997eb0cf10f7eaa35e48fa8727597",
        "sat_search": "70f0adaf15629f69772e8bf5483d9df3c9f475a32f38b85521d1ed92ac6aff5d",
        "sim_batch": "3944b0b8c829d25e90d2e03040a9da7317686b595cb3e105250ff103660bf6a6",
        "sim_point": "32b2ec6eebd043fa32cf945727cc9b0f09b406af867c7df2adf41b04a078fc28",
        "table": "432e48a851b9ceefe56cb616a97af14b9df936e061a6969c75870c31c630888a",
    },
}


#: ``config_hash`` of each traffic kind's doc on the 4x5 layout, recorded
#: before the traffic classes merged: every simulation task key embeds
#: this doc, so cached results stay valid only while these hold.
GOLDEN_TRAFFIC_KEYS = {
    "uniform": "3e863fd51efd005e2c3d1198ace162deebffafa58bb2e658c474efdf55b41993",
    "memory": "9d28bfbc19739bf5270e3dcad095696f9672c4590725233b9e3b43b7e512a03d",
    "shuffle": "93650286ec968a20ea38e7b147b30d79e294bc4417ff8cc5857fe24198112d04",
    "bit_complement": "0b7cf924cfb8dde1da4d5da96f09382e74036a143f82452e30f50451a25f2fac",
    "transpose": "788452c806cf73714b0a13bccde84cf42bacd5b1b06a13732e7570a7d89c0ee6",
    "tornado": "0742a7f55d7167d9ecef3db21345d7a67ae801ab9e356c5d05800f4af7f56e14",
    "neighbor": "65ea1549a4df7ce67e9aacde564dcf7ce253ef95947afa343928833f39e8f005",
    "hotspot": "267105771ffc465d995aa09ca69be4dd5f0ef2630df51436be615587967a1368",
    "mmpp_uniform": "cded3a86eb8355a709388923ff18c2aecdce14d7e295b79506823c25420b0bb9",
    "lrd_memory": "b41ed31471848b279d5716785faec4557c02812fdda00155d0b32ee1270c6833",
}


def _golden_traffic():
    layout = Layout(rows=4, cols=5)
    n = layout.n
    return {
        "uniform": TrafficSpec.uniform(n),
        "memory": TrafficSpec.memory(layout),
        "shuffle": TrafficSpec.shuffle(n),
        "bit_complement": TrafficSpec.bit_complement(n),
        "transpose": TrafficSpec.transpose(layout),
        "tornado": TrafficSpec.tornado(layout),
        "neighbor": TrafficSpec.neighbor(layout),
        "hotspot": TrafficSpec.hotspot(n, layout.mc_routers(), 0.5),
        "mmpp_uniform": TrafficSpec.uniform(n).with_burst(
            BurstSpec("mmpp", 0.1, 0.3, seed=1)),
        "lrd_memory": TrafficSpec.memory(layout).with_burst(
            BurstSpec("lrd", 0.1, 0.25, seed=7, alpha=1.4)),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAFFIC_KEYS))
def test_traffic_keys_match_golden_digests(name):
    spec = _golden_traffic()[name]
    assert config_hash(spec.as_dict()) == GOLDEN_TRAFFIC_KEYS[name]
    assert TrafficSpec.from_dict(spec.as_dict()) == spec


@pytest.fixture(scope="module")
def golden_tables():
    """A dict-format table (Kite-Small-20, NDBT, seed 0) and a CSR one
    (Mesh-20, destination-tree BFS)."""
    return {
        "kite_small_ndbt": routed_table(
            expert_topology("Kite-Small", 20), NDBT, seed=0, use_cache=False,
        ),
        "mesh_bfs": bfs_dest_table(expert_topology("Mesh", 20), max_vcs=8, seed=0),
    }


def _key_payloads(table):
    """One payload per table-carrying task family."""
    layout = table.topology.layout
    uniform = TrafficSpec.uniform(layout.n)
    profile = workload("canneal")
    faults = FaultSchedule.link_outage([(0, 1)], down_cycle=100, up_cycle=200)
    retry = RetryPolicy(seed=3)
    return {
        "sim_point": runner_tasks.sim_point_payload(
            table, uniform, 0.1, 100, 300, 0, faults=faults),
        "sat_search": runner_tasks.sat_search_payload(
            table, uniform, 0.01, 0.5, 4, 100, 300, 0),
        "closed_loop": runner_tasks.closed_loop_payload(
            table, profile, "small", 100, 300, 0),
        "sim_batch": runner_tasks.sim_batch_payload(
            table, TrafficSpec.memory(layout), [(0.05, 0), (0.1, 1)], 100, 300),
        "recovery": runner_tasks.recovery_payload(
            table, profile, "small", faults, retry, 600, 100, 0),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_task_keys_match_golden_digests(golden_tables, name):
    table = golden_tables[name]
    keys = {fam: task_key(fam, p) for fam, p in _key_payloads(table).items()}
    keys["table"] = config_hash(encode_table(table))
    assert keys == GOLDEN_KEYS[name]


def test_payloads_on_one_table_share_one_doc(golden_tables, monkeypatch):
    """Fig. 8's twelve PARSEC payloads on one table build its doc once."""
    table = golden_tables["kite_small_ndbt"]
    table.__dict__.pop("_table_doc", None)
    builds = []
    build = runner_tasks._table_doc
    monkeypatch.setattr(
        runner_tasks, "_table_doc", lambda t: builds.append(t) or build(t)
    )
    payloads = [
        runner_tasks.closed_loop_payload(table, w, "small", 100, 300, 0)
        for w in PARSEC
    ]
    assert len(payloads) == 12 and len(builds) == 1
    assert config_hash(payloads[0]["table"]) == GOLDEN_KEYS[
        "kite_small_ndbt"]["table"]


def test_payloads_on_one_table_encode_its_doc_once(golden_tables, monkeypatch):
    """Twelve PARSEC payloads on one table: their task keys and their
    ``cached_table`` lookups encode the table doc's JSON once in all,
    not once per key and lookup."""
    table = golden_tables["kite_small_ndbt"]
    table.__dict__.pop("_table_doc", None)
    payloads = [
        runner_tasks.closed_loop_payload(table, w, "small", 100, 300, 0)
        for w in PARSEC
    ]
    doc = payloads[0]["table"]

    def holds_doc(obj):
        if obj is doc:
            return True
        if isinstance(obj, dict):
            return any(holds_doc(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return any(holds_doc(v) for v in obj)
        return False

    encodes = []
    dumps = json.dumps

    def counting_dumps(obj, *args, **kwargs):
        if holds_doc(obj):
            encodes.append(1)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    keys = {task_key("closed_loop", p) for p in payloads}
    tables = {id(runner_tasks.cached_table(p["table"])) for p in payloads}
    monkeypatch.undo()
    assert len(keys) == 12 and len(tables) == 1
    assert len(encodes) == 1


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_golden_keys_cold_warm_and_pickled(golden_tables, name):
    """Keys hold whether the doc's text is built by the key (cold memo),
    reused (warm memo), or absent after a pickle round trip, which
    carries only the doc's digest."""
    table = golden_tables[name]
    table.__dict__.pop("_table_doc", None)
    golden = GOLDEN_KEYS[name]
    cold = {fam: task_key(fam, p) for fam, p in _key_payloads(table).items()}
    warm = {fam: task_key(fam, p) for fam, p in _key_payloads(table).items()}
    assert cold == warm == {k: v for k, v in golden.items() if k != "table"}
    for fam, payload in _key_payloads(table).items():
        back = pickle.loads(pickle.dumps(payload))
        doc = back["table"]
        assert type(doc) is CanonicalDoc and doc._text is None
        assert doc.digest() == golden["table"]
        assert doc._text is None  # the digest arrived with the doc
        assert task_key(fam, back) == golden[fam]
        assert runner_tasks.cached_table(doc).num_vcs == table.num_vcs


def test_canonical_json_splices_docs_exactly():
    """A doc spliced into the text of the object around it reads as the
    walk would encode it, also beside strings that hold the mark, and
    when a doc's own text holds another doc's mark."""
    doc = CanonicalDoc({"b": [1, 2], "a": {"z": None, "y": 1.5}})
    marked = CanonicalDoc({"s": "\x00" + "1"})
    for obj in (
        doc,
        {"t": doc, "u": [doc, "x"]},
        {"t": doc, "s": "\x00" + "0"},
        {"t": doc, "s": "\\u0000" + "0"},
        [doc, {"k": (doc,)}],
        {"t": marked, "u": doc},
    ):
        assert canonical_json(obj) == hashing_oracle.canonical_json(obj)
        assert config_hash(obj) == hashing_oracle.config_hash(obj)


def test_every_task_family_has_a_version():
    """Each family keys its cache entries with its own version, so a
    bump orphans only that family's entries."""
    assert set(runner_tasks.TASK_VERSIONS) == set(runner_tasks.TASK_FUNCTIONS)


def test_table_docs_are_canonical_by_construction(golden_tables):
    """Walking a plain copy of a table doc gives the doc itself, so
    skipping the walk cannot change a key (``tests/hashing_oracle.py``
    still walks it).  Covers dict and CSR tables and a layout whose dims
    are numpy ints."""
    layout = Layout(rows=np.int64(2), cols=np.int64(3))
    topo = Topology.from_undirected(
        layout, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)],
        name="mesh2x3", link_class="small",
    )
    routes = ndbt_route(topo, seed=0)
    np_dims = build_routing_table(routes, assign_vcs(routes, seed=0))
    for table in (*golden_tables.values(), np_dims):
        doc = encode_table(table)
        assert isinstance(doc, CanonicalDoc)
        plain = json.loads(json.dumps(doc))
        assert type(plain) is dict
        assert canonicalize(plain) == doc
        assert canonical_json(plain) == canonical_json(doc)
        assert config_hash(doc) == hashing_oracle.config_hash(doc)


def test_canonical_doc_survives_pickle(golden_tables):
    """Process pools pickle payloads; the doc must arrive still marked
    canonical and with the same key."""
    doc = encode_table(golden_tables["kite_small_ndbt"])
    back = pickle.loads(pickle.dumps(doc))
    assert type(back) is CanonicalDoc
    assert back == doc
    assert config_hash(back) == config_hash(doc)


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

def test_table_codec_roundtrip(table):
    doc = encode_table(table)
    back = decode_table(json.loads(json.dumps(doc)))
    assert back.next_hop == table.next_hop
    assert back.flow_vc == table.flow_vc
    assert back.num_vcs == table.num_vcs
    assert sorted(back.topology.directed_links) == sorted(
        table.topology.directed_links
    )
    assert encode_table(back) == doc  # canonical: stable under roundtrip


def _traced_pairs(spec, n):
    """``(src, dst)`` arrays of a short trace of ``spec`` on ``n`` routers."""
    stream = TraceStream(spec, n, 0.5, np.random.default_rng(0))
    _, _, src, dst, _ = stream.next_chunk(50)
    return src, dst


@pytest.mark.parametrize("kind", ["uniform", "shuffle", "bit_complement"])
def test_traffic_spec_roundtrip_n_nodes(kind):
    spec = TrafficSpec(kind=kind, n_nodes=6)
    back = TrafficSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert back == spec
    src, dst = _traced_pairs(back, 6)
    assert src.size > 0
    assert ((0 <= dst) & (dst < 6) & (dst != src)).all()


def test_traffic_spec_layout_kinds():
    layout = Layout(rows=2, cols=3)
    for spec in (
        TrafficSpec.memory(layout),
        TrafficSpec.transpose(layout),
        TrafficSpec.tornado(layout),
        TrafficSpec.neighbor(layout),
    ):
        back = TrafficSpec.from_dict(spec.as_dict())
        assert back == spec
        src, dst = _traced_pairs(back, 6)
        assert ((0 <= dst) & (dst < 6)).all(), spec.kind


# ---------------------------------------------------------------------------
# parallel == serial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_curve_bit_identical_to_serial(table, serial_curve, workers, tmp_path):
    runner = Runner(parallel=workers, cache_dir=str(tmp_path))
    parallel = run_curve(
        runner, table, TrafficSpec.uniform(6), RATES,
        name="mesh2x3", link_class="small", **BUDGET,
    )
    assert parallel == serial_curve


def test_parallel_saturation_identical_to_serial(table, tmp_path):
    serial = find_saturation(
        table, uniform_random(6), warmup=80, measure=200, seed=0
    )
    runner = Runner(parallel=2, cache_dir=str(tmp_path))
    [sat] = runner.saturations([
        SaturationJob(
            table=table, traffic=TrafficSpec.uniform(6),
            warmup=80, measure=200, seed=0,
        )
    ])
    assert sat == serial


def test_runner_rejects_unknown_engine():
    """A misspelt engine fails at construction, not in its first task."""
    with pytest.raises(ValueError, match="unknown engine 'fsat'"):
        Runner(engine="fsat")


def test_executor_serial_fallback_matches():
    ex1 = ParallelExecutor(workers=1)
    ex4 = ParallelExecutor(workers=4)
    payloads = list(range(20))
    assert (ex1.map_outcomes(_square, payloads)
            == ex4.map_outcomes(_square, payloads)
            == [x * x for x in payloads])


def _square(x):
    return x * x


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_cache_hit_returns_without_resimulating(table, serial_curve, tmp_path, monkeypatch):
    kwargs = dict(name="mesh2x3", link_class="small", **BUDGET)
    first = Runner(parallel=1, cache_dir=str(tmp_path))
    curve1 = run_curve(first, table, TrafficSpec.uniform(6), RATES, **kwargs)
    assert first.stats.hits == 0 and first.stats.misses > 0

    # A fresh Runner on the same cache dir must not simulate at all:
    # poison the task function so any execution attempt blows up.
    def boom(payload):
        raise AssertionError("sim_point executed despite cached result")

    monkeypatch.setitem(
        runner_tasks.TASK_FUNCTIONS, "sim_point", (boom, runner_tasks.stats_from_dict)
    )
    second = Runner(parallel=1, cache_dir=str(tmp_path))
    curve2 = run_curve(second, table, TrafficSpec.uniform(6), RATES, **kwargs)
    assert curve2 == curve1 == serial_curve
    assert second.stats.misses == 0 and second.stats.hits == first.stats.misses


def test_cache_distinguishes_configs(table, tmp_path):
    runner = Runner(parallel=1, cache_dir=str(tmp_path))
    run_curve(runner, table, TrafficSpec.uniform(6), RATES, **BUDGET)
    run_curve(runner, table, TrafficSpec.uniform(6), RATES,
                 warmup=80, measure=200, seed=1)  # different seed
    assert runner.stats.hits == 0  # nothing shared between the two configs


def test_corrupted_cache_entry_falls_back_to_recompute(table, tmp_path):
    kwargs = dict(name="mesh2x3", link_class="small", **BUDGET)
    runner = Runner(parallel=1, cache_dir=str(tmp_path))
    curve1 = run_curve(runner, table, TrafficSpec.uniform(6), RATES, **kwargs)

    entries = sorted(tmp_path.rglob("*.json"))
    assert entries
    entries[0].write_text("{ not json !!")
    entries[1].write_text(json.dumps({"unexpected": "shape"}))

    again = Runner(parallel=1, cache_dir=str(tmp_path))
    curve2 = run_curve(again, table, TrafficSpec.uniform(6), RATES, **kwargs)
    assert curve2 == curve1
    assert again.stats.errors == 2  # both bad entries detected...
    assert again.stats.misses == 2  # ...recomputed...
    assert again.stats.puts == 2  # ...and rewritten

    third = Runner(parallel=1, cache_dir=str(tmp_path))
    curve3 = run_curve(third, table, TrafficSpec.uniform(6), RATES, **kwargs)
    assert curve3 == curve1 and third.stats.misses == 0


@pytest.mark.parametrize("tear", ["truncate", "garbage"])
def test_cache_corruption_evicts_both_storage_forms(tmp_path, tear):
    """Truncated and garbage entries — plain ``.json`` and compressed
    ``.json.z`` alike — are counted as errors+misses, unlinked, and
    repopulated (the torn-write state chaos_harness.tear_cache_entries
    leaves)."""
    from repro.runner.cache import COMPRESS_THRESHOLD

    cache = ResultCache(str(tmp_path))
    k_small, k_big = "aa" * 32, "bb" * 32
    small = {"v": 1}
    big = {"blob": list(range(COMPRESS_THRESHOLD))}  # serializes > threshold
    cache.put(k_small, small)
    cache.put(k_big, big)
    paths = (cache.path_for(k_small), cache.zpath_for(k_big))
    for path in paths:
        assert os.path.exists(path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            if tear == "truncate":
                fh.write(data[: len(data) // 2])
            else:
                fh.write(b"\x00\xffgarbage\xfe")

    before = cache.stats.errors
    assert cache.get(k_small) is MISS
    assert cache.get(k_big) is MISS
    assert cache.stats.errors == before + 2  # both torn entries detected
    for path in paths:
        assert not os.path.exists(path)  # evicted, not left to re-fail

    cache.put(k_small, small)
    cache.put(k_big, big)
    assert cache.get(k_small) == small
    assert cache.get(k_big) == big


def test_no_cache_escape_hatch(table, serial_curve, tmp_path):
    runner = Runner(parallel=1, cache_dir=str(tmp_path), no_cache=True)
    curve = run_curve(
        runner, table, TrafficSpec.uniform(6), RATES,
        name="mesh2x3", link_class="small", **BUDGET,
    )
    assert curve == serial_curve
    assert runner.cache is None
    assert not any(tmp_path.rglob("*.json"))  # nothing written


def test_cache_atomicity_sentinel(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = config_hash({"probe": 1})
    assert cache.get(key) is MISS
    cache.put(key, {"v": None})
    assert cache.get(key) == {"v": None}  # cached None-bearing values survive
    assert not [p for p in tmp_path.rglob(".tmp-*")]  # no temp droppings


def test_routed_table_disk_cache(table, tmp_path, monkeypatch):
    from repro.experiments import registry

    topo = table.topology
    first = Runner(parallel=1, cache_dir=str(tmp_path))
    t1 = registry.routed_table(
        topo, registry.NDBT, seed=0, use_cache=False, runner=first
    )
    assert first.stats.puts == 1

    # A fresh process must get the table from disk without re-routing.
    # (`routing_task` resolves the policy from repro.routing at call
    # time, so patching the package attribute intercepts any route.)
    import repro.routing

    def boom(*a, **kw):
        raise AssertionError("routing executed despite cached table")

    monkeypatch.setattr(repro.routing, "ndbt_route", boom)
    second = Runner(parallel=1, cache_dir=str(tmp_path))
    t2 = registry.routed_table(
        topo, registry.NDBT, seed=0, use_cache=False, runner=second
    )
    assert second.stats.hits == 1
    assert t2.next_hop == t1.next_hop
    assert t2.flow_vc == t1.flow_vc
    assert t2.num_vcs == t1.num_vcs
    t2.validate()

    # A different seed is a different configuration (no false hits).
    monkeypatch.undo()
    third = Runner(parallel=1, cache_dir=str(tmp_path))
    registry.routed_table(topo, registry.NDBT, seed=1, use_cache=False, runner=third)
    assert third.stats.hits == 0


def test_ensure_runner_passes_through_or_builds_serial_uncached():
    from repro.runner import ensure_runner

    with Runner(parallel=1, no_cache=True) as mine:
        with ensure_runner(mine) as r:
            assert r is mine
    with ensure_runner(None) as r:
        assert r.parallel == 1
        assert r.cache is None and r.journal is None


def test_no_runner_writes_nothing(tmp_path, monkeypatch):
    """``runner=None`` means a serial, uncached runner: a plain library
    call leaves no cache, journal or failure artifact behind."""
    from repro.experiments.fig6 import fig6_curves
    from repro.experiments.recovery import recovery_grid

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    recovery_grid(topologies=("Mesh",), workloads=("blackscholes",))
    fig6_curves(link_classes=("small",), warmup=150, measure=400)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# artifact orchestration (builders stubbed: the real ones run for hours)
# ---------------------------------------------------------------------------

def test_generate_all_resumes_and_records_failures(tmp_path, monkeypatch):
    calls = []

    def fake_recon(payload):
        calls.append(payload["link_class"])
        if payload["signature"][0] == 36:  # Kite-Large + ButterDonut rows
            raise RuntimeError("synthetic failure")
        return {"edges": [[0, 1]], "cost": 0.0}

    monkeypatch.setitem(_BUILDERS, "recon", fake_recon)
    runner = Runner(parallel=1, cache_dir=str(tmp_path / "cache"))
    out = tmp_path / "gen"
    logs = []
    counts = generate_all(str(out), runner=runner, only=["experts20"],
                          log=logs.append)
    assert counts == {"done": 3, "skipped": 0, "failed": 2}
    frozen = json.loads((out / "experts20.json").read_text())
    assert set(frozen) == {"Kite-Small", "Kite-Medium", "DoubleButterfly"}
    # The failure summary is loud and carries the full worker traceback,
    # not just repr(exc).
    joined = "\n".join(logs)
    assert "2 artifact(s) FAILED" in joined
    assert "RuntimeError: synthetic failure" in joined
    assert "Traceback (most recent call last)" in joined

    # Rerun: finished entries skip, failures retry (cache was evicted).
    calls.clear()
    counts2 = generate_all(str(out), runner=runner, only=["experts20"],
                           log=logs.append)
    assert counts2 == {"done": 0, "skipped": 3, "failed": 2}
    assert len(calls) == 2  # only the failed tasks re-ran


def test_artifact_cache_key_matches_runner_keys():
    payload = {"kind": "recon", "version": 1}
    assert task_key("artifact", payload) == task_key("artifact", dict(payload))
    assert task_key("artifact", payload) != task_key("sim_point", payload)


# ---------------------------------------------------------------------------
# closed-loop jobs (the Fig. 8 full-system sweep unit)
# ---------------------------------------------------------------------------

CL_BUDGET = dict(warmup=100, measure=300, seed=0)


def _cl_workloads():
    from repro.fullsys import PARSEC

    return [w for w in PARSEC if w.name in ("blackscholes", "canneal")]


@pytest.fixture(scope="module")
def ring_table():
    """A 2x3 ring: a second closed-loop table unlike the mesh baseline."""
    layout = Layout(rows=2, cols=3)
    edges = [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3), (3, 0)]
    topo = Topology.from_undirected(layout, edges, name="ring2x3", link_class="small")
    routes = ndbt_route(topo, seed=0)
    return build_routing_table(routes, assign_vcs(routes, seed=0))


@pytest.fixture(scope="module")
def serial_rows(table, ring_table):
    """Fig. 8 rows from direct closed-loop runs, one per (workload,
    table) pair, so no runner is its own reference."""
    from repro.fullsys import Figure8Row, run_workload

    rows = []
    for w in _cl_workloads():
        base = run_workload(table, w, **CL_BUDGET)
        ring = run_workload(ring_table, w, **CL_BUDGET)
        rows.append(Figure8Row(
            workload=w.name,
            speedups={"ring": ring.speedup_over(base)},
            latency_reductions={"ring": ring.latency_reduction_over(base)},
        ))
    return rows


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_parallel_closed_loop_bit_identical_to_serial(
    table, ring_table, serial_rows, workers, tmp_path
):
    """``parsec_sweep`` at any worker count, and without a runner,
    reproduces the direct runs."""
    from contextlib import nullcontext

    from repro.fullsys import parsec_sweep

    with (
        nullcontext() if workers is None
        else Runner(parallel=workers, cache_dir=str(tmp_path))
    ) as runner:
        rows = parsec_sweep({"ring": ring_table}, table,
                            workloads=_cl_workloads(), runner=runner,
                            **CL_BUDGET)
    assert rows == serial_rows
    assert any(r.speedups["ring"] != 1.0 for r in rows)


def test_closed_loop_cache_hit_skips_simulation(table, tmp_path, monkeypatch):
    from repro.runner import ClosedLoopJob

    w = _cl_workloads()[0]
    job = ClosedLoopJob(table=table, workload=w, **CL_BUDGET)
    first = Runner(parallel=1, cache_dir=str(tmp_path))
    [r1] = first.closed_loops([job])
    assert first.stats.misses == 1 and first.stats.hits == 0

    def boom(payload):
        raise AssertionError("closed_loop executed despite cached result")

    monkeypatch.setitem(
        runner_tasks.TASK_FUNCTIONS, "closed_loop",
        (boom, runner_tasks.workload_result_from_dict),
    )
    second = Runner(parallel=1, cache_dir=str(tmp_path))
    [r2] = second.closed_loops([job])
    assert r2 == r1
    assert second.stats.hits == 1 and second.stats.misses == 0


def test_closed_loop_cache_distinguishes_configs(table, tmp_path):
    from repro.runner import ClosedLoopJob

    wa, wb = _cl_workloads()
    runner = Runner(parallel=1, cache_dir=str(tmp_path))
    runner.closed_loops([ClosedLoopJob(table=table, workload=wa, **CL_BUDGET)])
    assert runner.stats.misses == 1
    # different workload profile, seed, or budget => new entries
    runner.closed_loops([ClosedLoopJob(table=table, workload=wb, **CL_BUDGET)])
    runner.closed_loops([ClosedLoopJob(table=table, workload=wa, warmup=100,
                                       measure=300, seed=7)])
    assert runner.stats.misses == 3
    # exact repeat => pure hit
    runner.closed_loops([ClosedLoopJob(table=table, workload=wa, **CL_BUDGET)])
    assert runner.stats.misses == 3 and runner.stats.hits == 1
