"""Sparse-at-scale stack: CSR tables, bfs policy, incremental APSP,
hierarchical generation, sim-cutoff evaluation, cache compression.

Everything here pins an equivalence or a contract introduced by the
sparse refactor:

* ``IncrementalAPSP`` is bitwise-equal to the full recompute across
  random link swaps on both sides of its dense/scipy BFS selection,
  ``anneal_topology`` gives identical results on the full-recompute
  oracle (``tests/apsp_oracle.py``), and flat and hierarchical SA
  results match golden digests;
* ``CSRRoutingTable`` round-trips losslessly and rejects tables that
  are not destination-consistent;
* the ``bfs`` policy yields validated shortest-path tables, compiles
  through the worker codec, and simulates bit-identically to its dict
  twin on both engines;
* hierarchical generation is deterministic, radix/class-clean, and
  atomic in the staged pipeline;
* ``evaluate_tables`` honors ``sim_cutoff``;
* the cache stores large entries compressed and reads both forms.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

import apsp_oracle
from network_oracle import NetworkSimulator
from repro.core import apsp, search
from repro.core.apsp import IncrementalAPSP, full_apsp
from repro.core.netsmith import NetSmithConfig
from repro.core.search import anneal_topology
from repro.pipeline import DesignPoint, evaluate_tables, generate_points
from repro.pipeline.hierarchy import _replicate, _seed_cross_links, _stitch
from repro.routing.dest_tree import bfs_dest_table, layer_destinations
from repro.routing.tables import CSRRoutingTable
from repro.runner import tasks as _tasks
from repro.runner.cache import MISS, COMPRESS_THRESHOLD, ResultCache
from repro.sim import FastNetworkSimulator, uniform_random
from repro.topology import Layout, Topology


def _sa_topology(rows, cols, seed=0, steps=200, link_class="medium"):
    cfg = NetSmithConfig(
        layout=Layout(rows=rows, cols=cols), link_class=link_class, radix=4
    )
    return anneal_topology(cfg, steps=steps, seed=seed).topology


def _digest(objective, links):
    """A short content digest of an SA result: objective and link set."""
    doc = json.dumps([objective, sorted([list(l) for l in links])])
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _snake_cluster(cr, cc):
    """A fixed representative cluster: the bidirectional snake path."""
    cl = Layout(rows=cr, cols=cc)
    order = []
    for y in range(cr):
        xs = range(cc) if y % 2 == 0 else range(cc - 1, -1, -1)
        order.extend(cl.router_at(x, y) for x in xs)
    return Topology.from_undirected(cl, zip(order, order[1:]), name="snake")


def _stitch_inputs(rows, cols, cr, cc, radix=4, link_class="medium"):
    """``_stitch``'s inputs as ``generate_hierarchical`` builds them, from
    a fixed cluster instead of a time-limited MILP solve."""
    layout = Layout(rows=rows, cols=cols)
    kr, kc = rows // cr, cols // cc
    intra = _replicate(layout, _snake_cluster(cr, cc), kr, kc)
    out_deg = np.zeros(layout.n, dtype=np.intp)
    in_deg = np.zeros(layout.n, dtype=np.intp)
    for a, b in intra:
        out_deg[a] += 1
        in_deg[b] += 1
    cross = _seed_cross_links(layout, cr, cc, kr, kc, out_deg, in_deg, radix)

    def cluster_of(r):
        x, y = layout.position(r)
        return (y // cr, x // cc)

    allowed = [
        (a, b) for a, b in layout.valid_links(link_class)
        if cluster_of(a) != cluster_of(b)
    ]
    return layout, intra, cross, allowed


class TestIncrementalAPSP:
    # 4x5 takes only the dense BFS, 16x16 only scipy's, 8x6 both.
    @pytest.mark.parametrize(
        "rows,cols,link_class,paths",
        [
            (4, 5, "small", {"dense"}),
            (8, 6, "medium", {"dense", "scipy"}),
            (16, 16, "medium", {"scipy"}),
        ],
        ids=["4x5-small", "8x6-medium", "16x16-medium"],
    )
    def test_random_swaps_bitwise_equal_to_full(
        self, monkeypatch, rows, cols, link_class, paths
    ):
        rng = np.random.default_rng(3)
        topo = _sa_topology(rows, cols, seed=3, link_class=link_class)
        used = set()
        for name in ("dense", "scipy"):
            def spy(adj, sources, name=name, bfs=getattr(apsp, f"_{name}_bfs")):
                used.add(name)
                return bfs(adj, sources)

            monkeypatch.setattr(apsp, f"_{name}_bfs", spy)
        adj = topo.adj.copy()
        tracker = IncrementalAPSP(adj)
        links = sorted(topo.directed_links)
        off_diagonal = ~np.eye(topo.n, dtype=bool)
        for _ in range(40):
            da, db = links[int(rng.integers(len(links)))]
            cands = np.argwhere(~adj & off_diagonal)  # row-major order
            aa, ab = (int(x) for x in cands[int(rng.integers(len(cands)))])
            adj[da, db] = False
            adj[aa, ab] = True
            got = tracker.candidate(adj, (da, db), (aa, ab))
            want = full_apsp(adj)
            # Bitwise: distances are small exact integers in float64.
            assert np.array_equal(got, want, equal_nan=True)
            if rng.random() < 0.5:
                tracker.commit()
                links.remove((da, db))
                links.append((aa, ab))
            else:
                adj[aa, ab] = False
                adj[da, db] = True
        assert used == paths

    def test_anneal_modes_identical(self, monkeypatch):
        cfg = NetSmithConfig(
            layout=Layout(rows=4, cols=5), link_class="medium", radix=4
        )
        inc = anneal_topology(cfg, steps=300, seed=5)
        monkeypatch.setattr(search, "IncrementalAPSP", apsp_oracle.FullAPSP)
        full = anneal_topology(cfg, steps=300, seed=5)
        assert inc.objective == full.objective
        assert sorted(inc.topology.directed_links) == sorted(
            full.topology.directed_links
        )

    # (objective, digest) of each run before the dense BFS and the shared
    # move loop landed: both must leave every SA result bit-identical.
    # The sparsest-cut run's digest predates the split-half cut tables.
    @pytest.mark.parametrize(
        "rows,cols,link_class,steps,objective,golden",
        [
            (4, 5, "small", 6000, "latency", (903.0, "3bd42a91e72e44f5")),
            (4, 5, "medium", 6000, "latency", (797.0, "6d7960c4b45714f5")),
            (8, 6, "medium", 3000, "latency", (6934.0, "06e62d6869a7a7ac")),
            (16, 16, "medium", 150, "latency",
             (507779.0, "a0b653cab422f1a4")),
            (4, 5, "medium", 40, "sparsest_cut",
             (0.06666666666666667, "d9741add311626c8")),
        ],
        ids=["4x5-small", "4x5-medium", "8x6-medium", "16x16-medium",
             "4x5-medium-scop"],
    )
    def test_anneal_matches_golden(
        self, rows, cols, link_class, steps, objective, golden
    ):
        cfg = NetSmithConfig(
            layout=Layout(rows=rows, cols=cols), link_class=link_class,
            radix=4,
        )
        g = anneal_topology(cfg, objective=objective, steps=steps, seed=0)
        assert (g.objective, _digest(g.objective, g.topology.directed_links)) == golden

    @pytest.mark.parametrize(
        "rows,cols,cr,cc,steps,golden",
        [
            (8, 8, 2, 2, 400, (17130.0, "ec5b80c114f06b5e")),
            (8, 8, 4, 4, 400, (27541.0, "326c3058521c3b41")),
            (16, 16, 4, 4, 150, (885869.0, "7e55459c4e8f2568")),
        ],
        ids=["8x8-2x2", "8x8-4x4", "16x16-4x4"],
    )
    def test_stitch_matches_golden(self, rows, cols, cr, cc, steps, golden):
        layout, intra, cross, allowed = _stitch_inputs(rows, cols, cr, cc)
        links, cost = _stitch(
            layout, intra, cross, allowed, 4, steps=steps, seed=0
        )
        assert (cost, _digest(cost, links)) == golden


class TestCSRRoutingTable:
    def test_bfs_table_roundtrip_lossless(self):
        topo = _sa_topology(4, 5, seed=1)
        table = bfs_dest_table(topo, max_vcs=8)
        assert isinstance(table, CSRRoutingTable)
        dict_twin = table.to_table()
        back = CSRRoutingTable.from_table(dict_twin)
        assert back.to_table().next_hop == dict_twin.next_hop
        assert back.to_table().flow_vc == dict_twin.flow_vc
        assert back.num_vcs == table.num_vcs
        assert np.array_equal(back.next_matrix(), table.next_matrix())

    def test_from_table_rejects_source_dependent_routing(self):
        from repro.core.mclb import mclb_route
        from repro.routing import assign_vcs, build_routing_table

        topo = _sa_topology(4, 5, seed=2)
        routes = mclb_route(topo, time_limit=5.0).routes
        table = build_routing_table(routes, assign_vcs(routes, max_vcs=8))
        # MCLB balances per (src, dst), so some router forwards one
        # destination differently depending on source.
        with pytest.raises(ValueError, match="destination-consistent"):
            CSRRoutingTable.from_table(table)

    def test_hop_and_vc_raise_keyerror_like_dict_tables(self):
        topo = _sa_topology(4, 5, seed=1)
        table = bfs_dest_table(topo, max_vcs=8)
        with pytest.raises(KeyError):
            table.vc(0, 0)  # diagonal flow does not exist
        with pytest.raises(KeyError):
            # the destination's own row has no onward hop
            table.hop(7, 0, 7)


class TestBfsPolicy:
    def test_routes_are_validated_shortest_paths(self):
        topo = _sa_topology(4, 5, seed=4)
        table = bfs_dest_table(topo, max_vcs=8)
        table.validate()
        d = topo.hop_matrix()
        n = topo.n
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                assert len(table.route_of(s, t)) - 1 == int(d[s, t])

    def test_layering_is_deadlock_free_per_layer(self):
        from repro.routing.dest_tree import (
            _dest_dependency_edges,
            bfs_dest_hops,
        )
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        topo = _sa_topology(4, 5, seed=4)
        n = topo.n
        next_dst = bfs_dest_hops(topo)
        layer_of, num_layers = layer_destinations(next_dst, n, max_vcs=8)
        assert 1 <= num_layers <= 8
        for layer in range(num_layers):
            heads, tails = [], []
            for t in np.nonzero(layer_of == layer)[0]:
                h, tl = _dest_dependency_edges(next_dst, int(t), n)
                heads.append(h)
                tails.append(tl)
            heads = np.concatenate(heads)
            tails = np.concatenate(tails)
            chans, inv = np.unique(
                np.concatenate([heads, tails]), return_inverse=True
            )
            g = csr_matrix(
                (
                    np.ones(heads.size, dtype=np.int8),
                    (inv[: heads.size], inv[heads.size:]),
                ),
                shape=(chans.size, chans.size),
            )
            ncomp = connected_components(
                g, directed=True, connection="strong", return_labels=False
            )
            assert ncomp == chans.size, f"cycle in layer {layer}"

    def test_layering_cutoff_ships_single_vc(self):
        topo = _sa_topology(4, 5, seed=4)
        table = bfs_dest_table(topo, max_vcs=8, layering_cutoff=4)
        assert table.num_vcs == 1

    def test_disconnected_topology_rejected(self):
        lay = Layout(rows=2, cols=2)
        # 0 -> 1 -> 2 -> 3 with no way back
        topo = Topology(lay, [(0, 1), (1, 2), (2, 3)], name="dag")
        with pytest.raises(ValueError, match="strongly connected"):
            bfs_dest_table(topo)

    def test_codec_roundtrip_through_worker(self):
        topo = _sa_topology(4, 5, seed=6)
        topo.link_class = "medium"
        payload = _tasks.routing_payload(topo, policy="bfs", seed=0)
        doc = _tasks.routing_task(payload)
        assert doc["format"] == "csr"
        table = _tasks.decode_table(doc)
        assert isinstance(table, CSRRoutingTable)
        direct = bfs_dest_table(topo, max_vcs=8)
        assert np.array_equal(table.next_matrix(), direct.next_matrix())
        assert np.array_equal(table.flow_vc, direct.flow_vc)
        assert table.num_vcs == direct.num_vcs

    def test_csr_and_dict_twin_simulate_bit_identically(self):
        topo = _sa_topology(4, 5, seed=7)
        csr_table = bfs_dest_table(topo, max_vcs=8)
        dict_table = csr_table.to_table()
        traffic = uniform_random(topo.n)
        for engine in (FastNetworkSimulator, NetworkSimulator):
            a = engine(csr_table, traffic, 0.15, seed=3).run(150, 400)
            b = engine(dict_table, traffic, 0.15, seed=3).run(150, 400)
            assert a == b, engine.__name__


class TestHierarchical:
    def test_generate_deterministic_and_clean(self):
        p = DesignPoint(
            rows=8, cols=8, strategy="hierarchical", objective="latency",
            time_limit=3.0, sa_steps=80, seed=0,
        )
        p.validate()
        a = p.generate()
        b = p.generate()
        assert a.status == "hierarchical"
        assert a.topology.name == "NS-HIER-LatOp-medium"
        assert math.isfinite(a.objective)
        a.topology.check(radix=4, link_class="medium")
        assert sorted(a.topology.directed_links) == sorted(
            b.topology.directed_links
        )
        assert a.objective == b.objective

    def test_explicit_cluster_shape(self):
        p = DesignPoint(
            rows=8, cols=8, strategy="hierarchical", cluster_rows=2,
            cluster_cols=2, time_limit=1.0, sa_steps=40,
        )
        p.validate()
        g = p.generate()
        g.topology.check(radix=4, link_class="medium")

    def test_bad_configurations_rejected(self):
        base = dict(rows=8, cols=8, strategy="hierarchical")
        with pytest.raises(ValueError, match="divide"):
            DesignPoint(**base, cluster_rows=3).validate()
        with pytest.raises(ValueError, match="latency"):
            DesignPoint(
                rows=8, cols=8, strategy="hierarchical",
                objective="shuffle",
            ).validate()
        with pytest.raises(ValueError, match="radix"):
            DesignPoint(**base, radix=2).validate()
        with pytest.raises(ValueError, match="asymmetric"):
            DesignPoint(**base, symmetric=True).validate()
        with pytest.raises(ValueError, match="diameter_bound"):
            DesignPoint(**base, diameter_bound=6).validate()
        with pytest.raises(ValueError, match="at least 2 clusters"):
            DesignPoint(
                rows=4, cols=4, strategy="hierarchical",
                cluster_rows=4, cluster_cols=4,
            ).validate()

    def test_atomic_in_staged_pipeline(self):
        p = DesignPoint(
            rows=8, cols=8, strategy="hierarchical", time_limit=1.0,
            sa_steps=40,
        )
        (res,) = generate_points([p])
        assert res.status == "hierarchical"
        direct = p.generate()
        assert sorted(res.topology.directed_links) == sorted(
            direct.topology.directed_links
        )

    def test_point_codec_roundtrip(self):
        p = DesignPoint(
            rows=16, cols=16, strategy="hierarchical", cluster_rows=4,
            cluster_cols=4,
        )
        assert DesignPoint.from_dict(p.as_dict()) == p
        # canonical() keeps the fields hierarchical generation reads
        c = p.canonical()
        assert (c.cluster_rows, c.cluster_cols) == (4, 4)
        assert c.max_iterations == 0
        # other strategies neutralize the cluster shape
        sa = DesignPoint(rows=4, cols=5, strategy="sa", cluster_rows=2)
        assert sa.canonical().cluster_rows is None


class TestSimCutoff:
    def test_tables_above_cutoff_skip_saturation(self):
        topo = _sa_topology(4, 5, seed=8)
        topo.link_class = "medium"
        table = bfs_dest_table(topo, max_vcs=8)
        low, high = evaluate_tables(
            [table, table], ["medium", "medium"],
            warmup=50, measure=150, iters=2, sim_cutoff=10,
        )
        # n=20 > 10: both skipped (same table twice keeps it cheap)
        assert math.isnan(low.saturation) and math.isnan(high.saturation)
        assert low.robustness is None
        assert math.isfinite(low.avg_hops) and low.diameter > 0
        (sim,) = evaluate_tables(
            [table], ["medium"], warmup=50, measure=150, iters=2,
            sim_cutoff=64,
        )
        assert math.isfinite(sim.saturation) and sim.saturation > 0


class TestCacheCompression:
    def test_large_values_compress_and_roundtrip(self, tmp_path):
        c = ResultCache(str(tmp_path))
        small, big = {"x": 1}, {"arr": list(range(40000))}
        c.put("aa" * 32, small)
        c.put("bb" * 32, big)
        assert os.path.exists(c.path_for("aa" * 32))
        assert os.path.exists(c.zpath_for("bb" * 32))
        assert not os.path.exists(c.path_for("bb" * 32))
        import json

        raw = len(json.dumps({"key": "bb" * 32, "value": big}))
        assert raw > COMPRESS_THRESHOLD
        assert os.path.getsize(c.zpath_for("bb" * 32)) < raw // 2
        assert c.get("aa" * 32) == small
        assert c.get("bb" * 32) == big

    def test_twin_form_removed_on_rewrite(self, tmp_path):
        c = ResultCache(str(tmp_path))
        key = "cc" * 32
        c.put(key, {"arr": list(range(40000))})
        zp = c.zpath_for(key)
        assert os.path.exists(zp)
        c.put(key, {"x": 2})
        assert not os.path.exists(zp)
        assert c.get(key) == {"x": 2}

    def test_corrupted_compressed_entry_is_error_miss(self, tmp_path):
        c = ResultCache(str(tmp_path))
        key = "dd" * 32
        c.put(key, {"arr": list(range(40000))})
        with open(c.zpath_for(key), "wb") as fh:
            fh.write(b"not zlib")
        assert c.get(key) is MISS
        assert c.stats.errors == 1
        assert not os.path.exists(c.zpath_for(key))

    def test_delete_removes_either_form(self, tmp_path):
        c = ResultCache(str(tmp_path))
        key = "ee" * 32
        c.put(key, {"arr": list(range(40000))})
        c.delete(key)
        assert c.get(key) is MISS
