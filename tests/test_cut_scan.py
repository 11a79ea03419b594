"""The exhaustive cut scan against its mask-by-mask oracle.

``repro.topology.metrics._cut_scan`` reads every bipartition's crossing
counts off split-half tables; ``tests/cut_oracle.py`` enumerates the
masks in 4096-mask chunks.  Both must return the same sparsest value,
the same sparsest members, the same balanced crossing count and the
same balanced members, bit for bit: ties go to the first mask in mask
order.  Inputs cover the 20-router roster, random digraphs at every
size from 1 to 22 routers (the empty and complete graphs included), and
rings and tori, whose symmetry ties many masks, also across the scan's
row blocks and across size groups.
"""

import numpy as np
import pytest

import cut_oracle
from repro.experiments.registry import roster
from repro.topology import (
    bisection_bandwidth,
    expert_topology,
    metrics,
    sparsest_cut,
    summarize,
)


def _assert_same_cuts(adj):
    got = metrics._cut_scan(adj)
    want = cut_oracle.cut_scan(adj)
    assert (got[0], got[2]) == (want[0], want[2])
    for g, w in ((got[1], want[1]), (got[3], want[3])):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def _roster_20():
    entries = [e for cls in ("small", "medium", "large")
               for e in roster(cls, 20, allow_generate=False)]
    return [expert_topology("Mesh", 20)] + [e.topology for e in entries]


@pytest.mark.parametrize("topo", _roster_20(), ids=lambda t: t.name)
def test_roster_matches_oracle(topo):
    _assert_same_cuts(topo.adj)


# Every size from 1 to 22 routers.  Up to 16 routers each size runs at
# five densities, the empty and complete graphs included; above, the
# oracle's time doubles per router (~0.9 s at 22), so fewer graphs run.
# The empty graphs at 17 and 18 routers tie every mask at zero, across
# the scan's row blocks (2**16 masks each) from 18 routers on.
_RANDOM_CASES = [
    (n, p) for n in range(1, 17) for p in (0.0, 0.1, 0.3, 0.6, 1.0)
] + [
    (17, 0.0), (17, 0.2), (18, 0.0), (18, 0.15), (18, 1.0),
    (19, 0.1), (20, 0.25), (21, 0.15), (22, 0.1),
]


def test_random_digraphs_match_oracle():
    rng = np.random.default_rng(2024)
    for n, p in _RANDOM_CASES:
        adj = (rng.random((n, n)) < p).astype(np.int8)
        np.fill_diagonal(adj, 0)
        _assert_same_cuts(adj)


def _ring(n, both_ways=True):
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        adj[i, (i + 1) % n] = 1
        if both_ways:
            adj[(i + 1) % n, i] = 1
    return adj


def _torus(rows, cols):
    adj = np.zeros((rows * cols, rows * cols), dtype=np.int8)
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for j in (r * cols + (c + 1) % cols, ((r + 1) % rows) * cols + c):
                adj[i, j] = adj[j, i] = 1
    return adj


@pytest.mark.parametrize(
    "adj",
    [_ring(10), _ring(20), _ring(19, both_ways=False), _torus(3, 6),
     _torus(4, 5)],
    ids=["ring10", "ring20", "one-way-ring19", "torus3x6", "torus4x5"],
)
def test_rings_and_tori_match_oracle(adj):
    _assert_same_cuts(adj)


def test_summarize_takes_both_cut_columns_from_one_scan(monkeypatch):
    topo = expert_topology("FoldedTorus", 20)
    scans = []
    scan = metrics._cut_scan
    monkeypatch.setattr(
        metrics, "_cut_scan", lambda adj: scans.append(1) or scan(adj)
    )
    row = summarize(topo)
    assert len(scans) == 1
    assert row.bisection_bw == bisection_bandwidth(topo)
    assert row.sparsest_cut_value == sparsest_cut(topo).value
