"""Property test: sparse (CSR BFS) metrics == dense hop-matrix metrics.

The sparse paths are production; the dense paths are the historical
oracle (``tests/metrics_oracle.py``).  For random strongly-connected
topologies at n in {16, 64, 256} the two must agree exactly — average
hops, diameter, and the full hop histogram (distances are small exact
integers, so there is no tolerance to hide behind).
"""

import numpy as np
import pytest

import metrics_oracle as dense
from repro.topology import Layout, Topology, average_hops, diameter
from repro.topology.metrics import hop_histogram


def _random_connected(lay: Layout, rng: np.random.Generator) -> Topology:
    """Bidirectional boustrophedon ring (strong connectivity) plus
    random extra directed links."""
    n = lay.n
    snake = []
    for y in range(lay.rows):
        xs = range(lay.cols) if y % 2 == 0 else range(lay.cols - 1, -1, -1)
        snake.extend(lay.router_at(x, y) for x in xs)
    links = set()
    for k in range(n):
        a, b = snake[k], snake[(k + 1) % n]
        links.add((a, b))
        links.add((b, a))
    extra = max(n // 2, 4)
    for _ in range(extra):
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a != b:
            links.add((a, b))
    return Topology(lay, sorted(links), name=f"rand-{lay.rows}x{lay.cols}")


@pytest.mark.parametrize("rows,cols", [(4, 4), (8, 8), (16, 16)])
def test_sparse_metrics_match_dense(rows, cols):
    lay = Layout(rows=rows, cols=cols)
    rng = np.random.default_rng(rows * 1000 + cols)
    for trial in range(8 if rows * cols <= 64 else 3):
        topo = _random_connected(lay, rng)
        ctx = f"{rows}x{cols} trial {trial}"
        assert average_hops(topo) == dense.average_hops(topo), ctx
        assert diameter(topo) == dense.diameter(topo), ctx
        assert hop_histogram(topo) == dense.hop_histogram(topo), ctx


def test_sparse_metrics_match_dense_sparse_ring():
    """Worst-case sparsity: the bare ring (diameter ~ n)."""
    lay = Layout(rows=4, cols=4)
    n = lay.n
    links = [(k, (k + 1) % n) for k in range(n)]
    links += [((k + 1) % n, k) for k in range(n)]
    topo = Topology(lay, sorted(set(links)), name="ring")
    assert average_hops(topo) == dense.average_hops(topo)
    assert diameter(topo) == dense.diameter(topo)
    assert hop_histogram(topo) == dense.hop_histogram(topo)
