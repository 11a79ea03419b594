"""Reference hop metrics from the dense all-pairs hop matrix.

These are the ``method="dense"`` branches that
:func:`repro.topology.average_hops`, :func:`~repro.topology.diameter`
and :func:`repro.topology.metrics.hop_histogram` carried before their
streamed CSR BFS became the only production path, kept as the A/B
oracle: each reads :meth:`~repro.topology.Topology.hop_matrix`, one
scipy all-pairs shortest path over the whole graph.  Production must
return the same values bit for bit (Table II and every SA objective
depend on them).  Test-only.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.topology import Topology


def _off_diagonal(topo: Topology) -> np.ndarray:
    d = topo.hop_matrix()
    return d[~np.eye(topo.n, dtype=bool)]


def average_hops(topo: Topology) -> float:
    """Mean shortest-path hops over all ordered pairs, excluding self-pairs."""
    off = _off_diagonal(topo)
    if not np.isfinite(off).all():
        return float("inf")
    return float(off.mean())


def diameter(topo: Topology) -> int:
    off = _off_diagonal(topo)
    if not np.isfinite(off).all():
        raise ValueError(f"{topo.name}: disconnected; diameter undefined")
    return int(off.max())


def hop_histogram(topo: Topology) -> Dict[int, int]:
    """Count of ordered pairs at each hop distance (the latency distribution)."""
    off = _off_diagonal(topo).astype(int)
    vals, counts = np.unique(off, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}
