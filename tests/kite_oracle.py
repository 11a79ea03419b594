"""Reference Kite greedy: one scipy APSP per candidate link.

This is the greedy that :func:`repro.topology.expert.kite` replaced with
the exact one-link relaxation of the current hop matrix, kept verbatim
as the A/B oracle: it builds a :class:`~repro.topology.Topology` and
runs an all-pairs shortest path for every candidate link in every
iteration.  The production greedy must choose exactly the same edges
(routed tables and cache keys of every Kite baseline depend on them).
Test-only.
"""

from __future__ import annotations

from repro.topology import Layout, Topology
from repro.topology.expert import _KITE_CLASS_SPANS, RADIX


def kite(layout: Layout, size: str) -> Topology:
    """Kite-family (Bharadwaj et al., DAC'20) pattern reconstruction.

    Kite topologies were expert-tuned per link class; lacking machine-
    readable artifacts we reconstruct them with a deterministic greedy
    rule: starting from row backbones, repeatedly add the in-budget link
    that most reduces total pair distance, preferring longer spans first
    (the Kite signature), under the radix-4 port budget.
    """
    if size not in _KITE_CLASS_SPANS:
        raise ValueError(f"kite size must be small/medium/large, got {size!r}")
    import numpy as np

    edges = set()
    for y in range(layout.rows):
        for x in range(layout.cols - 1):
            edges.add((layout.router_at(x, y), layout.router_at(x + 1, y)))
    # column-0 spine keeps the seed connected so the greedy's distance
    # objective is finite from the first iteration
    for y in range(layout.rows - 1):
        edges.add((layout.router_at(0, y), layout.router_at(0, y + 1)))

    allowed = set()
    for dx, dy in _KITE_CLASS_SPANS[size]:
        for y in range(layout.rows):
            for x in range(layout.cols):
                for sx, sy in ((dx, dy), (dx, -dy), (-dx, dy), (-dx, -dy)):
                    nx, ny = x + sx, y + sy
                    if 0 <= nx < layout.cols and 0 <= ny < layout.rows:
                        a = layout.router_at(x, y)
                        b = layout.router_at(nx, ny)
                        if a < b:
                            allowed.add((a, b))

    def degrees(es):
        deg = [0] * layout.n
        for a, b in es:
            deg[a] += 1
            deg[b] += 1
        return deg

    def total_dist(es):
        t = Topology.from_undirected(layout, es)
        d = t.hop_matrix()
        if not np.isfinite(d).all():
            return float("inf")
        return float(d.sum())

    while True:
        deg = degrees(edges)
        base = total_dist(edges)
        best_gain, best_edge = 0.0, None
        candidates = sorted(
            (e for e in allowed if e not in edges),
            key=lambda e: -layout.length(*e),
        )
        for a, b in candidates:
            if deg[a] >= RADIX or deg[b] >= RADIX:
                continue
            gain = base - total_dist(edges | {(a, b)})
            # prefer longer links on ties: candidates are pre-sorted long-first
            if gain > best_gain + 1e-9:
                best_gain, best_edge = gain, (a, b)
        if best_edge is None:
            break
        edges.add(best_edge)

    return Topology.from_undirected(
        layout, sorted(edges), name=f"Kite-{size.capitalize()}", link_class=size
    )
