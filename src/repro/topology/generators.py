"""Additional classic topology generators: a ring and an unfolded torus.

They are familiar reference points when designing for custom layouts;
mesh and the paper's expert designs live in :mod:`repro.topology.expert`.
"""

from __future__ import annotations

from typing import List

from .graph import Topology
from .layout import Layout


def ring(layout: Layout) -> Topology:
    """Boustrophedon (snake) ring over the grid — minimal connectivity."""
    snake: List[int] = []
    for y in range(layout.rows):
        xs = range(layout.cols) if y % 2 == 0 else range(layout.cols - 1, -1, -1)
        snake.extend(layout.router_at(x, y) for x in xs)
    edges = [(snake[k], snake[(k + 1) % len(snake)]) for k in range(len(snake))]
    # the wrap edge spans the full first column; only valid when rows fit
    # the large budget — drop it (open chain) when it would be illegal
    last = edges[-1]
    if layout.length(*last) > 2.3:
        edges = edges[:-1]
    return Topology.from_undirected(layout, edges, name="Ring", link_class=None)


def torus(layout: Layout) -> Topology:
    """Plain (unfolded) torus: mesh + wraparound links.

    Wrap links span the full grid width/height, violating every Kite
    link-length class — included as the *infeasible* reference the folded
    torus approximates (its metrics bound what folding gives up).
    """
    edges = []
    for y in range(layout.rows):
        for x in range(layout.cols):
            edges.append(
                (layout.router_at(x, y), layout.router_at((x + 1) % layout.cols, y))
            )
            edges.append(
                (layout.router_at(x, y), layout.router_at(x, (y + 1) % layout.rows))
            )
    return Topology.from_undirected(layout, edges, name="Torus", link_class=None)
