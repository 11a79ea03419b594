"""networkx reference for the channel dependency graph and VC layering.

This is the networkx implementation that :mod:`repro.routing.cdg` and
:mod:`repro.routing.vc_alloc` replaced with the incremental integer CDG,
kept verbatim as the A/B oracle: it rebuilds a ``networkx.DiGraph`` from
every surviving route after each eviction and for every balancing trial.
The production code must reproduce its ``num_vcs``, assignment and layer
order exactly (cached tables and benchmark references depend on it).
Test-only: nothing under ``src/`` imports networkx.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.routing import cdg
from repro.routing.cdg import Dependency
from repro.routing.paths import Path, PathSet
from repro.routing.vc_alloc import VCAssignment

# The oracle rebuilds graphs from the same routes thousands of times;
# memoizing this pure helper keeps the A/B tests' tier-1 time down and
# changes no result (callers only iterate the returned list).
path_dependencies = functools.lru_cache(maxsize=1 << 16)(cdg.path_dependencies)


def build_cdg(paths: Iterable[Path]) -> nx.DiGraph:
    """CDG of a set of routes; edges annotated with the inducing paths."""
    g = nx.DiGraph()
    for p in paths:
        for dep in path_dependencies(p):
            a, b = dep
            if g.has_edge(a, b):
                g[a][b]["paths"].append(p)
            else:
                g.add_edge(a, b, paths=[p])
    return g


def find_cycle(g: nx.DiGraph) -> Optional[List[Dependency]]:
    """One directed cycle as a list of CDG edges, or ``None`` if acyclic."""
    try:
        cyc = nx.find_cycle(g, orientation="original")
    except nx.NetworkXNoCycle:
        return None
    return [(u, v) for u, v, _ in cyc]


def is_acyclic(g: nx.DiGraph) -> bool:
    return nx.is_directed_acyclic_graph(g)


def assign_vcs(
    routes: PathSet,
    max_vcs: int = 8,
    seed: int = 0,
    attempts: int = 3,
) -> VCAssignment:
    best: Optional[VCAssignment] = None
    last_err: Optional[Exception] = None
    for k in range(max(1, attempts)):
        try:
            cand = _assign_vcs_once(routes, max_vcs=max_vcs, seed=seed + 7919 * k)
        except RuntimeError as e:
            last_err = e
            continue
        if best is None or cand.num_vcs < best.num_vcs:
            best = cand
    if best is None:
        raise last_err if last_err is not None else RuntimeError("VC assignment failed")
    return best


def _assign_vcs_once(
    routes: PathSet,
    max_vcs: int,
    seed: int,
) -> VCAssignment:
    rng = np.random.default_rng(seed)
    flows: List[Tuple[Tuple[int, int], Path]] = []
    for sd in routes.pairs():
        plist = routes[sd]
        if len(plist) != 1:
            raise ValueError(
                f"flow {sd} has {len(plist)} routes; VC assignment needs one"
            )
        flows.append((sd, plist[0]))

    remaining = list(flows)
    layers: List[List[Tuple[Tuple[int, int], Path]]] = []
    while remaining:
        if len(layers) >= max_vcs:
            raise RuntimeError(
                f"VC assignment exceeded {max_vcs} layers; routes are too cyclic"
            )
        layer = list(remaining)
        evicted: List[Tuple[Tuple[int, int], Path]] = []
        g = build_cdg([p for _, p in layer])
        while True:
            cycle = find_cycle(g)
            if cycle is None:
                break
            # random back-edge selection (paper: "simple, random selection
            # of the cycle-forming back edge ... gave sufficiently low
            # required virtual channels")
            dep = cycle[int(rng.integers(len(cycle)))]
            inducing = list(g[dep[0]][dep[1]]["paths"])
            inducing_set = set(inducing)
            moved = [fl for fl in layer if fl[1] in inducing_set]
            layer = [fl for fl in layer if fl[1] not in inducing_set]
            evicted.extend(moved)
            g = build_cdg([p for _, p in layer])
        layers.append(layer)
        remaining = evicted

    layers = _balance_layers(layers, rng)

    assignment = {}
    path_layers: List[List[Path]] = []
    for vc, layer in enumerate(layers):
        path_layers.append([p for _, p in layer])
        for sd, _ in layer:
            assignment[sd] = vc
    return VCAssignment(
        num_vcs=len(layers), assignment=assignment, layers=path_layers
    )


def _balance_layers(
    layers: List[List[Tuple[Tuple[int, int], Path]]],
    rng: np.random.Generator,
) -> List[List[Tuple[Tuple[int, int], Path]]]:
    """Greedy re-balancing by path-length weight, preserving acyclicity.

    Moves routes from the heaviest layer to lighter layers when the move
    keeps the receiving layer's CDG acyclic.
    """
    if len(layers) <= 1:
        return layers

    def weight(layer):
        return sum(len(p) - 1 for _, p in layer)

    changed = True
    while changed:
        changed = False
        weights = [weight(l) for l in layers]
        src = int(np.argmax(weights))
        order = sorted(range(len(layers)), key=lambda k: weights[k])
        for flow in sorted(layers[src], key=lambda fl: -(len(fl[1]) - 1)):
            for dst in order:
                if dst == src:
                    continue
                if weights[dst] + (len(flow[1]) - 1) >= weights[src]:
                    continue
                trial = [p for _, p in layers[dst]] + [flow[1]]
                if is_acyclic(build_cdg(trial)):
                    layers[dst].append(flow)
                    layers[src].remove(flow)
                    changed = True
                    break
            if changed:
                break
    return layers
