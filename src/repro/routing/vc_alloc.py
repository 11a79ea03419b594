"""Deadlock-free VC assignment by acyclic CDG layering (paper IV-A).

Implements the DFSSSP-style procedure the paper applies (Domke et al.
[15]): all routes start in VC 0; while the layer's channel dependency
graph has a cycle, pick one back-edge of the cycle at random and evict
every route inducing that dependency to the next VC; repeat per layer.
The result is a partition of routes into layers whose per-layer CDGs are
acyclic, hence deadlock-free with one escape VC per layer.

Layers are then load-balanced using path-length-weighted VC occupancy
(a path traversing three links has weight three), matching Section IV-A.

Both steps work on incremental CDGs (:class:`~repro.routing.cdg.CDG`,
one per layer): an eviction or a balancing move updates the moved
routes' reference counts instead of rebuilding the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cdg import CDG, build_cdg, is_acyclic
from .paths import Path, PathSet


@dataclass
class VCAssignment:
    """Maps each flow's route to a virtual channel layer."""

    num_vcs: int
    assignment: Dict[Tuple[int, int], int]  # flow (s,d) -> vc
    layers: List[List[Path]] = field(default_factory=list)

    def vc_of(self, s: int, d: int) -> int:
        return self.assignment[(s, d)]

    def layer_weights(self) -> List[int]:
        """Path-length-weighted occupancy per VC (the balancing metric)."""
        return [sum(len(p) - 1 for p in layer) for layer in self.layers]


def assign_vcs(
    routes: PathSet,
    max_vcs: int = 8,
    seed: int = 0,
    attempts: int = 3,
) -> VCAssignment:
    """Partition single-path routes into acyclic VC layers.

    ``routes`` must contain exactly one path per flow (e.g. from
    :func:`repro.routing.ndbt.ndbt_route` or MCLB).  Because the back-edge
    choice is randomized (paper IV-A), ``attempts`` independent runs are
    made and the fewest-layer assignment kept.  Raises if every attempt
    needs more than ``max_vcs`` layers (does not occur for the paper's
    configurations: 4 VCs suffice for every 20-router case, with Folded
    Torus the 4-VC outlier; 48-router irregular networks may need more).
    """
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

    remaining = flows
    layers: List[List[Tuple[Tuple[int, int], Path]]] = []
    while remaining:
        if len(layers) >= max_vcs:
            raise RuntimeError(
                f"VC assignment exceeded {max_vcs} layers; routes are too cyclic"
            )
        g = CDG(p for _, p in remaining)
        evicted: List[int] = []  # positions in ``remaining``, in eviction order
        while True:
            cycle = g.find_cycle()
            if cycle is None:
                break
            # random back-edge selection (paper: "simple, random selection
            # of the cycle-forming back edge ... gave sufficiently low
            # required virtual channels")
            dep = cycle[int(rng.integers(len(cycle)))]
            evicted.extend(g.evict(dep))
        gone = set(evicted)
        layers.append([fl for k, fl in enumerate(remaining) if k not in gone])
        remaining = [remaining[k] for k in evicted]

    layers = _balance_layers(layers)

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
) -> List[List[Tuple[Tuple[int, int], Path]]]:
    """Greedy re-balancing by path-length weight, preserving acyclicity.

    Moves routes from the heaviest layer to lighter layers when the move
    keeps the receiving layer's CDG acyclic.  Weights and per-layer CDGs
    are updated with each move, not recomputed.
    """
    if len(layers) <= 1:
        return layers
    cdgs = [CDG(p for _, p in layer) for layer in layers]
    slots = [{sd: k for k, (sd, _) in enumerate(layer)} for layer in layers]
    weights = [sum(len(p) - 1 for _, p in layer) for layer in layers]

    changed = True
    while changed:
        changed = False
        src = int(np.argmax(weights))
        order = sorted(range(len(layers)), key=lambda k: weights[k])
        for flow in sorted(layers[src], key=lambda fl: -(len(fl[1]) - 1)):
            sd, path = flow
            w = len(path) - 1
            for dst in order:
                if dst == src or weights[dst] + w >= weights[src]:
                    continue
                if not cdgs[dst].closes_cycle(path):
                    slots[dst][sd] = cdgs[dst].add(path)
                    cdgs[src].remove(slots[src].pop(sd))
                    layers[dst].append(flow)
                    layers[src].remove(flow)
                    weights[dst] += w
                    weights[src] -= w
                    changed = True
                    break
            if changed:
                break
    return layers


def validate_assignment(routes: PathSet, vca: VCAssignment) -> None:
    """Assert every layer's CDG is acyclic and every flow is assigned."""
    for vc, layer in enumerate(vca.layers):
        if not is_acyclic(build_cdg(layer)):
            raise AssertionError(f"VC layer {vc} has a cyclic CDG")
    for sd in routes.pairs():
        if sd not in vca.assignment:
            raise AssertionError(f"flow {sd} unassigned")
