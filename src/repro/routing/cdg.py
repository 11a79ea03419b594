"""Channel dependency graphs (Dally & Seitz deadlock theory, paper II-F).

A CDG node is a directed channel ``(i, j)``; an edge ``(a,b) -> (b,c)``
exists when some route occupies channel ``(a,b)`` and then ``(b,c)``.
Acyclic CDGs are sufficient for deadlock-free wormhole routing; the VC
allocator (:mod:`repro.routing.vc_alloc`) partitions routes into layers
whose per-layer CDGs are acyclic.

:class:`CDG` is incremental.  Channels get integer ids and every edge
keeps a reference-counted list of the routes that induce it, so adding
or removing a route costs its length, not a rebuild of the graph.

Its cycle search keeps the exact order of the graph-library search it
replaced (kept as the test oracle in ``tests/cdg_oracle.py``), so the
random draw over a cycle's edges picks the same dependency and routed
tables do not change.  That search is a depth-first search in which

* start nodes come in order of their first surviving (route, channel
  index) occurrence;
* a node's successors come in order of their first surviving (route,
  dependency index) occurrence;
* each node is expanded once: a head already finished, from this start
  node or an earlier one, is skipped;
* the first edge back into the active path closes the cycle, which is
  reported starting at the repeated node.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .paths import Path

Channel = Tuple[int, int]
Dependency = Tuple[Channel, Channel]


def path_dependencies(path: Path) -> List[Dependency]:
    """Consecutive channel pairs a route occupies."""
    chans = [(path[k], path[k + 1]) for k in range(len(path) - 1)]
    return [(chans[k], chans[k + 1]) for k in range(len(chans) - 1)]


class CDG:
    """Channel dependency graph of a sequence of routes.

    Each added route gets a slot, numbered in insertion order; each of
    its dependencies is an *occurrence*, numbered in (slot, dependency
    index) order.  An edge is ``[live occurrences, cursor to the first
    live one, occurrence ids]`` and disappears when its count hits zero.
    """

    def __init__(self, paths: Iterable[Path] = ()) -> None:
        self._ids: Dict[Channel, int] = {}
        self._channels: List[Channel] = []
        self._succ: List[Dict[int, list]] = []  # tail -> {head: edge}
        self._routes: List[List[int]] = []  # slot -> channel ids
        self._base: List[int] = []  # slot -> its first occurrence id
        self._live = bytearray()  # per slot
        self._occ_live = bytearray()  # per occurrence
        self._occ_slot: List[int] = []
        for p in paths:
            self.add(p)

    def _channel_ids(self, path: Path) -> List[int]:
        ids, seq = self._ids, []
        for k in range(len(path) - 1):
            ch = (path[k], path[k + 1])
            i = ids.get(ch)
            if i is None:
                i = ids[ch] = len(self._channels)
                self._channels.append(ch)
                self._succ.append({})
            seq.append(i)
        return seq

    def add(self, path: Path) -> int:
        """Add a route's dependencies; returns its slot."""
        seq = self._channel_ids(path)
        slot, base = len(self._routes), len(self._occ_slot)
        self._routes.append(seq)
        self._base.append(base)
        self._live.append(1)
        succ = self._succ
        for k in range(len(seq) - 1):
            out = succ[seq[k]]
            edge = out.get(seq[k + 1])
            if edge is None:
                edge = out[seq[k + 1]] = [0, 0, []]
            edge[0] += 1
            edge[2].append(base + k)
        deps = max(len(seq) - 1, 0)
        self._occ_slot.extend([slot] * deps)
        self._occ_live.extend(b"\x01" * deps)
        return slot

    def remove(self, slot: int) -> None:
        """Drop a live route's dependencies."""
        self._live[slot] = 0
        seq, base, succ = self._routes[slot], self._base[slot], self._succ
        for k in range(len(seq) - 1):
            self._occ_live[base + k] = 0
            out = succ[seq[k]]
            edge = out[seq[k + 1]]
            edge[0] -= 1
            if not edge[0]:
                del out[seq[k + 1]]

    def evict(self, dep: Dependency) -> List[int]:
        """Remove every route inducing ``dep``; returns their slots in order."""
        edge = self._succ[self._ids[dep[0]]][self._ids[dep[1]]]
        live, occ_slot = self._occ_live, self._occ_slot
        slots = list(dict.fromkeys(
            occ_slot[o] for o in edge[2][edge[1]:] if live[o]
        ))
        for s in slots:
            self.remove(s)
        return slots

    def has_edge(self, a: Channel, b: Channel) -> bool:
        ia, ib = self._ids.get(a), self._ids.get(b)
        return ia is not None and ib in self._succ[ia]

    def find_cycle(self) -> Optional[List[Dependency]]:
        """One directed cycle as a list of CDG edges, or ``None`` if acyclic."""
        nodes = _cycle(self._starts(), self._ordered_successors)
        if nodes is None:
            return None
        ch = self._channels
        return [(ch[u], ch[v]) for u, v in zip(nodes, nodes[1:])]

    def closes_cycle(self, path: Path) -> bool:
        """Would adding ``path`` give this acyclic CDG a cycle?

        Any new cycle runs through one of the path's new edges, so a
        search from their heads over the graph plus those edges finds it.
        """
        seq = self._channel_ids(path)
        succ = self._succ
        new: Dict[int, List[int]] = {}
        for a, b in zip(seq, seq[1:]):
            if b not in succ[a]:
                new.setdefault(a, []).append(b)
        if not new:
            return False

        def successors(x: int) -> Iterable[int]:
            extra = new.get(x)
            return [*succ[x], *extra] if extra else succ[x]

        heads = [b for bs in new.values() for b in bs]
        return _cycle(heads, successors) is not None

    def _starts(self) -> Iterator[int]:
        """Channels in order of first surviving (slot, channel index)."""
        for seq, live in zip(self._routes, self._live):
            if live and len(seq) > 1:
                yield from seq

    def _ordered_successors(self, x: int) -> Iterable[int]:
        """Heads of ``x``'s edges by their first surviving occurrence."""
        out = self._succ[x]
        if len(out) < 2:
            return out
        live, keyed = self._occ_live, []
        for h, edge in out.items():
            occs, c = edge[2], edge[1]
            while not live[occs[c]]:
                c += 1
            edge[1] = c
            keyed.append((occs[c], h))
        keyed.sort()
        return [h for _, h in keyed]


def _cycle(
    starts: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> Optional[List[int]]:
    """Depth-first search for the first edge back into the active path.

    Returns the cycle's nodes from the repeated node round to it again,
    or ``None``.  A finished node reaches no cycle and is not entered
    again.
    """
    finished: Set[int] = set()
    for s in starts:
        if s in finished:
            continue
        path, depth = [s], {s: 0}
        stack = [iter(successors(s))]
        while stack:
            for h in stack[-1]:
                if h in depth:
                    return path[depth[h]:] + [h]
                if h not in finished:
                    depth[h] = len(path)
                    path.append(h)
                    stack.append(iter(successors(h)))
                    break
            else:
                stack.pop()
                done = path.pop()
                del depth[done]
                finished.add(done)
    return None


def build_cdg(paths: Iterable[Path]) -> CDG:
    """CDG of a set of routes."""
    return CDG(paths)


def find_cycle(g: CDG) -> Optional[List[Dependency]]:
    """One directed cycle as a list of CDG edges, or ``None`` if acyclic."""
    return g.find_cycle()


def is_acyclic(g: CDG) -> bool:
    return g.find_cycle() is None


def paths_are_deadlock_free(paths: Iterable[Path]) -> bool:
    """True when the routes' CDG is acyclic (single-VC deadlock freedom)."""
    return is_acyclic(build_cdg(paths))
