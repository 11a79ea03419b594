"""Reference SA hop matrices: all pairs recomputed on every move.

:class:`FullAPSP` has :class:`repro.core.apsp.IncrementalAPSP`'s
``candidate``/``commit`` interface, but its candidate is the full
all-pairs recompute of the post-swap graph, with no affected-slice
reasoning and no BFS selection.  Tests and the scale benchmark
substitute it for the production class with ``monkeypatch``
(``repro.core.search.IncrementalAPSP``), so the same SA move loop runs
on top of it; the incremental class must give identical links and
objectives.  Test-only.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.apsp import full_apsp


class FullAPSP:
    """Hop distances recomputed in full for every candidate move."""

    def __init__(self, adj: np.ndarray):
        self.dist = full_apsp(adj)
        self._cand = self.dist

    def candidate(
        self,
        adj_after: np.ndarray,
        dropped: Tuple[int, int],
        added: Tuple[int, int],
    ) -> np.ndarray:
        self._cand = full_apsp(adj_after)
        return self._cand

    def commit(self) -> None:
        self.dist = self._cand
