"""Reference exhaustive cut scan: every bipartition, in mask order.

This is the chunked enumeration that
:func:`repro.topology.metrics._cut_scan` ran before its split-half cut
tables became the only production path, kept as the A/B oracle.  It
walks all ``2**(n-1)`` masks with node 0 in U (mask bit k means node
k+1 is in U) in 4096-mask chunks, one float ``membership @ adj``
product per chunk and direction.  Production must return the same
values and the same members bit for bit: ties break at the first mask
in mask order, here by ``np.argmin`` within a chunk and a strict ``<``
across chunks.  Test-only.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_CHUNK = 1 << 12


def cut_scan(adj: np.ndarray) -> Tuple[float, np.ndarray, float, np.ndarray]:
    """Vectorized exhaustive scan over all bipartitions with node 0 in U.

    Returns ``(best_sparsest_value, best_sparsest_mask,
    best_balanced_cross, best_balanced_mask)``; sparsest values are
    ``min_dir_cross / (|U| |V|)``.
    """
    n = adj.shape[0]
    a = adj.astype(np.float64)
    total_masks = 1 << (n - 1)
    bit_idx = np.arange(1, n)

    best_sparse = np.inf
    best_sparse_mask = None
    best_bal = np.inf
    best_bal_mask = None
    half = n // 2

    for start in range(0, total_masks, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total_masks), dtype=np.int64)
        # membership[i, k] = node k in U for mask i; node 0 always in U.
        memb = np.zeros((masks.size, n), dtype=np.float64)
        memb[:, 0] = 1.0
        memb[:, 1:] = (masks[:, None] >> (bit_idx - 1)[None, :]) & 1
        sizes_u = memb.sum(axis=1)
        sizes_v = n - sizes_u
        valid = sizes_v > 0
        if not valid.any():
            continue
        # cross U->V = sum_{i in U, j in V} adj[i, j]
        from_u = memb @ a  # [mask, node] = # links from U into each node
        cross_uv = (from_u * (1.0 - memb)).sum(axis=1)
        to_u = memb @ a.T
        cross_vu = (to_u * (1.0 - memb)).sum(axis=1)
        cross = np.minimum(cross_uv, cross_vu)

        with np.errstate(divide="ignore", invalid="ignore"):
            sparse_vals = np.where(valid, cross / (sizes_u * sizes_v), np.inf)
        k = int(np.argmin(sparse_vals))
        if sparse_vals[k] < best_sparse:
            best_sparse = float(sparse_vals[k])
            best_sparse_mask = memb[k].astype(bool)

        bal = valid & (sizes_u == half)
        if bal.any():
            bal_cross = np.where(bal, cross, np.inf)
            k = int(np.argmin(bal_cross))
            if bal_cross[k] < best_bal:
                best_bal = float(bal_cross[k])
                best_bal_mask = memb[k].astype(bool)

    return best_sparse, best_sparse_mask, best_bal, best_bal_mask
