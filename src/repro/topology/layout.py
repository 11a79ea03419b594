"""Router layouts and the Kite link-length taxonomy.

The paper places NoI routers on a regular grid (4x5 for the 20-router
system, 6x5 for 30, 8x6 for 48) and constrains which router pairs may be
linked by a maximum link length, using Kite's naming: a limit of ``(1,1)``
links is *small*, ``(2,0)`` is *medium*, ``(2,1)`` is *large* (paper
Fig. 3).  We interpret the limit Euclidean-geometrically: a link spanning
``(dx, dy)`` grid cells is allowed iff ``hypot(dx, dy) <= hypot(*limit)``,
which reproduces Kite's single-hop reach sets (e.g. medium allows
``(2,0)`` and ``(0,2)`` but not ``(2,1)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

#: Named link-length classes (paper Section III-A(b), Fig. 3).
LINK_CLASSES: Dict[str, Tuple[int, int]] = {
    "small": (1, 1),
    "medium": (2, 0),
    "large": (2, 1),
}

#: Hard ceiling on router counts: 4096 routers (a 64x64 grid) is already
#: beyond any plausible interposer, and every dense n² structure left in
#: the stack stays comfortably in memory below it.  Larger requests are
#: almost certainly typos and fail fast with a clear error.
MAX_ROUTERS = 4096

#: NoI clock frequency per link-length class, GHz (paper Section IV).
CLASS_CLOCK_GHZ: Dict[str, float] = {
    "small": 3.6,
    "medium": 3.0,
    "large": 2.7,
}


def class_max_length(cls: str) -> float:
    """Euclidean reach of a named link class, in grid units."""
    dx, dy = LINK_CLASSES[cls]
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class Layout:
    """Physical placement of NoI routers on a grid.

    Routers are labeled row-major: router ``r`` sits at
    ``(col, row) = (r % cols, r // cols)``.  This matches the paper's 4x5
    organization (4 rows of 5 columns, Fig. 2(b)): the left-most and
    right-most columns host memory-controller concentrations, the middle
    three columns host core concentrations.
    """

    rows: int
    cols: int

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def position(self, router: int) -> Tuple[int, int]:
        """(x, y) grid coordinates of a router."""
        if not 0 <= router < self.n:
            raise IndexError(f"router {router} out of range [0, {self.n})")
        return (router % self.cols, router // self.cols)

    def router_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise IndexError(f"({x},{y}) outside {self.cols}x{self.rows} grid")
        return y * self.cols + x

    def span(self, i: int, j: int) -> Tuple[int, int]:
        """Absolute (|dx|, |dy|) grid span between two routers."""
        xi, yi = self.position(i)
        xj, yj = self.position(j)
        return (abs(xi - xj), abs(yi - yj))

    def length(self, i: int, j: int) -> float:
        dx, dy = self.span(i, j)
        return math.hypot(dx, dy)

    def valid_links(self, link_class: str) -> List[Tuple[int, int]]:
        """All directed ``(i, j)`` pairs reachable within the class limit.

        This is the paper's valid-link set ``L`` (constraint C3).
        Vectorized and memoized per (layout, class): the historical
        per-pair Python loop was O(n²) work on *every* call, which
        dominated whole annealing runs at 256+ routers.
        """
        return list(_valid_links_cached(self.rows, self.cols, link_class))

    def link_class_of(self, i: int, j: int) -> str:
        """Smallest named class that admits link ``(i, j)``."""
        length = self.length(i, j)
        for cls in ("small", "medium", "large"):
            if length <= class_max_length(cls) + 1e-9:
                return cls
        raise ValueError(f"link ({i},{j}) longer than any named class")

    def mc_columns(self) -> Tuple[int, int]:
        """Columns whose routers host memory controllers (left, right)."""
        return (0, self.cols - 1)

    def mc_routers(self) -> List[int]:
        """Routers with memory-controller concentration (outer columns)."""
        left, right = self.mc_columns()
        return [r for r in range(self.n) if r % self.cols in (left, right)]

    def core_routers(self) -> List[int]:
        """Routers with core-only concentration (middle columns)."""
        mcs = set(self.mc_routers())
        return [r for r in range(self.n) if r not in mcs]


@lru_cache(maxsize=64)
def _valid_links_cached(
    rows: int, cols: int, link_class: str
) -> Tuple[Tuple[int, int], ...]:
    """Directed valid-link pairs, (i, j) row-major — the loop's order.

    The Euclidean test ``hypot(dx, dy) <= max_len + 1e-9`` over integer
    spans reduces to the exact integer comparison
    ``dx² + dy² <= max_dx² + max_dy²`` (the epsilon only ever guarded
    float equality), so the vectorized form reproduces the historical
    pair list bit-for-bit.
    """
    dx0, dy0 = LINK_CLASSES[link_class]
    lim2 = dx0 * dx0 + dy0 * dy0
    n = rows * cols
    out: List[Tuple[int, int]] = []
    xs = (np.arange(n, dtype=np.int32) % cols)
    ys = (np.arange(n, dtype=np.int32) // cols)
    chunk = max(1, (1 << 22) // max(n, 1))  # bound peak memory at 4096
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dx = xs[start:stop, None] - xs[None, :]
        dy = ys[start:stop, None] - ys[None, :]
        ok = dx * dx + dy * dy <= lim2
        ok[np.arange(start, stop) - start, np.arange(start, stop)] = False
        ii, jj = np.nonzero(ok)
        out.extend(zip((ii + start).tolist(), jj.tolist()))
    return tuple(out)


#: The paper's standard layouts.
LAYOUT_4X5 = Layout(rows=4, cols=5)  # 20 routers (synthetic + full system)
LAYOUT_6X5 = Layout(rows=6, cols=5)  # 30 routers (Table II lower half)
LAYOUT_8X6 = Layout(rows=8, cols=6)  # 48 routers (Fig. 11)


def standard_layout(n_routers: int) -> Layout:
    """The canonical grid for a router count.

    The paper's three studied sizes map to their published shapes (4x5,
    6x5, 8x6).  Any other count becomes the most-square ``rows x cols``
    factorization with ``rows <= cols`` (matching the paper's wider-than
    -tall orientation), so arbitrary system sizes are first-class design
    points rather than errors.  Prime counts fall back to a single row.
    """
    if n_routers <= 0:
        raise ValueError(
            f"router count must be positive, got {n_routers}"
        )
    if n_routers > MAX_ROUTERS:
        raise ValueError(
            f"router count {n_routers} exceeds the supported maximum "
            f"of {MAX_ROUTERS} (64x64)"
        )
    table = {20: LAYOUT_4X5, 30: LAYOUT_6X5, 48: LAYOUT_8X6}
    if n_routers in table:
        return table[n_routers]
    if n_routers < 2:
        raise ValueError(f"need at least 2 routers, got {n_routers}")
    rows = int(math.isqrt(n_routers))
    while rows > 1 and n_routers % rows:
        rows -= 1
    return Layout(rows=rows, cols=n_routers // rows)


def parse_layout(spec: str) -> Layout:
    """A :class:`Layout` from a ``"RxC"`` grid spec (e.g. ``"6x6"``)."""
    try:
        rows_s, cols_s = spec.lower().split("x")
        rows, cols = int(rows_s), int(cols_s)
    except ValueError:
        raise ValueError(f"layout spec must look like '4x5', got {spec!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError(
            f"layout {spec!r} needs positive dimensions, got {rows}x{cols}"
        )
    if rows * cols > MAX_ROUTERS:
        raise ValueError(
            f"layout {spec!r} has {rows * cols} routers, exceeding the "
            f"supported maximum of {MAX_ROUTERS} (64x64)"
        )
    if rows * cols < 2:
        raise ValueError(f"layout {spec!r} needs at least 2 routers")
    return Layout(rows=rows, cols=cols)
