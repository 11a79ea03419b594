"""Markov-modulated bursty traffic: on/off gates over any pattern.

A :class:`BurstSpec` attaches a two-state Markov chain (per node, or one
global chain) to a :class:`~repro.sim.traffic.TrafficSpec`.  Each
cycle every node is ON or OFF; the node's *effective* injection rate is
``rate * on_scale`` while ON and ``rate * off_scale`` while OFF.  By
default ``on_scale`` is normalized so the stationary mean effective rate
equals the nominal rate — a bursty pattern and its stationary twin are
directly comparable on the same sweep axis.

Two chain kinds:

* ``"mmpp"`` — independent per-node chains (the classic Markov-modulated
  on/off source): nodes burst out of phase, stressing transient queue
  build-up;
* ``"storm"`` — one global chain shared by every node: all sources surge
  together (combine with a hotspot pattern for an incast storm);
* ``"lrd"`` — independent per-node on/off sources with truncated-Pareto
  sojourn times (shape ``alpha``): the aggregate is long-range-dependent
  / self-similar traffic in the Willinger on/off sense, with burst
  lengths spanning orders of magnitude instead of the geometric
  sojourns of ``"mmpp"``.  ``p_on``/``p_off`` keep their meaning as
  reciprocal mean sojourn lengths (mean OFF sojourn ``1/p_on``, mean ON
  sojourn ``1/p_off``), so ``duty = p_on / (p_on + p_off)`` and the
  mean-preserving ``on_scale`` normalization carry over unchanged.  The
  Pareto scale is solved numerically so the *discrete truncated* sojourn
  mean hits its target exactly (truncation keeps single sojourns from
  swallowing a whole run).

The gate draws come from a *dedicated* RNG seeded by the spec — never
from the simulation's packet-draw stream.  Only the per-(cycle, node)
Bernoulli threshold changes; the reference oracle
(``tests/network_oracle.py``), :class:`~repro.sim.trace.TraceStream`
(the fast engine's traffic) and turbo's batched traces all consume the
identical gate sequence, so bursty runs stay bit-identical across the
exact engines exactly like stationary ones.

All chains start OFF at cycle 0, so a short run's realized mean sits
slightly below nominal; the stationary mean matches (tests pin it over
long horizons).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

BURST_KINDS = ("mmpp", "storm", "lrd")


def _pareto_xm(mean: float, alpha: float, trunc: int) -> float:
    """Scale ``xm`` so the discrete truncated-Pareto sojourn hits ``mean``.

    A sojourn is ``S = ceil(min(xm * (1 - U)**(-1/alpha), trunc))`` for
    ``U ~ Uniform[0, 1)``; its exact mean is ``1 + sum_{k=1}^{trunc-1}
    min(1, (xm/k)**alpha)``, strictly increasing in ``xm`` — solved by
    bisection.  Means at or below 1 cycle degenerate to ``S == 1``.
    """
    if mean <= 1.0:
        return 0.0
    k = np.arange(1, trunc, dtype=np.float64)

    def expected(xm: float) -> float:
        return 1.0 + float(np.minimum(1.0, (xm / k) ** alpha).sum())

    lo, hi = 0.0, float(trunc)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if expected(mid) < mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class BurstSpec:
    """Pure-data description of an on/off modulation chain.

    ``p_on`` is the per-cycle OFF->ON transition probability, ``p_off``
    the ON->OFF one (for ``"lrd"``, the reciprocal mean OFF/ON sojourn
    lengths).  ``on_scale=None`` (the default) resolves to the
    mean-preserving value ``(1 - (1 - duty) * off_scale) / duty`` where
    ``duty = p_on / (p_on + p_off)`` is the stationary ON fraction.
    ``alpha`` is the Pareto tail shape, used by ``"lrd"`` only; it must
    exceed 1 there (finite mean sojourns).
    """

    kind: str
    p_on: float
    p_off: float
    on_scale: Optional[float] = None
    off_scale: float = 0.0
    seed: int = 0
    alpha: float = 1.5

    def __post_init__(self):
        if self.kind not in BURST_KINDS:
            raise ValueError(
                f"unknown burst kind {self.kind!r}: expected one of {BURST_KINDS}"
            )
        if not 0.0 < self.p_on <= 1.0 or not 0.0 < self.p_off <= 1.0:
            raise ValueError(
                f"burst transition probabilities must be in (0, 1], got "
                f"p_on={self.p_on!r} p_off={self.p_off!r}"
            )
        if self.off_scale < 0.0:
            raise ValueError(f"off_scale must be >= 0, got {self.off_scale!r}")
        if self.on_scale is not None and self.on_scale < 0.0:
            raise ValueError(f"on_scale must be >= 0, got {self.on_scale!r}")
        if self.kind == "lrd" and not self.alpha > 1.0:
            raise ValueError(
                f"lrd burst needs a Pareto shape alpha > 1 (finite mean "
                f"sojourns), got alpha={self.alpha!r}"
            )

    @property
    def duty_cycle(self) -> float:
        """Stationary ON probability of the chain."""
        return self.p_on / (self.p_on + self.p_off)

    @property
    def resolved_on_scale(self) -> float:
        if self.on_scale is not None:
            return float(self.on_scale)
        duty = self.duty_cycle
        return (1.0 - (1.0 - duty) * self.off_scale) / duty

    @property
    def max_scale(self) -> float:
        return max(self.resolved_on_scale, self.off_scale)

    def key(self) -> tuple:
        """Canonical identity: the field values in declaration order, so
        ``BurstSpec(*spec.key()) == spec`` (the traffic doc's ``burst``)."""
        return (
            self.kind, self.p_on, self.p_off,
            self.on_scale, self.off_scale, self.seed, self.alpha,
        )

    def state(self, n_nodes: int) -> "BurstState":
        return BurstState(self, n_nodes)


class BurstState:
    """Deterministic replayable gate sequence for one (spec, n) pair.

    ``row(t)`` is the per-node rate-scale vector at cycle ``t``.  Rows
    are generated forward from cycle 0 and cached, so any consumer — the
    reference engine stepping cycle by cycle, a trace chunking thousands
    ahead, or a rebuilt trace resuming mid-run — reads the identical
    sequence from its own instance.
    """

    def __init__(self, spec: BurstSpec, n_nodes: int):
        self.spec = spec
        self.n = int(n_nodes)
        self.rng = np.random.default_rng(spec.seed)
        self._on_scale = spec.resolved_on_scale
        self._off_scale = spec.off_scale
        self._rows: List[np.ndarray] = []
        if spec.kind == "storm":
            self._on = False  # one global chain
        elif spec.kind == "lrd":
            # Per-node heavy-tailed on/off: precompute per-phase Pareto
            # scale + truncation, then draw every node's initial OFF
            # sojourn (chains start OFF like the Markov kinds).
            self._on = np.zeros(self.n, dtype=bool)
            mean_on = 1.0 / spec.p_off
            mean_off = 1.0 / spec.p_on
            self._t_on = max(64, int(np.ceil(50.0 * mean_on)))
            self._t_off = max(64, int(np.ceil(50.0 * mean_off)))
            self._xm_on = _pareto_xm(mean_on, spec.alpha, self._t_on)
            self._xm_off = _pareto_xm(mean_off, spec.alpha, self._t_off)
            u = self.rng.random(self.n)
            self._remain = self._sojourn(u, np.zeros(self.n, dtype=bool))
        else:
            self._on = np.zeros(self.n, dtype=bool)  # per-node chains

    def _sojourn(self, u: np.ndarray, now_on: np.ndarray) -> np.ndarray:
        """Truncated-Pareto sojourn lengths for nodes entering the given
        phase (``now_on`` per element), one uniform draw each."""
        inv = 1.0 / self.spec.alpha
        s_on = np.minimum(self._xm_on * (1.0 - u) ** (-inv), self._t_on)
        s_off = np.minimum(self._xm_off * (1.0 - u) ** (-inv), self._t_off)
        s = np.where(now_on, s_on, s_off)
        return np.maximum(np.ceil(s).astype(np.int64), 1)

    def _extend_to(self, t: int) -> None:
        spec = self.spec
        rng = self.rng
        rows = self._rows
        while len(rows) <= t:
            if spec.kind == "storm":
                scale = self._on_scale if self._on else self._off_scale
                rows.append(np.full(self.n, scale))
                u = rng.random()
                self._on = (u >= spec.p_off) if self._on else (u < spec.p_on)
            elif spec.kind == "lrd":
                rows.append(
                    np.where(self._on, self._on_scale, self._off_scale)
                )
                self._remain -= 1
                idx = np.flatnonzero(self._remain == 0)
                if idx.size:
                    now_on = ~self._on[idx]
                    self._on[idx] = now_on
                    u = rng.random(idx.size)
                    self._remain[idx] = self._sojourn(u, now_on)
            else:
                rows.append(
                    np.where(self._on, self._on_scale, self._off_scale)
                )
                u = rng.random(self.n)
                self._on = np.where(self._on, u >= spec.p_off, u < spec.p_on)

    def row(self, t: int) -> np.ndarray:
        """Per-node rate scales at cycle ``t`` (read-only)."""
        if len(self._rows) <= t:
            self._extend_to(t)
        return self._rows[t]

    def rows(self, t0: int, t1: int) -> np.ndarray:
        """The ``(t1 - t0, n)`` scale matrix for cycles ``[t0, t1)``."""
        if t1 <= t0:
            return np.empty((0, self.n))
        self._extend_to(t1 - 1)
        return np.stack(self._rows[t0:t1])


def parse_burst(text: str) -> BurstSpec:
    """Parse a CLI burst spec:
    ``KIND[:p_on,p_off[,on_scale[,off_scale[,seed[,alpha]]]]]``.

    ``on_scale`` accepts ``auto`` for the mean-preserving default.
    Examples: ``mmpp``, ``storm:0.1,0.3``, ``mmpp:0.2,0.2,2.5,0.1``,
    ``lrd:0.1,0.25,auto,0,0,1.4``.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    fields = [f.strip() for f in rest.split(",")] if rest else []
    try:
        p_on = float(fields[0]) if len(fields) > 0 else 0.2
        p_off = float(fields[1]) if len(fields) > 1 else 0.2
        on_scale = (
            None
            if len(fields) < 3 or fields[2] in ("", "auto")
            else float(fields[2])
        )
        off_scale = float(fields[3]) if len(fields) > 3 else 0.0
        seed = int(fields[4]) if len(fields) > 4 else 0
        alpha = float(fields[5]) if len(fields) > 5 else 1.5
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed burst spec {text!r}: {exc}") from None
    return BurstSpec(
        kind=kind, p_on=p_on, p_off=p_off,
        on_scale=on_scale, off_scale=off_scale, seed=seed, alpha=alpha,
    )
