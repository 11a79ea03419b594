"""Bit-exact, vectorizable reconstruction of numpy's PCG64 draw stream.

The reference simulator's traffic generation (the test-only oracle
``tests/network_oracle.py``) interleaves three kinds of draws from one
``np.random.Generator``:

* ``rng.random(n)`` / ``rng.random()`` — each double consumes one raw
  64-bit word: ``(u >> 11) * 2**-53``;
* ``rng.integers(m)`` (``m`` fitting 32 bits, the only case traffic
  uses) — Lemire's multiply-shift rejection on a 32-bit *half-word*
  stream: PCG64 serves the **low** half of a fresh 64-bit word first and
  caches the high half for the next half-word request.  The cache lives
  in the bit-generator state (``has_uint32``/``uinteger``), survives
  interleaved ``random()`` and full-range 64-bit draws, and — special
  case — a draw with ``m == 1`` returns 0 without consuming anything;
* full-range ``rng.integers(0, 2**64, dtype=uint64)`` — raw words,
  bypassing (and preserving) the half-word cache.

Those three facts let batched generation replicate the reference's
per-packet draw sequence exactly: pull raw 64-bit words in bulk, convert
to doubles or Lemire-32 bounded integers *positionally*, and track the
half-word cache arithmetic instead of calling the Generator per packet.
:mod:`repro.sim.trace` (whole-trace pregeneration) and
:mod:`repro.fullsys.fastloop` (closed-loop draws) read their streams
through these helpers.

Every helper is pinned by the differential and property suites; a
numpy release that changed the underlying algorithms would surface as
an equality failure there, not as silent drift.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: ``(u >> 11) * DOUBLE_SCALE`` is numpy's uint64 -> [0, 1) double map.
DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53

_U32_MASK = np.uint64(0xFFFFFFFF)
_SHIFT_11 = np.uint64(11)
_SHIFT_32 = np.uint64(32)


def take_raw(rng: np.random.Generator, k: int) -> np.ndarray:
    """The next ``k`` raw 64-bit words of ``rng``'s stream.

    Uses the full-range ``integers`` path, which emits ``next_uint64``
    outputs verbatim and neither consumes nor clears the 32-bit
    half-word cache.
    """
    return rng.integers(0, 1 << 64, size=k, dtype=np.uint64)


def doubles_from_raw(u: np.ndarray) -> np.ndarray:
    """Map raw words to the doubles ``rng.random()`` would have returned."""
    return (u >> _SHIFT_11).astype(np.float64) * DOUBLE_SCALE


def lemire32(
    u32: np.ndarray, bound: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized first-attempt Lemire-32: values and rejection mask.

    ``u32`` holds half-words (as uint64), ``bound`` the (broadcastable)
    exclusive upper bounds, all ``>= 2``.  Returns ``(values, reject)``
    where ``reject`` marks draws the reference would have redrawn — a
    one-in-billions event for traffic-sized bounds, but one that shifts
    every later stream position, so callers must detect it and fall
    back to scalar emulation.
    """
    bound = np.asarray(bound, dtype=np.uint64)
    prod = u32 * bound  # < 2**64: both factors fit 32 bits
    values = (prod >> _SHIFT_32).astype(np.int64)
    leftover = prod & _U32_MASK
    thresholds = np.uint64(1 << 32) % bound
    return values, leftover < thresholds


def lemire32_scalar(next_u32, bound: int) -> int:
    """Exact scalar ``integers(bound)`` emulation over a half-word source.

    ``next_u32`` is a callable yielding successive half-words (Python
    ints).  Mirrors numpy including the ``bound == 1`` no-consume case
    and the rejection loop.
    """
    if bound == 1:
        return 0
    if bound <= 0:
        raise ValueError(
            f"destination draw with empty candidate set (bound {bound}) — "
            f"degenerate traffic pattern"
        )
    threshold = (1 << 32) % bound
    while True:
        prod = next_u32() * bound
        if (prod & 0xFFFFFFFF) >= threshold:
            return prod >> 32
