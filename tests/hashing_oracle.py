"""Reference cache-key hashing: walk every object, table docs included.

This is :func:`repro.runner.hashing.canonicalize` as it was before
table docs became :class:`~repro.runner.hashing.CanonicalDoc`, kept
verbatim as the A/B oracle: it rebuilds every dict and list of a
payload, so a routing table's ~n² entries are walked on every key.
Production keys must equal this walk's keys byte for byte (every
existing cache entry depends on it).  Test-only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to plain JSON types with a deterministic layout."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": list(obj.shape), "data": obj.tolist()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                k = json.dumps(canonicalize(k), sort_keys=True)
            out[k] = canonicalize(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(canonicalize(v), sort_keys=True) for v in obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of a canonicalized object."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding (the cache key)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def task_key(task_name: str, payload: Any) -> str:
    """:func:`repro.runner.task_key` over the walking hash."""
    return config_hash({"task": task_name, "payload": payload})
