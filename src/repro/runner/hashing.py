"""Canonical serialization and content hashing for cache keys.

Cache keys are SHA-256 digests of a *canonical* JSON encoding: dict keys
sorted, tuples and sets normalized to lists, numpy scalars unwrapped and
arrays expanded, dataclasses flattened to ``{class: ..., fields: ...}``.
Two configurations that compare equal always hash equal, regardless of
dict insertion order or int-vs-numpy-int typing, so a cache entry written
by one process is found by any other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from typing import Any, List, Optional

import numpy as np

_SEPARATORS = (",", ":")

#: A :class:`CanonicalDoc`'s stand-in while the object around it is
#: encoded: this mark plus the doc's index.  ``json`` escapes NUL, so the
#: stand-in reads ``"\u0000<i>"`` in the encoded text.
_MARK = "\x00"
_MARK_JSON = "\\u0000"
_MARK_RE = re.compile(r'"\\u0000(\d+)"')


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=_SEPARATORS)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CanonicalDoc(dict):
    """A JSON object that is canonical by construction.

    The code constructing one guarantees str keys and only plain JSON
    values inside (``None``, bool, int, float, str, lists and nested
    dicts of those), which is exactly what :func:`canonicalize` would
    produce, so ``canonicalize`` returns it as is instead of walking it.
    The encoding — hence every cache key — is the one the walk would
    give.

    A doc also memoizes its canonical JSON text and that text's SHA-256
    digest, both built the first time either is needed:
    :func:`canonical_json` splices the text into every key that embeds
    the doc instead of encoding the doc again, and the digest names the
    doc (:func:`config_hash` of the doc, the worker-side table memo).  A
    pickled doc carries its digest but not its text, so a worker process
    finds the doc's memo entry without hashing it.  The digest lives
    outside the dict, hence outside every key.  A doc must not be
    mutated once encoded.
    """

    __slots__ = ("_text", "_digest")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._text: Optional[str] = None
        self._digest: Optional[str] = None

    def text(self) -> str:
        """The canonical JSON text (built once, with the digest)."""
        if self._text is None:
            self._text = _dumps(self)
            if self._digest is None:
                self._digest = _sha256(self._text)
        return self._text

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`text`."""
        if self._digest is None:
            self.text()
        return self._digest

    def __reduce__(self):
        return (CanonicalDoc, (), self._digest, None, iter(self.items()))

    def __setstate__(self, digest: str) -> None:
        self._digest = digest


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to plain JSON types with a deterministic layout."""
    return _canonical(obj, None)


def _canonical(obj: Any, docs: Optional[List[CanonicalDoc]]) -> Any:
    """:func:`canonicalize`; with a ``docs`` list, each
    :class:`CanonicalDoc` is appended to it and replaced by its mark."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
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
                f.name: _canonical(getattr(obj, f.name), docs)
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        if isinstance(obj, CanonicalDoc):
            if docs is None:
                return obj
            docs.append(obj)
            return f"{_MARK}{len(docs) - 1}"
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                k = json.dumps(canonicalize(k), sort_keys=True)
            out[k] = _canonical(v, docs)
        return out
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, docs) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(canonicalize(v), sort_keys=True) for v in obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of a canonicalized object.

    Every :class:`CanonicalDoc` inside contributes its memoized text, so
    a routing table's ~n² entries are encoded once per run, not once per
    task key.
    """
    docs: List[CanonicalDoc] = []
    text = _dumps(_canonical(obj, docs))
    if not docs:
        return text
    if text.count(_MARK_JSON) != len(docs):
        # A string of ``obj`` itself encodes to the mark's escape:
        # encode the docs in place instead (the same text, slower).
        return _dumps(canonicalize(obj))
    # One pass over the outer text: a spliced doc's own text is never
    # searched for marks.
    return _MARK_RE.sub(lambda m: docs[int(m.group(1))].text(), text)


def config_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding (the cache key)."""
    if isinstance(obj, CanonicalDoc):
        return obj.digest()
    return _sha256(canonical_json(obj))
