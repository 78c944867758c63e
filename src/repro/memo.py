"""One bounded memo type and one counter type, with one stats surface.

Every process-local reuse in the predictor -- the placement memo,
compiled streams, the predictor pool, the sweep ladder, family
members, compiled op tables, feature extraction -- is a pure cache:
dropping an entry costs recomputation, never a different answer.  So
they all share one implementation, :class:`LRU`, and every work tally
(arena drops, sweep runs, calibrations) is a :class:`Counters` group.

An instance constructed with a ``name`` registers itself;
:func:`snapshot` reads every registered instance at once and
:func:`delta` subtracts two snapshots.  That pair is how work done in
a pool worker process reaches the serving process's ``/metrics``: the
worker returns ``delta(before, after)`` with its results, and the
engine folds it in.  Export names follow one rule: key ``k`` of group
``X`` is the counter ``repro_X_k_total``, except an LRU's ``entries``,
which is the gauge ``repro_X_entries``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable, Mapping

__all__ = ["LRU", "Counters", "snapshot", "delta"]

_MISSING = object()

#: name -> stats reader of every named memo / counter group.
_REGISTRY: dict[str, Callable[[], dict[str, int]]] = {}


def _register(name: str, read: Callable[[], dict[str, int]]) -> None:
    # Two groups under one name would export one series twice over.
    if name in _REGISTRY:
        raise ValueError(f"stats group {name!r} is already registered")
    _REGISTRY[name] = read


class LRU:
    """A thread-safe bounded memo with least-recently-used eviction.

    A ``name`` registers the instance with :func:`snapshot` for the
    life of the process, so only process-wide memos take one.
    """

    __slots__ = ("limit", "hits", "misses", "evictions", "_data", "_lock")

    def __init__(self, limit: int, name: str | None = None):
        if limit < 1:
            raise ValueError("LRU limit must be at least 1")
        self.limit = limit
        self.hits = self.misses = self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        if name is not None:
            _register(name, self.stats)

    def get(self, key: Hashable) -> Any:
        """The value for ``key`` (refreshing it), or ``None``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable) -> Any:
        """Like :meth:`get`, but not counted as a hit or a miss.

        For speculative probes (the learned tier asks "is this warm?"
        before deciding to fall through) that would otherwise count
        one lookup twice.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return None
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``; evict the least recently used past ``limit``."""
        with self._lock:
            data = self._data
            data[key] = value
            data.move_to_end(key)
            while len(data) > self.limit:
                data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "entries": len(self._data)}


class Counters:
    """A locked group of monotonic counts (reset only by :meth:`reset`)."""

    __slots__ = ("_keys", "_counts", "_lock")

    def __init__(self, name: str, keys: Iterable[str]):
        self._keys = tuple(keys)
        self._counts = dict.fromkeys(self._keys, 0)
        self._lock = threading.Lock()
        _register(name, self.snapshot)

    def bump(self, **deltas: int) -> None:
        with self._lock:
            counts = self._counts
            for key, value in deltas.items():
                counts[key] += value

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(self._keys, 0)


def snapshot() -> dict[str, dict[str, int]]:
    """Stats of every named :class:`LRU` and :class:`Counters` group."""
    return {name: read() for name, read in list(_REGISTRY.items())}


def delta(before: Mapping[str, Mapping[str, int]],
          after: Mapping[str, Mapping[str, int]]) -> dict[str, dict[str, int]]:
    """Per-group counter increases from ``before`` to ``after``.

    ``entries`` is a size, not a count, and is left out.  A count that
    went down was reset in between (``clear``/``reset``), so -- as a
    Prometheus scraper reads a counter reset -- its increase is its
    new value.
    """
    out: dict[str, dict[str, int]] = {}
    for group, counts in after.items():
        prior = before.get(group, {})
        out[group] = increases = {}
        for key, value in counts.items():
            if key != "entries":
                last = prior.get(key, 0)
                increases[key] = value - last if value >= last else value
    return out
