"""The shared memo type, counter groups, and the snapshot/delta surface."""

import random
import sys
import threading

import pytest

from repro import memo
from repro.memo import LRU, Counters


@pytest.fixture
def registry(monkeypatch):
    """A scratch registry: groups named here vanish after the test,
    so later engines in the session never export them."""
    monkeypatch.setattr(memo, "_REGISTRY", dict(memo._REGISTRY))


def test_lru_evicts_least_recently_used_not_oldest():
    cache = LRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh "a": "b" is now oldest
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats() == {"hits": 3, "misses": 1, "evictions": 1,
                             "entries": 2}


def test_lru_peek_is_not_counted_and_clear_zeros():
    cache = LRU(4)
    assert cache.peek("x") is None
    cache.put("x", 0)
    assert cache.peek("x") == 0
    assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0
    cache.get("x")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0,
                             "entries": 0}


def test_lru_concurrent_get_put_at_capacity():
    """Racing readers and writers on a full LRU never raise, never
    overflow the bound, and count every lookup exactly once."""
    cache = LRU(64)
    threads, calls = 4, 20_000
    errors: list[BaseException] = []

    def hammer(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(calls):
                key = rng.randrange(80)
                if cache.get(key) is None:
                    cache.put(key, key)
        except BaseException as error:  # noqa: BLE001 -- the assertion
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    stats = cache.stats()
    assert len(cache) <= 64
    assert stats["hits"] + stats["misses"] == threads * calls


def test_counters_bump_snapshot_reset(registry):
    group = Counters("test_memo_group", ("runs", "items"))
    group.bump(runs=1, items=5)
    group.bump(items=2)
    assert group.snapshot() == {"runs": 1, "items": 7}
    assert memo.snapshot()["test_memo_group"] == {"runs": 1, "items": 7}
    group.reset()
    assert group.snapshot() == {"runs": 0, "items": 0}


def test_named_lru_registers_and_delta_reads_increases(registry):
    cache = LRU(8, "test_memo_lru")
    before = memo.snapshot()
    cache.get("k")
    cache.put("k", 1)
    cache.get("k")
    increases = memo.delta(before, memo.snapshot())["test_memo_lru"]
    # entries is a size, not a count: never part of a delta
    assert increases == {"hits": 1, "misses": 1, "evictions": 0}


def test_delta_reads_a_reset_as_a_fresh_start():
    before = {"g": {"runs": 10, "entries": 3}}
    after = {"g": {"runs": 4, "entries": 0}, "new": {"runs": 2}}
    assert memo.delta(before, after) == {"g": {"runs": 4},
                                         "new": {"runs": 2}}


def test_duplicate_group_name_is_rejected(registry):
    LRU(2, "test_memo_twice")
    with pytest.raises(ValueError):
        Counters("test_memo_twice", ("runs",))


def test_test_groups_do_not_leak_into_the_registry():
    assert not [name for name in memo.snapshot()
                if name.startswith("test_memo")]
