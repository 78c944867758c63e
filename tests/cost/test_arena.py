"""The batch placement arena: dedup, prefix resume, and bit-identity.

Every assertion here is differential: whatever path a stream takes
through the arena (batch SoA drop, memo hit, digest dedup, prefix-
snapshot resume), the result must be the one the reference
``BinSet.place`` loop (``place_reference``) produces over fresh bins.  Both the numpy
lowering and the pure-``array`` fallback are exercised for each case.
"""

import random

import pytest

from repro.cost import (
    HAVE_NUMPY,
    PlacementArena,
    arena_cache_stats,
    arena_numpy_enabled,
    get_arena,
    place_batch,
    place_reference,
    place_stream,
    reset_arenas,
    reset_columnar_cache,
    reset_placement_cache,
    set_arena_numpy,
)
from repro.cost import arena as arena_mod
from repro.cost.columnar import compile_stream
from repro.machine import power_machine
from repro.machine.wide import wide_machine
from repro.translate.stream import Instr, InstrStream

FOCUS = 64

#: Both lowerings of the prefix machinery, numpy one only if installed.
MODES = [False] + ([True] if HAVE_NUMPY else [])


def setup_function(_):
    reset_placement_cache()
    reset_columnar_cache()
    reset_arenas()


@pytest.fixture(params=MODES, ids=lambda on: "numpy" if on else "fallback")
def numpy_mode(request):
    previous = set_arena_numpy(request.param)
    yield request.param
    set_arena_numpy(previous)


def _ops(machine):
    return [
        name for name in machine.table.names()
        if all(machine.has_unit(c.unit)
               for c in machine.table[name].costs if c.noncoverable > 0)
    ]


def _stream(machine, n, seed, prefix=None):
    """A random stream; with ``prefix``, its first len(prefix) instrs."""
    rng = random.Random(seed)
    names = _ops(machine)
    instrs = list(prefix or [])
    for i in range(len(instrs), n):
        deps = tuple(rng.sample(range(i), k=min(i, rng.randint(0, 3))))
        instrs.append(Instr(i, rng.choice(names), deps=deps))
    return instrs


def _reference(machine, instrs):
    return place_reference(machine, instrs, FOCUS)


def _same_placement(got, want):
    assert [(o.time, o.completion) for o in got.ops] == \
           [(o.time, o.completion) for o in want.ops]
    assert got.cycles == want.cycles
    assert got.block == want.block


# ---------------------------------------------------------------------------
# Batch path


def test_batch_matches_legacy_per_stream(numpy_mode):
    machine = power_machine()
    shared = _stream(machine, 40, seed=7)
    streams = [_stream(machine, 60, seed=100 + k, prefix=shared)
               for k in range(8)]
    results = place_batch(machine, streams, FOCUS, use_memo=False)
    for instrs, placed in zip(streams, results):
        _same_placement(placed, _reference(machine, instrs))
    stats = arena_cache_stats()
    assert stats["batches"] == 1 and stats["streams"] == 8
    assert stats["prefix_reuses"] >= 6          # siblings fork, not replay
    assert stats["prefix_ops_saved"] >= 6 * 16  # at least the first cut each


def test_batch_dedups_identical_streams(numpy_mode):
    machine = power_machine()
    base = _stream(machine, 30, seed=3)
    other = _stream(machine, 30, seed=4)
    results = place_batch(machine, [base, other, base, base], FOCUS,
                          use_memo=False)
    _same_placement(results[0], _reference(machine, base))
    _same_placement(results[1], _reference(machine, other))
    assert [(o.time, o.completion) for o in results[2].ops] == \
           [(o.time, o.completion) for o in results[0].ops]
    stats = arena_cache_stats()
    assert stats["dedup"] == 2
    assert stats["placed"] == 2                 # only the unique pair dropped


def test_batch_probes_and_feeds_the_placement_memo(numpy_mode):
    machine = power_machine()
    instrs = _stream(machine, 24, seed=11)
    warm = place_stream(machine, instrs, FOCUS)      # seeds the memo
    results = place_batch(machine, [instrs], FOCUS)
    _same_placement(results[0], warm)
    assert arena_cache_stats()["memo_hits"] == 1
    assert arena_cache_stats()["placed"] == 0
    # A fresh batch stream lands in the memo for later place_stream calls.
    fresh = _stream(machine, 24, seed=12)
    place_batch(machine, [fresh], FOCUS)
    before = arena_cache_stats()["placed"]
    _same_placement(place_stream(machine, fresh, FOCUS),
                    _reference(machine, fresh))
    assert arena_cache_stats()["placed"] == before   # served by the memo


def test_batch_accepts_mixed_stream_types(numpy_mode):
    machine = power_machine()
    instrs = _stream(machine, 12, seed=5)
    stream = InstrStream()
    for i in instrs:
        stream.append(i.atomic, deps=i.deps)
    compiled = compile_stream(machine, instrs)
    results = place_batch(machine, [instrs, stream, compiled], FOCUS,
                          use_memo=False)
    want = _reference(machine, instrs)
    _same_placement(results[0], want)
    _same_placement(results[2], want)
    assert results[1].cycles == want.cycles


def test_empty_batch_and_empty_stream(numpy_mode):
    machine = power_machine()
    assert place_batch(machine, [], FOCUS) == []
    results = place_batch(machine, [[]], FOCUS, use_memo=False)
    assert results[0].cycles == 0 and results[0].ops == ()


def test_foreign_compiled_stream_rejected():
    compiled = compile_stream(power_machine(), [Instr(0, "fpu_arith")])
    with pytest.raises(ValueError):
        get_arena(wide_machine()).place_batch([compiled])


# ---------------------------------------------------------------------------
# Toggles and registry


def test_set_arena_numpy_requires_numpy(monkeypatch):
    monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
    with pytest.raises(RuntimeError):
        set_arena_numpy(True)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_numpy_toggle_round_trips():
    previous = set_arena_numpy(True)
    try:
        assert arena_numpy_enabled()
        assert set_arena_numpy(False) is True
        assert not arena_numpy_enabled()
    finally:
        set_arena_numpy(previous)


def test_lcp_agrees_across_lowerings():
    from array import array

    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(0, 300)
        a = array("q", [rng.randint(0, 5) for _ in range(n)])
        b = array("q", a)
        if n and rng.random() < 0.8:
            cut = rng.randrange(n)
            b[cut] = a[cut] + 1
        limit = min(len(a), len(b))
        previous = set_arena_numpy(False)
        try:
            fallback = arena_mod._lcp(a, b, limit)
            if HAVE_NUMPY:
                set_arena_numpy(True)
                assert arena_mod._lcp(a, b, limit) == fallback
        finally:
            set_arena_numpy(previous)
        want = limit
        for k in range(limit):
            if a[k] != b[k]:
                want = k
                break
        assert fallback == want


def test_get_arena_is_shared_and_keyed():
    machine = power_machine()
    assert get_arena(machine, 64) is get_arena(machine, 64)
    assert get_arena(machine, 64) is not get_arena(machine, 8)
    with pytest.raises(ValueError):
        PlacementArena(machine, focus_span=0)

