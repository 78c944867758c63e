"""Batch placement arena: multi-stream Tetris drops with prefix dedup.

A beam round of 64 sibling candidates, a router sub-batch, or a service
chunk places many *near-identical* instruction streams back to back:
siblings differ only where a transformation touched the program, so
their compiled streams share long common prefixes.  The single-stream
kernel (:mod:`repro.cost.columnar`) re-drops every shared prefix from
scratch; the arena doesn't.

A :class:`PlacementArena` is pinned to one (machine fingerprint, focus
span) pair and is the production path for *batches*
(:meth:`PlacementArena.place_batch`, or the module-level
:func:`place_batch`); a single stream goes through
:func:`repro.cost.placement.place_stream` instead.  All candidate
streams are lowered into one concatenated structure-of-arrays (op-id /
dep / one-time ``array('q')`` columns with per-stream offsets, dep
entries rebased to global positions), identical streams are deduped on
their ``placement_digest``, and the remainder are sorted by token
sequence so streams sharing a prefix become neighbours.  Placement then
walks the sorted order with a stack of bin-state snapshots: each stream
resumes from the deepest snapshot covered by its common prefix with the
previous stream (the classic suffix-array LCP argument makes
consecutive LCPs sufficient), re-dropping only its unshared suffix.

The arena runs the *same* fused drop loop as the single-stream path
(:func:`repro.cost.columnar.drop_range`), just over restored bin
state -- placement from an empty bin set is a pure function of the
instruction prefix (op ids + dependence structure), so resuming a
cloned snapshot and replaying the suffix is bit-identical to an
uninterrupted drop.  ``tests/cost/test_arena_property.py`` enforces
this element-wise against both the fused kernel and the reference
:func:`~repro.cost.placement.place_reference`, including the full bin
grids.

Tokens are interned ids of ``(op id, resolved dep positions)`` -- the
exact pair the drop loop consumes.  ``one_time`` flags and original
instruction indices are deliberately *excluded*: placement never reads
them, so excluding them lets streams that differ only there still share
prefix state (their digests differ, their placements don't).

numpy, when importable (``pip install repro[fast]``), lowers the
prefix-analysis machinery -- the token mismatch scans behind every LCP
query run as one vectorized compare instead of a chunked walk.  The
drop loop itself stays in the shared pure-Python kernel:
bit-identity with the reference placement is the contract, and at these
stream sizes a dense ndarray lowering of the signed-block walk loses
to the block-skipping list kernel anyway.  ``REPRO_ARENA_NUMPY=0``
forces the pure-``array`` fallback for A/B runs and tests.
"""

from __future__ import annotations

import os
import threading
from array import array
from collections import OrderedDict
from typing import Sequence

from ..machine.compiled import compile_ops
from ..machine.machine import Machine
from ..memo import LRU, Counters
from ..obs import trace_span
from ..translate.stream import InstrStream
from .bins import BinSet
from .columnar import CompiledStream, _resolve, compile_stream, drop_range
from .placement import (
    DEFAULT_FOCUS_SPAN,
    PlacedBlock,
    _LazyOps,
    _machine_fingerprint,
    _memo_probe,
    _memo_store,
    _share,
    _summarize,
)

__all__ = [
    "HAVE_NUMPY",
    "PlacementArena",
    "arena_cache_stats",
    "arena_numpy_enabled",
    "get_arena",
    "place_batch",
    "reset_arenas",
    "set_arena_numpy",
]

try:  # pragma: no cover - exercised via both-path tests either way
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when numpy is importable (the ``repro[fast]`` extra).
HAVE_NUMPY = _np is not None

_numpy_on = HAVE_NUMPY and os.environ.get("REPRO_ARENA_NUMPY", "1") != "0"


def arena_numpy_enabled() -> bool:
    """Is the numpy lowering of the prefix machinery active?"""
    return _numpy_on


def set_arena_numpy(enabled: bool) -> bool:
    """Toggle the numpy lowering (tests exercise both paths); returns
    the previous setting.  Enabling without numpy installed raises."""
    global _numpy_on
    if enabled and not HAVE_NUMPY:
        raise RuntimeError(
            "numpy is not installed; pip install 'repro[fast]'")
    previous = _numpy_on
    _numpy_on = bool(enabled)
    return previous


# ----------------------------------------------------------------------
# Prefix tokens

#: Intern-table bound; past it the arena's token world is flushed
#: wholesale (tokens and intern ids) so ids can never be reused with
#: a different meaning.
_INTERN_LIMIT = 65536

#: Cached token sequences per stream digest (per arena).
_TOKEN_CACHE_LIMIT = 4096

#: Pure-python LCP scan granularity: ``array`` slice equality is a
#: C-level memcmp, so comparing 64 tokens at a time costs ~one Python
#: bytecode per 64 tokens on the (overwhelmingly common) equal chunks.
_LCP_CHUNK = 64


def _lcp(a: array, b: array, limit: int) -> int:
    """Length of the longest common prefix of ``a`` and ``b`` (<= limit)."""
    if limit <= 0:
        return 0
    if _numpy_on:
        mismatch = _np.flatnonzero(
            _np.frombuffer(a, _np.int64, limit)
            != _np.frombuffer(b, _np.int64, limit))
        return limit if mismatch.size == 0 else int(mismatch[0])
    pos = 0
    while pos < limit:
        step = limit - pos
        if step > _LCP_CHUNK:
            step = _LCP_CHUNK
        if a[pos:pos + step] == b[pos:pos + step]:
            pos += step
            continue
        for k in range(pos, pos + step):
            if a[k] != b[k]:
                return k
    return limit


# ----------------------------------------------------------------------
# Snapshots


class _Snapshot:
    """Frozen placement state after the first ``pos`` instructions.

    Immutable once constructed: the bins are cloned again on every
    restore, so one snapshot can seed any number of forks (including
    concurrently from several threads).
    """

    __slots__ = ("pos", "bins", "times", "completions")

    def __init__(self, pos: int, bins: BinSet,
                 times: list[int], completions: list[int]):
        self.pos = pos
        self.bins = bins
        self.times = times
        self.completions = completions


# ----------------------------------------------------------------------
# Aggregate counters (exported as repro_arena_*_total on /metrics)

_counts = Counters("arena", (
    "batches",           # place_batch calls
    "streams",           # streams handed to place_batch
    "dedup",             # duplicate-digest streams answered by a sibling
    "memo_hits",         # streams answered by the placement memo
    "prefix_reuses",     # streams resumed from a prefix snapshot
    "prefix_ops_saved",  # instructions not re-dropped thanks to resume
    "placed",            # streams that ran the drop loop
    "drops",             # instructions actually dropped
))


def arena_cache_stats() -> dict[str, int]:
    """Snapshot of the arena counters plus registry occupancy."""
    return {**_counts.snapshot(), "arenas": len(_arenas)}


# ----------------------------------------------------------------------


class PlacementArena:
    """Batch/prefix-sharing placement for one (machine, focus span).

    All state is guarded by one lock; snapshots are immutable and bins
    are cloned on restore, so the drop loops themselves run unlocked.
    """

    def __init__(self, machine: Machine, focus_span: int = DEFAULT_FOCUS_SPAN):
        if focus_span < 1:
            raise ValueError("focus span must be at least 1")
        self.machine = machine
        self.focus_span = focus_span
        self.fingerprint = _machine_fingerprint(machine)
        self.ops = compile_ops(machine, self.fingerprint)
        self._lock = threading.Lock()
        self._intern: dict[tuple, int] = {}
        self._tokens = LRU(_TOKEN_CACHE_LIMIT)

    # -- tokens ---------------------------------------------------------
    def _flush_locked(self) -> None:
        """Drop every structure that embeds intern ids (see _INTERN_LIMIT)."""
        self._intern.clear()
        self._tokens.clear()

    def _tokenize_locked(self, stream: CompiledStream) -> array:
        tokens = self._tokens.get(stream.digest)
        if tokens is not None:
            return tokens
        if len(self._intern) > _INTERN_LIMIT:
            self._flush_locked()
        intern = self._intern
        op_ids = stream.op_ids
        dep_ptr = stream.dep_ptr
        deps = stream.deps
        tokens = array("q", bytes(0))
        for i in range(len(op_ids)):
            key = (op_ids[i], tuple(deps[dep_ptr[i]:dep_ptr[i + 1]]))
            token = intern.get(key)
            if token is None:
                token = len(intern)
                intern[key] = token
            tokens.append(token)
        self._tokens.put(stream.digest, tokens)
        return tokens

    def _compile(self, stream) -> CompiledStream:
        """Normalize one batch entry to a CompiledStream on this machine."""
        if isinstance(stream, CompiledStream):
            if stream.fingerprint != self.fingerprint:
                raise ValueError(
                    "compiled stream belongs to a different machine "
                    f"({stream.fingerprint[:12]} != {self.fingerprint[:12]})")
            return stream
        if isinstance(stream, InstrStream):
            return compile_stream(self.machine, stream.instrs,
                                  stream.digest(),
                                  fingerprint=self.fingerprint)
        return compile_stream(self.machine, stream,
                              fingerprint=self.fingerprint)

    # -- the batch path -------------------------------------------------
    def place_batch(self, streams: Sequence, *,
                    use_memo: bool = True) -> list[PlacedBlock]:
        """Place many streams in one pass; results in input order.

        ``streams`` may mix :class:`CompiledStream`,
        :class:`~repro.translate.stream.InstrStream`, and plain
        ``Instr`` sequences.  Identical streams (same
        ``placement_digest``) are placed once; distinct streams sorted
        into prefix-adjacency each re-drop only their unshared suffix.
        With ``use_memo`` the shared placement LRU is probed first and
        fresh results are stored back.
        """
        machine = self.machine
        results: list[PlacedBlock | None] = [None] * len(streams)
        with trace_span("arena.compile") as span:
            compiled = [self._compile(s) for s in streams]
            # Full-stream dedup, then memo probe once per unique digest.
            unique: OrderedDict[str, list[int]] = OrderedDict()
            by_digest: dict[str, CompiledStream] = {}
            for idx, stream in enumerate(compiled):
                unique.setdefault(stream.digest, []).append(idx)
                by_digest.setdefault(stream.digest, stream)
            dedup = len(compiled) - len(unique)
            memo_hits = 0
            need: list[CompiledStream] = []
            for digest, slots in unique.items():
                hit = (_memo_probe(self.fingerprint, digest, self.focus_span)
                       if use_memo else None)
                if hit is not None:
                    memo_hits += 1
                    results[slots[0]] = hit
                    for slot in slots[1:]:
                        results[slot] = _share(hit)
                    continue
                need.append(by_digest[digest])
            with self._lock:
                tokens = [self._tokenize_locked(s) for s in need]
            order = sorted(range(len(need)),
                           key=lambda k: tokens[k].tobytes())
            # Consecutive LCPs in sorted order; lcp(i, j) for any i < j
            # is their running minimum, which is all the stack needs.
            lcps = [0] * (len(order) + 1)
            for p in range(1, len(order)):
                a = tokens[order[p - 1]]
                b = tokens[order[p]]
                lcps[p] = _lcp(a, b, min(len(a), len(b)))
            # One structure-of-arrays over every candidate: concatenated
            # columns, dep entries rebased to global stream positions.
            offsets = []
            if _numpy_on and order:
                # Vectorized lowering: rebase per-stream columns with
                # ndarray adds, concatenate once, and convert back to
                # array('q') so the drop loop's indexing stays on the
                # fast pure-python representation.
                op_parts, dep_parts, one_parts = [], [], []
                ptr_parts = [_np.zeros(1, _np.int64)]
                off = dep_base = 0
                for k in order:
                    stream = need[k]
                    offsets.append(off)
                    op_parts.append(_np.frombuffer(stream.op_ids, _np.int64))
                    if len(stream.deps):
                        dep_parts.append(
                            _np.frombuffer(stream.deps, _np.int64) + off)
                    ptr_parts.append(
                        _np.frombuffer(stream.dep_ptr, _np.int64)[1:]
                        + dep_base)
                    one_parts.append(
                        _np.frombuffer(stream.one_time, _np.int8))
                    off += len(stream)
                    dep_base += len(stream.deps)
                g_op = array("q", _np.concatenate(op_parts).tobytes())
                g_ptr = array("q", _np.concatenate(ptr_parts).tobytes())
                g_dep = array("q", _np.concatenate(dep_parts).tobytes()
                              if dep_parts else b"")
                g_one = array("b", _np.concatenate(one_parts).tobytes())
            else:
                g_op = array("q", bytes(0))
                g_ptr = array("q", [0])
                g_dep = array("q", bytes(0))
                g_one = array("b", bytes(0))
                for k in order:
                    stream = need[k]
                    off = len(g_op)
                    offsets.append(off)
                    g_op.extend(stream.op_ids)
                    dep_base = len(g_dep)
                    g_dep.extend(d + off for d in stream.deps)
                    g_ptr.extend(v + dep_base for v in stream.dep_ptr[1:])
                    g_one.extend(stream.one_time)
            if span.recording:
                span.set(streams=len(streams), unique=len(need),
                         dedup=dedup, memo_hits=memo_hits,
                         ops=len(g_op))

        reuses = saved = dropped = 0
        with trace_span("arena.drop") as span:
            total = len(g_op)
            times = [0] * total
            completions = [0] * total
            stack: list[_Snapshot] = []
            # One *working* bin set for the whole batch, restored in
            # place per stream: the resolved component bindings refer
            # to its SlotArray objects, so resolving once here replaces
            # a per-stream _resolve against a fresh clone.
            work = BinSet(machine)
            resolved = _resolve(self.ops, work)
            for p, k in enumerate(order):
                stream = need[k]
                n = len(stream)
                off = offsets[p]
                shared = lcps[p]
                while stack and stack[-1].pos > shared:
                    stack.pop()
                if stack:
                    snap = stack[-1]
                    resume = snap.pos
                    work.restore_from(snap.bins)
                    times[off:off + resume] = snap.times
                    completions[off:off + resume] = snap.completions
                    reuses += 1
                    saved += resume
                else:
                    resume = 0
                    if p:
                        work.reset()
                pos = resume
                cut = lcps[p + 1]
                if cut > pos:
                    # The next stream shares [0, cut): snapshot there so
                    # it (and any deeper siblings) fork instead of
                    # replaying this prefix.
                    drop_range(g_op, g_ptr, g_dep, self.ops, resolved,
                               work, self.focus_span, times, completions,
                               off + pos, off + cut)
                    stack.append(_Snapshot(cut, work.clone(),
                                           times[off:off + cut],
                                           completions[off:off + cut]))
                    pos = cut
                drop_range(g_op, g_ptr, g_dep, self.ops, resolved,
                           work, self.focus_span, times, completions,
                           off + pos, off + n)
                dropped += n - resume
                t_col = times[off:off + n]
                c_col = completions[off:off + n]
                placed = PlacedBlock(
                    machine_name=machine.name,
                    lazy=_LazyOps(stream.instrs, t_col, c_col))
                placed.block = _summarize(work, (), t_col, c_col)
                if use_memo:
                    _memo_store(self.fingerprint, stream.digest,
                                self.focus_span, placed)
                slots = unique[stream.digest]
                results[slots[0]] = placed
                for slot in slots[1:]:
                    results[slot] = _share(placed)
            if span.recording:
                span.set(placed=len(order), dropped=dropped,
                         prefix_reuses=reuses, prefix_ops_saved=saved)
        _counts.bump(batches=1, streams=len(streams), dedup=dedup,
                     memo_hits=memo_hits, prefix_reuses=reuses,
                     prefix_ops_saved=saved, placed=len(order), drops=dropped)
        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Registry

#: Arenas kept alive at once; keyed (machine fingerprint, focus span).
_ARENA_LIMIT = 8

_arenas = LRU(_ARENA_LIMIT)


def get_arena(machine: Machine,
              focus_span: int = DEFAULT_FOCUS_SPAN) -> PlacementArena:
    """The shared arena for ``(machine fingerprint, focus_span)``."""
    key = (_machine_fingerprint(machine), focus_span)
    arena = _arenas.get(key)
    if arena is None:
        arena = PlacementArena(machine, focus_span)
        # A racing first caller may have built one meanwhile: share it.
        existing = _arenas.peek(key)
        if existing is not None:
            return existing
        _arenas.put(key, arena)
    return arena


def reset_arenas() -> None:
    """Drop every arena (tokens, intern ids) and zero the counters."""
    _arenas.clear()
    _counts.reset()


def place_batch(
    machine: Machine,
    streams: Sequence,
    focus_span: int = DEFAULT_FOCUS_SPAN,
    *,
    use_memo: bool = True,
) -> list[PlacedBlock]:
    """Place ``streams`` through the shared arena; results in input order.

    Convenience wrapper over
    :meth:`PlacementArena.place_batch` -- see there for semantics.
    """
    return get_arena(machine, focus_span).place_batch(
        streams, use_memo=use_memo)
