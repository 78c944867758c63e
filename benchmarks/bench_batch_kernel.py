"""E-BATCHKERNEL -- the batch placement arena vs per-stream columnar.

A beam round hands the cost model dozens of sibling candidates whose
straight-line streams share long prefixes (a transformation touches one
loop; everything before it re-translates identically).  The per-stream
fused kernel re-drops every shared prefix from scratch; the arena
(:mod:`repro.cost.arena`) sorts the batch into prefix-adjacency and
forks each stream from a bin-state snapshot of its neighbour's shared
prefix.  This bench answers two questions:

* is it *correct*: a differential oracle pushes randomized sibling
  batches on every preset machine through the arena and the reference
  ``BinSet.place`` loop (``place_reference``) and compares cycles, per-op times/completions,
  and block summaries -- under both the numpy prefix lowering and the
  pure-``array`` fallback;
* is it *fast*: a 64-candidate beam-round batch (~200-instruction
  streams, ~150 shared prefix), timed as arena ``place_batch`` vs one
  per-stream fused ``place_stream`` pass over fresh bins.  Targets: >= 2x with
  numpy, >= 1.3x on the pure-python fallback.

Compilation and digests are precomputed for both sides and the memo is
disabled, so the timed region is placement work only -- the speedup is
prefix sharing, not cache hits.  Besides ``E-BATCHKERNEL.txt`` this
writes ``benchmarks/results/BENCH_BATCHKERNEL.json``, which the
``batch-kernel-perf`` CI job gates on.
"""

import json
import random
import time

from repro.cost import (
    HAVE_NUMPY,
    BinSet,
    get_arena,
    place_reference,
    place_stream,
    reset_arenas,
    reset_columnar_cache,
    reset_placement_cache,
    set_arena_numpy,
)
from repro.cost.columnar import compile_stream
from repro.machine.alpha import alpha_machine
from repro.machine.power import power_machine
from repro.machine.scalar import scalar_machine
from repro.machine.wide import wide_machine
from repro.translate.stream import Instr

from _report import RESULTS_DIR, emit_table

FOCUS_SPAN = 64
MACHINES = (power_machine, wide_machine, scalar_machine, alpha_machine)

#: The headline configuration: one beam round's worth of siblings.
CANDIDATES = 64
STREAM_SIZE = 200
PREFIX_LEN = 150

#: Both prefix-machinery lowerings; numpy only when installed.
MODES = ("fallback",) + (("numpy",) if HAVE_NUMPY else ())


def _placeable_ops(machine):
    return [
        name for name in machine.table.names()
        if all(machine.has_unit(c.unit)
               for c in machine.table[name].costs if c.noncoverable > 0)
    ]


def _rand_stream(rng, names, n, prefix=None):
    instrs = list(prefix or [])
    for i in range(len(instrs), n):
        instrs.append(Instr(
            i, rng.choice(names),
            deps=tuple(sorted(rng.sample(range(i),
                                         k=min(i, rng.randint(0, 3))))),
            one_time=rng.random() < 0.1))
    return instrs


def _sibling_batch(rng, names, candidates, size, prefix_len):
    """One beam round: distinct candidates forking off a shared prefix."""
    prefix = _rand_stream(rng, names, prefix_len)
    return [_rand_stream(rng, names, size, prefix=prefix)
            for _ in range(candidates)]


def _use_mode(mode):
    return set_arena_numpy(mode == "numpy")


def _differential(trials, seed=20260808):
    """Arena batches vs the legacy oracle, both lowerings; mismatches raise."""
    rng = random.Random(seed)
    machines = [factory() for factory in MACHINES]
    per_machine = max(1, trials // (len(machines) * len(MODES)))
    checked = 0
    for mode in MODES:
        previous = _use_mode(mode)
        try:
            for machine in machines:
                names = _placeable_ops(machine)
                for _ in range(per_machine):
                    reset_arenas()
                    batch = _sibling_batch(
                        rng, names,
                        candidates=rng.randint(2, 8),
                        size=rng.randint(8, 48),
                        prefix_len=rng.randint(0, 32))
                    # A couple of exact duplicates exercise the dedup lane.
                    batch.extend(rng.sample(batch, k=min(2, len(batch))))
                    focus = rng.choice([2, 8, 64])
                    arena = get_arena(machine, focus)
                    results = arena.place_batch(batch, use_memo=False)
                    for instrs, placed in zip(batch, results):
                        legacy = place_reference(machine, instrs, focus)
                        assert placed.cycles == legacy.cycles, machine.name
                        assert [(o.time, o.completion) for o in placed.ops] \
                            == [(o.time, o.completion) for o in legacy.ops], \
                            machine.name
                        assert placed.block == legacy.block, machine.name
                        checked += 1
        finally:
            set_arena_numpy(previous)
    return checked


def _throughput(candidates, size, prefix_len, reps, seed=7, rounds=3):
    """Per-mode ``(baseline s, arena s)`` for ``reps`` passes over a batch.

    Streams are compiled (and digested) up front so both sides time
    pure placement.  The arena runs with ``use_memo=False`` and keeps
    no placements between calls -- its advantage must come from
    within-batch prefix sharing, not from remembering a previous rep.  Rounds
    interleave baseline and arena so scheduler noise hits both; the
    min is the honest figure.
    """
    machine = power_machine()
    rng = random.Random(seed)
    batch = _sibling_batch(rng, _placeable_ops(machine), candidates, size,
                           prefix_len)
    reset_placement_cache()
    reset_columnar_cache()
    compiled = [compile_stream(machine, instrs) for instrs in batch]

    def run_baseline():
        for stream in compiled:
            place_stream(machine, stream, FOCUS_SPAN, BinSet(machine))

    def run_arena():
        get_arena(machine, FOCUS_SPAN).place_batch(compiled, use_memo=False)

    out = {}
    for mode in MODES:
        previous = _use_mode(mode)
        try:
            reset_arenas()
            run_baseline()                      # warm compiled-op interning
            run_arena()                         # warm the token cache
            wall = {"baseline": None, "arena": None}
            for _ in range(rounds):
                for label, fn in (("baseline", run_baseline),
                                  ("arena", run_arena)):
                    t0 = time.perf_counter()
                    for _ in range(reps):
                        fn()
                    elapsed = time.perf_counter() - t0
                    if wall[label] is None or elapsed < wall[label]:
                        wall[label] = elapsed
            out[mode] = (wall["baseline"], wall["arena"])
        finally:
            set_arena_numpy(previous)
    return out


def _batch_rows(trials, reps):
    checked = _differential(trials)
    walls = _throughput(CANDIDATES, STREAM_SIZE, PREFIX_LEN, reps)
    ops = CANDIDATES * STREAM_SIZE * reps
    rows = []
    report = {"differential_trials": checked,
              "candidates": CANDIDATES, "stream_size": STREAM_SIZE,
              "prefix_len": PREFIX_LEN, "modes": {}}
    for mode in MODES:
        base_s, arena_s = walls[mode]
        speedup = base_s / arena_s
        rows.append((
            mode, f"{base_s:.3f}s", f"{arena_s:.3f}s",
            f"{ops / base_s:,.0f}", f"{ops / arena_s:,.0f}",
            f"{speedup:.2f}x",
        ))
        report["modes"][mode] = {
            "baseline_seconds": base_s,
            "arena_seconds": arena_s,
            "baseline_ops_per_s": ops / base_s,
            "arena_ops_per_s": ops / arena_s,
            "speedup": speedup,
        }
    report["fallback_speedup"] = report["modes"]["fallback"]["speedup"]
    report["numpy_speedup"] = (
        report["modes"]["numpy"]["speedup"] if HAVE_NUMPY else None)
    notes = (f"{CANDIDATES}-candidate beam-round batch, "
             f"{STREAM_SIZE}-instruction streams, {PREFIX_LEN} shared "
             f"prefix; baseline = per-stream fused kernel; differential "
             f"oracle: {checked} placements across {len(MACHINES)} machines "
             f"and {len(MODES)} lowerings; focus span {FOCUS_SPAN}")
    return rows, notes, report


def _emit(rows, notes, report, quick):
    report["quick"] = quick
    emit_table(
        "E-BATCHKERNEL",
        "Batch placement arena vs per-stream columnar kernel",
        ["mode", "per-stream", "arena", "per-stream ops/s", "arena ops/s",
         "speedup"],
        rows, notes=notes,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_BATCHKERNEL.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def _check_floors(report):
    failures = []
    if report["fallback_speedup"] < 1.3:
        failures.append(f"fallback {report['fallback_speedup']:.2f}x < 1.3x")
    if HAVE_NUMPY and report["numpy_speedup"] < 2.0:
        failures.append(f"numpy {report['numpy_speedup']:.2f}x < 2.0x")
    return failures


def test_arena_matches_and_beats_per_stream(benchmark):
    rows, notes, report = benchmark.pedantic(
        lambda: _batch_rows(trials=240, reps=8),
        rounds=1, iterations=1,
    )
    _emit(rows, notes, report, quick=False)
    assert report["differential_trials"] >= 200
    assert not _check_floors(report), report


def main(argv=None):
    """Standalone entry for the CI batch-kernel-perf gate."""
    import argparse

    parser = argparse.ArgumentParser(description="E-BATCHKERNEL gate")
    parser.add_argument("--quick", action="store_true",
                        help="smaller differential and fewer reps; the "
                             "speedup floors stay the same")
    args = parser.parse_args(argv)
    if args.quick:
        rows, notes, report = _batch_rows(trials=80, reps=3)
    else:
        rows, notes, report = _batch_rows(trials=240, reps=8)
    out = _emit(rows, notes, report, quick=args.quick)
    failures = _check_floors(report)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    numpy_part = (f"{report['numpy_speedup']:.2f}x numpy / "
                  if HAVE_NUMPY else "")
    print(f"batch kernel ok: {report['differential_trials']} differential "
          f"placements, {numpy_part}"
          f"{report['fallback_speedup']:.2f}x fallback on a "
          f"{CANDIDATES}x{STREAM_SIZE} batch ({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
