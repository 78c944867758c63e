"""Seeded request generators for the four benchmark workloads.

Every generator is a pure function of ``(workload, seed, replica)``:
the same seed yields the same request sequences, byte for byte.  Requests are the
wire payloads a caller would send (``(kind, payload)`` pairs of plain
JSON values); the program under test sees nothing else.

Each sequence is infinite and indexed, so a pass can stop on a time
budget or a request count and the oracle can regenerate exactly the
requests that were served.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import count
from typing import Any, Iterator

from repro.bench.kernels import kernel, kernel_names
from repro.bench.workloads import random_block_program
from repro.ir.printer import print_program

Request = tuple[int, str, dict[str, Any]]

WORKLOADS = ("rebind", "fresh", "explore", "http")

# Every draw that sets how much work a request is -- hit or miss, which
# program, which request kind, how big a body -- is stratified rather
# than independent, so the work mix of a ten-second run is nearly the
# same for every seed and the figures move with the code, not the seed.
# What each draw picks (statements, bindings, domains) stays random.

#: Share of rebind requests that repeat a recent request exactly (and
#: so hit the result cache).
REPEAT_SHARE = 0.3
#: Repeats draw from this many most recent distinct requests.  It is
#: far below the engine's 1024-entry result cache, so a repeat always
#: hits, whatever the interleaving of the http workload's connections.
REPEAT_WINDOW = 64
#: Body sizes of the generated programs in the rebind pool (next to the
#: ten kernels).  One program per size keeps the pool's costs evenly
#: spread, so the median lands among many programs of similar cost
#: rather than in the gap between two (with ten sizes it jumped by a
#: quarter from run to run).  The pool is the same for every seed; the
#: seed drives the request stream: order, bindings and repeats.
POOL_SIZES = range(4, 34)
#: Fresh body sizes.
FRESH_SIZES = range(4, 65)
#: Body sizes of the never-seen programs explore sweeps.
SWEEP_SIZES = range(4, 17)
#: One explore sweep in this many is of a never-seen program.  They are
#: the slowest explore requests; at one in two, the 1% slowest requests
#: were exactly the ~12 a run's full collections land on, so p99 jumped
#: between that cluster and the sweeps below it.
NEW_SWEEP_EVERY = 3
#: Sweep width ladder for the explore workload.
SWEEP_WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8]
#: Kernels searched by explore's restructure requests.  Matmul is left
#: out: its 16-FMA body makes one depth-2 search cost seconds, so a
#: single request would fill a whole measuring window.
SEARCH_KERNELS = [name for name in kernel_names() if name != "matmul"]
#: Explore request mix, per lap of ten requests.
EXPLORE_MIX = ["compare"] * 4 + ["sweep"] * 3 + ["restructure"] * 3
#: ``model_err_pct`` scores the kernels plus this many generated
#: programs of a fixed reference stream: one corpus for every workload
#: and seed, so the figure is exact and repeatable.  A per-seed sample
#: this size would swing by a third between seeds.
MODEL_ERR_PROGRAMS = 96

_GOLDEN = (5 ** 0.5 - 1) / 2


def stream_rng(seed: int | str, *names: object) -> random.Random:
    """An independent, reproducible random stream for ``seed`` and ``names``."""
    return random.Random(":".join(str(part) for part in (seed, *names)))


def laps(rng: random.Random, items: list) -> Iterator:
    """``items`` over and over, each lap in a fresh seeded order."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def spread(rng: random.Random, values: range) -> Iterator[int]:
    """Golden-ratio sequence over ``values``: every prefix covers them evenly."""
    position = rng.random()
    while True:
        position = (position + _GOLDEN) % 1.0
        yield values[int(position * len(values))]


def kernel_sources() -> list[str]:
    return [kernel(name).source for name in kernel_names()]


def generated_source(size: int, program_seed: int) -> str:
    return print_program(random_block_program(size, seed=program_seed))


def rebind_pool() -> list[str]:
    """The ten Figure-7 kernels plus a small fixed pool of generated programs."""
    rng = stream_rng("reference", "pool")
    pool = kernel_sources()
    for size in POOL_SIZES:
        pool.append(generated_source(size, rng.getrandbits(40)))
    return pool


def rebind_requests(seed: int, stream: str, pool: list[str], lane: int = 0,
                    lanes: int = 1, replica: int = 0) -> Iterator[Request]:
    """Predicts over ``pool`` with fresh ``n`` bindings; 30% exact repeats.

    A miss always carries a binding no earlier request used, and
    ``n`` is congruent to ``lane`` modulo ``lanes``, so concurrent
    lanes (the http workload's connections) never collide on a key.
    """
    rng = stream_rng(seed, stream, "replica", replica, "lane", lane)
    programs = laps(rng, range(len(pool)))
    repeat = (value < 1000 * REPEAT_SHARE for value in spread(rng, range(1000)))
    recent: deque[tuple[int, int]] = deque(maxlen=REPEAT_WINDOW)
    used: set[tuple[int, int]] = set()
    for index in count():
        if next(repeat) and recent:
            program, n = rng.choice(recent)
        else:
            program = next(programs)
            n = rng.randrange(1, 10**6) * lanes + lane
            while (program, n) in used:
                n = rng.randrange(1, 10**6) * lanes + lane
            used.add((program, n))
            recent.append((program, n))
        yield index, "predict", {"source": pool[program], "bindings": {"n": str(n)}}


def rebind_warmup(pool: list[str]) -> list[tuple[str, dict[str, Any]]]:
    """One predict per pool program, at a binding no workload request uses."""
    return [("predict", {"source": source, "bindings": {"n": "0"}})
            for source in pool]


def fresh_sources(seed: int | str, replica: int = 0) -> Iterator[str]:
    """Never-repeating generated programs with evenly spread body sizes."""
    rng = stream_rng(seed, "fresh", "replica", replica, "programs")
    for size in spread(rng, FRESH_SIZES):
        yield generated_source(size, rng.getrandbits(48))


def fresh_requests(seed: int, replica: int = 0) -> Iterator[Request]:
    rng = stream_rng(seed, "fresh", "replica", replica, "bindings")
    for index, source in enumerate(fresh_sources(seed, replica)):
        yield index, "predict", {"source": source,
                                 "bindings": {"n": str(rng.randrange(1, 10**6))}}


def fresh_warmup(seed: int) -> list[tuple[str, dict[str, Any]]]:
    rng = stream_rng(seed, "fresh", "warmup")
    return [("predict", {"source": generated_source(size, rng.getrandbits(48)),
                         "bindings": {"n": "100"}})
            for size in (4, 16, 32)]


def explore_requests(seed: int, replica: int = 0) -> Iterator[Request]:
    """Compares (random domains), 8-width sweeps and small searches.

    Every third sweep is of a never-seen generated program, which is
    what drives the batch placement arena; the others are of kernels,
    which the sweep memo answers after first sight.
    """
    rng = stream_rng(seed, "explore", "replica", replica)
    sources = kernel_sources()
    names = kernel_names()
    kinds = laps(rng, EXPLORE_MIX)
    pairs = laps(rng, [(a, b) for a in range(len(sources))
                       for b in range(len(sources)) if a != b])
    swept = laps(rng, range(len(sources)))
    sizes = spread(rng, SWEEP_SIZES)
    searched = laps(rng, [(names.index(name), depth) for name in SEARCH_KERNELS
                          for depth in (1, 2)])
    sweeps = 0
    for index in count():
        kind = next(kinds)
        if kind == "compare":
            first, second = next(pairs)
            low = rng.randint(1, 64)
            payload = {"first": sources[first], "second": sources[second],
                       "domain": {"n": [low, low + rng.randint(16, 4096)]}}
        elif kind == "sweep":
            sweeps += 1
            source = (sources[next(swept)] if sweeps % NEW_SWEEP_EVERY else
                      generated_source(next(sizes), rng.getrandbits(48)))
            payload = {"source": source, "widths": list(SWEEP_WIDTHS),
                       "bindings": {"n": str(rng.randrange(1, 10**6))}}
        else:
            program, depth = next(searched)
            payload = {"source": sources[program], "depth": depth,
                       "max_nodes": rng.randint(4, 8),
                       "workload": {"n": str(rng.randint(16, 4096))}}
        yield index, kind, payload


def explore_warmup() -> list[tuple[str, dict[str, Any]]]:
    """First sight of every kernel on every explore path."""
    sources = kernel_sources()
    names = kernel_names()
    warm: list[tuple[str, dict[str, Any]]] = []
    for source in sources:
        warm.append(("sweep", {"source": source, "widths": list(SWEEP_WIDTHS),
                               "bindings": {"n": "0"}}))
    for first in range(0, len(sources), 2):
        warm.append(("compare", {"first": sources[first],
                                 "second": sources[first + 1],
                                 "domain": {"n": [0, 1]}}))
    for name in SEARCH_KERNELS:
        warm.append(("restructure", {"source": sources[names.index(name)],
                                     "depth": 2, "max_nodes": 8,
                                     "workload": {"n": "8"}}))
    return warm


class Workload:
    """One workload's request lanes, warm-up set and reference blocks.

    ``replica`` selects an independent request stream of the same seed,
    so the passes of one run serve different requests of one kind.
    """

    def __init__(self, name: str, seed: int, replica: int = 0):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.replica = replica
        self.lanes = 2 if name == "http" else 1
        if name in ("rebind", "http"):
            self.pool = rebind_pool()

    def lane(self, lane: int = 0) -> Iterator[Request]:
        """The request sequence one client (connection) sends."""
        if self.name in ("rebind", "http"):
            return rebind_requests(self.seed, self.name, self.pool, lane,
                                   self.lanes, self.replica)
        if self.name == "fresh":
            return fresh_requests(self.seed, self.replica)
        return explore_requests(self.seed, self.replica)

    def warmup(self) -> list[tuple[str, dict[str, Any]]]:
        if self.name in ("rebind", "http"):
            return rebind_warmup(self.pool)
        if self.name == "fresh":
            return fresh_warmup(self.seed)
        return explore_warmup()


def model_sources() -> list[str]:
    """Programs whose innermost blocks ``model_err_pct`` scores."""
    sources = fresh_sources("reference")
    return kernel_sources() + [next(sources) for _ in range(MODEL_ERR_PROGRAMS)]
