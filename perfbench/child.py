"""One measuring pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass so every pass begins with
cold process-wide memos and pays its own start-up, which is what
``setup_s`` measures.  The pass prints one JSON line: set-up time, peak
RSS, the served responses (for the parent's oracle), each request's
latency and, when traced, the per-layer accumulators.

A pass is bounded by time (``--window``, the untraced end-to-end runs)
or by a request count (``--count``, the traced run and its untraced
twin, so both serve exactly the same requests).

The load is closed-loop: callers are compiler passes that wait for
each answer.  The http workload drives one ``repro serve`` subprocess
over two keep-alive connections, one client thread each.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import asdict
from itertools import islice
from typing import Any, Callable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
#: Requests generated per untimed batch on inline passes.
CHUNK = 32
#: Seconds ``reference()`` takes on the reference machine: inline times
#: are reported as if measured there (see ``run.speed_scales``).
REFERENCE_S = 2.0e-3
#: Busy seconds between two timings of ``reference()`` on inline passes.
REF_EVERY_S = 0.1
#: ``reference()`` timings taken just before and just after set-up.
SETUP_REFS = 3


def compact(kind: str, response: dict[str, Any]) -> dict[str, Any]:
    """The response fields the oracle checks."""
    if "error" in response:
        return {"error": response["error"], "message": response.get("message", "")}
    keys = {
        "predict": ("cost", "cycles"),
        "compare": ("cost_first", "cost_second", "verdict", "report"),
        "sweep": ("widths", "points", "saturation_width", "instructions"),
        "restructure": ("cost", "sequence", "nodes_expanded"),
    }[kind]
    return {key: response.get(key) for key in keys}


def record(lane: int, index: int, kind: str, seconds: float,
           response: dict[str, Any]) -> list[Any]:
    return [lane, index, kind, seconds, bool(response.get("cached")),
            compact(kind, response)]


def counters() -> dict[str, dict[str, int]]:
    from repro.cost.arena import arena_cache_stats
    from repro.cost.placement import placement_cache_stats

    return {"placement": placement_cache_stats(), "arena": arena_cache_stats()}


def counter_delta(before: dict, after: dict) -> dict[str, dict[str, int]]:
    return {group: {key: after[group][key] - before[group][key]
                    for key in after[group]} for group in after}


def interleave(lanes: list[Iterator]) -> Iterator:
    """Round-robin over the lanes: one client replaying every connection."""
    while True:
        for lane in lanes:
            yield next(lane)


# ----------------------------------------------------------------------
# inline passes


def reference() -> float:
    """Seconds taken by a fixed slice of interpreter work.

    The work shares no code with repro, and the collector is paused so
    the time does not depend on how big the program's heap has grown.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[tuple, list] = {}
        total = 0
        for i in range(3000):
            key = ("k", i % 97, i)
            table[key] = [i, str(i), (i, i + 1)]
            total += len(table[key][1])
        for key in list(table)[:1500]:
            total += table.pop(key)[0]
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def inline_pass(handle: Callable, requests: Iterator, window: float | None,
                count: int | None) -> tuple[list[list[Any]], float, list[float], list[int]]:
    """Serve requests in a closed loop.

    Returns the records, the busy seconds (summed latencies), the
    ``reference()`` timings taken every ``REF_EVERY_S`` busy seconds and
    once at the end, and for each record the index of the timing taken
    just before it.  Generation and reference runs happen between
    requests, untimed.

    ``window`` counts busy seconds on the reference machine (each
    latency scaled by the latest reference timing), so how many requests
    a pass serves, and so how much the caches hold, does not drift with
    the speed of a shared machine.  A pass on a machine slower than half
    the reference speed stops after twice ``window`` measured seconds.
    """
    records: list[list[Any]] = []
    refs: list[float] = []
    ref_at: list[int] = []
    pending: deque = deque()
    busy = scaled = 0.0
    since_ref = REF_EVERY_S
    while ((count is None or len(records) < count)
           and (window is None or (scaled < window and busy < 2 * window))):
        if since_ref >= REF_EVERY_S:
            refs.append(reference())
            since_ref = 0.0
        if not pending:
            pending.extend(islice(requests, CHUNK))
        lane, index, kind, payload = pending.popleft()
        sent = time.perf_counter()
        response = handle(kind, payload)
        elapsed = time.perf_counter() - sent
        busy += elapsed
        scaled += elapsed * REFERENCE_S / refs[-1]
        since_ref += elapsed
        records.append(record(lane, index, kind, elapsed, response))
        ref_at.append(len(refs) - 1)
    refs.append(reference())
    return records, busy, refs, ref_at


def lane_requests(workload, lane: int) -> Iterator:
    for index, kind, payload in workload.lane(lane):
        yield lane, index, kind, payload


def run_inline(args, workload, spawned: float,
               setup_refs: list[float]) -> dict[str, Any]:
    tracer = None
    if args.traced:
        from layers import install

        tracer = install()
    from repro.service import PredictionEngine

    engine = PredictionEngine(workers=0)
    for kind, payload in workload.warmup():
        response = engine.handle(kind, payload)
        if "error" in response:
            raise RuntimeError(f"warm-up {kind} failed: {response}")
    setup = time.monotonic() - spawned
    setup_refs = setup_refs + [reference() for _ in range(SETUP_REFS)]
    lanes = [lane_requests(workload, lane) for lane in range(workload.lanes)]
    requests = lanes[0] if len(lanes) == 1 else interleave(lanes)
    if tracer is not None:
        tracer.reset()
    before = counters()
    records, busy, refs, ref_at = inline_pass(engine.handle, requests, args.window,
                                              args.count)
    out = {"setup_s": setup, "busy_s": busy, "records": records,
           "ref_s": refs, "ref_at": ref_at, "setup_ref_s": setup_refs,
           "counters": counter_delta(before, counters())}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    engine.close()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


# ----------------------------------------------------------------------
# http passes


class Server:
    """One ``repro serve`` subprocess (inline engine) on an ephemeral port."""

    def __init__(self, traced: bool):
        args = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "0"]
        command = ([sys.executable, os.path.join(HERE, "serve_traced.py"), *args]
                   if traced else [sys.executable, "-m", "repro", *args])
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.strip().rsplit(" ", 1)[-1]

    def command(self, text: str) -> str:
        """Talk to the traced launcher over its stdin (see serve_traced.py)."""
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline()

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def http_call(client, payload: dict[str, Any]) -> dict[str, Any]:
    """One predict through ``ReproClient``; errors become envelopes."""
    from repro.service.client import ReproClientError

    try:
        response = client.predict(payload["source"], bindings=payload["bindings"])
    except ReproClientError as error:
        return {"error": type(error).__name__, "message": str(error)}
    return asdict(response)


def http_pass(url: str, workload, window: float | None, count: int | None,
              ) -> tuple[list[list[Any]], float, list[float], list[list[float]]]:
    """Each lane on its own thread and keep-alive connection.

    Returns the records, the wall seconds, each record's send time, and
    ``[time, seconds]`` timings of ``reference()`` taken every
    ``REF_EVERY_S`` by the otherwise idle main thread while the lanes
    wait on the server.
    """
    from repro.service.client import ReproClient

    lanes = workload.lanes
    results: list[list[list[Any]]] = [[] for _ in range(lanes)]
    sent_at: list[list[float]] = [[] for _ in range(lanes)]
    errors: list[BaseException] = []
    start = threading.Barrier(lanes + 1, timeout=60)
    deadline = [0.0]

    def drive(lane: int) -> None:
        try:
            requests = workload.lane(lane)
            if count is not None:
                requests = islice(requests, count // lanes + (lane < count % lanes))
            with ReproClient(url, pool_size=1) as client:
                start.wait()
                for index, kind, payload in requests:
                    if window is not None and time.perf_counter() >= deadline[0]:
                        break
                    sent = time.perf_counter()
                    response = http_call(client, payload)
                    done = time.perf_counter()
                    results[lane].append(
                        record(lane, index, kind, done - sent, response))
                    sent_at[lane].append(sent)
        except BaseException as error:  # reported by the main thread
            errors.append(error)
            raise

    threads = [threading.Thread(target=drive, args=(lane,)) for lane in range(lanes)]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    deadline[0] = began + (window or 0.0)
    start.wait()
    refs: list[list[float]] = []
    while any(thread.is_alive() for thread in threads):
        refs.append([time.perf_counter(), reference()])
        threads[0].join(REF_EVERY_S)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    if errors:
        raise errors[0]
    return ([r for lane in results for r in lane], wall,
            [t for lane in sent_at for t in lane], refs)


def server_cpu_s(pid: int) -> float | None:
    """CPU seconds a process has used (Linux ``/proc``), else None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_http(args, workload, spawned: float, setup_refs: list[float]) -> dict[str, Any]:
    from repro.service.client import ReproClient, ReproClientError

    server = Server(args.traced)
    try:
        # One batch: warm-up costs a single network round trip, so
        # set-up is CPU work that the reference timings can scale.
        with ReproClient(server.url, pool_size=1) as client:
            for response in client.predict_batch([p for _, p in workload.warmup()]):
                if isinstance(response, ReproClientError):
                    raise RuntimeError(f"warm-up predict failed: {response}")
        setup = time.monotonic() - spawned
        setup_refs = setup_refs + [reference() for _ in range(SETUP_REFS)]
        if args.traced:
            server.command("reset")
        cpu_before = server_cpu_s(server.process.pid)
        records, busy, sent_at, refs = http_pass(server.url, workload, args.window,
                                                 args.count)
        cpu_after = server_cpu_s(server.process.pid)
        out = {"setup_s": setup, "busy_s": busy, "records": records,
               "setup_ref_s": setup_refs, "sent_at": sent_at, "timed_ref_s": refs}
        if cpu_before is not None and cpu_after is not None:
            out["server_cpu_s"] = cpu_after - cpu_before
        if args.traced:
            out.update(json.loads(server.command("dump")))
    finally:
        server.stop()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--replica", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this pass")
    parser.add_argument("--transport", choices=("inline", "http"), default="inline")
    parser.add_argument("--traced", action="store_true")
    bound = parser.add_mutually_exclusive_group(required=True)
    bound.add_argument("--window", type=float)
    bound.add_argument("--count", type=int)
    args = parser.parse_args(argv)

    # Reference timings bracket set-up (see run.speed_scales); the ones
    # taken here are not part of set-up.
    started = time.monotonic()
    setup_refs = [reference() for _ in range(SETUP_REFS)]
    spawned = args.spawned + time.monotonic() - started

    from workloads import Workload

    workload = Workload(args.workload, args.seed, args.replica)
    if args.transport == "http":
        out = run_http(args, workload, spawned, setup_refs)
    else:
        out = run_inline(args, workload, spawned, setup_refs)
    out["replica"] = args.replica
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
