"""Repository benchmark: one workload, one seed, one line of metrics.

Run from the repository root::

    python3 perfbench/run.py --workload rebind --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics untraced: ``REPLICAS``
fresh interpreters each set up (import, engine or server start,
warm-up) and serve the workload for an equal share of ``--seconds``.
``--trace 1`` serves a fixed number of requests twice, untraced and
then with every layer wrapped (``layers.py``), and reports per-layer
self times, counts and ratios plus the tracing overhead between the
two.  Every served answer is checked against the library tier
(``oracle.py``); a wrong answer or an error envelope is a failed
request.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
The line before it is a report with the environment stamp and the
per-kind request counts.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import fmean, median, quantiles
from typing import Any

from child import REF_EVERY_S, REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters per untraced run; set-up is the median of these.
REPLICAS = 3
#: Requests served by each pass of a traced run, per second of
#: ``--seconds``.  Fixed counts make every count and ratio repeat
#: exactly between runs of one seed.
TRACE_RATE = {"rebind": 95, "fresh": 18, "explore": 75, "http": 20}
#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150

_running: list[subprocess.Popen] = []


# ----------------------------------------------------------------------
# passes


def run_pass(workload: str, seed: int, *, replica: int = 0,
             window: float | None = None, count: int | None = None,
             traced: bool = False, transport: str = "inline") -> dict[str, Any]:
    """Run child.py once; returns its parsed JSON line."""
    bound = ["--window", repr(window)] if window is not None else ["--count", str(count)]
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed), "--replica", str(replica),
               "--transport", transport, *bound]
    if traced:
        command.append("--traced")
    # One hash seed per workload seed: set and dict orders, and so every
    # count a traced run reports, repeat exactly between runs.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed % 2**32))
    command[2:2] = ["--spawned", repr(time.monotonic())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               text=True, start_new_session=True)
    _running.append(process)
    try:
        out, _ = process.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        _stop(process)
    if process.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _stop(process: subprocess.Popen) -> None:
    """Kill the pass's process group (it may own a server) and reap it."""
    if process.poll() is None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait()
    if process in _running:
        _running.remove(process)


# ----------------------------------------------------------------------
# checking


def verify(name: str, seed: int, passes: list[dict[str, Any]]) -> dict[str, Any]:
    """Check every served answer; per-kind attempted/succeeded/failed."""
    from oracle import Oracle
    from workloads import Workload

    wanted: dict[tuple[int, int], int] = {}
    for result in passes:
        for lane, index, *_ in result["records"]:
            key = (result["replica"], lane)
            wanted[key] = max(wanted.get(key, -1), index)
    requests: dict[tuple[int, int, int], tuple[str, dict[str, Any]]] = {}
    for (replica, lane), last in wanted.items():
        for index, kind, payload in Workload(name, seed, replica).lane(lane):
            requests[(replica, lane, index)] = (kind, payload)
            if index >= last:
                break
    oracle = Oracle()
    counts: dict[str, dict[str, int]] = {}
    reasons: list[str] = []
    for result in passes:
        for lane, index, kind, _, _, got in result["records"]:
            row = counts.setdefault(kind, {"attempted": 0, "succeeded": 0, "failed": 0})
            row["attempted"] += 1
            key = (result["replica"], lane, index)
            expected_kind, payload = requests[key]
            reason = (oracle.check(key, kind, payload, got)
                      if kind == expected_kind else f"kind {kind} != {expected_kind}")
            if reason is None:
                row["succeeded"] += 1
            else:
                row["failed"] += 1
                reasons.append(f"replica {key[0]} lane {lane} request {index}: {reason}")
    return {"counts": counts, "reasons": reasons}


# ----------------------------------------------------------------------
# metrics


def _ms(values: list[float], q: float = 0.5) -> float:
    """Percentile ``q`` of ``values`` (seconds) in ms; 0.0 when empty."""
    if not values:
        return 0.0
    if q == 0.5 or len(values) < 2:
        return 1e3 * median(values)
    return 1e3 * quantiles(values, n=100)[round(q * 100) - 1]


def speed_scales(result: dict[str, Any]) -> list[float]:
    """Per-record factors that put one pass's times on the reference machine.

    The speed of a shared machine swings by a factor of two within
    seconds.  Passes time ``child.reference`` (interpreter work that
    shares no code with repro) every 0.1 s: inline passes between
    requests, http passes on the client's idle main thread.  An inline
    request is scaled by the timings just before and after it (repeats
    of one pass: spread 0.33 raw, 0.03 scaled).

    An http request is mostly a network timer, which machine speed does
    not stretch, plus server CPU work, which it does.  So only the
    server's share of the pass's summed latency (its CPU time, read from
    ``/proc``) is scaled, by the timings taken while the request was in
    flight.  Without ``/proc`` the times stay unscaled.
    """
    records = result["records"]
    if "ref_at" in result:
        refs = result["ref_s"]
        return [2 * REFERENCE_S / (refs[k] + refs[k + 1]) for k in result["ref_at"]]
    if "server_cpu_s" not in result:
        return [1.0] * len(records)
    share = result["server_cpu_s"] / sum(r[3] for r in records)
    taken = [t for t, _ in result["timed_ref_s"]]
    seconds = [s for _, s in result["timed_ref_s"]]
    scales = []
    for r, sent in zip(records, result["sent_at"]):
        low = bisect.bisect_left(taken, sent - REF_EVERY_S)
        high = max(bisect.bisect_right(taken, sent + r[3] + REF_EVERY_S), low + 1)
        speed = REFERENCE_S / fmean(seconds[low:high] or seconds[-1:])
        scales.append(1 - share + share * speed)
    return scales


def cpu_speed(result: dict[str, Any]) -> float:
    """The pass's mean machine speed, for times that are all CPU work."""
    refs = result.get("ref_s") or [s for _, s in result.get("timed_ref_s", ())]
    return REFERENCE_S / fmean(refs) if refs else 1.0


def request_metrics(passes: list[dict[str, Any]]) -> dict[str, float]:
    """Latency figures over the pooled records of ``passes``, on the
    reference machine; set-up time is the median over the passes."""
    records: list[list[Any]] = []
    busy = raw = 0.0
    for result in passes:
        scales = speed_scales(result)
        records += [r[:3] + [scale * r[3]] + r[4:6]
                    for r, scale in zip(result["records"], scales)]
        # Inline passes are busy for the summed latencies; http passes
        # for the wall time of two concurrent connections.
        scaled = sum(scale * r[3] for r, scale in zip(result["records"], scales))
        measured = sum(r[3] for r in result["records"])
        busy += result["busy_s"] * scaled / measured
        raw += measured
    ok = [r for r in records if "error" not in r[5]]
    lat = [r[3] for r in records]
    sweeps = [r for r in ok if r[2] == "sweep"]
    searches = [r for r in ok if r[2] == "restructure"]
    widths = sum(len(r[5]["widths"]) for r in sweeps)
    nodes = sum(r[5]["nodes_expanded"] for r in searches)
    return {
        "throughput_rps": len(records) / busy,
        "p50_ms": _ms(lat),
        "p95_ms": _ms(lat, 0.95),
        "p99_ms": _ms(lat, 0.99),
        "miss_p50_ms": _ms([r[3] for r in ok if not r[4]]),
        "hit_p50_ms": _ms([r[3] for r in ok if r[4]]),
        "compare_p50_ms": _ms([r[3] for r in ok if r[2] == "compare"]),
        "sweep_ms_per_width": _ratio(1e3 * sum(r[3] for r in sweeps), widths),
        "search_ms_per_node": _ratio(1e3 * sum(r[3] for r in searches), nodes),
        "mean_ms": 1e3 * sum(lat) / len(lat),
        "speed_scale": sum(lat) / raw,
        "setup_s": median(setup_seconds(result) for result in passes),
    }


def setup_seconds(result: dict[str, Any]) -> float:
    """Set-up time, scaled by the reference timings taken around it."""
    refs = result.get("setup_ref_s")
    return result["setup_s"] * (REFERENCE_S / fmean(refs) if refs else 1.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: dict[str, Any], requests: int) -> dict[str, float]:
    """Per-request self times, counts and ratios from one traced pass."""
    layers = traced["trace"]["layers"]
    extra = traced["trace"]["extra"]
    placement = traced["counters"]["placement"]
    arena = traced["counters"]["arena"]

    scale = cpu_speed(traced)

    def self_us(layer: str) -> float:
        return 1e6 * scale * layers[layer]["self_s"] / requests

    def per_req(layer: str) -> float:
        return layers[layer]["calls"] / requests

    return {
        "service.protocol.decode_us": self_us("service.protocol.decode"),
        "service.protocol.encode_us": self_us("service.protocol.encode"),
        "ir.parse_us": self_us("ir.parse"),
        "ir.parse_calls_per_req": per_req("ir.parse"),
        "ir.digest_us": self_us("ir.digest"),
        "machine.lookup_us": self_us("machine.lookup"),
        "machine.lookup_calls_per_req": per_req("machine.lookup"),
        "service.cache.lookup_us": self_us("service.cache.lookup"),
        "service.cache.hit_ratio": _ratio(extra["cache_hits"],
                                          layers["service.cache.lookup"]["calls"]),
        "translate.translate_us": self_us("translate.translate"),
        "translate.blocks_per_req": per_req("translate.translate"),
        "cost.place_us": self_us("cost.place"),
        "cost.place_calls": layers["cost.place"]["calls"],
        "cost.placement_memo_hit_ratio": _ratio(
            placement["hits"], placement["hits"] + placement["misses"]),
        "cost.batch_place_us": self_us("cost.batch_place"),
        "cost.arena_dedup_ratio": _ratio(arena["dedup"], arena["streams"]),
        "aggregate.self_us": self_us("aggregate"),
        "transform.predictor_hit_ratio": _ratio(
            extra["region_hits"], extra["region_hits"] + extra["region_misses"]),
        "symbolic.evaluate_us": self_us("symbolic.evaluate"),
        "compare.compare_us": self_us("compare.compare"),
        "sweep.self_us": self_us("sweep"),
        "transform.search_self_us": self_us("transform.search"),
        "service.engine.unattributed_us": self_us("service.engine"),
        "service.engine.handle_us": (1e6 * scale * layers["service.engine"]["incl_s"]
                                     / requests),
    }


#: Per-layer metrics that are self times: with unattributed they sum to
#: ``service.engine.handle_us``.
SELF_TIME_METRICS = (
    "service.protocol.decode_us", "service.protocol.encode_us", "ir.parse_us",
    "ir.digest_us", "machine.lookup_us", "service.cache.lookup_us",
    "translate.translate_us", "cost.place_us", "cost.batch_place_us",
    "aggregate.self_us", "symbolic.evaluate_us", "compare.compare_us",
    "sweep.self_us", "transform.search_self_us", "service.engine.unattributed_us",
)


# ----------------------------------------------------------------------
# runs


def untraced_run(name: str, seed: int, seconds: float) -> tuple[dict[str, float], list]:
    transport = "http" if name == "http" else "inline"
    passes = [run_pass(name, seed, replica=replica, window=seconds / REPLICAS,
                       transport=transport)
              for replica in range(REPLICAS)]
    metrics = request_metrics(passes)
    metrics["peak_rss_mb"] = median(p["rss_mb"] for p in passes)
    return metrics, passes


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict[str, float], list]:
    count = max(2, round(TRACE_RATE[name] * seconds))
    if name == "http":
        inline = run_pass(name, seed, count=count)
        plain = run_pass(name, seed, count=count, transport="http")
        traced = run_pass(name, seed, count=count, transport="http", traced=True)
        passes = [inline, plain, traced]
    else:
        plain = run_pass(name, seed, count=count)
        traced = run_pass(name, seed, count=count, traced=True)
        passes = [plain, traced]
    metrics = layer_metrics(traced, count)
    untraced = request_metrics([plain])
    metrics["trace.overhead_pct"] = 100.0 * (
        request_metrics([traced])["mean_ms"] / untraced["mean_ms"] - 1.0)
    metrics["service.server.overhead_ms"] = (
        untraced["mean_ms"] - request_metrics([inline])["mean_ms"]
        if name == "http" else 0.0)
    for key in ("p99_ms", "hit_p50_ms", "compare_p50_ms", "sweep_ms_per_width",
                "search_ms_per_node"):
        metrics[key] = untraced[key]
    return metrics, passes


def environment() -> dict[str, Any]:
    from repro.cost.arena import arena_numpy_enabled
    from repro.cost.placement import placement_kernel

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "numpy": arena_numpy_enabled(),
        "placement_kernel": placement_kernel(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_declared() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    from oracle import model_error_pct
    from workloads import model_sources

    run = traced_run if trace else untraced_run
    values, passes = run(name, seed, seconds)
    checked = verify(name, seed, passes)
    attempted = sum(row["attempted"] for row in checked["counts"].values())
    failed = sum(row["failed"] for row in checked["counts"].values())
    values["failed_frac"] = failed / attempted if attempted else 1.0
    if not trace:
        values["model_err_pct"] = model_error_pct(model_sources())
    declared = load_declared()["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    for reason in checked["reasons"][:10]:
        print(f"perfbench: failed {reason}", file=sys.stderr)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "requests": checked["counts"],
              "failed_frac": values["failed_frac"],
              "extra": {k: v for k, v in values.items() if k not in metrics}}
    print(json.dumps({"report": report}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ----------------------------------------------------------------------
# self-test


def selftest(seconds: float) -> int:
    """Run every workload briefly in both modes and check the result lines."""
    declared = load_declared()
    problems: list[str] = []
    for entry in declared["workloads"]:
        for trace in (0, 1):
            name = entry["name"]
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=4 * PASS_TIMEOUT_S)
            label = f"{name} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            problems += [f"{label}: {p}" for p in check_result(result, declared, trace)]
            print(f"{label}: attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def check_result(result: dict[str, Any], declared: dict[str, Any],
                 trace: int) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"failed {result['failed']} correct {result['correct']}")
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"metric {name}: {entry!r}")
        elif not trace and value <= 0:
            problems.append(f"metric {name} is {value}, want > 0")
    if trace and not problems:
        parts = sum(metrics[name]["value"] for name in SELF_TIME_METRICS)
        whole = metrics["service.engine.handle_us"]["value"]
        if abs(parts - whole) > 1e-6 * whole:
            problems.append(f"self times sum to {parts} us, engine time {whole} us")
    return problems


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("rebind", "fresh", "explore", "http"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run each workload briefly and check the output")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, SRC)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        if args.selftest:
            return selftest(min(args.seconds, 2.0))
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    finally:
        for process in list(_running):
            _stop(process)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
