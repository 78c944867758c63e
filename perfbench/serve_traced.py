"""``repro serve`` with the per-layer wrappers installed.

Runs the same CLI entry point as ``python -m repro serve``.  A thread
reads commands from stdin so the measuring pass can bracket its
requests without touching the server's HTTP surface:

``reset``  zero the layer accumulators and counter baselines; replies ``ok``
``dump``   reply with one JSON line: ``{"trace": ..., "counters": ...}``
"""

from __future__ import annotations

import json
import sys
import threading

from child import counter_delta, counters
from layers import install


def main() -> int:
    tracer = install()
    baseline = [counters()]

    def commands() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                tracer.reset()
                baseline[0] = counters()
                reply = "ok"
            elif command == "dump":
                reply = json.dumps({"trace": tracer.snapshot(),
                                    "counters": counter_delta(baseline[0],
                                                              counters())})
            else:
                reply = json.dumps({"error": f"unknown command {command!r}"})
            print(reply, flush=True)

    threading.Thread(target=commands, name="perfbench-commands",
                     daemon=True).start()
    from repro.cli import main as repro_main

    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
