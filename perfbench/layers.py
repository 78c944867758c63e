"""Per-layer timing measured from outside the program.

Each layer is one or more public functions of ``repro``.  ``install``
replaces every binding of those functions -- the defining module and
every ``repro`` module that imported the name (the engine, for one,
binds ``parse_program`` itself) -- with a wrapper that records calls,
inclusive time, and self time (inclusive time minus the time of wrapped
calls made inside it).

Only calls made under the root layer (``PredictionEngine.handle``) are
recorded, so the layers' self times plus the root's own self time
("unattributed") add up to the engine time exactly.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable

ROOT = "service.engine"

#: (layer, owner, attribute): owner is ``module`` or ``module:Class``.
TARGETS = (
    (ROOT, "repro.service.engine:PredictionEngine", "handle"),
    ("service.protocol.decode", "repro.service.protocol", "request_from_dict"),
    ("service.protocol.encode", "repro.service.protocol", "response_to_dict"),
    ("ir.parse", "repro.ir.parser", "parse_program"),
    ("ir.digest", "repro.ir.digest", "program_digest"),
    ("machine.lookup", "repro.machine.registry", "get_machine"),
    ("machine.lookup", "repro.machine.registry", "cached_machine"),
    ("service.cache.lookup", "repro.service.cache:ResultCache", "get"),
    ("translate.translate", "repro.translate.translator:Translator",
     "translate_block"),
    ("cost.place", "repro.cost.placement", "place_stream"),
    ("cost.batch_place", "repro.cost.arena", "place_batch"),
    ("aggregate", "repro.transform.incremental:IncrementalPredictor", "predict"),
    ("symbolic.evaluate", "repro.symbolic.expr:PerfExpr", "evaluate"),
    ("compare.compare", "repro.compare.comparator", "compare"),
    ("sweep", "repro.sweep", "sweep_program"),
    ("transform.search", "repro.transform.search", "astar_search"),
)

class LayerTracer:
    """Thread-safe accumulators for every wrapped layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.layers: dict[str, dict[str, float]] = {
                layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
                for layer, _, _ in TARGETS}
            self.extra = {"cache_hits": 0, "region_hits": 0, "region_misses": 0}

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        root = layer == ROOT
        before_hook, after_hook = _PROBES.get(layer, (None, None))
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if not stack and not root:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            before = before_hook(args) if before_hook else None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    stats = tracer.layers[layer]
                    stats["calls"] += 1
                    stats["incl_s"] += elapsed
                    stats["self_s"] += elapsed - children[0]
            if after_hook:
                with tracer._lock:
                    after_hook(tracer.extra, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"layers": {k: dict(v) for k, v in self.layers.items()},
                    "extra": dict(self.extra)}


def _cache_after(extra, args, result, before) -> None:
    extra["cache_hits"] += result is not None


def _region_before(args) -> tuple[int, int]:
    stats = args[0].stats
    return stats.hits, stats.misses


def _region_after(extra, args, result, before) -> None:
    stats = args[0].stats
    extra["region_hits"] += stats.hits - before[0]
    extra["region_misses"] += stats.misses - before[1]


#: Extra counters read around a layer's calls: (before, after) hooks.
_PROBES = {
    "service.cache.lookup": (None, _cache_after),
    "aggregate": (_region_before, _region_after),
}


def _resolve(owner: str) -> tuple[Any, Any]:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def install() -> LayerTracer:
    """Wrap every target at every binding; returns the shared tracer.

    Modules imported later bind the wrapped function, since they import
    it from a module already patched here.
    """
    tracer = LayerTracer()
    for layer, owner, attr in TARGETS:
        module, cls = _resolve(owner)
        if cls is not None:
            setattr(cls, attr, tracer.wrap(layer, getattr(cls, attr)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, name, wrapped)
    return tracer
