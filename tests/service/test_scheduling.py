"""Batch-aware scheduling: weight classes, chunked light work, split
restructures, and placement-memo telemetry."""

import pytest

from repro.cost import reset_placement_cache
from repro.service import (
    PredictRequest,
    PredictionEngine,
    RestructureRequest,
)
from repro.service.engine import _is_heavy, _Pending, _request_to_dict

MATMUL = """
program mm
  integer n, i, j, k
  real a(n,n), b(n,n), c(n,n)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        c(i,j) = c(i,j) + a(i,k) * b(k,j)
      end do
    end do
  end do
end
"""

SAXPY = """
program saxpy
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""


def _restructure_item(beam_width=2, depth=2, max_nodes=60):
    return ("restructure", _request_to_dict(RestructureRequest(
        source=MATMUL, workload={"n": 16}, depth=depth,
        max_nodes=max_nodes, beam_width=beam_width)))


def _predict_item(n):
    return ("predict", _request_to_dict(
        PredictRequest(source=SAXPY, bindings={"n": n})))


@pytest.fixture
def reference():
    """The inline (serial) answer every pool shape must reproduce."""
    with PredictionEngine(workers=0) as engine:
        result = engine.handle(*_restructure_item())
    assert "error" not in result
    return result


def test_weight_classes():
    def entry(kind, payload):
        from repro.service.protocol import request_from_dict
        return _Pending(0, kind, dict(payload), "k", False,
                        request_from_dict(kind, payload))

    assert not _is_heavy(entry(*_predict_item(4)))
    assert _is_heavy(entry(*_restructure_item()))
    # A shallow, tightly bounded restructure rides in a light chunk.
    assert not _is_heavy(entry("restructure", {
        "source": SAXPY, "workload": {"n": 8}, "depth": 1, "max_nodes": 20}))
    assert _is_heavy(entry("kernels", {"machine": "power"}))


def test_mixed_batch_matches_inline(reference):
    items = [_restructure_item()] + [_predict_item(n) for n in range(1, 7)]
    with PredictionEngine(workers=2, executor="thread") as engine:
        results = engine.handle_batch(items)
    assert results[0]["sequence"] == reference["sequence"]
    assert results[0]["cost"] == reference["cost"]
    assert results[0]["nodes_expanded"] == reference["nodes_expanded"]
    for result in results[1:]:
        assert "error" not in result
        assert result["cost"] == "3*n + 8"


def test_split_restructure_through_process_pool(reference):
    items = [_restructure_item(), _predict_item(3)]
    with PredictionEngine(workers=2, executor="process") as engine:
        results = engine.handle_batch(items)
    assert results[0]["sequence"] == reference["sequence"]
    assert results[0]["cost"] == reference["cost"]
    assert "error" not in results[1]


def test_light_requests_finish_before_heavy():
    order = []
    items = [_restructure_item()] + [_predict_item(n) for n in range(1, 9)]
    with PredictionEngine(workers=2, executor="thread") as engine:
        engine.handle_batch(items, on_result=lambda i, r: order.append(i))
    assert set(order) == set(range(len(items)))
    # The heavy restructure (index 0) lands last: light chunks are
    # submitted first and the split driver never fills the pool.
    assert order[-1] == 0


def test_task_shape_telemetry():
    items = [_restructure_item()] + [_predict_item(n) for n in range(1, 9)]
    with PredictionEngine(workers=2, executor="thread") as engine:
        engine.handle_batch(items)
        tasks = engine.metrics.counter("repro_engine_tasks_total")
        assert tasks.value(shape="chunk") >= 1
        assert tasks.value(shape="split") == 1
        assert tasks.value(shape="search_round") >= 1
        assert tasks.value(shape="single") == 0


def test_beam_width_is_part_of_the_cache_key():
    with PredictionEngine(workers=0) as engine:
        narrow = engine.handle(*_restructure_item(beam_width=1))
        wide = engine.handle(*_restructure_item(beam_width=4))
        assert not narrow["cached"]
        assert not wide["cached"]          # different beam -> different key
        assert engine.handle(*_restructure_item(beam_width=4))["cached"]


def test_placement_cache_metrics_exposed():
    from repro.service import engine as engine_mod

    # Cold caches all the way down: a warm IncrementalPredictor would
    # answer the whole search from memory without placing any stream.
    engine_mod._predictors.clear()
    reset_placement_cache()
    with PredictionEngine(workers=0) as engine:
        engine.handle(*_restructure_item())
        hits = engine.metrics.counter("repro_placement_cache_hits_total")
        misses = engine.metrics.counter("repro_placement_cache_misses_total")
        assert misses.value() > 0
        # A search revisits mostly-identical bodies, so hits dominate.
        assert hits.value() > misses.value()
        engine.export_cache_metrics()
        entries = engine.metrics.gauge("repro_placement_cache_entries")
        assert entries.value() > 0


def test_on_result_fires_for_cache_hits_and_errors():
    seen = {}
    with PredictionEngine(workers=0) as engine:
        engine.handle(*_predict_item(5))
        engine.handle_batch(
            [_predict_item(5), ("predict", {"source": "not fortran ("})],
            on_result=lambda i, r: seen.update({i: r}))
    assert seen[0]["cached"] is True
    assert seen[1]["error"] == "ParseError"
