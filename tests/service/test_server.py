"""End-to-end HTTP tests: ephemeral port, JSON bodies, /metrics.

Server lifecycles come from :mod:`tests.service.conftest`
(``running_server`` / the ``server`` fixture), which guarantee the
listening socket is closed even when an assertion fails mid-test --
ad-hoc start/stop here used to leak sockets on failure paths.
"""

import json
import urllib.error
import urllib.request

import pytest

from .conftest import SAXPY, http_get, http_post, running_server


def _post(server, path, payload):
    return http_post(server.port, path, payload)


def _get(server, path):
    return http_get(server.port, path)


def test_healthz(server):
    status, body = _get(server, "/healthz")
    assert status == 200
    assert json.loads(body) == {"status": "ok"}


def test_healthz_reports_shard_identity():
    with running_server(shard_of="1/3") as server:
        status, body = _get(server, "/healthz")
    assert status == 200
    assert json.loads(body) == {"status": "ok", "shard": "1/3"}


def test_predict_endpoint_and_cache_hit_via_metrics(server):
    # The ISSUE acceptance path: saxpy in, 3*n + 8 out as JSON ...
    status, body = _post(server, "/predict",
                         {"source": SAXPY, "bindings": {"n": 100}})
    assert status == 200
    assert body["cost"] == "3*n + 8"
    assert body["cycles"] == "308"
    assert body["cached"] is False

    # ... and an identical second POST is served from the cache,
    # verified through the /metrics hit counter.
    status, body = _post(server, "/predict",
                         {"source": SAXPY, "bindings": {"n": 100}})
    assert status == 200
    assert body["cached"] is True

    status, text = _get(server, "/metrics")
    assert status == 200
    metrics = {
        line.split(" ")[0]: line.rsplit(" ", 1)[1]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    assert float(metrics["repro_cache_hits_total"]) == 1
    assert float(metrics["repro_cache_misses_total"]) >= 1


def test_batch_predict(server):
    status, body = _post(server, "/predict", [
        {"source": SAXPY},
        {"source": SAXPY, "machine": "scalar"},
    ])
    assert status == 200
    assert isinstance(body, list) and len(body) == 2
    assert body[0]["machine"] == "power"
    assert body[1]["machine"] == "scalar"


def test_compare_endpoint(server):
    status, body = _post(server, "/compare",
                         {"first": SAXPY, "second": SAXPY})
    assert status == 200
    assert body["verdict"] == "equal"


def test_kernels_endpoint(server):
    status, body = _get(server, "/kernels?machine=power")
    assert status == 200
    rows = json.loads(body)["rows"]
    names = {row["kernel"] for row in rows}
    assert {"matmul", "jacobi", "rb"} <= names


def test_malformed_json_is_400(server):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/predict",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    envelope = json.loads(excinfo.value.read())
    assert envelope["status"] == 400


def test_schema_violation_is_400(server):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/predict",
        data=json.dumps({"source": SAXPY, "bogus": 1}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["error"] == "ProtocolError"


def test_deeply_nested_source_is_400_not_5xx(server):
    deep = ("program deep\n  real x\n  x = " + "(" * 3000 + "1.0"
            + ")" * 3000 + "\nend\n")
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/predict",
        data=json.dumps({"source": deep}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["error"] == "RecursionError"
    # In a batch, only the deep item fails; its neighbours still answer.
    status, body = _post(server, "/predict", [
        {"source": SAXPY, "bindings": {"n": 1}},
        {"source": deep},
        {"source": SAXPY, "bindings": {"n": 2}},
        {"source": SAXPY, "bindings": {"n": 3}},
    ])
    assert status == 200
    assert body[1]["status"] == 400
    assert [item["cycles"] for item in body[:1] + body[2:]] == \
        ["11", "14", "17"]


def test_unknown_route_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/nope", timeout=10)
    assert excinfo.value.code == 404


def test_port_is_rebindable_after_stop():
    """SO_REUSEADDR: a fresh server can take a just-released port.

    Without ``allow_reuse_address`` the second bind can hit
    ``EADDRINUSE`` while the first server's sockets sit in TIME_WAIT --
    the classic flaky-on-repeat test-suite failure.
    """
    with running_server() as first:
        port = first.port
        _get(first, "/healthz")
    engine_port_pairs = []
    try:
        from repro.service import PredictionEngine, make_server

        engine = PredictionEngine(workers=0, cache_size=8)
        second = make_server(engine, host="127.0.0.1", port=port)
        engine_port_pairs.append(second)
        second.start_background()
        status, _ = http_get(port, "/healthz")
        assert status == 200
    finally:
        for instance in engine_port_pairs:
            instance.stop()


# ----------------------------------------------------------------------
# observability: request ids, tracing, slow-request log


def _post_raw(server, path, payload, headers=None):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    return urllib.request.urlopen(request, timeout=10)


def test_response_carries_request_id(server):
    with _post_raw(server, "/predict", {"source": SAXPY}) as response:
        rid = response.headers.get("X-Request-Id")
    assert rid and len(rid) == 12


def test_client_request_id_is_echoed(server):
    with _post_raw(server, "/predict", {"source": SAXPY},
                   headers={"X-Request-Id": "trace-me-42"}) as response:
        assert response.headers.get("X-Request-Id") == "trace-me-42"


def test_trace_opt_in_returns_span_block(server):
    status, body = _post(server, "/predict",
                         {"source": SAXPY, "trace": True})
    assert status == 200
    names = {span["name"] for span in body["trace"]}
    # The block holds the request-local pipeline spans; the enclosing
    # server.handle/engine.execute spans live on the server's tracer.
    assert "predict" in names


def test_metrics_exposes_phase_histogram(server):
    import time

    _post(server, "/predict", {"source": SAXPY})
    # The server.handle span closes after the response is sent, so an
    # immediate scrape can race the span ingestion; poll briefly.
    for _ in range(50):
        status, text = _get(server, "/metrics")
        if 'phase="server.handle"' in text:
            break
        time.sleep(0.05)
    assert status == 200
    assert "# TYPE repro_phase_seconds histogram" in text
    assert 'repro_phase_seconds_count{phase="server.handle"}' in text
    assert 'repro_phase_seconds_count{phase="engine.execute"}' in text
    assert 'repro_cache_requests_total{endpoint="predict",result="miss"} 1' \
        in text


def test_tracing_can_be_disabled():
    with running_server(cache_size=8, tracing=False) as instance:
        _post(instance, "/predict", {"source": SAXPY})
        _, text = _get(instance, "/metrics")
        assert 'phase="server.handle"' not in text


def test_slow_request_logs_span_tree(caplog):
    import logging

    with running_server(cache_size=8, slow_request_seconds=0.0) as instance:
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            _post(instance, "/predict", {"source": SAXPY})
    slow = [r for r in caplog.records if r.getMessage() == "slow request"]
    assert slow
    fields = slow[0].fields
    assert fields["endpoint"] == "/predict"
    assert "server.handle" in fields["span_tree"]


# ----------------------------------------------------------------------
# tiered fidelity over HTTP


def test_surrogate_server_end_to_end():
    from repro.learn import Surrogate, SurrogateConfig, reset_feature_cache
    from repro.service import PredictionEngine, make_server

    reset_feature_cache()
    engine = PredictionEngine(
        workers=0, cache_size=128,
        surrogate=Surrogate(SurrogateConfig(
            background=False, min_samples=24, retrain_every=10_000)))
    server = make_server(engine, host="127.0.0.1", port=0)
    server.start_background()
    try:
        for n in range(1, 31):              # exact traffic trains the model
            status, body = _post(server, "/predict",
                                 {"source": SAXPY, "bindings": {"n": n}})
            assert status == 200
            assert "fidelity" not in body
        status, fast = _post(server, "/predict",
                             {"source": SAXPY, "bindings": {"n": 50},
                              "fidelity": "fast"})
        assert status == 200
        assert fast["fidelity"] == "fast"
        assert fast["interval"][0] <= float(fast["cycles"]) \
            <= fast["interval"][1]

        status, body = _get(server, "/healthz")
        health = json.loads(body)
        assert health["surrogate"]["served"] == 1
        assert health["surrogate"]["models"]

        status, body = _get(server, "/metrics")
        assert "repro_surrogate_served_total" in body
        assert "repro_surrogate_model_version" in body
    finally:
        server.stop()
        reset_feature_cache()
