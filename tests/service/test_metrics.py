"""Prometheus text rendering of counters, gauges, and histograms."""

import itertools
import math
import threading
import time

import pytest

from repro.service.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    StatsExport,
    parse_exposition,
    render_exposition,
)


def test_counter_labels_and_render():
    registry = MetricsRegistry()
    counter = registry.counter("reqs_total", "Requests.")
    counter.inc(endpoint="predict", status="200")
    counter.inc(2, endpoint="predict", status="200")
    counter.inc(endpoint="compare", status="400")
    assert counter.value(endpoint="predict", status="200") == 3
    text = registry.render()
    assert "# TYPE reqs_total counter" in text
    assert 'reqs_total{endpoint="predict",status="200"} 3' in text
    assert 'reqs_total{endpoint="compare",status="400"} 1' in text


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c", "").inc(-1)


def test_gauge_set_and_overwrite():
    registry = MetricsRegistry()
    gauge = registry.gauge("cache_entries", "Entries.")
    gauge.set(5)
    gauge.set(3)
    assert gauge.value() == 3
    assert "cache_entries 3" in registry.render()


def test_histogram_cumulative_buckets():
    histogram = Histogram("lat", "Latency.", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        histogram.observe(value, endpoint="predict")
    lines = histogram.render()
    assert 'lat_bucket{endpoint="predict",le="0.01"} 1' in lines
    assert 'lat_bucket{endpoint="predict",le="0.1"} 3' in lines
    assert 'lat_bucket{endpoint="predict",le="1"} 4' in lines
    assert 'lat_bucket{endpoint="predict",le="+Inf"} 5' in lines
    assert histogram.count(endpoint="predict") == 5


def test_histogram_boundary_lands_in_bucket():
    histogram = Histogram("lat", "", buckets=(0.1, 1.0))
    histogram.observe(0.1)
    assert 'lat_bucket{le="0.1"} 1' in histogram.render()


def test_registry_same_name_same_instrument():
    registry = MetricsRegistry()
    a = registry.counter("x_total", "")
    b = registry.counter("x_total", "")
    assert a is b
    with pytest.raises(TypeError):
        registry.gauge("x_total", "")


# ----------------------------------------------------------------------
# exposition-format escaping


def test_label_values_escape_quotes_backslashes_newlines():
    registry = MetricsRegistry()
    counter = registry.counter("esc_total", "")
    counter.inc(message='say "hi"\\now\non two lines')
    (line,) = counter.render()
    assert line == (
        'esc_total{message="say \\"hi\\"\\\\now\\non two lines"} 1'
    )


def test_escaped_labels_stay_single_line():
    counter = Counter("one_line_total", "")
    counter.inc(path="a\nb")
    (line,) = counter.render()
    assert "\n" not in line


def test_histogram_sum_uses_plain_float_format():
    histogram = Histogram("lat", "", buckets=(1.0,))
    histogram.observe(0.25)
    histogram.observe(0.25)
    lines = histogram.render()
    assert "lat_sum 0.5" in lines          # not repr() -> "0.5" w/o quotes
    histogram2 = Histogram("lat2", "", buckets=(1.0,))
    histogram2.observe(2.0)
    assert "lat2_sum 2" in histogram2.render()


def test_histogram_reset_drops_observations():
    histogram = Histogram("ages", "", buckets=(1.0, 10.0))
    histogram.observe(0.5, endpoint="predict")
    assert histogram.count(endpoint="predict") == 1
    histogram.reset()
    assert histogram.count(endpoint="predict") == 0
    assert histogram.render() == []


def test_histogram_count_sum_consistent_after_reset():
    """Post-reset observations must rebuild a coherent family: the
    ``+Inf`` bucket, ``_count``, and observation count all agree."""
    histogram = Histogram("lat", "", buckets=(0.1, 1.0))
    histogram.observe(0.05, endpoint="predict")
    histogram.observe(5.0, endpoint="predict")
    histogram.reset()
    histogram.observe(0.5, endpoint="predict")
    lines = histogram.render()
    assert 'lat_bucket{endpoint="predict",le="+Inf"} 1' in lines
    assert 'lat_count{endpoint="predict"} 1' in lines
    assert 'lat_sum{endpoint="predict"} 0.5' in lines
    assert histogram.count(endpoint="predict") == 1


def test_overlapping_syncs_count_each_increase_once():
    """Concurrent syncs never read a later snapshot as a reset: the
    exported counter ends at exactly the source's total increase."""
    ticks = itertools.count()

    def read():
        value = next(ticks)
        time.sleep(0.0001)  # let a later reader overtake this one
        return {"g": {"n": value, "entries": 1}}

    metrics = MetricsRegistry()
    export = StatsExport(metrics, read)

    def hammer():
        for _ in range(200):
            export.sync()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    export.export()
    last = next(ticks) - 1      # the value export()'s own sync read
    assert metrics.counter("repro_g_n_total").value() == last
    assert metrics.gauge("repro_g_entries").value() == 1


# ----------------------------------------------------------------------
# exposition parsing (the /metrics/cluster merge path)


def test_parse_render_round_trip_is_identity():
    registry = MetricsRegistry()
    counter = registry.counter("reqs_total", "Requests.")
    counter.inc(3, endpoint="predict", status="200")
    registry.gauge("cache_entries", "Entries.").set(7.5)
    histogram = registry.histogram("lat", "Latency.", buckets=(0.1, 1.0))
    histogram.observe(0.05, endpoint="predict")
    text = registry.render()
    families = parse_exposition(text)
    rendered = render_exposition(families.values())
    assert parse_exposition(rendered) == families


def test_parse_groups_histogram_series_under_family():
    histogram = Histogram("lat", "Latency.", buckets=(0.1,))
    histogram.observe(0.05)
    text = "\n".join(["# HELP lat Latency.", "# TYPE lat histogram",
                      *histogram.render()]) + "\n"
    families = parse_exposition(text)
    assert set(families) == {"lat"}
    names = {sample.name for sample in families["lat"].samples}
    assert names == {"lat_bucket", "lat_sum", "lat_count"}


def test_parse_inf_bucket_value():
    families = parse_exposition(
        '# TYPE lat histogram\nlat_bucket{le="+Inf"} 4\n'
        "lat_sum 2\nlat_count 4\n")
    [bucket] = [s for s in families["lat"].samples
                if s.name == "lat_bucket"]
    assert dict(bucket.labels)["le"] == "+Inf"
    assert bucket.value == 4.0


def test_render_orders_le_buckets_numerically_per_labelset():
    """``le`` must ascend *within* each labelset even when lexicographic
    order disagrees (0.5 < 10 numerically, "10" < "0.5" nowhere)."""
    histogram = Histogram("lat", "", buckets=(0.5, 10.0))
    histogram.observe(0.1, endpoint="a")
    histogram.observe(20.0, endpoint="b")
    families = parse_exposition("# TYPE lat histogram\n"
                                + "\n".join(histogram.render()) + "\n")
    rendered = render_exposition(families.values())
    for endpoint in ("a", "b"):
        bounds = [line.split('le="')[1].split('"')[0]
                  for line in rendered.splitlines()
                  if f'endpoint="{endpoint}"' in line and "le=" in line]
        assert bounds == ["0.5", "10", "+Inf"]


def test_label_escaping_survives_parse_round_trip():
    registry = MetricsRegistry()
    counter = registry.counter("esc_total", "Escapes.")
    tricky = 'say "hi"\\now\non two lines'
    counter.inc(message=tricky)
    families = parse_exposition(registry.render())
    [sample] = families["esc_total"].samples
    assert dict(sample.labels)["message"] == tricky
    # And a second round trip through render is stable too.
    again = parse_exposition(render_exposition(families.values()))
    [sample2] = again["esc_total"].samples
    assert dict(sample2.labels)["message"] == tricky


def test_parse_special_values():
    families = parse_exposition("g_inf +Inf\ng_ninf -Inf\ng_nan NaN\n")
    assert math.isinf(families["g_inf"].samples[0].value)
    assert families["g_ninf"].samples[0].value == -math.inf
    assert math.isnan(families["g_nan"].samples[0].value)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_exposition("this is not a metric line at all {\n")
    with pytest.raises(ValueError):
        parse_exposition('m{unterminated="yes\n')


def test_parse_untyped_series_without_type_header():
    families = parse_exposition("mystery 42\n")
    assert families["mystery"].kind == "untyped"
    assert families["mystery"].samples[0].value == 42.0
