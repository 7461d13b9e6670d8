"""The telemetry plane: registry semantics, instruments, spans, the
Prometheus renderer, and the structured JSON logger."""

import io
import json
import math
import threading

import pytest

from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    SNAPSHOT_SCHEMA,
    JsonLogger,
    MetricsRegistry,
    Span,
    render,
    render_snapshot,
    series_key,
    write_snapshot,
)


class TestSeriesKey:
    def test_bare_name_without_labels(self):
        assert series_key("reports_total", {}) == "reports_total"

    def test_labels_sorted_and_quoted(self):
        key = series_key("m", {"b": 1, "a": "x"})
        assert key == 'm{a="x",b="1"}'

    def test_label_values_escaped(self):
        key = series_key("m", {"v": 'a"b\\c\nd'})
        assert key == 'm{v="a\\"b\\\\c\\nd"}'


class TestCounter:
    def test_increments_accumulate(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestHistogram:
    def test_bucket_edges_le_semantics(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        # exactly on an edge lands in that edge's bucket (Prometheus le).
        hist.observe(1.0)
        hist.observe(1.5)
        hist.observe(4.0)
        hist.observe(100.0)  # above the last edge: +Inf overflow
        state = hist.state()
        assert state["edges"] == [1.0, 2.0, 4.0]
        assert state["counts"] == [1, 1, 1, 1]
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(106.5)

    def test_edges_must_strictly_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=())

    def test_default_bucket_tables_are_valid(self):
        for table in (DEFAULT_TIME_BUCKETS, DEFAULT_COUNT_BUCKETS):
            assert all(b > a for a, b in zip(table, table[1:]))


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c", x=1) is registry.counter("c", x=1)
        assert registry.counter("c", x=1) is not registry.counter("c", x=2)
        assert len(registry) == 2

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_snapshot_shape_and_schema(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        # snapshots are plain data: JSON round-trips unchanged
        assert json.loads(json.dumps(snap)) == snap

    def test_concurrent_increments_sum_exactly(self):
        """Shard workers hammer one counter while snapshots are taken:
        no increment is lost and no snapshot shows a torn value."""
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h", buckets=(0.5,))
        per_thread, n_threads = 2000, 8
        seen = []
        stop = threading.Event()

        def work():
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.1)

        def watch():
            while not stop.is_set():
                seen.append(registry.snapshot()["counters"]["c"])

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        watcher = threading.Thread(target=watch)
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()
        assert counter.value == per_thread * n_threads
        assert hist.count == per_thread * n_threads
        assert all(isinstance(v, int) and 0 <= v <= counter.value for v in seen)

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert len(registry) == 0
        assert registry.snapshot()["counters"] == {}


class TestSpan:
    def test_records_into_its_histogram(self):
        registry = MetricsRegistry()
        with Span(registry.histogram("s")):
            pass
        state = registry.histogram("s").state()
        assert state["count"] == 1 and state["sum"] >= 0.0


class TestPromRendering:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("reports_total", framework="pts").inc(7)
        registry.gauge("depth").set(2.5)
        text = render(registry)
        assert "# TYPE reports_total counter" in text
        assert 'reports_total{framework="pts"} 7' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0), unit="s")
        for v in (0.5, 1.5, 99.0):
            hist.observe(v)
        text = render(registry)
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{unit="s",le="1"} 1' in text
        assert 'lat_bucket{unit="s",le="2"} 2' in text
        assert 'lat_bucket{unit="s",le="+Inf"} 3' in text
        assert 'lat_sum{unit="s"} 101' in text
        assert 'lat_count{unit="s"} 3' in text

    def test_unlabelled_histogram_suffixes(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        text = render(registry)
        assert 'h_bucket{le="1"} 1' in text
        assert "h_sum 0.5" in text
        assert "h_count 1" in text

    def test_infinite_edge_formatting(self):
        assert "+Inf" in render_snapshot(
            {
                "histograms": {
                    "h": {
                        "edges": [math.inf],
                        "counts": [1, 0],
                        "sum": 0.0,
                        "count": 1,
                    }
                }
            }
        )

    def test_empty_snapshot_renders_empty(self):
        assert render_snapshot({"counters": {}, "gauges": {}, "histograms": {}}) == ""

    def test_write_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = write_snapshot(tmp_path / "m.prom", registry)
        assert path.read_text() == "# TYPE c counter\nc 1\n"


class TestJsonLogger:
    def test_records_are_line_delimited_json(self):
        sink = io.StringIO()
        logger = JsonLogger(sink)
        logger.event("unit.test", session="s1", n=3)
        logger.event("unit.test", n=4)
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "unit.test"
        assert first["session"] == "s1"
        assert "ts" in first

    def test_disabled_without_sink(self):
        logger = JsonLogger()
        assert not logger.enabled
        logger.event("dropped")  # must not raise

    def test_configure_none_turns_off(self, tmp_path):
        path = tmp_path / "log.jsonl"
        logger = JsonLogger(path)
        logger.event("kept")
        logger.configure(None)
        logger.event("dropped")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["kept"]

    def test_non_json_fields_stringified(self):
        sink = io.StringIO()
        JsonLogger(sink).event("e", path=object())
        assert json.loads(sink.getvalue())["event"] == "e"
