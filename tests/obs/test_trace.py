"""The tracing plane: contexts, the bounded span ring, the tracer's
recording semantics, and the Chrome trace-event export."""

import json

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import (
    DEFAULT_RING_CAPACITY,
    TRACE_SCHEMA,
    SpanRing,
    TraceContext,
    Tracer,
    chrome_trace,
    get_tracer,
    trace_span,
    tracing_enabled,
)


class TestTraceContext:
    def test_root_has_no_parent(self):
        ctx = TraceContext.root()
        assert ctx.parent_id is None
        assert len(ctx.trace_id) == 16 and len(ctx.span_id) == 16

    def test_child_shares_trace_and_parents_on_this_span(self):
        root = TraceContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_wire_round_trip(self):
        ctx = TraceContext.root()
        rebuilt = TraceContext.from_wire(ctx.to_wire())
        assert rebuilt.trace_id == ctx.trace_id
        assert rebuilt.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "not-a-dict",
            42,
            [],
            {},
            {"trace_id": 123},
            {"trace_id": ""},
            {"trace_id": "x" * 65},
            {"trace_id": "ok", "span_id": 7},
            {"trace_id": "ok", "span_id": ""},
            {"trace_id": "ok", "span_id": "y" * 65},
        ],
    )
    def test_malformed_wire_degrades_to_none(self, bad):
        assert TraceContext.from_wire(bad) is None

    def test_wire_without_span_id_mints_one(self):
        ctx = TraceContext.from_wire({"trace_id": "abc"})
        assert ctx is not None and ctx.trace_id == "abc"
        assert len(ctx.span_id) == 16


class TestSpanRing:
    def _record(self, i):
        return {"name": f"s{i}", "trace_id": "t", "span_id": str(i)}

    def test_retains_in_order_below_capacity(self):
        ring = SpanRing(capacity=8)
        for i in range(5):
            ring.append(self._record(i))
        assert len(ring) == 5
        assert ring.total == 5
        assert ring.dropped == 0
        assert [r["span_id"] for r in ring.spans()] == ["0", "1", "2", "3", "4"]

    def test_overwrites_oldest_and_counts_drops(self):
        ring = SpanRing(capacity=4)
        for i in range(10):
            ring.append(self._record(i))
        assert len(ring) == 4
        assert ring.total == 10
        assert ring.dropped == 6
        assert [r["span_id"] for r in ring.spans()] == ["6", "7", "8", "9"]

    def test_clear_resets_everything(self):
        ring = SpanRing(capacity=4)
        for i in range(6):
            ring.append(self._record(i))
        ring.clear()
        assert len(ring) == 0 and ring.total == 0 and ring.dropped == 0
        assert ring.spans() == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpanRing(capacity=0)

    def test_default_capacity(self):
        assert SpanRing().capacity == DEFAULT_RING_CAPACITY


class TestTracer:
    def test_disabled_span_is_the_shared_noop(self):
        tracer = Tracer(enabled=False)
        span_a = tracer.span("a", TraceContext.root())
        span_b = tracer.span("b", TraceContext.root())
        assert span_a is span_b  # the shared singleton: nothing allocated
        assert span_a.ctx is None
        with span_a:
            pass
        assert len(tracer.ring) == 0

    def test_none_context_is_noop_even_when_enabled(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a", None):
            pass
        assert len(tracer.ring) == 0

    def test_enabled_span_records_a_child_of_the_context(self):
        tracer = Tracer(enabled=True)
        root = TraceContext.root()
        with tracer.span("work", root, cat="test", detail=7) as span:
            assert span.ctx.trace_id == root.trace_id
            assert span.ctx.parent_id == root.span_id
        [record] = tracer.ring.spans()
        assert record["name"] == "work"
        assert record["cat"] == "test"
        assert record["trace_id"] == root.trace_id
        assert record["parent_id"] == root.span_id
        assert record["args"] == {"detail": 7}
        assert record["duration"] >= 0.0
        assert record["start"] > 0.0

    def test_child_false_records_as_the_context_itself(self):
        tracer = Tracer(enabled=True)
        root = TraceContext.root()
        with tracer.span("work", root, child=False):
            pass
        [record] = tracer.ring.spans()
        assert record["span_id"] == root.span_id
        assert record["parent_id"] is None

    def test_tracing_enabled_restores_prior_state(self):
        tracer = get_tracer()
        was = tracer.enabled
        tracer.disable()
        try:
            with tracing_enabled():
                assert get_tracer().enabled
                ctx = TraceContext.root()
                with trace_span("scoped", ctx):
                    pass
            assert not get_tracer().enabled
        finally:
            tracer.ring.clear()
            if was:
                tracer.enable()


class TestChromeExport:
    def _spans(self):
        return [
            {
                "name": "client.send",
                "cat": "client",
                "trace_id": "t",
                "span_id": "a",
                "parent_id": None,
                "start": 100.0,
                "duration": 0.25,
                "service": "client",
                "thread": "main",
                "args": {"reports": 5},
            },
            {
                "name": "shard.ingest",
                "cat": "shard",
                "trace_id": "t",
                "span_id": "b",
                "parent_id": "a",
                "start": 100.1,
                "duration": 0.05,
                "service": "shard0",
                "thread": "worker",
                "args": {},
            },
        ]

    def test_complete_events_with_microsecond_stamps(self):
        document = chrome_trace(self._spans(), dropped=3)
        assert document["otherData"] == {
            "schema": TRACE_SCHEMA,
            "dropped_spans": 3,
        }
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert [s["name"] for s in slices] == ["client.send", "shard.ingest"]
        assert slices[0]["ts"] == pytest.approx(100.0 * 1e6)
        assert slices[0]["dur"] == pytest.approx(0.25 * 1e6)
        assert slices[0]["args"]["trace_id"] == "t"
        assert slices[1]["args"]["parent_id"] == "a"
        # distinct services land on distinct pid rows
        assert slices[0]["pid"] != slices[1]["pid"]

    def test_metadata_names_processes_and_threads(self):
        document = chrome_trace(self._spans())
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        labels = {e["args"]["name"] for e in meta}
        assert {"client", "shard0", "main", "worker"} <= labels

    def test_document_is_json_serialisable(self):
        json.dumps(chrome_trace(self._spans()))

    def test_tracer_write_chrome(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("op", TraceContext.root()):
            pass
        path = tracer.write_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert document["otherData"]["dropped_spans"] == 0


class TestProcessTracerSwitch:
    def test_module_tracer_defaults_off_without_env(self):
        # The suite runs without REPRO_OBS; the shared tracer must not
        # record (the zero-cost guarantee the serving paths rely on).
        assert not get_tracer().enabled or obs_trace.os.environ.get(
            "REPRO_OBS", ""
        ) not in ("", "0")
