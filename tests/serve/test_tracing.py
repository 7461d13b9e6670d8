"""End-to-end request tracing and health verdicts over the serve plane.

The acceptance path: a traced client session against a collector with
two shards exports ONE Chrome trace-event document in which a single
trace id links the client's submit spans to the collector's ingest/flush
spans and the shard threads' ingest spans."""

import asyncio
import time

import numpy as np

from repro.obs import trace as obs_trace
from repro.obs.trace import get_tracer, tracing_enabled
from repro.serve import (
    ReportClient,
    ReportCollector,
    fetch_health,
    fetch_stats,
)


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _population(n=1500, c=3, d=32, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, c, size=n), rng.integers(0, d, size=n)


def _config(**overrides):
    config = dict(
        session="tracecohort",
        framework="ptj",
        epsilon=2.0,
        n_classes=3,
        n_items=32,
        mode="simulate",
        seed=31,
        shards=2,
    )
    config.update(overrides)
    return config


def _names_by_trace(spans, trace_id):
    return {s["name"] for s in spans if s["trace_id"] == trace_id}


class TestTracedEndToEnd:
    def test_one_trace_id_links_client_collector_and_shards(self):
        """Acceptance: client submit, collector ingest/flush, shard
        ingest, and the query all share the client's root trace id in a
        single exported Chrome trace document."""
        labels, items = _population()
        config = _config(session="trace-shards")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    trace_id = client.trace.trace_id
                    await client.send(labels, items, chunk_size=256)
                    estimate = await client.estimate()
            return trace_id, estimate

        tracer = get_tracer()
        tracer.clear()
        with tracing_enabled():
            trace_id, estimate = run(scenario())
            document = tracer.export_chrome()
            spans = tracer.drain_spans()
        tracer.clear()

        assert estimate.shape == (3, 32)
        names = _names_by_trace(spans, trace_id)
        # one trace id stitches every layer of the request path together
        assert {
            "client.send",
            "collector.ingest",
            "collector.flush",
            "shard.ingest",
            "client.query",
            "collector.query",
        } <= names

        # the same linkage is visible in the exported Chrome document
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        traced = [e for e in slices if e["args"].get("trace_id") == trace_id]
        assert {e["name"] for e in traced} >= {
            "client.send",
            "collector.flush",
            "shard.ingest",
        }
        assert document["otherData"]["dropped_spans"] == 0

        # parenting: collector.flush descends from the announced root
        flush = next(s for s in spans if s["name"] == "collector.flush")
        assert flush["trace_id"] == trace_id
        assert flush["parent_id"] is not None

    def test_untraced_run_records_nothing(self):
        """The zero-cost guarantee: with the tracer off (the default in
        this suite), a full session leaves the span ring empty and the
        client never mints a context."""
        labels, items = _population(n=400)
        config = _config(session="untraced")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    await client.estimate()
                return client.trace

        tracer = get_tracer()
        assert not tracer.enabled
        before = tracer.ring.total
        ctx = run(scenario())
        assert ctx is None
        assert tracer.ring.total == before

    def test_malformed_trace_field_degrades_to_untraced(self):
        """A garbage ``trace`` value on the HELLO must not kill the
        handshake — the connection simply runs untraced."""
        labels, items = _population(n=300)

        async def scenario():
            from repro.serve import protocol

            async with ReportCollector() as collector:
                reader, writer = await asyncio.open_connection(
                    collector.host, collector.port
                )
                hello = dict(_config(session="badtrace"))
                hello["trace"] = ["not", "a", "context"]
                reply = await protocol.request(
                    reader, writer, protocol.hello_frame(hello)
                )
                writer.close()
                await writer.wait_closed()
                return reply

        tracer = get_tracer()
        tracer.clear()
        with tracing_enabled():
            reply = run(scenario())
        tracer.clear()
        assert reply["result"]["session"] == "badtrace"

    def test_traced_queries_parent_on_their_client_spans(self):
        """Each query frame's trace annotation is popped off the spec and
        parents that query's collector span: two identical queries on a
        traced connection record two collector spans under two distinct
        client spans, and answer the same drained state."""
        labels, items = _population(n=600)
        config = _config(session="tracequery", shards=1)

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    first = await client.estimate()
                    second = await client.estimate()
            return first, second

        tracer = get_tracer()
        tracer.clear()
        with tracing_enabled():
            first, second = run(scenario())
            spans = tracer.drain_spans()
        tracer.clear()
        np.testing.assert_array_equal(first, second)
        clients = [s["span_id"] for s in spans if s["name"] == "client.query"]
        parents = [s["parent_id"] for s in spans if s["name"] == "collector.query"]
        assert len(set(clients)) == 2
        assert sorted(parents) == sorted(clients)


class TestHealthVerdicts:
    def test_health_wire_frame_pre_hello(self):
        async def scenario():
            async with ReportCollector() as collector:
                return await fetch_health(collector.host, collector.port)

        verdict = run(scenario())
        assert verdict["schema"] == 1
        assert verdict["status"] == "pass"
        assert verdict["checks"] == []

    def test_client_health_mid_session(self):
        labels, items = _population(n=500)
        config = _config(session="healthmid")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    await client.estimate()
                    return await client.health()

        verdict = run(scenario())
        assert verdict["status"] in ("pass", "warn")
        stalls = [
            c for c in verdict["checks"] if c["check"] == "backpressure_stall"
        ]
        assert stalls and stalls[0]["session"] == "healthmid"
        # The estimate's flush was timed, so its latency is graded too.
        flushes = [
            c for c in verdict["checks"]
            if c["check"] == "flush_latency" and c.get("session") == "healthmid"
        ]
        assert flushes and flushes[0]["status"] in ("pass", "warn")

    def test_health_flips_pass_warn_fail_under_injected_stall(self):
        """Acceptance: the verdict flips pass -> warn -> fail as a
        session's backpressure stall grows past the policy thresholds."""
        labels, items = _population(n=500)
        config = _config(session="stallflip")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    await client.estimate()
                    [hosted] = collector.registry.sessions()

                    healthy = collector.health()

                    # a completed 2s stall: warn territory (>= 1s)
                    hosted._stall_seconds = 2.0
                    warned = collector.health()

                    # an in-progress stall 40s deep: fail (>= 30s)
                    hosted._stall_waiters = 1
                    hosted._stall_clock = time.perf_counter() - 40.0
                    failed = collector.health()

                    wire = await client.health()
            return healthy, warned, failed, wire

        healthy, warned, failed, wire = run(scenario())
        assert healthy["status"] == "pass"
        assert warned["status"] == "warn"
        assert failed["status"] == "fail"
        [stall] = [
            c for c in failed["checks"]
            if c["check"] == "backpressure_stall"
        ]
        assert stall["value"] >= 30.0
        assert "stall in progress" in stall["reason"]
        # the HEALTH wire frame serves the same evaluation
        assert wire["status"] == "fail"

    def test_stats_expose_stall_accounting(self):
        labels, items = _population(n=400)
        config = _config(session="stallstats")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                live = await fetch_stats(collector.host, collector.port)
            return live

        live = run(scenario())
        [session] = [
            s for s in live["sessions"] if s["session"] == "stallstats"
        ]
        assert session["stalled"] is False
        assert session["stall_seconds"] >= 0.0
        assert session["high_water"] > 0
