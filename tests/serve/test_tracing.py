"""Health verdicts over the serve plane, and the refusal of a HELLO
``trace`` key."""

import asyncio
import time

import numpy as np
import pytest

from repro.obs import histogram_quantile, render
from repro.serve import (
    ReportClient,
    ReportCollector,
    ServeError,
    fetch_health,
    fetch_stats,
    protocol,
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


#: ``trace`` values a HELLO once carried: a well-formed context, and the
#: malformed and null forms the collector used to degrade to untraced.
TRACE_VALUES = {
    "context": {"trace_id": "ab" * 8, "span_id": "cd" * 8},
    "null": None,
    "empty": {},
    "string": "not-a-context",
}


class TestHelloTraceField:
    @pytest.mark.parametrize("trace", TRACE_VALUES.values(), ids=TRACE_VALUES)
    def test_hello_carrying_trace_is_refused(self, trace):
        """``trace`` is no session config key: a HELLO carrying it, in
        whatever form, gets an ERROR frame naming the key, and creates no
        session."""

        async def scenario():
            async with ReportCollector() as collector:
                reader, writer = await asyncio.open_connection(
                    collector.host, collector.port
                )
                hello = dict(_config(session="badtrace"), trace=trace)
                # Encoded as is: ``hello_frame`` would elide a null.
                writer.write(protocol.encode_json(protocol.HELLO, hello))
                await writer.drain()
                frame_type, body = await protocol.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return frame_type, protocol.decode_json(body), len(
                    collector.registry
                )

        frame_type, reply, n_sessions = run(scenario())
        assert frame_type == protocol.ERROR
        assert "unknown session config keys: ['trace']" in reply["error"]
        assert n_sessions == 0

    def test_join_carrying_trace_is_refused_and_the_session_serves_on(self):
        """A joining HELLO that carries ``trace`` is refused the same way;
        the session it named keeps serving its first client."""
        labels, items = _population(n=600)
        config = _config(session="joined")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    reader, writer = await asyncio.open_connection(
                        collector.host, collector.port
                    )
                    hello = dict(config, trace=TRACE_VALUES["context"])
                    writer.write(protocol.hello_frame(hello))
                    await writer.drain()
                    frame_type, body = await protocol.read_frame(reader)
                    writer.close()
                    await writer.wait_closed()
                    estimate = await client.estimate()
                    [hosted] = collector.registry.sessions()
                    n_drained = hosted.ingest_stats()["n_drained"]
            return frame_type, protocol.decode_json(body), estimate, n_drained

        frame_type, reply, estimate, n_drained = run(scenario())
        assert frame_type == protocol.ERROR
        assert "unknown session config keys: ['trace']" in reply["error"]
        assert np.asarray(estimate).shape == (3, 32)
        assert n_drained == 600


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

    def test_query_latency_graded_per_session_on_a_sharded_protocol_collector(
        self,
    ):
        """After one estimate on a live 2-shard protocol-mode PTS
        session, HEALTH grades that session's query latency — the drain
        of every shard plus the answer — read from its
        ``serve_query_seconds`` histogram, on the wire frame and through
        ``collector.health()`` alike."""
        labels, items = _population(n=3000, c=4, d=64)
        config = _config(
            session="latency", framework="pts", n_classes=4, n_items=64,
            mode="protocol", shards=2,
        )

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items, chunk_size=500)
                    await client.estimate()
                    wire = await client.health()
                    local = collector.health()
                    histogram = collector.metrics.snapshot()["histograms"][
                        'serve_query_seconds{session="latency"}'
                    ]
            return wire, local, histogram

        wire, local, histogram = run(scenario())
        assert histogram["count"] == 1
        expected = round(histogram_quantile(histogram, 0.99), 6)
        for verdict in (wire, local):
            [latency] = [
                c for c in verdict["checks"] if c["check"] == "query_latency"
            ]
            assert latency["session"] == "latency"
            assert latency["reason"].startswith("serve_query_seconds p99")
            assert latency["value"] == expected
            assert latency["status"] in ("pass", "warn")

    @pytest.mark.parametrize(
        "session", ["a,b", 'a"b', "a\\b", "a\nb", "a=b", "a}b", "a b\u00e9"]
    )
    def test_session_ids_grade_as_themselves_next_to_a_prefix_session(
        self, session
    ):
        """A session id is any non-empty string a HELLO names.  Next to a
        session ``a``, an id that a label parser would split, unescape or
        cut short still gets its own checks over the wire and its own
        Prometheus series."""
        labels, items = _population(n=400)

        async def scenario():
            async with ReportCollector() as collector:
                for sid in (session, "a"):
                    client = await ReportClient.connect(
                        collector.host, collector.port, **_config(session=sid)
                    )
                    async with client:
                        await client.send(labels, items)
                        await client.estimate()
                verdict = await fetch_health(collector.host, collector.port)
                return verdict, render(collector.metrics)

        verdict, text = run(scenario())
        for check in (
            "ingest_lag", "backpressure_stall", "flush_latency", "query_latency",
        ):
            graded = [c["session"] for c in verdict["checks"] if c["check"] == check]
            assert sorted(graded) == sorted([session, "a"]), check
        escaped = session.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        assert f'serve_query_seconds_count{{session="{escaped}"}} 1\n' in text

    def test_a_refused_query_is_timed_too(self):
        """The query histogram times every query that reached a worker,
        including one the session refuses, so HEALTH's query latency
        covers failing queries as well."""
        labels, items = _population(n=300)
        config = _config(session="refusedquery")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    with pytest.raises(ServeError, match="topk on a framework"):
                        await client.topk()
                    await client.estimate()
                histograms = collector.metrics.snapshot()["histograms"]
                return histograms['serve_query_seconds{session="refusedquery"}']

        assert run(scenario())["count"] == 2

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
