"""The live telemetry surface of the collector: the STATS wire frame
reconciles exactly with what clients submitted, and the Prometheus
``/metrics`` endpoint serves the same registry over HTTP."""

import asyncio

import numpy as np
import pytest

from repro.obs import MetricsRegistry, start_metrics_server
from repro.serve import (
    ReportClient,
    ReportCollector,
    fetch_stats,
    generate_load,
)


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _population(n=1200, c=3, d=32, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, c, size=n), rng.integers(0, d, size=n)


def _config(**overrides):
    config = dict(
        session="statscohort",
        framework="ptj",
        epsilon=2.0,
        n_classes=3,
        n_items=32,
        mode="simulate",
        seed=23,
        shards=2,
    )
    config.update(overrides)
    return config


class TestStatsFrame:
    def test_stats_reconcile_with_submitted_reports(self):
        """Acceptance: a live STATS poll during/after load matches the
        client-side submitted totals exactly — reports and frame counts."""
        n_connections, chunk = 4, 128
        labels, items = _population()
        config = _config()

        async def scenario():
            async with ReportCollector() as collector:
                load = await generate_load(
                    collector.host, collector.port, config,
                    labels, items,
                    n_connections=n_connections, chunk_size=chunk,
                )
                live = await fetch_stats(collector.host, collector.port)
            return load, live

        load, live = run(scenario())
        assert load["reports"] == labels.size
        stats = live["collector"]
        assert stats["reports_ingested"] == labels.size
        assert stats["frames"]["hello"] == n_connections
        # generate_load splits the population across connections and each
        # connection sends ceil(share / chunk) REPORTS frames.
        shares = [
            part.size for part in np.array_split(np.arange(labels.size), n_connections)
        ]
        expected_frames = sum(-(-share // chunk) for share in shares)
        assert stats["frames"]["reports"] == expected_frames
        assert stats["frames"]["bye"] == n_connections
        assert stats["frames_rejected"] == 0
        assert stats["connections_total"] >= n_connections
        # session-level lag accounting covers everything accepted
        sessions = {s["session"]: s for s in live["sessions"]}
        assert sessions[config["session"]]["n_accepted"] == labels.size
        assert (
            sessions[config["session"]]["pending"]
            == labels.size - sessions[config["session"]]["n_drained"]
        )

    def test_fast_lane_instruments_reconcile_in_stats_frame(self):
        """The ingest fast lane's telemetry rides the same STATS snapshot:
        decode/flush span histograms record every hot-path pass, the ring
        gauges track occupancy/capacity, and every query's drain is
        timed."""
        labels, items = _population(n=2000)
        config = _config(session="fastlanestats")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items, chunk_size=256)
                    await client.estimate()
                    await client.estimate()
                    live = await client.server_stats()
            return live

        live = run(scenario())
        session = 'session="fastlanestats"'
        gauges = live["metrics"]["gauges"]
        histograms = live["metrics"]["histograms"]
        # Every coalesced decode pass and flush copy is timed.
        decode = histograms[f"serve_decode_seconds{{{session}}}"]
        assert decode["count"] >= 1 and decode["sum"] >= 0
        sort = histograms[f"serve_flush_sort_seconds{{{session}}}"]
        assert sort["count"] >= 1 and sort["sum"] >= 0
        query = histograms[f"serve_query_seconds{{{session}}}"]
        assert query["count"] == 2  # every query reached a worker
        # The ring drained before the first query answered; capacity is
        # the pre-sized power of two covering two full flush thresholds.
        assert gauges[f"serve_ring_occupancy{{{session}}}"] == 0
        capacity = int(gauges[f"serve_ring_capacity{{{session}}}"])
        assert capacity >= 8192 and capacity & (capacity - 1) == 0

    def test_stats_answered_before_hello(self):
        """Monitors poll without a session handshake: fetch_stats opens a
        bare connection and sends STATS as its first frame."""

        async def scenario():
            async with ReportCollector() as collector:
                live = await fetch_stats(collector.host, collector.port)
            return live

        live = run(scenario())
        assert live["collector"]["reports_ingested"] == 0
        assert live["sessions"] == []
        assert live["metrics"]["schema"] == 1

    def test_client_server_stats_mid_session(self):
        labels, items = _population(n=500)
        config = _config(session="midpoll")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    live = await client.server_stats()
            return live

        live = run(scenario())
        assert live["collector"]["reports_ingested"] == 500
        names = {s["session"] for s in live["sessions"]}
        assert "midpoll" in names

    def test_collector_metrics_registry_always_enabled(self):
        collector = ReportCollector()
        assert collector.metrics.enabled
        private = MetricsRegistry(enabled=True)
        assert ReportCollector(metrics=private).metrics is private


class TestMetricsEndpoint:
    def _get(self, request: bytes, registry: MetricsRegistry) -> bytes:
        async def scenario():
            server = await start_metrics_server("127.0.0.1", 0, (registry,))
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(request)
                await writer.drain()
                response = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return response

        return run(scenario())

    def test_metrics_path_serves_prometheus_text(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("serve_reports_ingested_total").inc(77)
        response = self._get(b"GET /metrics HTTP/1.0\r\n\r\n", registry)
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"text/plain; version=0.0.4" in head
        assert b"serve_reports_ingested_total 77" in body

    def test_unknown_path_is_404(self):
        response = self._get(
            b"GET /nope HTTP/1.0\r\n\r\n", MetricsRegistry(enabled=True)
        )
        assert b"404" in response.splitlines()[0]

    def test_non_get_is_405(self):
        response = self._get(
            b"POST /metrics HTTP/1.0\r\n\r\n", MetricsRegistry(enabled=True)
        )
        assert b"405" in response.splitlines()[0]
