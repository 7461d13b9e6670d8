"""The live telemetry surface of the collector: the STATS wire frame
reconciles exactly with what clients submitted, and the Prometheus
``/metrics`` endpoint serves the same registry over HTTP."""

import asyncio
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.obs import HealthPolicy, MetricsRegistry, start_metrics_server
from repro.serve import (
    ReportClient,
    ReportCollector,
    fetch_stats,
    generate_load,
    protocol,
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
        flush = histograms[f"serve_flush_seconds{{{session}}}"]
        assert flush["count"] >= 1 and flush["sum"] >= 0
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


class TestOneRegistry:
    """The collector's registry is the only one: it always records, and
    no option or environment variable switches telemetry on or off."""

    def test_the_collector_owns_the_registry_its_sessions_record_into(self):
        collector = ReportCollector()
        assert isinstance(collector.metrics, MetricsRegistry)
        assert collector.registry.metrics is collector.metrics
        collector.registry.open(_config(session="owned"))
        try:
            gauges = collector.metrics.snapshot()["gauges"]
            assert gauges['serve_ring_capacity{session="owned"}'] > 0
            assert gauges["serve_sessions_active"] == 1
        finally:
            collector.registry.close()

    @pytest.mark.parametrize(
        "factory,option",
        [
            (ReportCollector, "registry"),
            (ReportCollector, "metrics"),
            (HealthPolicy, "imbalance_warn"),
            (HealthPolicy, "imbalance_fail"),
            (MetricsRegistry, "enabled"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_deleted_options_are_refused(self, factory, option):
        with pytest.raises(TypeError, match=option):
            factory(**{option: True})

    def test_repro_obs_environment_switches_nothing_on(self):
        """``REPRO_OBS`` is no longer read: with it set, a protocol-mode
        run still leaves both names perfbench guards on reading off, and
        the package has no switch to flip."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(
            os.environ,
            REPRO_OBS="1",
            PYTHONPATH=os.pathsep.join(filter(None, paths)),
        )
        code = (
            "import numpy as np, repro, repro.obs as obs\n"
            "from repro.obs.metrics import get_registry\n"
            "from repro.obs.trace import get_tracer\n"
            "rng = np.random.default_rng(0)\n"
            "data = repro.LabelItemDataset(rng.integers(0, 3, 500), "
            "rng.integers(0, 16, 500), 3, 16)\n"
            "repro.estimate_frequencies(data, framework='pts', epsilon=1.0, "
            "mode='protocol', rng=1)\n"
            "print(get_registry().enabled, get_tracer().enabled, "
            "[name for name in ('enable', 'disable', 'enabled', 'span') "
            "if hasattr(obs, name)])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False False []"


README = Path(__file__).resolve().parents[2] / "README.md"

#: Snapshot section of each catalogued instrument type.
SECTIONS = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}


def _catalogue() -> dict:
    """README's metrics catalogue: family -> (section, label names).

    A row names one or more families (`` `name{labels}` ``); its type
    cell gives one type for all of them, or one per family split by
    ``/``.
    """
    text = README.read_text()
    table = text[text.index("Metrics catalogue"):]
    table = table[table.index("| metric |"):]
    catalogue = {}
    for row in table.splitlines()[2:]:
        if not row.startswith("|"):
            break
        names, kinds = (cell.strip() for cell in row.strip("|").split("|")[:2])
        families = re.findall(r"`(\w+)(?:\{([\w,]*)\})?`", names)
        kinds = kinds.split("/")
        if len(kinds) == 1:
            kinds = kinds * len(families)
        assert len(kinds) == len(families), row
        for (family, labels), kind in zip(families, kinds):
            catalogue[family] = (SECTIONS[kind], tuple(filter(None, labels.split(","))))
    return catalogue


CATALOGUE = _catalogue()


@pytest.fixture(scope="module")
def live_snapshot():
    """The registry snapshot of a collector that served one 2-shard
    session (reports, an estimate, a drift query), a STATS and a HEALTH
    poll, and one connection that opened without a HELLO."""
    labels, items = _population(n=2000)

    async def scenario():
        async with ReportCollector() as collector:
            client = await ReportClient.connect(
                collector.host, collector.port, **_config(session="catalogue")
            )
            async with client:
                await client.send(labels, items, chunk_size=400)
                await client.estimate()
                await client.query("drift")
                await client.server_stats()
                await client.health()
            reader, writer = await asyncio.open_connection(
                collector.host, collector.port
            )
            writer.write(protocol.query_frame("estimate"))
            await writer.drain()
            await protocol.read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return collector.metrics.snapshot()

    return run(scenario())


def _families(snapshot: dict) -> dict:
    """family -> (section, label names) of every series in a snapshot."""
    families = {}
    for section in SECTIONS.values():
        for series in snapshot[section]:
            family, _, body = series.partition("{")
            names = tuple(sorted(re.findall(r'(\w+)="', body)))
            families.setdefault(family, set()).add((section, names))
    return families


class TestMetricsCatalogue:
    """README's catalogue lists exactly the series a live collector
    holds, with their types and label names."""

    @pytest.mark.parametrize("family", sorted(CATALOGUE))
    def test_catalogued_family_is_held_by_a_live_collector(
        self, live_snapshot, family
    ):
        assert _families(live_snapshot).get(family) == {CATALOGUE[family]}

    def test_a_live_collector_holds_no_uncatalogued_family(self, live_snapshot):
        assert set(_families(live_snapshot)) == set(CATALOGUE)


class TestMetricsEndpoint:
    def _get(self, request: bytes, registry: MetricsRegistry) -> bytes:
        async def scenario():
            server = await start_metrics_server("127.0.0.1", 0, registry)
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
        registry = MetricsRegistry()
        registry.counter("serve_reports_ingested_total").inc(77)
        response = self._get(b"GET /metrics HTTP/1.0\r\n\r\n", registry)
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"text/plain; version=0.0.4" in head
        assert b"serve_reports_ingested_total 77" in body

    def test_unknown_path_is_404(self):
        response = self._get(
            b"GET /nope HTTP/1.0\r\n\r\n", MetricsRegistry()
        )
        assert b"404" in response.splitlines()[0]

    def test_non_get_is_405(self):
        response = self._get(
            b"POST /metrics HTTP/1.0\r\n\r\n", MetricsRegistry()
        )
        assert b"405" in response.splitlines()[0]
