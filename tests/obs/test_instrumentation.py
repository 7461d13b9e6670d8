"""Layer instrumentation: the engine, kernel, and stream hot paths record
into the process registry when it is enabled — and stay silent when not."""

import numpy as np
import pytest

from repro.datasets import LabelItemDataset
from repro.core.frameworks import make_framework
from repro.mechanisms.kernels import perturb_onehot_batch
from repro.obs import metrics as obs_metrics
from repro.obs import render_snapshot
from repro.rng import ensure_rng
from repro.stream import ShardedAggregator, make_session


@pytest.fixture
def registry():
    """The process registry, cleared and enabled for one test."""
    reg = obs_metrics.get_registry()
    was_enabled = reg.enabled
    reg.clear()
    reg.enable()
    yield reg
    reg.clear()
    reg._enabled = was_enabled


def _population(n=400, c=3, d=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, c, size=n), rng.integers(0, d, size=n)


class TestEngineInstrumentation:
    def test_protocol_run_counts_reports_and_blocks(self, registry):
        labels, items = _population()
        dataset = LabelItemDataset(labels=labels, items=items, n_classes=3, n_items=16)
        framework = make_framework(
            "pts", epsilon=1.0, n_classes=3, n_items=16,
            mode="protocol", rng=ensure_rng(1),
        )
        framework.estimate_frequencies(dataset)
        snap = registry.snapshot()
        assert sum(
            v for k, v in snap["counters"].items()
            if k.startswith("engine_reports_total")
        ) >= labels.size
        assert any(k.startswith("engine_blocks_total") for k in snap["counters"])
        block_histograms = [
            state for k, state in snap["histograms"].items()
            if k.startswith("engine_block_seconds")
        ]
        assert block_histograms and all(h["count"] > 0 for h in block_histograms)

    def test_disabled_registry_records_nothing(self, registry):
        registry.disable()
        labels, items = _population(n=100)
        dataset = LabelItemDataset(labels=labels, items=items, n_classes=3, n_items=16)
        make_framework(
            "pts", epsilon=1.0, n_classes=3, n_items=16,
            mode="protocol", rng=ensure_rng(1),
        ).estimate_frequencies(dataset)
        assert len(registry) == 0


class TestKernelInstrumentation:
    def test_onehot_rows_histogram(self, registry):
        perturb_onehot_batch(
            np.arange(32) % 8, 8, 0.9, 0.1, np.random.default_rng(0)
        )
        state = registry.snapshot()["histograms"]["kernel_onehot_rows"]
        assert state["count"] == 1
        assert state["sum"] == 32.0

    def test_onehot_identical_with_telemetry_on_and_off(self, registry):
        """Instrumentation must not perturb the randomness: the exact same
        bits come out with the registry enabled or disabled."""
        positions = np.arange(64) % 16
        on = perturb_onehot_batch(positions, 16, 0.8, 0.2, np.random.default_rng(7))
        registry.disable()
        off = perturb_onehot_batch(positions, 16, 0.8, 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(on, off)


class TestStreamInstrumentation:
    def test_session_ingest_and_decay_counters(self, registry):
        labels, items = _population(n=300)
        session = make_session(
            "ptj", epsilon=1.0, n_classes=3, n_items=16,
            mode="simulate", rng=ensure_rng(2),
        )
        session.ingest_batch(labels, items)
        session.decay(0.5)
        snap = registry.snapshot()
        ingested = [
            v for k, v in snap["counters"].items()
            if k.startswith("stream_ingested_total")
        ]
        assert sum(ingested) == 300
        decays = [
            v for k, v in snap["counters"].items()
            if k.startswith("stream_decay_total")
        ]
        assert sum(decays) == 1

    def test_sharded_drain_metrics(self, registry):
        labels, items = _population(n=600)
        sessions = [
            make_session(
                "ptj", epsilon=1.0, n_classes=3, n_items=16,
                mode="simulate", rng=ensure_rng(seed),
            )
            for seed in (3, 4)
        ]
        with ShardedAggregator(sessions) as aggregator:
            for start in range(0, 600, 150):
                aggregator.submit((labels[start:start + 150], items[start:start + 150]))
            aggregator.drain()
            merged = aggregator.merged()
        assert merged.n_ingested == 600
        snap = registry.snapshot()
        assert snap["counters"]["shard_drained_reports_total"] == 600
        drain_histograms = [
            state for k, state in snap["histograms"].items()
            if k.startswith("shard_drain_seconds")
        ]
        assert drain_histograms and drain_histograms[0]["count"] >= 1
        assert "shard_imbalance_batches" in snap["gauges"]


def _shard_sessions(n_shards, seed=5):
    return [
        make_session(
            "pts", epsilon=2.0, n_classes=3, n_items=16, rng=ensure_rng(seed + shard)
        )
        for shard in range(n_shards)
    ]


def _ingested(snapshot):
    return sum(
        v for k, v in snapshot["counters"].items()
        if k.startswith("stream_ingested_total")
    )


class TestShardTelemetry:
    """Shard threads share the process registry, so their ingest counts
    land in it directly — one series set, no per-shard copies to fold."""

    def test_shard_ingest_counters_land_in_the_registry(self, registry):
        labels, items = _population(n=12_000)
        with ShardedAggregator(_shard_sessions(2)) as aggregator:
            for start in range(0, 12_000, 3_000):
                aggregator.submit(
                    (labels[start:start + 3_000], items[start:start + 3_000])
                )
            aggregator.drain()
        snap = registry.snapshot()
        assert _ingested(snap) == 12_000
        assert "stream_ingested_total" in render_snapshot(snap)

    def test_repeated_drains_accumulate(self, registry):
        labels, items = _population(n=6_000)
        with ShardedAggregator(_shard_sessions(2)) as aggregator:
            assert aggregator.ingest([(labels, items)]) == 6_000
            assert aggregator.ingest([(labels, items), (labels, items)]) == 12_000
        snap = registry.snapshot()
        assert _ingested(snap) == 18_000
        assert snap["counters"]["shard_drained_reports_total"] == 18_000
        assert snap["histograms"]["shard_drain_seconds"]["count"] == 2

    def test_imbalance_gauge_is_the_batch_tally_spread(self, registry):
        labels, items = _population(n=40)
        with ShardedAggregator(_shard_sessions(3)) as aggregator:
            for _ in range(3):
                aggregator.submit((labels, items), shard=0)
            aggregator.submit((labels, items), shard=1)
            aggregator.drain()
        assert registry.snapshot()["gauges"]["shard_imbalance_batches"] == 3

    def test_disabled_registry_records_nothing(self, registry):
        registry.disable()
        labels, items = _population(n=600)
        with ShardedAggregator(_shard_sessions(2)) as aggregator:
            assert aggregator.ingest([(labels, items)] * 2) == 1_200
        assert len(registry) == 0
