"""ShardedAggregator: fan-out, merge reduction, error propagation."""

from functools import reduce

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DomainError
from repro.rng import spawn
from repro.stream import ShardedAggregator, make_session


def _sessions(n_shards, name="pts", mode="protocol", seed=0):
    """Independently seeded session shards; equal arguments give equal shards."""
    return [
        make_session(name, epsilon=2.0, n_classes=3, n_items=16, mode=mode, rng=child)
        for child in spawn(np.random.default_rng(seed), n_shards)
    ]


def _batches(seed=0, n_batches=6, size=400):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, 3, size), rng.integers(0, 16, size))
        for _ in range(n_batches)
    ]


def _round_robin_merge(shards, batches):
    """The in-process reference: feed the shards round-robin, then reduce
    them with ``merge``."""
    for index, batch in enumerate(batches):
        shards[index % len(shards)].ingest_batch(batch)
    return reduce(lambda left, right: left.merge(right), shards)


class TestFanOut:
    @pytest.mark.parametrize("mode", ["simulate", "protocol"])
    @pytest.mark.parametrize("name", ["pts", "pts-cp"])
    def test_sharded_equals_round_robin_merge(self, name, mode):
        """Sharded ingestion is exactly the in-process round-robin
        reference, whatever the shard count."""
        batches = _batches()
        for n_shards in (1, 2, 4):
            reference = _round_robin_merge(
                _sessions(n_shards, name, mode), batches
            )
            with ShardedAggregator(_sessions(n_shards, name, mode)) as agg:
                total = agg.ingest(iter(batches))
                merged = agg.merged()
            assert total == merged.n_ingested == reference.n_ingested == 2400
            np.testing.assert_array_equal(merged.estimate(), reference.estimate())

    def test_tuple_batches_reach_sessions(self, rng):
        shards = [
            make_session("ptj", epsilon=1.0, n_classes=2, n_items=4,
                         rng=np.random.default_rng(seed))
            for seed in (1, 2)
        ]
        with ShardedAggregator(shards) as agg:
            agg.submit((np.asarray([0, 1, 0]), np.asarray([1, 2, 3])))
            agg.submit((np.asarray([1, 1]), np.asarray([0, 0])))
            merged = agg.merged()
        assert merged.n_ingested == 5
        assert merged.estimate().shape == (2, 4)

    def test_pinned_shard(self):
        with ShardedAggregator(_sessions(3)) as agg:
            agg.submit((np.asarray([0, 1]), np.asarray([2, 3])), shard=2)
            agg.drain()
            parts = agg.partials()
        assert parts[2].n_ingested == 2
        assert parts[0].n_ingested == parts[1].n_ingested == 0

    def test_single_shard_merged_is_a_snapshot(self):
        """merged() must detach from the live shard even with one shard,
        so a mid-stream snapshot stays frozen while ingestion continues."""
        first, second = _batches(n_batches=2)
        with ShardedAggregator(_sessions(1, "pts-cp")) as agg:
            agg.submit(first)
            snapshot = agg.merged()
            frozen = snapshot.estimate()
            agg.submit(second)
            agg.drain()
            assert agg.merged().n_ingested == 800
        assert snapshot.n_ingested == 400
        np.testing.assert_array_equal(snapshot.estimate(), frozen)

    def test_single_shard_session_merged_is_a_snapshot(self):
        shards = [
            make_session("ptj", epsilon=1.0, n_classes=2, n_items=4,
                         rng=np.random.default_rng(1))
        ]
        with ShardedAggregator(shards) as agg:
            agg.submit((np.asarray([0, 1]), np.asarray([0, 1])))
            snapshot = agg.merged()
            agg.submit((np.asarray([1]), np.asarray([2])))
            agg.drain()
        assert snapshot.n_ingested == 2

    def test_partials_drain_first(self):
        with ShardedAggregator(_sessions(2)) as agg:
            for _ in range(4):
                agg.submit((np.asarray([0, 1, 2]), np.asarray([1, 2, 3])))
            parts = agg.partials()
        assert sum(p.n_ingested for p in parts) == 12


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        agg = ShardedAggregator(_sessions(1))
        agg.close()
        with pytest.raises(ConfigurationError):
            agg.submit((np.asarray([0]), np.asarray([0])))

    def test_shard_errors_surface_at_drain(self):
        with ShardedAggregator(_sessions(2)) as agg:
            agg.submit((np.asarray([0, 99]), np.asarray([0, 1])))  # bad label
            with pytest.raises(DomainError):
                agg.drain()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedAggregator([])
        with pytest.raises(ConfigurationError):
            ShardedAggregator(lambda: _sessions(1)[0], n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedAggregator(_sessions(1), n_shards=2)
        with pytest.raises(ConfigurationError):
            with ShardedAggregator(_sessions(1)) as agg:
                agg.submit((np.asarray([0]), np.asarray([0])), shard=5)
