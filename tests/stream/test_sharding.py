"""ShardedAggregator: fan-out, merge reduction, error propagation."""

import threading
from concurrent.futures import Future
from functools import reduce

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DomainError
from repro.rng import spawn
from repro.stream import ShardedAggregator, default_shard_count, make_session
from repro.stream import sharding
from repro.stream.sharding import sum_batch_results


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


FRAMEWORKS = ["hec", "ptj", "pts", "pts-cp"]


class TestFanOut:
    @pytest.mark.parametrize("mode", ["simulate", "protocol"])
    @pytest.mark.parametrize("name", FRAMEWORKS)
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

    def test_submit_futures_resolve_without_drain(self):
        """Waiting on a batch's own future yields its size; no drain()
        call is needed first."""
        batches = _batches(seed=4, n_batches=3)
        with ShardedAggregator(_sessions(2)) as agg:
            futures = [agg.submit(batch) for batch in batches]
            assert [future.result() for future in futures] == [400, 400, 400]
            assert agg.merged().n_ingested == 1200

    def test_pinned_shard(self):
        with ShardedAggregator(_sessions(3)) as agg:
            agg.submit((np.asarray([0, 1]), np.asarray([2, 3])), shard=2)
            agg.drain()
            parts = agg.partials()
        assert parts[2].n_ingested == 2
        assert parts[0].n_ingested == parts[1].n_ingested == 0

    def test_pinned_submits_leave_the_rotation_alone(self):
        """A pinned batch does not advance the round-robin cursor: the
        next unpinned batch still goes to shard 0."""
        with ShardedAggregator(_sessions(3)) as agg:
            agg.submit((np.asarray([0]), np.asarray([0])), shard=2)
            for size in (1, 2, 3):
                agg.submit((np.zeros(size, dtype=np.int64),) * 2)
            parts = agg.partials()
        assert [part.n_ingested for part in parts] == [1, 2, 4]

    def test_factory_builds_one_state_per_shard(self):
        seeds = iter(range(3))

        def factory():
            return make_session(
                "pts", epsilon=2.0, n_classes=3, n_items=16,
                rng=np.random.default_rng(next(seeds)),
            )

        with ShardedAggregator(factory, n_shards=3) as agg:
            assert agg.n_shards == 3
            agg.ingest(_batches(n_batches=3))
            parts = agg.partials()
        assert len({id(part) for part in parts}) == 3
        assert [part.n_ingested for part in parts] == [400, 400, 400]

    def test_factory_defaults_to_default_shard_count(self, monkeypatch):
        monkeypatch.setattr(sharding.os, "cpu_count", lambda: 3)
        with ShardedAggregator(lambda: _sessions(1)[0]) as agg:
            assert agg.n_shards == 3

    def test_partials_are_the_live_shards(self):
        shards = _sessions(2)
        with ShardedAggregator(shards) as agg:
            agg.ingest(_batches(n_batches=2))
            parts = agg.partials()
        assert all(part is shard for part, shard in zip(parts, shards))
        assert [part.n_ingested for part in parts] == [400, 400]

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

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_multi_shard_merged_is_a_snapshot(self, name):
        """The merge reduction builds a new state: a mid-stream snapshot
        stays frozen, and each live shard keeps only its own reports."""
        batches = _batches(seed=4, n_batches=4)
        with ShardedAggregator(_sessions(2, name)) as agg:
            agg.ingest(batches[:2])
            snapshot = agg.merged()
            frozen = snapshot.estimate()
            agg.ingest(batches[2:])
            assert [part.n_ingested for part in agg.partials()] == [800, 800]
            assert agg.merged().n_ingested == 1600
        assert snapshot.n_ingested == 800
        np.testing.assert_array_equal(snapshot.estimate(), frozen)

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

    def test_close_drains_pending_batches(self):
        batches = _batches(seed=2, n_batches=2)
        aggregator = ShardedAggregator(_sessions(2))
        futures = [aggregator.submit(batch) for batch in batches]
        aggregator.close()
        assert all(future.done() for future in futures)
        assert [future.result() for future in futures] == [400, 400]
        assert sum(part.n_ingested for part in aggregator.partials()) == 800

    def test_shard_errors_surface_at_drain(self):
        with ShardedAggregator(_sessions(2)) as agg:
            agg.submit((np.asarray([0, 99]), np.asarray([0, 1])))  # bad label
            with pytest.raises(DomainError):
                agg.drain()

    def test_failed_drain_waits_for_every_batch(self):
        """A shard error re-raises only once the other shards' batches
        have finished, so none is still ingesting behind the caller."""
        rng = np.random.default_rng(5)
        good = (rng.integers(0, 3, 400_000), rng.integers(0, 16, 400_000))
        with ShardedAggregator(_sessions(2)) as agg:
            agg.submit((np.asarray([99]), np.asarray([0])), shard=0)
            landed = agg.submit(good, shard=1)
            with pytest.raises(DomainError):
                agg.drain()
            assert landed.done()
            assert agg.drain() == 0
            assert agg.merged().n_ingested == 400_000

    def test_failed_drain_lands_each_good_batch(self):
        """Shards ingest batch by batch: the bad batch changes nothing,
        the good batch of the same drain lands, and the aggregator keeps
        working afterwards."""
        first, second, third = _batches(seed=3, n_batches=3)
        with ShardedAggregator(_sessions(1)) as agg:
            assert agg.ingest([first]) == 400
            agg.submit(second)
            agg.submit((np.asarray([99]), np.asarray([0])))  # bad label
            with pytest.raises(DomainError):
                agg.drain()
            assert agg.merged().n_ingested == 800
            assert agg.ingest([third]) == 400
            assert agg.merged().n_ingested == 1200

    def test_close_is_idempotent(self):
        agg = ShardedAggregator(_sessions(2))
        agg.submit(_batches(n_batches=1)[0])
        agg.close()
        agg.close()
        assert agg.merged().n_ingested == 400

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


def _finished(result=None, error=None) -> Future:
    future = Future()
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)
    return future


class TestSumBatchResults:
    def test_sums_batch_sizes(self):
        assert sum_batch_results([_finished(3), _finished(4)]) == 7
        assert sum_batch_results([]) == 0

    def test_none_results_count_as_zero(self):
        assert sum_batch_results([_finished(None), _finished(5)]) == 5

    def test_first_error_in_submission_order_wins(self):
        futures = [
            _finished(1),
            _finished(error=DomainError("first")),
            _finished(error=ValueError("second")),
        ]
        with pytest.raises(DomainError, match="first"):
            sum_batch_results(futures)

    def test_waits_for_pending_batches_before_raising(self):
        pending = Future()
        timer = threading.Timer(0.2, pending.set_result, args=(9,))
        timer.start()
        try:
            with pytest.raises(DomainError):
                sum_batch_results([_finished(error=DomainError("bad")), pending])
            assert pending.done()
        finally:
            timer.join()


class TestDefaultShardCount:
    @pytest.mark.parametrize(
        "cpus,expected", [(None, 1), (1, 1), (3, 3), (8, 8), (64, 8)]
    )
    def test_one_per_cpu_capped_at_eight(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(sharding.os, "cpu_count", lambda: cpus)
        assert default_shard_count() == expected
