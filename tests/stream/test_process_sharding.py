"""ShardedAggregator process executor: picklable shard states round-trip
through a process pool and produce the same estimates as the thread path."""

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


def _report_batches(rng, n_batches=6, size=2000):
    return [
        (rng.integers(0, 3, size), rng.integers(0, 16, size))
        for _ in range(n_batches)
    ]


class TestProcessExecutor:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ConfigurationError):
            ShardedAggregator([object()], executor="fiber")

    @pytest.mark.parametrize("mode", ["simulate", "protocol"])
    @pytest.mark.parametrize("name", ["pts", "pts-cp"])
    def test_process_estimates_match_thread_executor_exactly(self, name, mode):
        """Both executors equal the in-process round-robin reference: the
        same seeded sessions fed the same batches, reduced with merge."""
        batches = _report_batches(np.random.default_rng(0))
        reference = _sessions(3, name, mode)
        for index, batch in enumerate(batches):
            reference[index % 3].ingest_batch(batch)
        expected = reduce(lambda left, right: left.merge(right), reference)
        for executor in ("thread", "process"):
            with ShardedAggregator(
                _sessions(3, name, mode), executor=executor
            ) as aggregator:
                futures = [aggregator.submit(batch) for batch in batches]
                total = aggregator.drain()
                merged = aggregator.merged()
            assert total == sum(len(b[0]) for b in batches)
            assert all(
                future.result() == len(b[0]) for future, b in zip(futures, batches)
            )
            assert merged.n_ingested == total
            np.testing.assert_array_equal(
                merged.estimate(), expected.estimate(), err_msg=executor
            )

    def test_sessions_ingest_and_estimate_through_the_pool(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 24_000)
        items = rng.integers(0, 16, 24_000)
        sessions = [
            make_session("pts", epsilon=2.0, n_classes=3, n_items=16, rng=child)
            for child in spawn(rng, 2)
        ]
        with ShardedAggregator(sessions, executor="process") as aggregator:
            for start in range(0, 24_000, 4_000):
                aggregator.submit(
                    (labels[start : start + 4_000], items[start : start + 4_000])
                )
            merged = aggregator.merged()
        assert merged.n_ingested == 24_000
        assert merged.estimate().shape == (3, 16)

    def test_waiting_on_a_submit_future_triggers_the_drain(self):
        """The thread-mode contract holds: submit(...).result() works
        without an explicit drain()."""
        batches = _report_batches(np.random.default_rng(4), n_batches=3)
        with ShardedAggregator(_sessions(2), executor="process") as agg:
            futures = [agg.submit(batch) for batch in batches]
            assert futures[0].result() == len(batches[0][0])
            assert all(f.result() == len(b[0]) for f, b in zip(futures, batches))
            assert agg.merged().n_ingested == sum(len(b[0]) for b in batches)

    def test_close_drains_pending_batches(self):
        batches = _report_batches(np.random.default_rng(2), n_batches=2)
        aggregator = ShardedAggregator(_sessions(2), executor="process")
        futures = [aggregator.submit(batch) for batch in batches]
        aggregator.close()
        assert all(future.result() == len(b[0]) for future, b in zip(futures, batches))

    def test_shard_errors_propagate(self):
        with ShardedAggregator(_sessions(1), executor="process") as agg:
            agg.submit((np.asarray([99]), np.asarray([0])))  # bad label
            with pytest.raises(DomainError):
                agg.drain()
