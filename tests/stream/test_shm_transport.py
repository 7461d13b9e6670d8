"""Zero-copy shared-memory shard transport: the pack/attach codec and
the ShardedAggregator process-mode transports built on it.

The acceptance bar for the transport swap is *exactness*: estimates
through ``transport="shm"`` must equal estimates through
``transport="pickle"`` and through the thread executor, bit for bit —
the transport moves bytes, never semantics.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DomainError
from repro.obs import metrics as obs_metrics
from repro.rng import spawn
from repro.stream import ShardedAggregator, make_session
from repro.stream import shm
from repro.stream.sharding import resolve_transport


def _has_ndarray(node) -> bool:
    if isinstance(node, np.ndarray):
        return True
    if isinstance(node, (list, tuple)):
        return any(_has_ndarray(child) for child in node)
    return False


class TestPackAttachRoundTrip:
    def test_array_batches_round_trip(self):
        batches = [
            np.arange(10, dtype=np.int64),
            np.linspace(0.0, 1.0, 7),
            (np.arange(6, dtype=np.uint64).reshape(2, 3), np.asarray([1, 2])),
        ]
        segment, manifest = shm.pack_batches(batches)
        assert segment is not None
        try:
            attached, rebuilt = shm.attach_batches(segment.name, manifest)
            try:
                assert len(rebuilt) == len(batches)
                np.testing.assert_array_equal(rebuilt[0], batches[0])
                np.testing.assert_array_equal(rebuilt[1], batches[1])
                np.testing.assert_array_equal(rebuilt[2][0], batches[2][0])
                np.testing.assert_array_equal(rebuilt[2][1], batches[2][1])
                assert rebuilt[2][0].dtype == np.uint64
            finally:
                del rebuilt
                shm.release(attached, unlink=False)
        finally:
            shm.release(segment, unlink=True)

    def test_rebuilt_arrays_are_views_not_copies(self):
        segment, manifest = shm.pack_batches([np.arange(32, dtype=np.int64)])
        try:
            attached, rebuilt = shm.attach_batches(segment.name, manifest)
            try:
                view = rebuilt[0]
                assert not view.flags.owndata  # zero-copy: backed by the map
            finally:
                del rebuilt, view
                shm.release(attached, unlink=False)
        finally:
            shm.release(segment, unlink=True)

    def test_manifest_ships_no_arrays_and_aligned_offsets(self):
        segment, manifest = shm.pack_batches(
            [np.arange(3), (np.arange(5), np.arange(9))]
        )
        try:
            assert not _has_ndarray(manifest)
            offsets = []

            def walk(node):
                if node[0] == "array":
                    offsets.append(node[1])
                elif node[0] == "tuple":
                    for child in node[1]:
                        walk(child)

            for node in manifest:
                walk(node)
            assert offsets and all(o % shm.ALIGNMENT == 0 for o in offsets)
        finally:
            shm.release(segment, unlink=True)

    def test_non_array_batches_pickle_inline(self):
        batches = [[1, 2, 3], {"key": "value"}]
        segment, manifest = shm.pack_batches(batches)
        assert segment is None  # no arrays: the manifest is self-contained
        attached, rebuilt = shm.attach_batches(None, manifest)
        assert attached is None
        assert rebuilt == batches

    def test_non_contiguous_input_round_trips(self):
        strided = np.arange(20)[::2]
        segment, manifest = shm.pack_batches([strided])
        try:
            attached, rebuilt = shm.attach_batches(segment.name, manifest)
            try:
                np.testing.assert_array_equal(rebuilt[0], strided)
            finally:
                del rebuilt
                shm.release(attached, unlink=False)
        finally:
            shm.release(segment, unlink=True)

    def test_manifest_nbytes(self):
        assert shm.manifest_nbytes(None) == 0
        segment, _manifest = shm.pack_batches([np.arange(100, dtype=np.int64)])
        try:
            assert shm.manifest_nbytes(segment) >= 800
        finally:
            shm.release(segment, unlink=True)

    def test_release_tolerates_double_unlink(self):
        segment, _ = shm.pack_batches([np.arange(4)])
        shm.release(segment, unlink=True)
        shm.release(segment, unlink=True)  # FileNotFoundError swallowed


class TestTransportResolution:
    def test_auto_prefers_shm_where_supported(self):
        if not shm.shm_supported():
            pytest.skip("host has no usable shared memory")
        assert resolve_transport(None) == "shm"
        assert resolve_transport("auto") == "shm"

    def test_explicit_names_pass_through(self):
        assert resolve_transport("pickle") == "pickle"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_transport("carrier-pigeon")

    def test_auto_degrades_without_shm_support(self, monkeypatch):
        monkeypatch.setattr(shm, "_SUPPORTED", False)
        assert resolve_transport("auto") == "pickle"
        with pytest.raises(ConfigurationError):
            resolve_transport("shm")

    def test_thread_executor_accepts_no_transport(self):
        with pytest.raises(ConfigurationError):
            ShardedAggregator(_sessions(1), transport="shm")
        with ShardedAggregator(_sessions(1)) as aggregator:
            assert aggregator.transport is None


def _sessions(n_shards, name="pts", mode="protocol", seed=0):
    """Independently seeded session shards; equal arguments give equal shards."""
    return [
        make_session(name, epsilon=2.0, n_classes=3, n_items=16, mode=mode, rng=child)
        for child in spawn(np.random.default_rng(seed), n_shards)
    ]


def _report_batches(rng, n_batches=6, size=1500):
    return [
        (rng.integers(0, 3, size), rng.integers(0, 16, size))
        for _ in range(n_batches)
    ]


def _users(batches):
    return sum(len(labels) for labels, _items in batches)


@pytest.mark.skipif(not shm.shm_supported(), reason="no usable shared memory")
class TestShmAggregation:
    @pytest.mark.parametrize("name", ["pts", "pts-cp"])
    def test_estimates_exact_across_transports_and_executors(self, name):
        batches = _report_batches(np.random.default_rng(0))
        estimates = {}
        configs = [
            ("thread", None),
            ("process", "pickle"),
            ("process", "shm"),
        ]
        for executor, transport in configs:
            with ShardedAggregator(
                _sessions(3, name),
                executor=executor,
                transport=transport,
            ) as aggregator:
                total = aggregator.ingest(batches)
                merged = aggregator.merged()
            assert total == _users(batches)
            assert merged.n_ingested == total
            estimates[(executor, transport)] = merged.estimate()
        reference = estimates[("thread", None)]
        np.testing.assert_array_equal(reference, estimates[("process", "pickle")])
        np.testing.assert_array_equal(reference, estimates[("process", "shm")])

    def test_sessions_tuple_batches_over_shm(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 12_000)
        items = rng.integers(0, 16, 12_000)
        sessions = [
            make_session("pts", epsilon=2.0, n_classes=3, n_items=16, rng=child)
            for child in spawn(rng, 2)
        ]
        with ShardedAggregator(
            sessions, executor="process", transport="shm"
        ) as aggregator:
            for start in range(0, 12_000, 3_000):
                aggregator.submit(
                    (labels[start : start + 3_000], items[start : start + 3_000])
                )
            merged = aggregator.merged()
        assert merged.n_ingested == 12_000
        assert merged.estimate().shape == (3, 16)

    def test_no_leaked_segments_after_drains(self, tmp_path):
        import glob

        before = set(glob.glob("/dev/shm/*"))
        batches = _report_batches(np.random.default_rng(2), n_batches=4)
        with ShardedAggregator(
            _sessions(2), executor="process", transport="shm"
        ) as aggregator:
            aggregator.ingest(batches)
            aggregator.ingest(batches)
        after = set(glob.glob("/dev/shm/*"))
        assert after - before == set()

    def test_failed_drain_is_all_or_nothing(self):
        first, second, third = _report_batches(
            np.random.default_rng(3), n_batches=3
        )
        with ShardedAggregator(
            _sessions(1), executor="process", transport="shm"
        ) as aggregator:
            assert aggregator.ingest([first]) == 1500
            aggregator.submit(second)  # folds, then the next batch fails
            aggregator.submit((np.asarray([99]), np.asarray([0])))  # bad label
            with pytest.raises(DomainError):
                aggregator.drain()
            assert aggregator.merged().n_ingested == 1500
            # The worker kept its state from before the failed drain, so
            # that drain's good batch never counts.
            assert aggregator.ingest([third]) == 1500
            assert aggregator.merged().n_ingested == 3000

    def test_snapshots_are_detached_from_live_workers(self):
        batches = _report_batches(np.random.default_rng(4), n_batches=2)
        with ShardedAggregator(
            _sessions(2), executor="process", transport="shm"
        ) as aggregator:
            aggregator.ingest(batches[:1])
            frozen = aggregator.merged()
            frozen_n = frozen.n_ingested
            aggregator.ingest(batches[1:])
            assert frozen.n_ingested == frozen_n  # snapshot frozen mid-stream
            assert aggregator.merged().n_ingested == _users(batches)

    def test_transport_bytes_counted_when_telemetry_enabled(self):
        batches = _report_batches(np.random.default_rng(5), n_batches=2)
        with obs_metrics.enabled():
            with ShardedAggregator(
                _sessions(1), executor="process", transport="shm"
            ) as aggregator:
                aggregator.ingest(batches)
                snapshot = obs_metrics.get_registry().snapshot()
        key = 'shard_transport_bytes_total{transport="shm"}'
        assert snapshot["counters"].get(key, 0) > 0


@pytest.mark.skipif(not shm.shm_supported(), reason="no usable shared memory")
class TestPickleTransportParity:
    def test_pickle_transport_still_supported(self):
        batches = _report_batches(np.random.default_rng(6), n_batches=3)
        with ShardedAggregator(
            _sessions(2), executor="process", transport="pickle"
        ) as aggregator:
            assert aggregator.transport == "pickle"
            total = aggregator.ingest(batches)
        assert total == _users(batches)
