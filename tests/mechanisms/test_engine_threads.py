"""Deterministic threaded block execution and the ``with_rng`` contract.

The engine's determinism guarantee has two halves:

* the default (``threads=None``) serial path privatises blocks
  sequentially off the oracle's own generator — bit-identical to the
  pre-threading engine;
* any explicit thread count switches to pre-split per-block streams with
  an ordered reduction, so ``threads=1`` and ``threads=k`` agree
  bit-for-bit whether or not a GIL-free backend lets blocks overlap.

The NumPy reference backend never engages the pool, so the pooled path
is exercised here by monkeypatching a fake GIL-free backend — correctness
must not depend on whether block thunks run inline or on pool workers.
"""

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mechanisms import (
    AdaptiveMechanism,
    CorrelatedPerturbation,
    GeneralizedRandomResponse,
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    ValidityPerturbation,
)
from repro.mechanisms import engine
from repro.mechanisms.backends import KernelBackend
from repro.mechanisms.engine import (
    batch_support,
    default_thread_count,
    grouped_batch_support,
    set_default_threads,
)


@pytest.fixture(autouse=True)
def _no_ambient_thread_default(monkeypatch):
    """Tests control the schedule explicitly; shield them from the
    process default and the REPRO_THREADS environment variable."""
    monkeypatch.delenv(engine.THREADS_ENV, raising=False)
    previous = set_default_threads(None)
    yield
    set_default_threads(previous)


def _values(n=3000, domain=24, seed=0):
    return np.random.default_rng(seed).integers(0, domain, size=n)


ORACLE_FACTORIES = [
    lambda: GeneralizedRandomResponse(1.0, 24, rng=42),
    lambda: OptimizedUnaryEncoding(1.0, 24, rng=42),
    lambda: SymmetricUnaryEncoding(1.0, 24, rng=42),
    lambda: ValidityPerturbation(1.0, 24, rng=42),
    lambda: AdaptiveMechanism(1.0, 24, rng=42),
]


class TestThreadCountInvariance:
    @pytest.mark.parametrize("factory", ORACLE_FACTORIES)
    def test_batch_support_independent_of_thread_count(self, factory):
        values = _values()
        results = [
            batch_support(factory(), values, block_elements=4096, threads=k)
            for k in (1, 2, 4)
        ]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_correlated_batch_support_independent_of_thread_count(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 5, size=2000)
        items = rng.integers(0, 30, size=2000)
        supports = [
            batch_support(
                CorrelatedPerturbation(0.6, 0.6, 5, 30, rng=42),
                (labels, items),
                block_elements=4096,
                threads=k,
            )
            for k in (1, 4)
        ]
        np.testing.assert_array_equal(
            supports[0].item_support, supports[1].item_support
        )
        np.testing.assert_array_equal(
            supports[0].flag_support, supports[1].flag_support
        )
        np.testing.assert_array_equal(
            supports[0].label_counts, supports[1].label_counts
        )
        assert supports[0].n_users == supports[1].n_users

    def test_grouped_batch_support_independent_of_thread_count(self):
        rng = np.random.default_rng(2)
        groups = rng.integers(0, 6, size=2500)
        values = rng.integers(0, 16, size=2500)
        results = [
            grouped_batch_support(
                OptimizedUnaryEncoding(1.0, 16, rng=7),
                groups,
                values,
                6,
                block_elements=2048,
                threads=k,
            )
            for k in (1, 4)
        ]
        np.testing.assert_array_equal(results[0], results[1])

    def test_single_block_threaded_equals_whole_batch(self):
        """With one block the split-stream schedule has one stream: the
        result must match a direct privatise+aggregate of that stream."""
        values = _values(500)
        threaded = batch_support(
            GeneralizedRandomResponse(1.0, 24, rng=5), values, threads=4
        )
        serial = batch_support(
            GeneralizedRandomResponse(1.0, 24, rng=5), values, threads=1
        )
        np.testing.assert_array_equal(threaded, serial)


class TestSerialDefault:
    def test_default_matches_manual_sequential_loop(self):
        """``threads=None`` is the legacy engine, byte for byte."""
        values = _values(2000)
        got = batch_support(
            GeneralizedRandomResponse(1.0, 24, rng=9),
            values,
            block_elements=4096,
        )
        oracle = GeneralizedRandomResponse(1.0, 24, rng=9)
        width = max(1, int(oracle.communication_bits()))
        expected = None
        for cut in engine.batch_spans(values.size, width, 4096):
            block = oracle.aggregate_batch(oracle.privatize_many(values[cut]))
            expected = block if expected is None else expected + block
        np.testing.assert_array_equal(got, expected)

    def test_grouped_default_matches_add_at_loop(self):
        """One block: the users are privatised in group order (a stable
        sort), and each report lands in its group's row."""
        rng = np.random.default_rng(3)
        groups = rng.integers(0, 4, size=1200)
        values = rng.integers(0, 10, size=1200)
        got = grouped_batch_support(
            OptimizedUnaryEncoding(1.0, 10, rng=11), groups, values, 4
        )
        oracle = OptimizedUnaryEncoding(1.0, 10, rng=11)
        order = np.argsort(groups, kind="stable")
        expected = np.zeros((4, 10), dtype=np.int64)
        np.add.at(
            expected, groups[order], oracle.privatize_many(values[order])
        )
        np.testing.assert_array_equal(got, expected)

    def test_empty_batch_keeps_typed_zeros(self):
        out = batch_support(
            GeneralizedRandomResponse(1.0, 8, rng=0),
            np.asarray([], dtype=np.int64),
            threads=4,
        )
        np.testing.assert_array_equal(out, np.zeros(8))


class TestPooledExecution:
    def test_pool_engages_on_gil_free_backend_without_changing_results(
        self, monkeypatch
    ):
        values = _values(4000)
        reference = batch_support(
            GeneralizedRandomResponse(1.0, 24, rng=21),
            values,
            block_elements=1024,
            threads=1,
        )

        seen_threads = set()

        class _Recording(GeneralizedRandomResponse):
            def privatize_many(self, batch):
                seen_threads.add(threading.current_thread().name)
                return super().privatize_many(batch)

        fake = KernelBackend(name="fake", gil_free=True, kernels={})
        monkeypatch.setattr(engine, "active_backend", lambda: fake)
        pooled = batch_support(
            _Recording(1.0, 24, rng=21),
            values,
            block_elements=1024,
            threads=4,
        )
        np.testing.assert_array_equal(pooled, reference)
        assert any(name.startswith("repro-engine") for name in seen_threads)

    def test_numpy_backend_never_spawns_pool_threads(self):
        values = _values(2000)
        seen_threads = set()

        class _Recording(GeneralizedRandomResponse):
            def privatize_many(self, batch):
                seen_threads.add(threading.current_thread().name)
                return super().privatize_many(batch)

        batch_support(
            _Recording(1.0, 24, rng=21), values, block_elements=1024, threads=4
        )
        assert seen_threads == {threading.current_thread().name}


class TestBitWorkspace:
    """Unary blocks privatise into a per-thread buffer that outlives the
    call; threads running at once must never see each other's bits."""

    def test_buffer_is_reused_across_calls_and_per_thread(self):
        first = engine._bit_workspace(100, 16)
        again = engine._bit_workspace(50, 16)
        assert np.shares_memory(first, again)
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(engine._bit_workspace(100, 16))
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert not np.shares_memory(seen[0], first)

    def test_pooled_unary_blocks_match_serial_blocks(self, monkeypatch):
        """Pool threads each privatise into their own buffer, so the
        pooled run equals the one-thread run of the same split streams."""
        values = _values(6000)
        groups = np.random.default_rng(4).integers(0, 5, size=values.size)
        reference = (
            batch_support(
                OptimizedUnaryEncoding(1.0, 24, rng=3), values,
                block_elements=2048, threads=1,
            ),
            grouped_batch_support(
                OptimizedUnaryEncoding(1.0, 24, rng=3), groups, values, 5,
                block_elements=2048, threads=1,
            ),
        )
        fake = KernelBackend(name="fake", gil_free=True, kernels={})
        monkeypatch.setattr(engine, "active_backend", lambda: fake)
        pooled = (
            batch_support(
                OptimizedUnaryEncoding(1.0, 24, rng=3), values,
                block_elements=2048, threads=4,
            ),
            grouped_batch_support(
                OptimizedUnaryEncoding(1.0, 24, rng=3), groups, values, 5,
                block_elements=2048, threads=4,
            ),
        )
        for got, want in zip(pooled, reference):
            np.testing.assert_array_equal(got, want)

    def test_concurrent_sessions_match_their_serial_runs(self):
        """More threads than cores, switching often: each seeded PTS and
        PTS-CP session ends exactly where it ends when run alone."""
        from repro.stream import make_session

        def run(index, out):
            name = ("pts", "pts-cp")[index % 2]
            session = make_session(name, 1.0, 4, 40, mode="protocol", rng=index)
            rng = np.random.default_rng(50 + index)
            for _ in range(6):
                session.ingest_batch(
                    rng.integers(0, 4, 3000), rng.integers(0, 40, 3000)
                )
            out[index] = session.estimate()

        serial = {}
        for index in range(6):
            run(index, serial)
        concurrent = {}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=run, args=(index, concurrent))
                for index in range(6)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(concurrent) == sorted(serial)
        for index in serial:
            np.testing.assert_array_equal(concurrent[index], serial[index])


class TestThreadResolution:
    def test_set_default_threads_round_trip(self):
        assert set_default_threads(3) is None
        assert engine._resolve_threads(None) == 3
        assert set_default_threads(None) == 3
        assert engine._resolve_threads(None) is None

    def test_env_var_feeds_resolution(self, monkeypatch):
        monkeypatch.setenv(engine.THREADS_ENV, "2")
        assert engine._resolve_threads(None) == 2
        monkeypatch.setenv(engine.THREADS_ENV, "auto")
        assert engine._resolve_threads(None) == default_thread_count()

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(engine.THREADS_ENV, "2")
        set_default_threads(5)
        assert engine._resolve_threads(7) == 7
        assert engine._resolve_threads(None) == 5

    def test_auto_is_cpu_bounded(self):
        assert 1 <= engine._check_threads("auto") <= 8

    def test_invalid_thread_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            set_default_threads(0)
        with pytest.raises(ConfigurationError):
            batch_support(
                GeneralizedRandomResponse(1.0, 8, rng=0),
                np.asarray([1, 2]),
                threads=0,
            )


class TestWithRng:
    def test_base_clone_shares_parameters_not_generator(self):
        oracle = GeneralizedRandomResponse(1.0, 16, rng=0)
        clone = oracle.with_rng(123)
        assert clone is not oracle
        assert clone.rng is not oracle.rng
        assert clone.p == oracle.p and clone.q == oracle.q
        # the original generator's stream is untouched by the clone
        before = GeneralizedRandomResponse(1.0, 16, rng=0).rng.random(4)
        clone.rng.random(10)
        np.testing.assert_array_equal(oracle.rng.random(4), before)

    def test_existing_generator_passes_through(self):
        oracle = GeneralizedRandomResponse(1.0, 16, rng=0)
        generator = np.random.default_rng(77)
        assert oracle.with_rng(generator).rng is generator

    def test_adaptive_rebinds_inner_mechanism(self):
        oracle = AdaptiveMechanism(1.0, 64, rng=0)
        clone = oracle.with_rng(123)
        assert clone._inner is not oracle._inner
        assert clone._inner.rng is clone.rng
        assert oracle._inner.rng is oracle.rng

    def test_correlated_rebinds_both_sub_mechanisms_to_one_stream(self):
        oracle = CorrelatedPerturbation(0.5, 0.5, 4, 20, rng=0)
        clone = oracle.with_rng(123)
        assert clone._label_mech is not oracle._label_mech
        assert clone._item_mech is not oracle._item_mech
        assert clone._label_mech.rng is clone.rng
        assert clone._item_mech.rng is clone.rng
