"""The engine's serial block loop and its per-thread bit workspace.

Every block of a batch draws from the oracle's own generator, one after
another.  Unary oracles privatise each block into a buffer that belongs
to the calling thread, so sessions ingesting at once on different
threads (the sharded aggregator's workers) never see each other's bits.
"""

import sys
import threading

import numpy as np
import pytest

from repro.mechanisms import (
    AdaptiveMechanism,
    CorrelatedPerturbation,
    GeneralizedRandomResponse,
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    ValidityPerturbation,
)
from repro.mechanisms import engine
from repro.mechanisms.correlated import CorrelatedSupport
from repro.mechanisms.engine import batch_support, grouped_batch_support


def _values(n=3000, domain=24, seed=0):
    return np.random.default_rng(seed).integers(0, domain, size=n)


def _oracle_and_columns(name):
    """A freshly seeded oracle and its input columns; the validity and
    correlated inputs include invalid items (-1)."""
    rng = np.random.default_rng(1)
    if name == "cp":
        oracle = CorrelatedPerturbation(0.6, 0.6, 5, 30, rng=42)
        return oracle, (rng.integers(0, 5, 2000), rng.integers(-1, 30, 2000))
    factory = {
        "sue": SymmetricUnaryEncoding,
        "vp": ValidityPerturbation,
        "adaptive": AdaptiveMechanism,
    }[name]
    low = -1 if name == "vp" else 0
    return factory(1.0, 24, rng=42), (rng.integers(low, 24, 3000),)


def _assert_same_support(got, expected):
    if isinstance(expected, CorrelatedSupport):
        for field in ("item_support", "flag_support", "label_counts"):
            np.testing.assert_array_equal(
                getattr(got, field), getattr(expected, field), err_msg=field
            )
        assert got.n_users == expected.n_users
    else:
        np.testing.assert_array_equal(got, expected)


class TestSerialDefault:
    def test_default_matches_manual_sequential_loop(self):
        """The blocks draw one after another from the oracle's generator."""
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

    @pytest.mark.parametrize("name", ["sue", "vp", "adaptive", "cp"])
    def test_blocked_run_of_each_oracle_matches_its_block_calls(self, name):
        """SUE, the validity perturbation, the adaptive oracle and the
        correlated mechanism, each over several blocks privatised into the
        workspace: the run equals the oracle's own ``privatize_many`` +
        ``aggregate_batch`` calls, one block after another."""
        oracle, cols = _oracle_and_columns(name)
        got = batch_support(
            oracle, cols if len(cols) > 1 else cols[0], block_elements=4096
        )
        oracle, _ = _oracle_and_columns(name)
        width = max(1, int(oracle.communication_bits()))
        spans = list(engine.batch_spans(cols[0].size, width, 4096))
        assert len(spans) > 1
        expected = None
        for cut in spans:
            block = oracle.aggregate_batch(
                oracle.privatize_many(*(col[cut] for col in cols))
            )
            expected = block if expected is None else expected + block
        _assert_same_support(got, expected)

    def test_blocks_run_on_the_calling_thread(self):
        """No block leaves the caller's thread: protocol-mode parallelism
        comes from the sharded aggregator's shard threads, not the
        engine."""
        seen = []

        class _Recording(OptimizedUnaryEncoding):
            def privatize_many(self, *args, **kwargs):
                seen.append(threading.current_thread())
                return super().privatize_many(*args, **kwargs)

        values = _values(4000)
        batch_support(_Recording(1.0, 24, rng=21), values, block_elements=1024)
        grouped_batch_support(
            _Recording(1.0, 24, rng=21), values % 5, values, 5,
            block_elements=1024,
        )
        n_blocks = len(list(engine.batch_spans(values.size, 24, 1024)))
        assert len(seen) == 2 * n_blocks
        assert set(seen) == {threading.current_thread()}

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
        )
        np.testing.assert_array_equal(out, np.zeros(8))


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
