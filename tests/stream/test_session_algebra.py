"""Session state laws, for every framework in both execution modes.

Sessions are the shard state of :class:`~repro.stream.ShardedAggregator`
and the unit a checkpoint stores, so their additive counters must obey
exact laws: merging is associative and commutative with the empty
session as identity, snapshots and merges share no counter with their
operands, a rejected or empty batch changes nothing and draws nothing,
and a checkpoint restores every counter and resumes like a merge.
"""

import numpy as np
import pytest

from repro.core.frameworks import MODES
from repro.exceptions import ConfigurationError, DomainError, ProtocolError
from repro.stream import SESSIONS, OnlineFrameworkSession, make_session
from repro.stream.checkpoint import load_state, save_state

FRAMEWORKS = ("hec", "ptj", "pts", "pts-cp")
CASES = [(name, mode) for name in FRAMEWORKS for mode in MODES]
C, D = 3, 8


def _session(name, mode="simulate", seed=0, **config):
    config = {"epsilon": 2.0, "n_classes": C, "n_items": D, **config}
    return make_session(name, mode=mode, rng=np.random.default_rng(seed), **config)


def _batch(seed, size=600):
    rng = np.random.default_rng(seed)
    return rng.integers(0, C, size), rng.integers(0, D, size)


def _fed(name, mode, seed):
    """A session seeded ``seed`` that ingested ``_batch(seed)``."""
    session = _session(name, mode, seed)
    session.ingest_batch(*_batch(seed))
    return session


def _state(session):
    """``(n_ingested, {field: counter copy})`` — a detached record."""
    return session.n_ingested, {
        field: getattr(session, "_" + field).copy()
        for field in session._STATE_FIELDS
    }


def _assert_same(left, right):
    """Equal user counts and bit-identical counters (sessions or states)."""
    if isinstance(left, OnlineFrameworkSession):
        left = _state(left)
    if isinstance(right, OnlineFrameworkSession):
        right = _state(right)
    assert left[0] == right[0]
    assert left[1].keys() == right[1].keys()
    for field, counter in left[1].items():
        np.testing.assert_array_equal(counter, right[1][field], err_msg=field)


class TestMergeAlgebra:
    @pytest.mark.parametrize("name, mode", CASES)
    def test_merge_is_associative_and_commutative(self, name, mode):
        a, b, c = (_fed(name, mode, seed) for seed in (1, 2, 3))
        left = a.merge(b).merge(c)
        for other in (a.merge(b.merge(c)), c.merge(a).merge(b), b.merge(c).merge(a)):
            _assert_same(other, left)
            np.testing.assert_array_equal(other.estimate(), left.estimate())
        n, counters = _state(left)
        assert n == 3 * 600
        for field, counter in counters.items():
            parts = [getattr(s, "_" + field) for s in (a, b, c)]
            np.testing.assert_array_equal(counter, sum(parts), err_msg=field)

    @pytest.mark.parametrize("name, mode", CASES)
    def test_merge_with_empty_is_identity(self, name, mode):
        session = _fed(name, mode, 4)
        empty = _session(name, mode, 5)
        for merged in (session.merge(empty), empty.merge(session)):
            _assert_same(merged, session)
            np.testing.assert_array_equal(merged.estimate(), session.estimate())

    @pytest.mark.parametrize("name, mode", CASES)
    def test_merge_leaves_operands_untouched(self, name, mode):
        a, b = _fed(name, mode, 6), _fed(name, mode, 7)
        before_a, before_b = _state(a), _state(b)
        merged = a.merge(b)
        _assert_same(a, before_a)
        _assert_same(b, before_b)
        # The result owns its counters: feeding it leaves the operands be.
        merged.ingest_batch(*_batch(8))
        assert merged.n_ingested == 3 * 600
        _assert_same(a, before_a)
        _assert_same(b, before_b)

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_merge_across_modes_adds_counters(self, name):
        """Simulate and protocol batches produce the same sufficient
        statistics, so sessions in different modes merge."""
        simulated, protocol = _fed(name, "simulate", 9), _fed(name, "protocol", 10)
        merged = simulated.merge(protocol)
        assert merged.mode == "simulate"
        assert merged.n_ingested == 2 * 600
        for field, counter in _state(merged)[1].items():
            np.testing.assert_array_equal(
                counter,
                getattr(simulated, "_" + field) + getattr(protocol, "_" + field),
                err_msg=field,
            )

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_merge_rejects_other_domains_and_budgets(self, name):
        session = _session(name)
        for other in (
            _session(name, n_classes=C + 1),
            _session(name, n_items=D + 1),
            _session(name, epsilon=1.0),
        ):
            with pytest.raises(ConfigurationError):
                session.merge(other)
            with pytest.raises(ConfigurationError):
                other.merge(session)


class TestSnapshots:
    @pytest.mark.parametrize("name, mode", CASES)
    def test_copy_is_a_detached_snapshot(self, name, mode):
        session = _fed(name, mode, 11)
        before = _state(session)
        snapshot = session.copy()
        assert type(snapshot) is type(session) and snapshot.mode == mode
        _assert_same(snapshot, before)
        session.ingest_batch(*_batch(12))
        _assert_same(snapshot, before)
        after = _state(session)
        snapshot.ingest_batch(*_batch(13))
        _assert_same(session, after)


class TestBatchValidation:
    @pytest.mark.parametrize("name, mode", CASES)
    def test_empty_batch_is_a_no_op(self, name, mode):
        session = _session(name, mode, 14)
        empty = np.zeros(0, dtype=np.int64)
        assert session.ingest_batch(empty, empty) == 0
        assert session.ingest_batch((empty, empty)) == 0
        assert session.n_ingested == 0
        with pytest.raises(ProtocolError):
            session.estimate()
        # Nothing was drawn: the next batch lands as on a fresh session.
        session.ingest_batch(*_batch(14))
        _assert_same(session, _fed(name, mode, 14))

    @pytest.mark.parametrize("name, mode", CASES)
    def test_tuple_list_and_array_batches_fold_alike(self, name, mode):
        labels, items = _batch(15)
        as_arrays = _session(name, mode, 15)
        as_arrays.ingest_batch(labels, items)
        as_tuple = _session(name, mode, 15)
        as_tuple.ingest_batch((labels, items))
        as_lists = _session(name, mode, 15)
        as_lists.ingest_batch(labels.tolist(), items.tolist())
        _assert_same(as_tuple, as_arrays)
        _assert_same(as_lists, as_arrays)

    @pytest.mark.parametrize("name, mode", CASES)
    def test_rejected_batch_changes_nothing(self, name, mode):
        """A batch with one bad user is refused whole, before any draw."""
        session = _fed(name, mode, 16)
        before = _state(session)
        labels, items = _batch(17)
        bad_batches = (
            (np.append(labels, C), np.append(items, 0)),
            (np.append(labels, -1), np.append(items, 0)),
            (np.append(labels, 0), np.append(items, D)),
            (np.append(labels, 0), np.append(items, -1)),
            (labels, items[:-1]),
        )
        for bad_labels, bad_items in bad_batches:
            with pytest.raises(DomainError):
                session.ingest_batch(bad_labels, bad_items)
            _assert_same(session, before)
        reference = _fed(name, mode, 16)
        session.ingest_batch(labels, items)
        reference.ingest_batch(labels, items)
        _assert_same(session, reference)

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_every_query_needs_reports(self, name):
        session = _session(name)
        queries = (
            session.estimate,
            session.estimate_variance,
            session.class_sizes,
            lambda: session.topk(1),
        )
        for query in queries:
            with pytest.raises(ProtocolError):
                query()


class TestCheckpointLaws:
    @pytest.mark.parametrize("name, mode", CASES)
    def test_round_trip_keeps_mode_and_every_counter(self, name, mode, tmp_path):
        session = _fed(name, mode, 18)
        session.save(tmp_path / "state")
        restored = OnlineFrameworkSession.load(tmp_path / "state")
        assert type(restored) is SESSIONS[name]
        assert restored.mode == mode
        _assert_same(restored, session)
        np.testing.assert_array_equal(restored.estimate(), session.estimate())
        np.testing.assert_array_equal(
            restored.estimate_variance(), session.estimate_variance()
        )

    @pytest.mark.parametrize("name, mode", CASES)
    def test_restored_session_resumes_like_a_merge(self, name, mode, tmp_path):
        """Resuming from a checkpoint with generator ``g`` gives the saved
        counters plus exactly what a fresh session drawing from ``g``
        folds for the new batch."""
        session = _fed(name, mode, 19)
        session.save(tmp_path / "state")
        restored = OnlineFrameworkSession.load(
            tmp_path / "state", rng=np.random.default_rng(20)
        )
        restored.ingest_batch(*_batch(20))
        _assert_same(restored, session.merge(_fed(name, mode, 20)))

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_typed_load_accepts_only_its_framework(self, name, tmp_path):
        _fed(name, "simulate", 21).save(tmp_path / "state")
        assert type(SESSIONS[name].load(tmp_path / "state")) is SESSIONS[name]
        for other, cls in SESSIONS.items():
            if other != name:
                with pytest.raises(ConfigurationError):
                    cls.load(tmp_path / "state")

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_load_rejects_a_counter_of_the_wrong_shape(self, name, tmp_path):
        session = _fed(name, "simulate", 22)
        session.save(tmp_path / "good")
        meta, arrays = load_state(tmp_path / "good")
        for field in session._STATE_FIELDS:
            broken = dict(arrays)
            broken[field] = np.append(arrays[field].ravel(), 0)
            save_state(tmp_path / "bad", meta, broken)
            with pytest.raises(ConfigurationError):
                OnlineFrameworkSession.load(tmp_path / "bad")

    def test_load_rejects_an_unknown_framework(self, tmp_path):
        _fed("ptj", "simulate", 23).save(tmp_path / "good")
        meta, arrays = load_state(tmp_path / "good")
        save_state(tmp_path / "bad", dict(meta, session="nope"), arrays)
        with pytest.raises(ConfigurationError):
            OnlineFrameworkSession.load(tmp_path / "bad")


class TestDecayLaws:
    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_decay_rounds_every_counter_half_to_even(self, name):
        session = _fed(name, "simulate", 24)
        n, counters = _state(session)
        session.decay(0.3)
        assert session.n_ingested == int(np.rint(n * 0.3))
        for field, counter in counters.items():
            np.testing.assert_array_equal(
                getattr(session, "_" + field),
                np.rint(counter * 0.3).astype(np.int64),
                err_msg=field,
            )
        before = _state(session)
        session.decay(1.0)
        _assert_same(session, before)
