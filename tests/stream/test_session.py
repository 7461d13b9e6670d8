"""Online sessions: streamed == one-shot (in distribution), queries,
merging, checkpoint round-trips."""

import numpy as np
import pytest

from repro.core.frameworks import MODES, make_framework
from repro.core.topk import topk_per_class
from repro.exceptions import ConfigurationError, DomainError, ProtocolError
from repro.stream import (
    SESSIONS,
    OnlineFrameworkSession,
    OnlinePTS,
    ShardedAggregator,
    make_session,
)

FRAMEWORKS = ("hec", "ptj", "pts", "pts-cp")


def _streamed_trials(name, dataset, n_trials, mode="simulate", batch_size=4096, seed0=400):
    out = []
    for trial in range(n_trials):
        session = make_session(
            name,
            epsilon=2.0,
            n_classes=dataset.n_classes,
            n_items=dataset.n_items,
            mode=mode,
            rng=np.random.default_rng(seed0 + trial),
        )
        session.ingest_dataset(dataset, batch_size=batch_size)
        out.append(session.estimate())
    return np.stack(out)


def _oneshot_trials(name, dataset, n_trials, seed0=9000):
    framework = make_framework(
        name, epsilon=2.0, n_classes=dataset.n_classes, n_items=dataset.n_items
    )
    return np.stack(
        [
            framework.estimate_frequencies(dataset, rng=np.random.default_rng(seed0 + t))
            for t in range(n_trials)
        ]
    )


class TestOneShotEquivalence:
    """Acceptance: streaming all batches matches the one-shot
    estimate_frequencies output distribution (seeded mean agreement)."""

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_streamed_matches_oneshot_distribution(self, name, small_dataset):
        streamed = _streamed_trials(name, small_dataset, 40)
        oneshot = _oneshot_trials(name, small_dataset, 40)
        sigma = np.sqrt(streamed.var(axis=0) / 40 + oneshot.var(axis=0) / 40)
        diff = np.abs(streamed.mean(axis=0) - oneshot.mean(axis=0))
        assert (diff < 5 * sigma + 1e-9).all()

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_protocol_mode_agrees_with_simulate(self, name, rng):
        counts = rng.multinomial(1500, np.ones(6) / 6).reshape(2, 3)
        from repro.datasets import LabelItemDataset

        data = LabelItemDataset.from_pair_counts(counts, rng=rng)
        simulated = _streamed_trials(name, data, 60, mode="simulate", batch_size=256)
        protocol = _streamed_trials(
            name, data, 30, mode="protocol", batch_size=256, seed0=7000
        )
        sigma = np.sqrt(simulated.var(axis=0) / 60 + protocol.var(axis=0) / 30)
        diff = np.abs(simulated.mean(axis=0) - protocol.mean(axis=0))
        assert (diff < 5 * sigma + 1e-9).all()

    def test_batch_split_is_irrelevant_in_distribution(self, small_dataset):
        """Means agree across batch sizes (LDP noise is iid per user)."""
        coarse = _streamed_trials("ptj", small_dataset, 40, batch_size=30_000)
        fine = _streamed_trials("ptj", small_dataset, 40, batch_size=1024, seed0=5500)
        sigma = np.sqrt(coarse.var(axis=0) / 40 + fine.var(axis=0) / 40)
        diff = np.abs(coarse.mean(axis=0) - fine.mean(axis=0))
        assert (diff < 5 * sigma + 1e-9).all()


class TestOneImplementation:
    """A one-shot estimate is a session fed the dataset as one batch: the
    same draws, not merely the same law."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_oneshot_equals_one_batch_session(self, name, mode, small_dataset):
        # At ε = 1 the adaptive rule picks GRR for HEC's 8 items and OUE
        # for PTJ's 24 joint values, so both oracle branches are covered.
        framework = make_framework(
            name, epsilon=1.0, n_classes=3, n_items=8, mode=mode
        )
        oneshot = framework.estimate_frequencies(
            small_dataset, rng=np.random.default_rng(17)
        )
        session = make_session(
            name, epsilon=1.0, n_classes=3, n_items=8, mode=mode,
            rng=np.random.default_rng(17),
        )
        session.ingest_batch(small_dataset.labels, small_dataset.items)
        np.testing.assert_array_equal(oneshot, session.estimate())

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_ingest_counts_equals_ingest_batch(self, name, small_dataset):
        by_counts = make_session(
            name, epsilon=2.0, n_classes=3, n_items=8, rng=np.random.default_rng(23)
        )
        by_users = make_session(
            name, epsilon=2.0, n_classes=3, n_items=8, rng=np.random.default_rng(23)
        )
        n = by_counts.ingest_counts(small_dataset.pair_counts())
        assert n == by_users.ingest_batch(small_dataset.labels, small_dataset.items)
        assert by_counts.n_ingested == by_users.n_ingested == small_dataset.n_users
        np.testing.assert_array_equal(by_counts.estimate(), by_users.estimate())

    def test_ingest_counts_validates_its_input(self):
        session = make_session("pts", epsilon=1.0, n_classes=2, n_items=3)
        with pytest.raises(DomainError):
            session.ingest_counts(np.ones((3, 2), dtype=np.int64))
        with pytest.raises(DomainError):
            session.ingest_counts(np.asarray([[1, -1, 0], [0, 0, 0]]))
        with pytest.raises(DomainError):
            session.ingest_counts(np.full((2, 3), 1.5))
        assert session.n_ingested == 0
        protocol = make_session(
            "pts", epsilon=1.0, n_classes=2, n_items=3, mode="protocol"
        )
        with pytest.raises(ConfigurationError):
            protocol.ingest_counts(np.ones((2, 3), dtype=np.int64))

    @pytest.mark.parametrize("mode", MODES)
    def test_hec_oneshot_needs_a_user_per_group(self, mode):
        """Fewer users than classes leave a group empty in either mode."""
        from repro.datasets import LabelItemDataset

        data = LabelItemDataset.from_pair_counts(np.asarray([[1, 0], [0, 1], [0, 0]]))
        framework = make_framework("hec", 1.0, 3, 2, mode=mode, rng=0)
        with pytest.raises(ProtocolError):
            framework.estimate_frequencies(data)


class TestOnlineQueries:
    def test_estimate_available_mid_stream(self, small_dataset):
        session = make_session(
            "pts-cp", epsilon=2.0, n_classes=3, n_items=8,
            rng=np.random.default_rng(11),
        )
        session.ingest_batch(small_dataset.labels[:8000], small_dataset.items[:8000])
        early = session.estimate()
        assert early.shape == (3, 8)
        session.ingest_batch(small_dataset.labels[8000:], small_dataset.items[8000:])
        assert session.n_ingested == small_dataset.n_users
        assert session.estimate().shape == (3, 8)

    def test_topk_matches_estimate_ordering(self, small_dataset):
        session = make_session(
            "ptj", epsilon=4.0, n_classes=3, n_items=8, rng=np.random.default_rng(5)
        )
        session.ingest_dataset(small_dataset)
        assert session.topk(3) == topk_per_class(session.estimate(), 3)

    def test_topk_recovers_strong_head(self, rng):
        """With a dominant item per class and a generous budget the online
        top-1 query finds it."""
        counts = np.full((2, 10), 50, dtype=np.int64)
        counts[0, 3] = 20_000
        counts[1, 7] = 20_000
        from repro.datasets import LabelItemDataset

        data = LabelItemDataset.from_pair_counts(counts, rng=rng)
        session = make_session(
            "pts-cp", epsilon=6.0, n_classes=2, n_items=10,
            rng=np.random.default_rng(21),
        )
        session.ingest_dataset(data, batch_size=8192)
        top = session.topk(1)
        assert top[0] == [3] and top[1] == [7]

    def test_class_sizes(self, small_dataset):
        session = make_session(
            "pts", epsilon=2.0, n_classes=3, n_items=8, rng=np.random.default_rng(9)
        )
        session.ingest_dataset(small_dataset)
        sizes = session.class_sizes()
        truth = small_dataset.class_counts()
        assert sizes.shape == (3,)
        # GRR label inversion at eps1=1 over 30k users: generous 5-sigma-ish band.
        assert np.abs(sizes - truth).max() < 1200

    def test_estimate_before_data_rejected(self):
        for name in FRAMEWORKS:
            session = make_session(name, epsilon=1.0, n_classes=3, n_items=8)
            with pytest.raises(ProtocolError):
                session.estimate()

    def test_hec_needs_every_group_served(self):
        session = make_session(
            "hec", epsilon=1.0, n_classes=8, n_items=4, mode="protocol",
            rng=np.random.default_rng(0),
        )
        session.ingest_batch(np.asarray([0]), np.asarray([0]))
        with pytest.raises(ProtocolError):
            session.estimate()


class TestMergeAndSharding:
    def test_merge_is_commutative_and_counts_add(self, small_dataset):
        half = small_dataset.n_users // 2
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        a = make_session("pts", epsilon=2.0, n_classes=3, n_items=8, rng=rngs[0])
        b = make_session("pts", epsilon=2.0, n_classes=3, n_items=8, rng=rngs[1])
        a.ingest_batch(small_dataset.labels[:half], small_dataset.items[:half])
        b.ingest_batch(small_dataset.labels[half:], small_dataset.items[half:])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.n_ingested == ba.n_ingested == small_dataset.n_users
        np.testing.assert_array_equal(ab.estimate(), ba.estimate())

    def test_merge_rejects_mismatched_sessions(self):
        a = make_session("pts", epsilon=2.0, n_classes=3, n_items=8)
        with pytest.raises(ConfigurationError):
            a.merge(make_session("ptj", epsilon=2.0, n_classes=3, n_items=8))
        with pytest.raises(ConfigurationError):
            a.merge(make_session("pts", epsilon=1.0, n_classes=3, n_items=8))
        with pytest.raises(ConfigurationError):
            a.merge(
                make_session("pts", epsilon=2.0, n_classes=3, n_items=8,
                             label_fraction=0.3)
            )

    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_sharded_sessions_stay_unbiased(self, name, small_dataset):
        """Fanning batches across shards and merging keeps the estimator's
        mean on the truth (HEC: up to its Theorem-4 bias)."""
        trials = []
        for trial in range(30):
            children = [np.random.default_rng(trial * 10 + s) for s in range(3)]
            shards = [
                make_session(name, epsilon=2.0, n_classes=3, n_items=8, rng=child)
                for child in children
            ]
            with ShardedAggregator(shards) as agg:
                agg.ingest(
                    (small_dataset.labels[i : i + 2048],
                     small_dataset.items[i : i + 2048])
                    for i in range(0, small_dataset.n_users, 2048)
                )
                trials.append(agg.merged().estimate())
        trials = np.stack(trials)
        truth = small_dataset.pair_counts().astype(np.float64)
        if name == "hec":
            truth = truth + (
                (small_dataset.n_users - small_dataset.class_counts())
                / small_dataset.n_items
            )[:, None]
        spread = trials.std(axis=0).max() / np.sqrt(30)
        bias = np.abs(trials.mean(axis=0) - truth)
        assert bias.max() < 6 * spread


class TestCheckpoint:
    @pytest.mark.parametrize("name", FRAMEWORKS)
    def test_round_trip_preserves_estimates(self, name, small_dataset, tmp_path):
        session = make_session(
            name, epsilon=2.0, n_classes=3, n_items=8, rng=np.random.default_rng(31)
        )
        session.ingest_dataset(small_dataset, batch_size=8192)
        path = tmp_path / f"{name}-state"
        session.save(path)
        restored = OnlineFrameworkSession.load(path)
        assert type(restored) is SESSIONS[name]
        assert restored.n_ingested == session.n_ingested
        np.testing.assert_array_equal(restored.estimate(), session.estimate())

    def test_restored_session_keeps_ingesting(self, small_dataset, tmp_path):
        half = small_dataset.n_users // 2
        session = make_session(
            "ptj", epsilon=2.0, n_classes=3, n_items=8, rng=np.random.default_rng(41)
        )
        session.ingest_batch(small_dataset.labels[:half], small_dataset.items[:half])
        path = tmp_path / "partial"
        session.save(path)
        restored = OnlineFrameworkSession.load(path, rng=np.random.default_rng(42))
        restored.ingest_batch(small_dataset.labels[half:], small_dataset.items[half:])
        assert restored.n_ingested == small_dataset.n_users
        assert restored.estimate().shape == (3, 8)

    def test_label_fraction_survives_round_trip(self, small_dataset, tmp_path):
        session = make_session(
            "pts", epsilon=2.0, n_classes=3, n_items=8, label_fraction=0.3,
            rng=np.random.default_rng(43),
        )
        session.ingest_dataset(small_dataset)
        path = tmp_path / "fraction"
        session.save(path)
        restored = OnlineFrameworkSession.load(path)
        assert isinstance(restored, OnlinePTS)
        assert restored.label_fraction == pytest.approx(0.3)
        np.testing.assert_array_equal(restored.estimate(), session.estimate())

    def test_typed_load_rejects_wrong_framework(self, small_dataset, tmp_path):
        session = make_session(
            "pts", epsilon=2.0, n_classes=3, n_items=8, rng=np.random.default_rng(44)
        )
        session.ingest_dataset(small_dataset)
        path = tmp_path / "typed"
        session.save(path)
        from repro.stream import OnlinePTJ

        with pytest.raises(ConfigurationError):
            OnlinePTJ.load(path)


class TestConstruction:
    def test_registry_mirrors_frameworks(self):
        assert set(SESSIONS) == {"hec", "ptj", "pts", "pts-cp"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_session("nope", epsilon=1.0, n_classes=2, n_items=4)

    def test_label_fraction_only_for_split_frameworks(self):
        with pytest.raises(ConfigurationError):
            make_session("ptj", epsilon=1.0, n_classes=2, n_items=4, label_fraction=0.3)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_session("ptj", epsilon=1.0, n_classes=2, n_items=4, mode="telepathy")

    def test_domain_validation_on_ingest(self):
        session = make_session("ptj", epsilon=1.0, n_classes=2, n_items=4)
        with pytest.raises(DomainError):
            session.ingest_batch(np.asarray([0, 2]), np.asarray([0, 0]))
        with pytest.raises(DomainError):
            session.ingest_batch(np.asarray([0]), np.asarray([4]))
        with pytest.raises(DomainError):
            session.ingest_batch(np.asarray([0, 1]), np.asarray([0]))

    def test_dataset_domain_mismatch_rejected(self, small_dataset):
        session = make_session("ptj", epsilon=1.0, n_classes=5, n_items=5)
        with pytest.raises(ConfigurationError):
            session.ingest_dataset(small_dataset)

    def test_framework_builds_matching_session(self):
        framework = make_framework(
            "pts-cp", epsilon=2.0, n_classes=3, n_items=8, label_fraction=0.4
        )
        session = framework.streaming_session(rng=np.random.default_rng(3))
        assert session.name == "pts-cp"
        assert session.epsilon == pytest.approx(2.0)
        assert session.label_fraction == pytest.approx(0.4)
        session.ingest_batch(np.asarray([0, 1, 2]), np.asarray([1, 2, 3]))
        assert session.n_ingested == 3
