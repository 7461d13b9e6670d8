"""Drain adapters: uniform submit/drain/snapshot over sharded sessions
and the top-k miner, drain-log replay exactness, and the decay hook."""

import numpy as np
import pytest
from functools import reduce

from repro.exceptions import ConfigurationError, DomainError
from repro.obs.trace import TraceContext, get_tracer, tracing_enabled
from repro.rng import ensure_rng, spawn
from repro.stream import (
    DECAY_EVENT,
    AggregatorDrain,
    OnlineTopKSession,
    SessionDrain,
    ShardedAggregator,
    make_session,
    replay_drain_log,
)


def _batches(n=4000, c=3, d=32, seed=2, batch=512):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, size=n)
    items = rng.integers(0, d, size=n)
    return [
        (labels[i : i + batch], items[i : i + batch])
        for i in range(0, n, batch)
    ]


def _shards(seed, n_shards, mode="protocol"):
    return [
        make_session("ptj", epsilon=1.0, n_classes=3, n_items=32,
                     mode=mode, rng=child)
        for child in spawn(ensure_rng(seed), n_shards)
    ]


class TestAggregatorDrain:
    def test_failed_drain_waits_for_every_batch(self):
        """The batch on the other shard is done by the time the bad
        batch's error reaches the caller, not still ingesting."""
        rng = np.random.default_rng(10)
        with AggregatorDrain(ShardedAggregator(_shards(12, 2))) as drain:
            drain.submit([0, 7], [1, 2])  # bad label, round-robin shard 0
            landed = drain.submit(
                rng.integers(0, 3, 300_000), rng.integers(0, 32, 300_000)
            )
            with pytest.raises(DomainError):
                drain.drain()
            assert landed.done()
            assert drain.aggregator.merged().n_ingested == 300_000

    def test_failed_drain_credits_what_landed(self):
        """The reports that landed count as drained and the bad batch's
        as rejected, so the counters settle instead of lagging for good."""
        shards = [
            make_session("pts", epsilon=1.0, n_classes=3, n_items=32, rng=child)
            for child in spawn(ensure_rng(12), 2)
        ]
        with AggregatorDrain(ShardedAggregator(shards)) as drain:
            drain.submit([0, 7], [1, 2])  # bad label, round-robin shard 0
            drain.submit([0, 1, 2], [3, 4, 5])  # shard 1
            with pytest.raises(DomainError):
                drain.drain()
            assert drain.n_submitted == 5
            assert drain.n_drained == drain.snapshot().n_ingested == 3
            assert drain.n_rejected == 2
            assert drain.drain() == 0
            assert (drain.n_drained, drain.n_rejected) == (3, 2)

    def test_drain_credits_batches_the_aggregator_drained_directly(self):
        """Draining the wrapped aggregator directly (here via merged())
        still leaves the adapter's next drain to credit those reports."""
        shards = [
            make_session("pts", epsilon=1.0, n_classes=3, n_items=32, rng=child)
            for child in spawn(ensure_rng(12), 2)
        ]
        with AggregatorDrain(ShardedAggregator(shards)) as drain:
            drain.submit([0, 1, 2], [3, 4, 5])
            assert drain.aggregator.merged().n_ingested == 3
            assert drain.drain() == 3
            assert drain.n_submitted == drain.n_drained == 3
            assert drain.snapshot().n_ingested == 3
            assert drain.n_rejected == 0
            assert drain.drain() == 0

    def test_successful_drain_rejects_nothing(self):
        with AggregatorDrain(ShardedAggregator(_shards(3, 2))) as drain:
            for labels, items in _batches(n=2000):
                drain.submit(labels, items)
            assert drain.drain() == 2000
            assert (drain.n_submitted, drain.n_drained) == (2000, 2000)
            assert drain.n_rejected == 0

    def test_reports_after_a_failed_drain_are_credited(self):
        with AggregatorDrain(ShardedAggregator(_shards(4, 2))) as drain:
            drain.submit([0, 7], [1, 2])  # bad label, round-robin shard 0
            drain.submit([0, 1, 2], [3, 4, 5])
            with pytest.raises(DomainError):
                drain.drain()
            drain.submit([1, 2, 0, 1], [6, 7, 8, 9])
            assert drain.drain() == 4
            assert (drain.n_drained, drain.n_rejected) == (7, 2)
            assert drain.snapshot().n_ingested == 7

    def test_failed_drain_ages_the_reports_that_landed(self):
        """The landed reports advance the decay schedule as a successful
        drain's would, so a failure does not postpone ageing."""
        drain = AggregatorDrain(
            ShardedAggregator(_shards(6, 2, mode="simulate")),
            decay=0.5,
            decay_every=1000,
        )
        drain.submit([0, 7], [1, 2])  # bad label, round-robin shard 0
        good = np.zeros(2000, dtype=np.int64)
        drain.submit(good, good)
        with pytest.raises(DomainError):
            drain.drain()
        assert drain.n_drained == 2000
        assert drain.snapshot().n_ingested <= 600
        drain.close()

    def test_drain_log_replays_to_exact_merged_state(self):
        batches = _batches()
        with AggregatorDrain(
            ShardedAggregator(_shards(11, 2)), record=True
        ) as drain:
            for labels, items in batches:
                drain.submit(labels, items)
            assert drain.drain() == 4000
            live = drain.snapshot()
            log = list(drain.drain_log)

        twins = replay_drain_log(log, _shards(11, 2))
        offline = reduce(lambda a, b: a.merge(b), twins)
        np.testing.assert_array_equal(offline._support, live._support)
        np.testing.assert_array_equal(offline.estimate(), live.estimate())

    def test_round_robin_covers_all_shards(self):
        drain = AggregatorDrain(ShardedAggregator(_shards(3, 3)), record=True)
        for labels, items in _batches(n=1500, batch=250):
            drain.submit(labels, items)
        drain.drain()
        assert {entry[0] for entry in drain.drain_log} == {0, 1, 2}
        drain.close()

    def test_decay_hook_ages_counts(self):
        drain = AggregatorDrain(
            ShardedAggregator(_shards(5, 2, mode="simulate")),
            decay=0.5,
            decay_every=1000,
        )
        for labels, items in _batches(n=2000):
            drain.submit(labels, items)
        drain.drain()
        snap = drain.snapshot()
        # One decay pass at least: far fewer effective users than ingested.
        assert snap.n_ingested <= 1200
        drain.close()

    def test_snapshot_credits_drain_and_applies_decay(self):
        """snapshot() without an explicit drain() still counts the drained
        reports and applies due decay periods (it must route through the
        adapter's drain, not just the aggregator's)."""
        drain = AggregatorDrain(
            ShardedAggregator(_shards(8, 2, mode="simulate")),
            decay=0.5,
            decay_every=1000,
        )
        for labels, items in _batches(n=2000):
            drain.submit(labels, items)
        snap = drain.snapshot()  # no explicit drain() beforehand
        assert drain.n_drained == 2000
        assert snap.n_ingested <= 1200
        drain.close()

    def test_decay_periods_track_report_count(self):
        """A drain spanning several decay periods compounds the factor
        (not one pass per drain), and the partial period carries into the
        next drain instead of being dropped."""
        drain = AggregatorDrain(
            ShardedAggregator(_shards(7, 1, mode="simulate")),
            decay=0.5,
            decay_every=1000,
        )
        big = np.zeros(4000, dtype=np.int64)
        drain.submit(big, big)
        drain.drain()
        after_big = drain.snapshot().n_ingested
        # Four compounded periods: ~4000 * 0.5**4 = 250.  A single 0.5
        # pass (the drain-cadence bug) would leave 2000.
        assert after_big <= 500

        part = np.zeros(600, dtype=np.int64)
        drain.submit(part, part)
        drain.drain()
        # 600 into the open period: no decay yet.
        assert drain.snapshot().n_ingested == after_big + 600

        drain.submit(part, part)
        drain.drain()
        # 1200 accumulated crosses one boundary exactly once.
        assert drain.snapshot().n_ingested <= (after_big + 1200) * 0.5 + 5
        drain.close()

    def test_decayed_drain_log_replays_bit_identically(self):
        """Decay passes land in the drain log as explicit events, so an
        offline replay of a decayed run reproduces the live state exactly
        — including every integer rounding pass."""
        batches = _batches(seed=21)
        with AggregatorDrain(
            ShardedAggregator(_shards(13, 2, mode="simulate")),
            decay=0.7,
            decay_every=900,
            record=True,
        ) as drain:
            for labels, items in batches:
                drain.submit(labels, items)
                drain.drain()  # drain per batch: several decay ticks land
            live = drain.snapshot()
            log = list(drain.drain_log)

        decay_events = [entry for entry in log if entry[0] == DECAY_EVENT]
        assert decay_events, "the schedule must have ticked at least once"
        assert all(factor == 0.7 for _, factor, _ in decay_events)

        twins = replay_drain_log(log, _shards(13, 2, mode="simulate"))
        offline = reduce(lambda a, b: a.merge(b), twins)
        assert offline.n_ingested == live.n_ingested
        np.testing.assert_array_equal(offline._support, live._support)
        np.testing.assert_array_equal(offline.estimate(), live.estimate())

    def test_compounded_factor_is_logged_not_the_knob(self):
        """A single drain spanning several periods logs one event with
        the compounded factor, so replay applies the same single rounding
        pass the live run did."""
        drain = AggregatorDrain(
            ShardedAggregator(_shards(14, 1, mode="simulate")),
            decay=0.5,
            decay_every=1000,
            record=True,
        )
        big = np.zeros(3000, dtype=np.int64)
        drain.submit(big, big)
        drain.drain()
        events = [e for e in drain.drain_log if e[0] == DECAY_EVENT]
        assert len(events) == 1
        assert events[0][1] == pytest.approx(0.5**3)
        drain.close()

    def test_window_knob_derives_decay_schedule(self):
        drain = AggregatorDrain(
            ShardedAggregator(_shards(15, 1, mode="simulate")), window=4000
        )
        assert drain.window_policy is not None
        assert drain.decay_every == 500
        assert drain.decay == pytest.approx(1.0 - 500 / 4000)
        # Stream far more than the window: retained mass stays bounded
        # near the target instead of growing with the stream.
        big = np.zeros(20_000, dtype=np.int64)
        drain.submit(big, big)
        drain.drain()
        assert drain.snapshot().n_ingested <= 4000
        drain.close()

    def test_window_exclusive_with_raw_knobs(self):
        agg = ShardedAggregator(_shards(16, 1, mode="simulate"))
        with pytest.raises(ConfigurationError):
            AggregatorDrain(agg, window=1000, decay=0.5, decay_every=10)
        agg.close()

    def test_out_of_band_age_drains_first_and_logs(self):
        drain = AggregatorDrain(
            ShardedAggregator(_shards(17, 1, mode="simulate")), record=True
        )
        batch = np.zeros(500, dtype=np.int64)
        drain.submit(batch, batch)
        drain.age(0.5)  # drains pending work first, then ages
        assert drain.n_drained == 500
        assert drain.snapshot().n_ingested == 250
        assert drain.drain_log[-1][0] == DECAY_EVENT
        # A no-op factor logs no decay event.
        logged = len(drain.drain_log)
        drain.age(1.0)
        assert len(drain.drain_log) == logged
        with pytest.raises(ConfigurationError):
            drain.age(0.0)
        drain.close()

    def test_decay_requires_both_knobs(self):
        agg = ShardedAggregator(_shards(6, 1))
        with pytest.raises(ConfigurationError):
            AggregatorDrain(agg, decay=0.9)
        with pytest.raises(ConfigurationError):
            AggregatorDrain(agg, decay=1.5, decay_every=10)
        agg.close()


class TestSessionDrain:
    def test_topk_target_fifo_and_snapshot(self):
        session = OnlineTopKSession(
            k=3, epsilon=2.0, n_classes=2, n_items=16,
            rng=np.random.default_rng(8),
        )
        drain = SessionDrain(session, record=True)
        for labels, items in _batches(n=1000, c=2, d=16, batch=200):
            drain.submit(labels, items)
        snap = drain.snapshot()  # drains pending work first
        assert snap is session
        assert session.round_ingested == 1000
        assert len(drain.drain_log) == 5
        drain.close()

    def test_failed_drain_waits_for_every_batch(self):
        """The batch queued behind a failing one is done by the time the
        error reaches the caller, not still ingesting."""
        session = OnlineTopKSession(
            k=3, epsilon=2.0, n_classes=2, n_items=16,
            rng=np.random.default_rng(8),
        )
        rng = np.random.default_rng(9)
        with SessionDrain(session) as drain:
            drain.submit([0, 7], [1, 2])  # bad label
            landed = drain.submit(
                rng.integers(0, 2, 300_000), rng.integers(0, 16, 300_000)
            )
            with pytest.raises(DomainError):
                drain.drain()
            assert landed.done()
            assert session.round_ingested == 300_000

    def test_failed_drain_credits_what_landed(self):
        session = OnlineTopKSession(
            k=3, epsilon=2.0, n_classes=2, n_items=16,
            rng=np.random.default_rng(8),
        )
        with SessionDrain(session) as drain:
            drain.submit([0, 7], [1, 2])  # bad label
            drain.submit([0, 1, 1], [3, 4, 5])
            with pytest.raises(DomainError):
                drain.drain()
            assert drain.n_submitted == 5
            assert drain.n_drained == drain.snapshot().n_ingested == 3
            assert drain.n_rejected == 2

    def test_successful_drain_rejects_nothing(self):
        session = OnlineTopKSession(
            k=3, epsilon=2.0, n_classes=2, n_items=16,
            rng=np.random.default_rng(8),
        )
        with SessionDrain(session) as drain:
            for labels, items in _batches(n=1000, c=2, d=16, batch=200):
                drain.submit(labels, items)
            assert drain.drain() == 1000
            assert (drain.n_submitted, drain.n_drained) == (1000, 1000)
            assert drain.n_rejected == 0

    def test_every_batch_failing_rejects_every_report(self):
        session = OnlineTopKSession(
            k=3, epsilon=2.0, n_classes=2, n_items=16,
            rng=np.random.default_rng(8),
        )
        with SessionDrain(session) as drain:
            drain.submit([0, 7], [1, 2])  # bad label
            drain.submit([9], [3])  # bad label
            with pytest.raises(DomainError):
                drain.drain()
            assert (drain.n_drained, drain.n_rejected) == (0, 3)
            drain.submit([0, 1], [3, 4])
            assert drain.drain() == 2
            assert (drain.n_submitted, drain.n_drained, drain.n_rejected) == (
                5, 2, 3,
            )

    def test_decay_rejected_for_targets_without_decay(self):
        session = OnlineTopKSession(
            k=2, epsilon=1.0, n_classes=2, n_items=8,
            rng=np.random.default_rng(9),
        )
        with pytest.raises(ConfigurationError):
            SessionDrain(session, decay=0.9, decay_every=10)


class TestSessionDecay:
    def test_decay_scales_counters_and_estimates_stay_calibrated(self):
        session = make_session("pts", epsilon=2.0, n_classes=2, n_items=16,
                               rng=np.random.default_rng(10))
        labels = np.repeat([0, 1], 2000)
        items = np.zeros(4000, dtype=np.int64)
        session.ingest_batch(labels, items)
        before = session.estimate().sum()
        session.decay(0.5)
        assert session.n_ingested == 2000
        after = session.estimate().sum()
        # Total estimated mass halves with the user count.
        assert after == pytest.approx(before * 0.5, rel=0.15)

    def test_decay_validates_factor(self):
        session = make_session("ptj", epsilon=1.0, n_classes=2, n_items=8)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                session.decay(bad)
        session.decay(1.0)  # no-op

    @pytest.mark.parametrize("framework", ["ptj", "pts", "pts-cp", "hec"])
    def test_long_decay_schedule_on_tiny_cohort_never_degenerates(
        self, framework
    ):
        """Regression: rounding could drive the user count to 0 while
        support mass survived, making every calibration degenerate.  The
        count now stays clamped to >= 1 whenever any counter is nonzero,
        so estimates and variances remain finite through an arbitrarily
        long decay schedule."""
        session = make_session(
            framework, epsilon=2.0, n_classes=2, n_items=8,
            mode="simulate", rng=np.random.default_rng(42),
        )
        labels = np.array([0, 0, 1, 0, 1], dtype=np.int64)
        items = np.array([1, 2, 3, 1, 0], dtype=np.int64)
        session.ingest_batch((labels, items))
        for _ in range(60):
            session.decay(0.45)
            any_nonzero = any(
                getattr(session, "_" + field).any()
                for field in session._STATE_FIELDS
            )
            if any_nonzero:
                assert session.n_ingested >= 1
                if framework == "hec" and not getattr(
                    session, "_group_sizes"
                ).all():
                    continue  # HEC refuses estimates with an empty group
                assert np.isfinite(session.estimate()).all()
                assert np.isfinite(session.estimate_variance()).all()
            else:
                # Once every counter reached zero the count may too.
                assert session.n_ingested >= 0
        # 0.45**60 annihilates everything: the schedule must terminate
        # with a genuinely empty session, not a stuck count.
        assert not any(
            getattr(session, "_" + field).any()
            for field in session._STATE_FIELDS
        )
        assert session.n_ingested == 0


def _traced_spans(drain, batches, trace):
    """Spans recorded while ``drain`` ingests ``batches`` under ``trace``."""
    tracer = get_tracer()
    with tracing_enabled():
        tracer.ring.clear()
        try:
            with drain:
                for labels, items in batches:
                    drain.submit(labels, items, trace=trace)
                drain.drain()
            return tracer.ring.spans()
        finally:
            tracer.ring.clear()


class TestDrainTracing:
    def test_aggregator_drain_hands_the_trace_to_each_shard(self):
        root = TraceContext.root()
        drain = AggregatorDrain(ShardedAggregator(_shards(18, 2)))
        spans = _traced_spans(drain, _batches(n=1024), root)
        ingest = [span for span in spans if span["name"] == "shard.ingest"]
        assert sorted(span["args"]["shard"] for span in ingest) == [0, 1]
        assert all(span["parent_id"] == root.span_id for span in ingest)

    def test_session_drain_records_one_span_per_batch(self):
        root = TraceContext.root()
        session = OnlineTopKSession(
            k=2, epsilon=2.0, n_classes=3, n_items=32,
            rng=np.random.default_rng(19),
        )
        spans = _traced_spans(SessionDrain(session), _batches(n=1024), root)
        ingest = [span for span in spans if span["name"] == "session.ingest"]
        assert len(ingest) == 2
        assert all(span["trace_id"] == root.trace_id for span in ingest)
        assert all(span["parent_id"] == root.span_id for span in ingest)
