"""Report-plane batch/loop equivalence: for every oracle the columnar
``aggregate_batch(privatize_many(values))`` path matches the per-report
``privatize``/``aggregate`` loop — exactly where the kernels consume the
generator identically, in distribution everywhere."""

import numpy as np
import pytest

from repro.mechanisms import (
    AdaptiveMechanism,
    CorrelatedPerturbation,
    GeneralizedRandomResponse,
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    ValidityPerturbation,
    batch_support,
    grouped_batch_support,
)
from repro.types import INVALID_ITEM

EPS = 1.4

ORACLES = {
    "grr": lambda rng: GeneralizedRandomResponse(EPS, 12, rng=rng),
    "oue": lambda rng: OptimizedUnaryEncoding(EPS, 9, rng=rng),
    "sue": lambda rng: SymmetricUnaryEncoding(EPS, 9, rng=rng),
    "vp": lambda rng: ValidityPerturbation(EPS, 9, rng=rng),
    # d < 3e^EPS + 2 ~= 14.2 selects GRR, a larger domain OUE.
    "adaptive-grr": lambda rng: AdaptiveMechanism(EPS, 12, rng=rng),
    "adaptive-oue": lambda rng: AdaptiveMechanism(EPS, 16, rng=rng),
}


def _values(mech, rng, n=400):
    values = rng.integers(0, mech.domain_size, size=n)
    if isinstance(mech, ValidityPerturbation):
        values = np.where(rng.random(n) < 0.2, INVALID_ITEM, values)
    return values


class TestExactAggregation:
    """aggregate is aggregate_batch: identical folds of identical reports."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_aggregate_batch_equals_per_report_aggregate(self, name):
        rng = np.random.default_rng(11)
        mech = ORACLES[name](rng)
        values = _values(mech, np.random.default_rng(1))
        reports = mech.privatize_many(values)
        batched = mech.aggregate_batch(reports)
        listed = mech.aggregate([np.asarray(r) for r in np.asarray(reports)])
        np.testing.assert_array_equal(batched, listed)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_split_supports_add_up(self, name):
        """Supports are additive: the folds of two halves sum to the fold
        of the whole, so batches can be aggregated incrementally."""
        rng = np.random.default_rng(12)
        mech = ORACLES[name](rng)
        values = _values(mech, np.random.default_rng(2))
        reports = np.asarray(mech.privatize_many(values))
        whole = mech.aggregate_batch(reports)
        split = mech.aggregate_batch(reports[:150]) + mech.aggregate_batch(reports[150:])
        np.testing.assert_array_equal(split, whole)
        assert whole.dtype == np.int64

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_empty_batch_folds_to_typed_zeros(self, name):
        """The additive identity: no reports, in any form, fold to an
        all-zero int64 support of the populated shape."""
        mech = ORACLES[name](np.random.default_rng(14))
        values = _values(mech, np.random.default_rng(4))
        full = mech.aggregate_batch(mech.privatize_many(values))
        for empty in (mech.privatize_many(np.zeros(0, dtype=np.int64)), [], iter(())):
            support = mech.aggregate_batch(empty)
            assert support.shape == full.shape
            assert support.dtype == np.int64
            assert not support.any()

    def test_correlated_split_columns_match_pairs(self):
        """CP supports add up too, and the ``(labels, bits)`` column form
        folds exactly like the list of per-user pairs."""
        mech = CorrelatedPerturbation(0.5, 0.5, n_classes=3, n_items=5,
                                      rng=np.random.default_rng(13))
        rng = np.random.default_rng(3)
        labels, bits = mech.privatize_many(
            rng.integers(0, 3, 80), rng.integers(0, 5, 80)
        )
        split = (
            mech.aggregate_batch((labels[:33], bits[:33]))
            + mech.aggregate_batch((labels[33:], bits[33:]))
        )
        pairs = mech.aggregate(list(zip(labels, bits)))
        np.testing.assert_array_equal(split.item_support, pairs.item_support)
        np.testing.assert_array_equal(split.flag_support, pairs.flag_support)
        np.testing.assert_array_equal(split.label_counts, pairs.label_counts)
        assert split.n_users == pairs.n_users == 80


class TestDrawIdenticalKernels:
    """The one-hot kernel draws a row's words and then its ties' words,
    so one user's ``privatize(v)`` is draw-for-draw ``privatize_many([v])``
    on the same generator, user after user."""

    @pytest.mark.parametrize("name", ["adaptive-oue", "oue", "sue", "vp"])
    def test_privatize_many_equals_privatize_loop(self, name):
        values = _values(ORACLES[name](np.random.default_rng(0)), np.random.default_rng(3), n=64)
        batched_mech = ORACLES[name](np.random.default_rng(42))
        batched = np.concatenate([batched_mech.privatize_many([v]) for v in values])
        looped_mech = ORACLES[name](np.random.default_rng(42))
        looped = np.stack([looped_mech.privatize(int(v)) for v in values])
        np.testing.assert_array_equal(batched, looped)
        assert (
            batched_mech.rng.bit_generator.state == looped_mech.rng.bit_generator.state
        )


class TestDistributionalEquivalence:
    """Batch and loop paths induce the same estimate distribution
    (seeded mean agreement, 5-sigma)."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_estimates_agree_in_mean(self, name):
        probe = ORACLES[name](np.random.default_rng(0))
        d = probe.domain_size
        values = np.random.default_rng(4).integers(0, d, size=300)
        n = values.size

        batch_trials = []
        for trial in range(40):
            mech = ORACLES[name](np.random.default_rng(100 + trial))
            batch_trials.append(
                mech.estimate(mech.aggregate_batch(mech.privatize_many(values)), n)
            )
        loop_trials = []
        for trial in range(20):
            mech = ORACLES[name](np.random.default_rng(900 + trial))
            reports = [mech.privatize(int(v)) for v in values]
            loop_trials.append(mech.estimate(mech.aggregate(reports), n))
        batch_trials = np.stack(batch_trials)
        loop_trials = np.stack(loop_trials)
        sigma = np.sqrt(
            batch_trials.var(axis=0) / len(batch_trials)
            + loop_trials.var(axis=0) / len(loop_trials)
        )
        diff = np.abs(batch_trials.mean(axis=0) - loop_trials.mean(axis=0))
        assert (diff < 5 * sigma + 1e-9).all()

    def test_correlated_estimates_agree_in_mean(self):
        c, d, n = 3, 5, 400
        rng = np.random.default_rng(5)
        labels = rng.integers(0, c, size=n)
        items = rng.integers(0, d, size=n)

        def estimates(seed, batched):
            mech = CorrelatedPerturbation(1.0, 1.0, n_classes=c, n_items=d,
                                          rng=np.random.default_rng(seed))
            if batched:
                support = mech.aggregate_batch(mech.privatize_many(labels, items))
            else:
                reports = [mech.privatize(int(l), int(i)) for l, i in zip(labels, items)]
                support = mech.aggregate(reports)
            return mech.estimate(support)

        batch_trials = np.stack([estimates(200 + t, True) for t in range(40)])
        loop_trials = np.stack([estimates(700 + t, False) for t in range(20)])
        sigma = np.sqrt(
            batch_trials.var(axis=0) / len(batch_trials)
            + loop_trials.var(axis=0) / len(loop_trials)
        )
        diff = np.abs(batch_trials.mean(axis=0) - loop_trials.mean(axis=0))
        assert (diff < 5 * sigma + 1e-9).all()


def _block_calls(values, block_elements, seed):
    """The blocked OUE run by hand: each block's own calls, in order."""
    from repro.mechanisms.engine import batch_spans

    oracle = OptimizedUnaryEncoding(EPS, 9, rng=np.random.default_rng(seed))
    spans = list(batch_spans(values.size, 9, block_elements))
    assert len(spans) > 1
    return sum(
        oracle.aggregate_batch(oracle.privatize_many(values[cut])) for cut in spans
    )


class TestEngine:
    def test_blocked_batch_support_sums_to_full_population(self):
        """Tiny blocks: every user reports exactly once."""
        mech = GeneralizedRandomResponse(EPS, 6, rng=np.random.default_rng(6))
        values = np.random.default_rng(7).integers(0, 6, size=500)
        support = batch_support(mech, values, block_elements=16)
        assert support.sum() == 500

    def test_blocked_run_equals_its_blocks_calls_in_order(self):
        """A blocked run is its blocks' own ``privatize_many`` +
        ``aggregate_batch`` calls, one after another on the oracle's
        generator."""
        values = np.random.default_rng(8).integers(0, 9, size=120)
        blocked = batch_support(
            OptimizedUnaryEncoding(EPS, 9, rng=np.random.default_rng(3)),
            values,
            block_elements=50,
        )
        np.testing.assert_array_equal(
            blocked, _block_calls(values, block_elements=50, seed=3)
        )

    def test_empty_batch_yields_typed_zeros(self):
        mech = OptimizedUnaryEncoding(EPS, 7, rng=np.random.default_rng(9))
        support = batch_support(mech, np.zeros(0, dtype=np.int64))
        assert support.shape == (7,)
        assert (support == 0).all()

    def test_ragged_final_block_covers_every_user(self):
        """n_values not divisible by the block row count: the last span is
        a remainder block and no user is dropped or double-counted."""
        from repro.mechanisms.engine import batch_spans

        spans = list(batch_spans(103, 1, block_elements=10))
        assert [s.start for s in spans] == list(range(0, 103, 10))
        mech = GeneralizedRandomResponse(EPS, 6, rng=np.random.default_rng(20))
        values = np.random.default_rng(21).integers(0, 6, size=103)
        support = batch_support(mech, values, block_elements=10)
        assert support.sum() == 103

    def test_block_smaller_than_row_width_degrades_to_single_rows(self):
        """A cap below one report's width still privatises every user —
        one row per block — and equals those one-row calls in order."""
        values = np.random.default_rng(22).integers(0, 9, size=37)
        tiny = batch_support(
            OptimizedUnaryEncoding(EPS, 9, rng=np.random.default_rng(23)),
            values,
            block_elements=3,  # < domain_size=9, i.e. less than one row
        )
        np.testing.assert_array_equal(
            tiny, _block_calls(values, block_elements=3, seed=23)
        )
        from repro.mechanisms.engine import batch_spans

        assert [s.stop - s.start for s in batch_spans(37, 9, 3)] == [1] * 37

    def test_zero_user_batch_for_multi_column_mechanism(self):
        mech = CorrelatedPerturbation(1.0, 1.0, n_classes=3, n_items=5,
                                      rng=np.random.default_rng(24))
        empty = np.zeros(0, dtype=np.int64)
        support = batch_support(mech, (empty, empty))
        assert support.item_support.shape == (3, 5)
        assert support.item_support.sum() == 0
        assert support.label_counts.sum() == 0

    def test_zero_user_grouped_batch_yields_typed_zeros(self):
        mech = OptimizedUnaryEncoding(EPS, 5, rng=np.random.default_rng(25))
        empty = np.zeros(0, dtype=np.int64)
        out = grouped_batch_support(mech, empty, empty, 4)
        assert out.shape == (4, 5)
        assert out.dtype == np.int64
        assert (out == 0).all()

    @pytest.mark.parametrize("cap", [0, -5])
    def test_non_positive_block_elements_rejected(self, cap):
        from repro.exceptions import ConfigurationError
        from repro.mechanisms.engine import batch_spans

        mech = GeneralizedRandomResponse(EPS, 6, rng=np.random.default_rng(26))
        with pytest.raises(ConfigurationError):
            list(batch_spans(10, 1, block_elements=cap))
        with pytest.raises(ConfigurationError):
            batch_support(mech, np.arange(6), block_elements=cap)

    def test_grouped_batch_support_rows_sum_to_group_sizes(self):
        mech = OptimizedUnaryEncoding(8.0, 5, rng=np.random.default_rng(10))
        rng = np.random.default_rng(11)
        groups = rng.integers(0, 3, size=600)
        values = rng.integers(0, 5, size=600)
        out = grouped_batch_support(mech, groups, values, 3, block_elements=64)
        assert out.shape == (3, 5)
        # Each report's expected bit count is p + (d-1)q, so row sums track
        # group sizes scaled by it.
        sizes = np.bincount(groups, minlength=3)
        per_report = mech.p + (mech.domain_size - 1) * mech.q
        assert np.abs(out.sum(axis=1) - per_report * sizes).max() < 30
