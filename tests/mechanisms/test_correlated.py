"""Correlated perturbation mechanism (paper Section IV-B, Eq. 4)."""

import numpy as np
import pytest

from repro.exceptions import AggregationError, ConfigurationError, DomainError
from repro.mechanisms import CorrelatedPerturbation
from repro.types import INVALID_ITEM


@pytest.fixture
def mech(rng):
    return CorrelatedPerturbation(1.0, 1.0, n_classes=3, n_items=4, rng=rng)


@pytest.fixture
def pair_counts(rng):
    return rng.multinomial(12_000, np.ones(12) / 12).reshape(3, 4)


class TestConstruction:
    def test_total_budget(self, mech):
        assert mech.epsilon == pytest.approx(2.0)

    def test_rejects_single_class(self):
        with pytest.raises(ConfigurationError):
            CorrelatedPerturbation(1.0, 1.0, n_classes=1, n_items=4)

    def test_probabilities_match_components(self, mech):
        import math

        e = math.e
        assert mech.p1 == pytest.approx(e / (e + 2))
        assert mech.p2 == 0.5
        assert mech.q2 == pytest.approx(1 / (e + 1))


class TestClientSide:
    def test_report_shape(self, mech):
        label, bits = mech.privatize(1, 2)
        assert 0 <= label < 3
        assert bits.shape == (5,)

    def test_rejects_bad_label(self, mech):
        with pytest.raises(DomainError):
            mech.privatize(3, 0)

    def test_invalid_item_allowed(self, mech):
        label, bits = mech.privatize(0, INVALID_ITEM)
        assert bits.shape == (5,)

    def test_label_flip_invalidates_item(self, rng):
        """When the perturbed label differs, the encoded item must be the
        invalid flag — check via the bit-set rates at position item."""
        mech = CorrelatedPerturbation(4.0, 4.0, n_classes=2, n_items=2, rng=rng)
        n = 8000
        flipped_item_bits = []
        for _ in range(n):
            label, bits = mech.privatize(0, 1)
            if label != 0:
                flipped_item_bits.append(int(bits[1]))
        # For flipped labels the item bit is background noise only (rate q2).
        rate = np.mean(flipped_item_bits)
        se = np.sqrt(mech.q2 * (1 - mech.q2) / len(flipped_item_bits))
        assert abs(rate - mech.q2) < 5 * se


class TestAggregation:
    def test_aggregate_shapes(self, mech):
        reports = [mech.privatize(l, i) for l in range(3) for i in range(4)]
        support = mech.aggregate(reports)
        assert support.item_support.shape == (3, 4)
        assert support.flag_support.shape == (3,)
        assert support.label_counts.shape == (3,)
        assert support.n_users == 12
        assert support.label_counts.sum() == 12

    def test_aggregate_rejects_bad_bits(self, mech):
        with pytest.raises(AggregationError):
            mech.aggregate([(0, np.zeros(4, dtype=np.uint8))])

    def test_aggregate_rejects_bad_label(self, mech):
        with pytest.raises(AggregationError):
            mech.aggregate([(7, np.zeros(5, dtype=np.uint8))])

    def test_aggregate_rejects_non_binary_bits(self, mech):
        """A bit of 9 would count as nine supports; the fold fails
        instead, on both report forms."""
        bits = np.zeros((2, 5), dtype=np.uint8)
        bits[1, 2] = 9
        with pytest.raises(AggregationError, match="must be 0 or 1"):
            mech.aggregate_batch((np.asarray([0, 1]), bits))
        with pytest.raises(AggregationError, match="must be 0 or 1"):
            mech.aggregate([(0, bits[0]), (1, bits[1])])

    def test_supports_merge(self, mech, pair_counts, rng):
        a = mech.simulate_support(pair_counts, rng=rng)
        b = mech.simulate_support(pair_counts, rng=rng)
        merged = a + b
        assert merged.n_users == a.n_users + b.n_users
        assert (merged.item_support == a.item_support + b.item_support).all()


class TestEquation4:
    def test_expected_support_formula(self, mech):
        """The three-population decomposition in the module docstring."""
        f, n, n_total = 500.0, 2000.0, 9000.0
        expected = mech.expected_support(f, n, n_total)
        manual = (
            f * mech.p1 * (1 - mech.q2) * mech.p2
            + (n - f) * mech.p1 * (1 - mech.q2) * mech.q2
            + (n_total - n) * mech.q1 * (1 - mech.p2) * mech.q2
        )
        assert expected == pytest.approx(manual)

    def test_calibration_inverts_expectation(self, mech, pair_counts):
        """Feeding exact expected supports through Eq. (4) returns the
        truth — the algebraic core of Theorem 3."""
        from repro.mechanisms import CorrelatedSupport

        counts = pair_counts.astype(np.float64)
        n_total = counts.sum()
        class_sizes = counts.sum(axis=1)
        item_support = np.empty_like(counts)
        for c in range(3):
            for i in range(4):
                item_support[c, i] = mech.expected_support(
                    counts[c, i], class_sizes[c], n_total
                )
        label_counts = class_sizes * mech.p1 + (n_total - class_sizes) * mech.q1
        support = CorrelatedSupport(item_support, np.zeros(3), label_counts, int(n_total))
        estimate = mech.estimate(support)
        assert np.allclose(estimate, counts)

    def test_estimate_is_unbiased(self, mech, pair_counts, rng):
        """Theorem 3 empirically: the Monte-Carlo mean of Eq. (4) matches
        the true pair counts."""
        trials = np.stack(
            [
                mech.estimate(mech.simulate_support(pair_counts, rng=rng))
                for _ in range(500)
            ]
        )
        n_total = pair_counts.sum()
        worst_var = mech.variance(
            float(pair_counts.max()), float(pair_counts.sum(axis=1).max()), n_total
        )
        se = np.sqrt(worst_var / 500)
        assert np.abs(trials.mean(axis=0) - pair_counts).max() < 6 * se

    def test_variance_tracks_theorem8(self, mech, rng):
        """Empirical variance of one cell tracks Eq. (5).

        Eq. (5) sums the support and class-size terms as if independent;
        in reality ``Cov(f̃, ñ) > 0`` and the estimator *subtracts* the
        class correction, so the true variance sits somewhat below the
        closed form.  We assert the empirical value lands in
        ``[0.5, 1.1] x`` theory — same order, never above.
        """
        pair_counts = np.asarray([[3000, 500, 300, 200], [2000, 1000, 500, 500], [1500, 1500, 500, 500]])
        estimates = np.stack(
            [
                mech.estimate(mech.simulate_support(pair_counts, rng=rng))[0, 0]
                for _ in range(2500)
            ]
        )
        theory = mech.variance(3000.0, 4000.0, float(pair_counts.sum()))
        assert 0.5 * theory < estimates.var() < 1.1 * theory


class TestProtocolAgreement:
    def test_simulate_matches_protocol_moments(self, rng):
        mech = CorrelatedPerturbation(1.0, 1.0, n_classes=2, n_items=3, rng=rng)
        counts = np.asarray([[300, 100, 50], [120, 200, 30]])
        labels = np.repeat([0, 1], counts.sum(axis=1))
        items = np.concatenate([np.repeat(np.arange(3), counts[c]) for c in range(2)])
        proto = np.stack(
            [
                mech.aggregate(
                    [mech.privatize(int(l), int(i)) for l, i in zip(labels, items)]
                ).item_support
                for _ in range(60)
            ]
        )
        sim = np.stack(
            [mech.simulate_support(counts, rng=rng).item_support for _ in range(300)]
        )
        sigma = np.sqrt(sim.var(axis=0) / 300 + proto.var(axis=0) / 60)
        assert (np.abs(sim.mean(axis=0) - proto.mean(axis=0)) < 5 * sigma + 1e-9).all()

    def test_simulate_with_pre_invalid_items(self, mech, rng):
        counts = np.asarray([[100, 50, 25, 25], [80, 80, 20, 20], [50, 50, 50, 50]])
        invalid = np.asarray([40, 0, 10])
        support = mech.simulate_support(counts, rng=rng, invalid_per_class=invalid)
        assert support.n_users == counts.sum() + invalid.sum()
        assert support.label_counts.sum() == support.n_users

    def test_simulate_rejects_shape_mismatch(self, mech, rng):
        with pytest.raises(AggregationError):
            mech.simulate_support(np.zeros((2, 4), dtype=np.int64), rng=rng)

    def test_communication_bits(self, mech):
        # 2 bits of label + 5 item/flag bits.
        assert mech.communication_bits() == 2 + 5
