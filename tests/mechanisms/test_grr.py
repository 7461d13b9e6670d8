"""Generalized randomized response."""

import math

import numpy as np
import pytest

from repro.exceptions import AggregationError, DomainError, PrivacyBudgetError
from repro.mechanisms import (
    GeneralizedRandomResponse,
    grr_probabilities,
    route_labels_grr,
)


class TestProbabilities:
    def test_p_q_definition(self):
        mech = GeneralizedRandomResponse(1.0, 10)
        e = math.exp(1.0)
        assert mech.p == pytest.approx(e / (e + 9))
        assert mech.q == pytest.approx(1 / (e + 9))

    def test_privacy_ratio_is_exp_epsilon(self):
        for eps in (0.1, 0.5, 1.0, 4.0):
            mech = GeneralizedRandomResponse(eps, 7)
            assert mech.p / mech.q == pytest.approx(math.exp(eps))

    def test_probabilities_sum_to_one(self):
        mech = GeneralizedRandomResponse(2.0, 12)
        assert mech.p + (mech.domain_size - 1) * mech.q == pytest.approx(1.0)

    def test_helper_matches_class(self):
        p, q = grr_probabilities(1.5, 6)
        mech = GeneralizedRandomResponse(1.5, 6)
        assert (p, q) == (mech.p, mech.q)

    def test_domain_of_one_is_deterministic(self):
        mech = GeneralizedRandomResponse(1.0, 1)
        assert mech.privatize(0) == 0
        assert mech.p == 1.0


class TestValidation:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            GeneralizedRandomResponse(0.0, 5)
        with pytest.raises(PrivacyBudgetError):
            GeneralizedRandomResponse(-1.0, 5)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            GeneralizedRandomResponse(float("nan"), 5)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            GeneralizedRandomResponse(1.0, 0)

    def test_rejects_out_of_domain_value(self):
        mech = GeneralizedRandomResponse(1.0, 5)
        with pytest.raises(DomainError):
            mech.privatize(5)
        with pytest.raises(DomainError):
            mech.privatize(-1)

    def test_aggregate_rejects_foreign_report(self):
        mech = GeneralizedRandomResponse(1.0, 5)
        with pytest.raises(AggregationError):
            mech.aggregate([0, 1, 9])


class TestClientSide:
    def test_reports_in_domain(self, rng):
        mech = GeneralizedRandomResponse(1.0, 5, rng=rng)
        reports = [mech.privatize(3) for _ in range(200)]
        assert all(0 <= r < 5 for r in reports)

    def test_keep_rate_matches_p(self, rng):
        mech = GeneralizedRandomResponse(2.0, 4, rng=rng)
        n = 20_000
        keeps = sum(mech.privatize(2) == 2 for _ in range(n))
        # Binomial(n, p): 5 sigma band.
        sigma = math.sqrt(n * mech.p * (1 - mech.p))
        assert abs(keeps - n * mech.p) < 5 * sigma

    def test_privatize_many_matches_domain(self, rng):
        mech = GeneralizedRandomResponse(1.0, 6, rng=rng)
        out = mech.privatize_many(np.asarray([0, 1, 2, 3, 4, 5] * 10))
        assert len(out) == 60
        assert all(0 <= v < 6 for v in out)

    def test_privatize_many_rejects_bad_values(self, rng):
        mech = GeneralizedRandomResponse(1.0, 6, rng=rng)
        with pytest.raises(DomainError):
            mech.privatize_many(np.asarray([0, 6]))

    def test_privatize_many_returns_array(self, rng):
        mech = GeneralizedRandomResponse(1.0, 6, rng=rng)
        out = mech.privatize_many(np.asarray([0, 1, 2]))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.int64
        # Degenerate domain keeps the array contract.
        trivial = GeneralizedRandomResponse(1.0, 1, rng=rng).privatize_many([0, 0])
        assert isinstance(trivial, np.ndarray)
        assert trivial.tolist() == [0, 0]

    def test_aggregate_accepts_array_reports(self, rng):
        mech = GeneralizedRandomResponse(1.0, 6, rng=rng)
        reports = mech.privatize_many(np.asarray([0, 1, 2, 3, 4, 5]))
        np.testing.assert_array_equal(
            mech.aggregate(reports), mech.aggregate(list(reports))
        )


class TestServerSide:
    def test_aggregate_counts(self):
        mech = GeneralizedRandomResponse(1.0, 4)
        support = mech.aggregate([0, 1, 1, 3, 3, 3])
        assert support.tolist() == [1, 2, 0, 3]

    def test_estimate_is_unbiased(self, rng):
        mech = GeneralizedRandomResponse(1.0, 5, rng=rng)
        true = np.asarray([4000, 3000, 2000, 800, 200])
        trials = np.stack(
            [mech.estimate(mech.simulate_support(true, rng=rng), 10_000) for _ in range(400)]
        )
        se = np.sqrt(mech.variance(10_000, true_count=4000) / 400)
        assert np.abs(trials.mean(axis=0) - true).max() < 6 * se

    def test_estimate_roundtrip_without_noise(self):
        # With p=1 impossible; instead verify the calibration inverts the
        # expected support analytically.
        mech = GeneralizedRandomResponse(2.0, 3)
        true = np.asarray([700, 200, 100])
        expected_support = true * mech.p + (1000 - true) * mech.q
        estimate = mech.estimate(expected_support, 1000)
        assert np.allclose(estimate, true)


class TestSimulation:
    def test_simulate_preserves_total(self, rng):
        mech = GeneralizedRandomResponse(1.0, 8, rng=rng)
        true = rng.multinomial(5000, np.ones(8) / 8)
        support = mech.simulate_support(true, rng=rng)
        assert support.sum() == 5000
        assert (support >= 0).all()

    def test_simulate_matches_protocol_moments(self, rng):
        """The exact-simulation fast path and the literal per-user path
        must induce the same support distribution (mean check)."""
        mech = GeneralizedRandomResponse(1.0, 4, rng=rng)
        true = np.asarray([500, 300, 150, 50])
        values = np.repeat(np.arange(4), true)
        sim = np.stack([mech.simulate_support(true, rng=rng) for _ in range(300)])
        proto = np.stack(
            [mech.aggregate(mech.privatize_many(values)) for _ in range(300)]
        )
        # Means within 5 joint-sigma of each other.
        sigma = np.sqrt(sim.var(axis=0) / 300 + proto.var(axis=0) / 300)
        assert (np.abs(sim.mean(axis=0) - proto.mean(axis=0)) < 5 * sigma + 1e-9).all()

    def test_simulate_large_domain_is_exact_shape(self, rng):
        mech = GeneralizedRandomResponse(0.5, 10_000, rng=rng)
        true = np.zeros(10_000, dtype=np.int64)
        true[42] = 1000
        support = mech.simulate_support(true, rng=rng)
        assert support.sum() == 1000
        assert support.shape == (10_000,)

    def test_simulate_rejects_bad_counts(self, rng):
        mech = GeneralizedRandomResponse(1.0, 4, rng=rng)
        with pytest.raises(AggregationError):
            mech.simulate_support(np.asarray([1, 2, 3]), rng=rng)
        with pytest.raises(AggregationError):
            mech.simulate_support(np.asarray([1, -2, 3, 4]), rng=rng)


class TestLabelRouting:
    """The GRR label routing that PTS, its streaming session and the top-k
    miners share.  Expectations come from ε and the counts alone."""

    @pytest.mark.parametrize("c", [2, 3, 5, 10])
    def test_item_columns_are_preserved(self, c, rng):
        counts = rng.integers(0, 50, size=(c, 7))
        stayed, arrived = route_labels_grr(counts, 0.6, rng)
        assert ((stayed >= 0) & (stayed <= counts)).all()
        np.testing.assert_array_equal(
            (stayed + arrived).sum(axis=0), counts.sum(axis=0)
        )

    def test_single_label_is_the_identity(self, rng):
        counts = np.asarray([[3, 0, 5, 1]])
        state = rng.bit_generator.state
        stayed, arrived = route_labels_grr(counts, 0.7, rng)
        np.testing.assert_array_equal(stayed, counts)
        np.testing.assert_array_equal(arrived, np.zeros_like(counts))
        assert rng.bit_generator.state == state

    def test_stay_rate_matches_p(self, rng):
        c, epsilon = 4, 1.0
        p = math.exp(epsilon) / (math.exp(epsilon) + c - 1)
        counts = rng.multinomial(1_200_000, np.ones(c * 6) / (c * 6))
        stayed, _arrived = route_labels_grr(counts.reshape(c, 6), p, rng)
        n = counts.sum()
        standard_error = math.sqrt(p * (1.0 - p) / n)
        assert abs(stayed.sum() / n - p) <= 5.0 * standard_error


class TestAccounting:
    def test_variance_positive_and_decreasing_in_epsilon(self):
        variances = [
            GeneralizedRandomResponse(eps, 10).variance(1000) for eps in (0.5, 1, 2, 4)
        ]
        assert all(v > 0 for v in variances)
        assert variances == sorted(variances, reverse=True)

    def test_communication_bits(self):
        assert GeneralizedRandomResponse(1.0, 1024).communication_bits() == 10
        assert GeneralizedRandomResponse(1.0, 2).communication_bits() == 1
