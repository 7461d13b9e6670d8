"""Validity perturbation mechanism (paper Section IV-A)."""

import math

import numpy as np
import pytest

from repro.exceptions import AggregationError, DomainError
from repro.mechanisms import ValidityPerturbation
from repro.types import INVALID_ITEM


class TestEncoding:
    def test_valid_item_sets_item_bit(self):
        mech = ValidityPerturbation(1.0, 4)
        assert mech.encode(2).tolist() == [0, 0, 1, 0, 0]

    def test_invalid_item_sets_flag(self):
        mech = ValidityPerturbation(1.0, 4)
        assert mech.encode(INVALID_ITEM).tolist() == [0, 0, 0, 0, 1]

    def test_report_length_is_domain_plus_flag(self):
        mech = ValidityPerturbation(1.0, 9)
        assert mech.report_length == 10
        assert mech.flag_position == 9
        assert mech.privatize(0).shape == (10,)

    def test_rejects_out_of_domain(self):
        mech = ValidityPerturbation(1.0, 4)
        with pytest.raises(DomainError):
            mech.encode(4)

    def test_oue_probabilities_imply_epsilon(self):
        """VP is OUE over d+1 values: ε = ln[p(1-q)/((1-p)q)] (Theorem 1)."""
        for eps in (0.5, 1.0, 3.0):
            mech = ValidityPerturbation(eps, 8)
            implied = math.log(mech.p * (1 - mech.q) / ((1 - mech.p) * mech.q))
            assert implied == pytest.approx(eps)


class TestAggregation:
    def test_flag_filtering(self, rng):
        """A report with a set flag contributes only to the flag support."""
        mech = ValidityPerturbation(1.0, 3, rng=rng)
        flagged = np.asarray([1, 1, 1, 1], dtype=np.uint8)
        clean = np.asarray([1, 0, 1, 0], dtype=np.uint8)
        support = mech.aggregate([flagged, clean])
        assert support.tolist() == [1, 0, 1, 1]

    def test_aggregate_rejects_bad_shape(self):
        mech = ValidityPerturbation(1.0, 3)
        with pytest.raises(AggregationError):
            mech.aggregate([np.zeros(3, dtype=np.uint8)])

    @pytest.mark.parametrize(
        "bad",
        [[7, 0, 0, 0], [1, 0, 0, 2], [0, -1, 0, 0]],
        ids=["item-bit-7", "flag-2", "negative"],
    )
    def test_aggregate_rejects_non_binary_bits(self, bad):
        """An item bit of 7 would count seven times and a flag of 2 would
        read as set; both fail the fold instead."""
        mech = ValidityPerturbation(1.0, 3)
        clean = np.asarray([1, 0, 1, 0], dtype=np.uint8)
        with pytest.raises(AggregationError, match="must be 0 or 1"):
            mech.aggregate_batch(np.asarray([clean, bad], dtype=np.int64))
        with pytest.raises(AggregationError, match="must be 0 or 1"):
            mech.aggregate([clean, np.asarray(bad)])

    def test_estimate_unbiased_with_invalid_users(self, rng):
        """The calibration removes the invalid users' noise in expectation
        — the mechanism's whole purpose."""
        mech = ValidityPerturbation(1.0, 4, rng=rng)
        true = np.asarray([3000, 1500, 400, 100])
        m = 5000  # as many invalid users as valid ones
        trials = np.stack(
            [
                mech.estimate(mech.simulate_support(true, rng=rng, n_invalid=m), 10_000)
                for _ in range(500)
            ]
        )
        se = math.sqrt(mech.variance(10_000, 3000) / 500)
        assert np.abs(trials.mean(axis=0) - true).max() < 6 * se

    def test_invalid_count_estimate(self, rng):
        mech = ValidityPerturbation(1.0, 4, rng=rng)
        true = np.asarray([500, 300, 100, 100])
        estimates = [
            mech.estimate_invalid_count(
                mech.simulate_support(true, rng=rng, n_invalid=2000), 3000
            )
            for _ in range(300)
        ]
        assert np.mean(estimates) == pytest.approx(2000, rel=0.05)


class TestTheorem5:
    def test_invalid_noise_expectation_formula(self):
        mech = ValidityPerturbation(1.0, 10)
        m = 1000
        assert mech.invalid_noise_expectation(m) == pytest.approx(
            m * mech.q * (1 - mech.p)
        )

    def test_invalid_noise_beats_random_replacement(self):
        """Theorem 5 < Theorem 4: the VP noise is strictly smaller than
        random-replacement noise for any domain size."""
        mech = ValidityPerturbation(1.0, 10)
        m, d = 1000, 10
        random_replacement = m * mech.q + (m / d) * (mech.p - mech.q)
        assert mech.invalid_noise_expectation(m) < random_replacement

    def test_empirical_invalid_noise(self, rng):
        """Measured raw-count noise from invalid users matches mq(1-p)."""
        mech = ValidityPerturbation(1.0, 5, rng=rng)
        m = 4000
        supports = np.stack(
            [
                mech.simulate_support(np.zeros(5, dtype=np.int64), rng=rng, n_invalid=m)
                for _ in range(300)
            ]
        )
        per_item = supports[:, :5].mean(axis=0)
        expected = m * mech.q * (1 - mech.p)
        assert np.abs(per_item - expected).max() < 5 * math.sqrt(expected / 300) + 1.0


class TestProtocolAgreement:
    def test_simulate_matches_protocol_moments(self, rng):
        mech = ValidityPerturbation(1.0, 3, rng=rng)
        true = np.asarray([200, 120, 80])
        values = np.concatenate([np.repeat(np.arange(3), true), np.full(100, INVALID_ITEM)])
        proto = np.stack(
            [
                mech.aggregate([mech.privatize(int(v)) for v in values])
                for _ in range(60)
            ]
        )
        sim = np.stack(
            [mech.simulate_support(true, rng=rng, n_invalid=100) for _ in range(300)]
        )
        sigma = np.sqrt(sim.var(axis=0) / 300 + proto.var(axis=0) / 60)
        assert (np.abs(sim.mean(axis=0) - proto.mean(axis=0)) < 5 * sigma + 1e-9).all()

    def test_simulate_rejects_negative_invalid(self, rng):
        mech = ValidityPerturbation(1.0, 3, rng=rng)
        with pytest.raises(DomainError):
            mech.simulate_support(np.asarray([1, 2, 3]), rng=rng, n_invalid=-1)
