"""Unary encoding family: SUE and OUE."""

import math

import numpy as np
import pytest

from repro.exceptions import AggregationError
from repro.mechanisms import (
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    UnaryEncoding,
    oue_probabilities,
    ue_epsilon,
)


class TestProbabilities:
    def test_oue_constants(self):
        mech = OptimizedUnaryEncoding(1.0, 16)
        assert mech.p == 0.5
        assert mech.q == pytest.approx(1 / (math.e + 1))

    def test_sue_constants(self):
        mech = SymmetricUnaryEncoding(2.0, 16)
        e_half = math.exp(1.0)
        assert mech.p == pytest.approx(e_half / (e_half + 1))
        assert mech.q == pytest.approx(1 - mech.p)

    def test_implied_epsilon_matches_theorem1(self):
        """ε = ln[p(1-q)/((1-p)q)] recovers the configured budget."""
        for eps in (0.5, 1.0, 3.0):
            oue = OptimizedUnaryEncoding(eps, 8)
            assert ue_epsilon(oue.p, oue.q) == pytest.approx(eps)
            sue = SymmetricUnaryEncoding(eps, 8)
            assert ue_epsilon(sue.p, sue.q) == pytest.approx(eps)

    def test_oue_helper(self):
        p, q = oue_probabilities(2.0)
        assert p == 0.5
        assert q == pytest.approx(1 / (math.exp(2.0) + 1))

    def test_generic_ue_validates_p_q(self):
        with pytest.raises(ValueError):
            UnaryEncoding(1.0, 4, p=0.2, q=0.5)
        with pytest.raises(ValueError):
            UnaryEncoding(1.0, 4, p=0.5, q=0.0)

    def test_ue_epsilon_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ue_epsilon(1.0, 0.5)


class TestEncoding:
    def test_one_hot(self):
        mech = OptimizedUnaryEncoding(1.0, 6)
        bits = mech.encode(4)
        assert bits.tolist() == [0, 0, 0, 0, 1, 0]

    def test_report_shape_and_dtype(self, rng):
        mech = OptimizedUnaryEncoding(1.0, 12, rng=rng)
        report = mech.privatize(3)
        assert report.shape == (12,)
        assert report.dtype == np.uint8
        assert set(np.unique(report)) <= {0, 1}

    def test_bit_flip_rates(self, rng):
        mech = OptimizedUnaryEncoding(1.0, 2, rng=rng)
        n = 20_000
        reports = np.stack([mech.privatize(0) for _ in range(n)])
        ones_rate = reports[:, 0].mean()
        zeros_rate = reports[:, 1].mean()
        assert abs(ones_rate - mech.p) < 5 * math.sqrt(mech.p * (1 - mech.p) / n)
        assert abs(zeros_rate - mech.q) < 5 * math.sqrt(mech.q * (1 - mech.q) / n)

    def test_perturb_bits_rejects_bad_shape(self, rng):
        mech = OptimizedUnaryEncoding(1.0, 4, rng=rng)
        with pytest.raises(AggregationError):
            mech.perturb_bits(np.zeros(5, dtype=np.uint8))


class TestServerSide:
    def test_aggregate_sums_bits(self):
        mech = OptimizedUnaryEncoding(1.0, 3)
        reports = [np.asarray(bits, dtype=np.uint8) for bits in ([1, 0, 1], [0, 0, 1])]
        assert mech.aggregate(reports).tolist() == [1, 0, 2]

    def test_aggregate_rejects_bad_shape(self):
        mech = OptimizedUnaryEncoding(1.0, 3)
        with pytest.raises(AggregationError):
            mech.aggregate([np.zeros(4, dtype=np.uint8)])

    @pytest.mark.parametrize(
        "reports",
        [
            [[2, 0, 255]],
            np.asarray([[1, 0, 1], [2, 0, 255]], dtype=np.uint8),
            np.asarray([[1, 0, 1], [0, -5, 0]], dtype=np.int64),
            np.asarray([[1, 0, 1], [0, 1, 7]], dtype=np.int32),
        ],
        ids=["list", "uint8", "int64-negative", "int32"],
    )
    def test_aggregate_rejects_non_binary_bits(self, reports):
        """A bit outside {0, 1} fails the fold instead of being counted
        as that many supports (or subtracting them)."""
        mech = OptimizedUnaryEncoding(1.0, 3)
        with pytest.raises(AggregationError, match="must be 0 or 1"):
            mech.aggregate_batch(reports)

    def test_aggregate_accepts_binary_bits_of_any_integer_dtype(self):
        rows = [[1, 0, 1], [0, 0, 1]]
        mech = OptimizedUnaryEncoding(1.0, 3)
        for dtype in (np.bool_, np.uint8, np.int32, np.int64):
            support = mech.aggregate_batch(np.asarray(rows, dtype=dtype))
            assert support.tolist() == [1, 0, 2], dtype

    def test_estimate_inverts_expected_support(self):
        mech = OptimizedUnaryEncoding(2.0, 4)
        true = np.asarray([500, 300, 150, 50])
        expected = true * mech.p + (1000 - true) * mech.q
        assert np.allclose(mech.estimate(expected, 1000), true)

    def test_estimate_is_unbiased(self, rng):
        mech = OptimizedUnaryEncoding(1.0, 6, rng=rng)
        true = np.asarray([5000, 2500, 1500, 700, 200, 100])
        trials = np.stack(
            [mech.estimate(mech.simulate_support(true, rng=rng), 10_000) for _ in range(400)]
        )
        se = math.sqrt(mech.variance(10_000, 5000) / 400)
        assert np.abs(trials.mean(axis=0) - true).max() < 6 * se


class TestSimulation:
    def test_simulate_matches_protocol_moments(self, rng):
        mech = OptimizedUnaryEncoding(1.0, 4, rng=rng)
        true = np.asarray([300, 200, 80, 20])
        values = np.repeat(np.arange(4), true)
        sim = np.stack([mech.simulate_support(true, rng=rng) for _ in range(300)])
        proto = np.stack(
            [
                mech.aggregate([mech.privatize(int(v)) for v in values])
                for _ in range(60)
            ]
        )
        sigma = np.sqrt(sim.var(axis=0) / 300 + proto.var(axis=0) / 60)
        assert (np.abs(sim.mean(axis=0) - proto.mean(axis=0)) < 5 * sigma + 1e-9).all()

    def test_simulate_variance_matches_theory(self, rng):
        mech = OptimizedUnaryEncoding(1.0, 2, rng=rng)
        true = np.asarray([600, 400])
        estimates = np.stack(
            [mech.estimate(mech.simulate_support(true, rng=rng), 1000) for _ in range(2000)]
        )
        theory = mech.variance(1000, true_count=600)
        empirical = estimates[:, 0].var()
        assert empirical == pytest.approx(theory, rel=0.15)


class TestVarianceOrdering:
    def test_oue_beats_sue(self):
        """OUE is the variance-optimal UE (Wang et al.)."""
        for eps in (0.5, 1.0, 2.0, 4.0):
            oue = OptimizedUnaryEncoding(eps, 32)
            sue = SymmetricUnaryEncoding(eps, 32)
            assert oue.variance(10_000) < sue.variance(10_000)

    def test_communication_is_domain_size(self):
        assert OptimizedUnaryEncoding(1.0, 37).communication_bits() == 37
