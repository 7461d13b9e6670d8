"""The one-hot perturbation law, recomputed independently of the kernel.

Every unary-encoded report (OUE, SUE, the validity perturbation and the
correlated mechanism's item stage) draws one 32-bit cell per bit — two
cells per 64-bit word of the caller's generator, low half first — and
sets the bit when its cell is below ``floor(p * 2**32)`` at the encoded
position or ``ceil(q * 2**32)`` elsewhere.  These tests rebuild the
reports from raw words with shifts and masks, check the rounding
directions against the nominal probabilities and budget, and check the
set-bit frequencies over millions of cells.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.mechanisms import (
    CorrelatedPerturbation,
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    ValidityPerturbation,
)
from repro.mechanisms.backends.numpy_backend import unary_cells
from repro.mechanisms.kernels import perturb_onehot_batch
from repro.types import INVALID_ITEM

SCALE = 2**32
EPSILONS = [0.01, 0.5, 1.0, 4.0, 8.0, 20.0]


def expected_reports(seed, positions, width, p, q):
    """Reports rebuilt from the generator's raw 64-bit words."""
    rows = positions.size
    words = np.random.default_rng(seed).integers(
        0, 2**64, size=(rows, (width + 1) // 2), dtype=np.uint64
    )
    cells = np.empty((rows, 2 * words.shape[1]), dtype=np.uint64)
    cells[:, 0::2] = words & np.uint64(0xFFFFFFFF)
    cells[:, 1::2] = words >> np.uint64(32)
    thresholds = np.full((rows, width), math.ceil(q * SCALE), dtype=np.uint64)
    thresholds[np.arange(rows), positions] = math.floor(p * SCALE)
    return (cells[:, :width] < thresholds).astype(np.uint8)


def _mechanism(kind, width, epsilon, seed):
    if kind == "oue":
        return OptimizedUnaryEncoding(epsilon, width, rng=seed)
    if kind == "sue":
        return SymmetricUnaryEncoding(epsilon, width, rng=seed)
    return ValidityPerturbation(epsilon, width - 1, rng=seed)


def _cases():
    for kind in ("oue", "sue", "vp"):
        for width in (1, 2, 9, 257):
            if kind == "vp" and width == 1:
                continue  # d + 1 bits with d >= 1: VP reports are >= 2 wide
            yield kind, width


class TestReportsFromRawWords:
    """Kernel, batch and per-user reports all equal the rebuilt law."""

    @pytest.mark.parametrize("kind, width", list(_cases()))
    def test_batch_kernel_and_loop_match_raw_words(self, kind, width):
        seed, epsilon, n = 31 + width, 1.0, 60
        mech = _mechanism(kind, width, epsilon, seed)
        d = mech.domain_size
        values = np.random.default_rng(5).integers(0, d, size=n)
        positions = values
        if kind == "vp":
            invalid = np.random.default_rng(6).random(n) < 0.25
            values = np.where(invalid, INVALID_ITEM, values)
            positions = np.where(invalid, d, values)
        expected = expected_reports(seed, positions, width, mech.p, mech.q)

        kernel = perturb_onehot_batch(
            positions, width, mech.p, mech.q, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(kernel, expected)
        assert kernel.dtype == np.uint8

        np.testing.assert_array_equal(mech.privatize_many(values), expected)

        looped = _mechanism(kind, width, epsilon, seed)
        rows = np.stack([looped.privatize(int(v)) for v in values])
        np.testing.assert_array_equal(rows, expected)
        assert rows.dtype == np.uint8


def _probabilities():
    for epsilon in EPSILONS:
        oue = OptimizedUnaryEncoding(epsilon, 4)
        sue = SymmetricUnaryEncoding(epsilon, 4)
        vp = ValidityPerturbation(epsilon, 4)
        cp = CorrelatedPerturbation(1.0, epsilon, n_classes=3, n_items=4)
        yield "oue", epsilon, oue.p, oue.q
        yield "sue", epsilon, sue.p, sue.q
        yield "vp", epsilon, vp.p, vp.q
        yield "cp", epsilon, cp.p2, cp.q2


class TestRoundingDirections:
    """Integer thresholds move each probability by under 2**-32, in the
    direction that can only shrink the realised budget."""

    @pytest.mark.parametrize(
        "kind, epsilon, p, q",
        list(_probabilities()),
        ids=[f"{kind}-eps{eps}" for kind, eps, _, _ in _probabilities()],
    )
    def test_realised_law_within_one_cell_and_budget(self, kind, epsilon, p, q):
        _, p_cut, q_cut = unary_cells(np.random.default_rng(0), 0, 1, p, q)
        assert p_cut == math.floor(p * SCALE)
        assert q_cut == math.ceil(q * SCALE)

        p_real, q_real = Fraction(p_cut, SCALE), Fraction(q_cut, SCALE)
        one_cell = Fraction(1, SCALE)
        assert Fraction(q) <= q_real < Fraction(q) + one_cell
        assert Fraction(p) - one_cell < p_real <= Fraction(p)

        realised_odds = p_real * (1 - q_real) / ((1 - p_real) * q_real)
        nominal_odds = Fraction(p) * (1 - Fraction(q)) / (
            (1 - Fraction(p)) * Fraction(q)
        )
        assert realised_odds <= nominal_odds
        assert math.log(realised_odds) <= epsilon


class TestSetBitFrequencies:
    """Over ~5M cells the set-bit rate sits within 5 SE of the law."""

    ROWS, WIDTH = 20_000, 257

    @pytest.mark.parametrize(
        "mech",
        [OptimizedUnaryEncoding(0.5, 257), SymmetricUnaryEncoding(1.0, 257)],
        ids=["oue-eps0.5", "sue-eps1"],
    )
    def test_frequencies_match_p_and_q(self, mech):
        positions = np.random.default_rng(11).integers(0, self.WIDTH, self.ROWS)
        bits = perturb_onehot_batch(
            positions, self.WIDTH, mech.p, mech.q, np.random.default_rng(12)
        )
        hot = np.zeros(bits.shape, dtype=bool)
        hot[np.arange(self.ROWS), positions] = True
        assert bits.size >= 5_000_000

        for mask, rate in ((hot, mech.p), (~hot, mech.q)):
            cells = int(mask.sum())
            observed = bits[mask].sum() / cells
            standard_error = math.sqrt(rate * (1.0 - rate) / cells)
            assert abs(observed - rate) <= 5.0 * standard_error
