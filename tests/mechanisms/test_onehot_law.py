"""The one-hot perturbation law, recomputed independently of the kernel.

Every unary-encoded report (OUE, SUE, the validity perturbation and the
correlated mechanism's item stage) draws one byte cell per bit — eight
cells per 64-bit word of the caller's generator, least significant byte
first, ``ceil(width / 8)`` words per row.  A bit's threshold is
``floor(p * 2**32)`` at the encoded position and ``ceil(q * 2**32)``
elsewhere; the bit is set when its byte is below the threshold's high
byte, and where the two tie, when a fresh 24-bit low part (the top 24
bits of one more word, drawn after all of the call's row words, one per
tie in row-major order) is below the threshold's low 24 bits.  These
tests rebuild the reports from raw words with shifts and masks, prove
with exact fractions that every bit is set with probability exactly
threshold / 2**32, check the rounding directions against the nominal
probabilities and budget, and check the set-bit frequencies over
millions of cells.
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
from repro.mechanisms.backends.numpy_backend import unary_bits, unary_cells
from repro.mechanisms.kernels import perturb_onehot_batch
from repro.types import INVALID_ITEM

SCALE = 2**32
EPSILONS = [0.01, 0.5, 1.0, 4.0, 8.0, 20.0]


def rebuild_rows(rng, positions, width, p, q):
    """One kernel call's reports rebuilt from the generator's raw words:
    the row words first, then one word per tied cell."""
    rows = positions.size
    n_words = (width + 7) // 8
    words = rng.integers(0, 2**64, size=(rows, n_words), dtype=np.uint64)
    cells = np.empty((rows, 8 * n_words), dtype=np.uint64)
    for byte in range(8):
        cells[:, byte::8] = (words >> np.uint64(8 * byte)) & np.uint64(0xFF)
    cells = cells[:, :width]
    thresholds = np.full((rows, width), math.ceil(q * SCALE), dtype=np.uint64)
    thresholds[np.arange(rows), positions] = math.floor(p * SCALE)
    high = thresholds >> np.uint64(24)
    bits = cells < high
    tied = np.flatnonzero(cells == high)
    low = rng.integers(0, 2**64, size=tied.size, dtype=np.uint64) >> np.uint64(40)
    bits.reshape(-1)[tied] = low < (thresholds.reshape(-1)[tied] & np.uint64(0xFFFFFF))
    return bits.astype(np.uint8)


def expected_reports(seed, positions, width, p, q):
    """A batch's reports: one call over all rows."""
    return rebuild_rows(np.random.default_rng(seed), positions, width, p, q)


def expected_loop(seed, positions, width, p, q):
    """The per-user loop's reports: one call per row, in turn."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rebuild_rows(rng, positions[u : u + 1], width, p, q)
         for u in range(positions.size)]
    ).reshape(positions.size, width)


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
        assert (expected == 1).any() and (expected == 0).any()

        kernel = perturb_onehot_batch(
            positions, width, mech.p, mech.q, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(kernel, expected)
        assert kernel.dtype == np.uint8

        np.testing.assert_array_equal(mech.privatize_many(values), expected)

        looped = _mechanism(kind, width, epsilon, seed)
        rows = np.stack([looped.privatize(int(v)) for v in values])
        np.testing.assert_array_equal(
            rows, expected_loop(seed, positions, width, mech.p, mech.q)
        )
        assert rows.dtype == np.uint8

    def test_workspace_output_equals_fresh_output(self):
        """Privatising into a caller's bool buffer gives the same bits
        and consumes the same draws."""
        positions = np.random.default_rng(1).integers(0, 40, size=300)
        fresh_rng, into_rng = np.random.default_rng(2), np.random.default_rng(2)
        fresh = perturb_onehot_batch(positions, 40, 0.5, 0.2, fresh_rng)
        out = np.ones((300, 40), dtype=np.bool_)
        into = perturb_onehot_batch(positions, 40, 0.5, 0.2, into_rng, out)
        assert np.shares_memory(into, out)
        np.testing.assert_array_equal(into, fresh)
        assert into_rng.bit_generator.state == fresh_rng.bit_generator.state

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((300, 41), dtype=np.bool_),
            np.empty((300, 40), dtype=np.uint8),
            np.empty((300, 80), dtype=np.bool_)[:, ::2],
        ],
        ids=["shape", "dtype", "strided"],
    )
    def test_workspace_must_be_a_contiguous_bool_matrix(self, out):
        positions = np.zeros(300, dtype=np.int64)
        with pytest.raises(ValueError, match="C-contiguous"):
            perturb_onehot_batch(positions, 40, 0.5, 0.2, np.random.default_rng(2), out)


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


class ScriptedWords:
    """Stands in for the generator: the first draw is ``row_words``, and
    every later word (one per tied cell) carries ``low`` in its top 24
    bits.  ``tie_words`` counts those later words."""

    def __init__(self, row_words, low):
        self.row_words = np.asarray(row_words, dtype=np.uint64)
        self.low = low
        self.tie_words = None

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**64, np.uint64)
        if self.tie_words is None:
            self.tie_words = 0
            return self.row_words.reshape(size)
        self.tie_words += size
        return np.full(size, self.low << 40, dtype=np.uint64)


def every_byte_bits(cut, encoded, low):
    """Kernel bits of one 256-bit row whose cell ``b`` holds byte ``b``,
    every cell compared with ``cut`` (as the encoded bit or as the
    others), with ``low`` as every tie's low part; and the tie words
    drawn.  The unused threshold is 2**32, whose high byte no cell ties."""
    rng = ScriptedWords(np.arange(256, dtype=np.uint8).view("<u8"), low)
    cells, _, _ = unary_cells(rng, 1, 256, 1.0, 0.5)
    columns = np.arange(256) if encoded else np.zeros(0, dtype=np.int64)
    hot = (np.zeros_like(columns), columns)
    p_cut, q_cut = (cut, SCALE) if encoded else (SCALE, cut)
    out = np.empty((1, 256), dtype=np.bool_)
    unary_bits(cells, 256, hot, p_cut, q_cut, rng, out)
    return out[0], rng.tie_words


def _thresholds():
    for kind, epsilon, p, q in _probabilities():
        _, p_cut, q_cut = unary_cells(np.random.default_rng(0), 0, 1, p, q)
        yield f"{kind}-eps{epsilon}-p", p_cut, True
        yield f"{kind}-eps{epsilon}-q", q_cut, False
    edges = {
        "p-is-1": SCALE,
        "zero": 0,
        "high-byte-0": 5,
        "high-byte-255": 255 * 2**24 + 12345,
        "largest-below-1": SCALE - 1,
        "tie-with-zero-low": 2**31,
    }
    for name, cut in edges.items():
        yield f"{name}-p", cut, True
        yield f"{name}-q", cut, False


class TestExactLaw:
    """Each bit is set with probability exactly threshold / 2**32.

    A uniform byte below the threshold's high byte sets the bit, one
    above clears it, and the tie byte (probability 1/256) sets it
    exactly when its uniform 24-bit low part is below the threshold's
    low part.  The test runs the kernel on every byte value and on the
    low parts either side of the cut, then sums those outcomes in exact
    fractions."""

    @pytest.mark.parametrize(
        "cut, encoded",
        [case[1:] for case in _thresholds()],
        ids=[case[0] for case in _thresholds()],
    )
    def test_set_probability_is_threshold_over_two_to_the_32(self, cut, encoded):
        high, low_cut = divmod(cut, 2**24)
        bits, tie_words = every_byte_bits(cut, encoded, low=0)
        assert tie_words == (1 if high < 256 else 0)
        assert bits[: min(high, 256)].all()
        assert not bits[high + 1 :].any()

        probability = Fraction(int(bits[:high].sum()), 256)
        if high < 256:
            # The tie bit follows its low part: set exactly below the cut.
            for low in {0, low_cut - 1, low_cut, low_cut + 1, 2**24 - 1}:
                if 0 <= low < 2**24:
                    tie_bit = every_byte_bits(cut, encoded, low)[0][high]
                    assert tie_bit == (low < low_cut), low
            probability += Fraction(1, 256) * Fraction(low_cut, 2**24)
        assert probability == Fraction(cut, SCALE)


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
