"""Bit-string helpers for prefix mining."""

import numpy as np
import pytest

from repro.core.topk import bits_needed, extend_prefixes, prefix_counts, prefix_of
from repro.exceptions import DomainError


class TestBitHelpers:
    def test_bits_needed(self):
        assert bits_needed(1) == 1
        assert bits_needed(2) == 1
        assert bits_needed(3) == 2
        assert bits_needed(1024) == 10
        assert bits_needed(1025) == 11

    def test_bits_needed_rejects_zero(self):
        with pytest.raises(DomainError):
            bits_needed(0)

    def test_prefix_of(self):
        values = np.asarray([0b1011, 0b0100])
        assert prefix_of(values, 4, 2).tolist() == [0b10, 0b01]
        assert prefix_of(values, 4, 4).tolist() == [0b1011, 0b0100]
        assert prefix_of(values, 4, 0).tolist() == [0, 0]

    def test_prefix_of_rejects_bad_length(self):
        with pytest.raises(DomainError):
            prefix_of(np.asarray([1]), 4, 5)

    def test_extend_prefixes_one_bit(self):
        assert extend_prefixes(np.asarray([0b10]), 1).tolist() == [0b100, 0b101]

    def test_extend_prefixes_two_bits(self):
        out = extend_prefixes(np.asarray([1]), 2)
        assert out.tolist() == [0b100, 0b101, 0b110, 0b111]

    def test_extend_rejects_zero_bits(self):
        with pytest.raises(DomainError):
            extend_prefixes(np.asarray([1]), 0)

    def test_prefix_counts_aggregates_subtrees(self):
        counts = np.asarray([5, 3, 2, 1])  # items 00,01,10,11
        assert prefix_counts(counts, 2, 1).tolist() == [8, 3]
        assert prefix_counts(counts, 2, 2).tolist() == [5, 3, 2, 1]

    def test_prefix_counts_rejects_overflow(self):
        with pytest.raises(DomainError):
            prefix_counts(np.ones(5), 2, 1)
