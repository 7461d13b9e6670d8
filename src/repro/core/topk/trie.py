"""Bit-string helpers for PEM-style prefix mining.

PEM (Wang et al., TDSC 2021) converts top-k item mining into frequent
*sequence* mining: items are encoded as fixed-length bit strings, the
candidate prefixes grow one level per iteration, and low-support
prefixes are pruned.  The miners (:mod:`repro.core.topk.pem`,
:mod:`repro.core.topk.pruning` and the streaming top-k session) keep
each level's prefixes as a flat integer array; this module encodes,
truncates, extends and counts them.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import DomainError


def bits_needed(domain_size: int) -> int:
    """Number of bits encoding the domain ``[0, domain_size)`` (>= 1)."""
    if domain_size < 1:
        raise DomainError(f"domain size must be >= 1, got {domain_size}")
    return max(1, (domain_size - 1).bit_length())


def prefix_of(values: np.ndarray, total_bits: int, prefix_bits: int) -> np.ndarray:
    """Top ``prefix_bits`` bits of each value's ``total_bits`` encoding."""
    if not 0 <= prefix_bits <= total_bits:
        raise DomainError(
            f"prefix_bits must be in [0, {total_bits}], got {prefix_bits}"
        )
    return np.asarray(values, dtype=np.int64) >> (total_bits - prefix_bits)


def extend_prefixes(prefixes: np.ndarray, extension_bits: int = 1) -> np.ndarray:
    """All one-level extensions of each prefix (sorted).

    Each prefix ``p`` yields ``p << e | t`` for ``t in [0, 2^e)``.
    """
    if extension_bits < 1:
        raise DomainError(f"extension_bits must be >= 1, got {extension_bits}")
    prefixes = np.asarray(prefixes, dtype=np.int64).ravel()
    tails = np.arange(1 << extension_bits, dtype=np.int64)
    return np.sort(
        ((prefixes[:, None] << extension_bits) | tails[None, :]).ravel()
    )


def prefix_counts(
    item_counts: np.ndarray, total_bits: int, prefix_bits: int
) -> np.ndarray:
    """Aggregate per-item counts into per-prefix counts.

    Returns an array of length ``2^prefix_bits``; entry ``p`` is the total
    count of items whose encoding starts with ``p``.
    """
    counts = np.asarray(item_counts, dtype=np.int64).ravel()
    if counts.size > (1 << total_bits):
        raise DomainError(
            f"{counts.size} items do not fit in {total_bits} bits"
        )
    prefixes = prefix_of(np.arange(counts.size), total_bits, prefix_bits)
    return np.bincount(prefixes, weights=counts.astype(np.float64), minlength=1 << prefix_bits).astype(
        np.int64
    )
