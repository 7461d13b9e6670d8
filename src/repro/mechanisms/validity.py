"""Validity perturbation mechanism (paper Section IV-A).

Unary encoding over ``d + 1`` bits whose last bit is a *validity flag*:

* a **valid** item ``v`` encodes as the one-hot vector with bit ``v`` set
  and the flag clear;
* an **invalid** item (pruned from the candidate set, or disqualified by a
  perturbed label in the correlated mechanism) encodes as the all-zero
  vector with only the flag set.

Every bit is then flipped with the OUE probabilities ``p = 1/2``,
``q = 1/(e^eps + 1)``, so the mechanism satisfies ε-LDP (paper Theorem 1 —
the encoding *is* OUE over a ``(d+1)``-value domain).

Aggregation is **flag-filtered**: a report supports item ``v`` only when
bit ``v`` is set *and* the perturbed validity flag is clear.  This is what
produces the paper's Theorem 5/7 accounting — an invalid user pollutes a
valid item with probability ``q(1-p)`` (the background flip ``q`` must
coincide with the flag surviving as 0, probability ``1-p``), versus
``q + (p-q)/d`` for the conventional "replace with a random valid item"
trick (Theorem 4).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..exceptions import AggregationError, DomainError
from ..rng import RngLike
from ..types import INVALID_ITEM
from .backends.numpy_backend import byte_lane_sums, perturb_encoded
from .base import FrequencyOracle
from .kernels import as_bit_matrix, perturb_onehot_batch


def flag_filtered_support(bits: np.ndarray, domain_size: int) -> np.ndarray:
    """Flag-filtered fold of ``(batch, d + 1)`` validity reports.

    Positions ``0..d-1`` sum the item bits of reports whose perturbed flag
    is clear; position ``d`` counts the reports whose flag is set.  The
    one vectorised statement of the paper's Section IV-A server law,
    folded by :meth:`ValidityPerturbation.aggregate_batch`: the clear-flag
    rows are gathered and summed eight bits per add by
    :func:`~repro.mechanisms.backends.numpy_backend.byte_lane_sums`.
    Any bit outside {0, 1} raises :class:`AggregationError`.
    """
    bits = as_bit_matrix(bits, domain_size + 1, "validity")
    keep = np.flatnonzero(~bits[:, domain_size])
    support = np.empty(domain_size + 1, dtype=np.int64)
    support[:domain_size] = byte_lane_sums(
        bits[:, :domain_size], (0, keep.size), keep
    )[0]
    support[domain_size] = bits.shape[0] - keep.size
    return support


class ValidityPerturbation(FrequencyOracle):
    """OUE over ``d`` valid items plus one validity-flag position.

    ``domain_size`` counts only the valid items; reports have ``d + 1``
    bits.  :meth:`privatize` accepts ``repro.types.INVALID_ITEM`` (or any
    negative value) to mark the user's item invalid.
    """

    name = "vp"

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        p: Optional[float] = None,
        q: Optional[float] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(epsilon, domain_size, rng)
        self.p = 0.5 if p is None else float(p)
        self.q = 1.0 / (math.exp(self.epsilon) + 1.0) if q is None else float(q)
        if not (0.0 < self.q < self.p <= 1.0):
            raise ValueError(f"need 0 < q < p <= 1, got p={self.p}, q={self.q}")

    @property
    def report_length(self) -> int:
        """Number of bits in one report (items + validity flag)."""
        return self.domain_size + 1

    @property
    def flag_position(self) -> int:
        """Index of the validity-flag bit."""
        return self.domain_size

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def encode(self, value: int) -> np.ndarray:
        """Encode a valid item or ``INVALID_ITEM`` into ``d + 1`` bits."""
        bits = np.zeros(self.report_length, dtype=np.uint8)
        if value == INVALID_ITEM or value < 0:
            bits[self.flag_position] = 1
            return bits
        value = self._check_value(value)
        bits[value] = 1
        return bits

    def perturb_bits(self, bits: np.ndarray) -> np.ndarray:
        """Flip each of the ``d + 1`` bits with the (p, q) law: one byte
        cell per bit, as one row of :meth:`privatize_many` draws (see
        :func:`~repro.mechanisms.backends.numpy_backend.unary_bits`)."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.report_length,):
            raise AggregationError(
                f"expected bits of shape ({self.report_length},), got {bits.shape}"
            )
        return perturb_encoded(bits, self.p, self.q, self.rng)

    def privatize(self, value: int) -> np.ndarray:
        return self.perturb_bits(self.encode(value))

    def privatize_many(
        self, values: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Perturb a batch into ``(batch, d + 1)`` uint8 reports.

        Negative values (:data:`~repro.types.INVALID_ITEM`) set the
        validity flag instead of an item bit; everything then flips with
        the ``(p, q)`` law in one pass of the shared one-hot kernel, which
        draws ``ceil((d + 1) / 8)`` 64-bit words per row and then one
        word per tied byte cell.  So ``privatize(v)`` draws exactly what
        ``privatize_many([v])`` draws.  ``out``, a ``(batch, d + 1)`` bool
        array, receives the bits when given.
        """
        values = np.asarray(values, dtype=np.int64).ravel()
        if values.size and values.max() >= self.domain_size:
            raise DomainError(f"values outside domain [0, {self.domain_size})")
        positions = np.where(values < 0, self.flag_position, values)
        return perturb_onehot_batch(
            positions, self.report_length, self.p, self.q, self.rng, out
        )

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def aggregate_batch(self, reports) -> np.ndarray:
        """Fold reports into ``d + 1`` support counts.

        Positions ``0..d-1`` hold the *flag-filtered* item supports
        (reports whose perturbed flag is clear); position ``d`` holds the
        raw flag support (number of reports whose perturbed flag is set).
        One pass through :func:`flag_filtered_support`.
        """
        return flag_filtered_support(reports, self.domain_size)

    def estimate(self, support: np.ndarray, n: int) -> np.ndarray:
        """Unbiased valid-item counts (length ``d``).

        With flag filtering the expected support of item ``v`` is
        ``n_v (1-q)(p-q) + n q(1-q) - m q(p-q)`` where ``m`` is the number
        of invalid users; ``m`` is itself estimated unbiasedly from the
        flag support, giving an overall unbiased inversion.
        """
        support = np.asarray(support, dtype=np.float64)
        if support.shape != (self.report_length,):
            raise AggregationError(
                f"support shape {support.shape} != ({self.report_length},)"
            )
        p, q = self.p, self.q
        m_hat = self.estimate_invalid_count(support, n)
        item_support = support[: self.domain_size]
        return (item_support - n * q * (1.0 - q) + m_hat * q * (p - q)) / (
            (1.0 - q) * (p - q)
        )

    def estimate_invalid_count(self, support: np.ndarray, n: int) -> float:
        """Unbiased estimate of the number of invalid users from the flag."""
        support = np.asarray(support, dtype=np.float64)
        return float((support[self.flag_position] - n * self.q) / (self.p - self.q))

    # ------------------------------------------------------------------
    # exact simulation
    # ------------------------------------------------------------------
    def simulate_support(
        self,
        true_counts: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        n_invalid: int = 0,
    ) -> np.ndarray:
        """Marginally exact supports for valid-item counts plus invalid users.

        Per item ``v``: holders pass the filter with probability
        ``p(1-q)``, other valid users with ``q(1-q)``, invalid users with
        ``q(1-p)``.  The flag support is ``Binom(m, p) + Binom(n-m, q)``.
        Cross-position correlation through the shared flag is not
        reproduced (the estimators only use marginals).
        """
        rng = rng if rng is not None else self.rng
        counts = self._check_counts(true_counts)
        if n_invalid < 0:
            raise DomainError(f"n_invalid must be >= 0, got {n_invalid}")
        m = int(n_invalid)
        n = int(counts.sum()) + m
        p, q = self.p, self.q
        holders = rng.binomial(counts, p * (1.0 - q))
        others = rng.binomial(n - m - counts, q * (1.0 - q))
        invalid = rng.binomial(m, q * (1.0 - p))
        item_support = holders + others + invalid
        flag_support = rng.binomial(m, p) + rng.binomial(n - m, q)
        return np.concatenate([item_support, [flag_support]]).astype(np.int64)

    # ------------------------------------------------------------------
    # theory & accounting
    # ------------------------------------------------------------------
    def variance(self, n: int, true_count: float = 0.0) -> float:
        """Variance of the calibrated count of one item, all users valid.

        The support is Bernoulli(``p(1-q)``) for holders and
        Bernoulli(``q(1-q)``) for the rest; the ``m_hat`` correction term
        contributes nothing when ``m = 0`` in expectation and its variance
        is dominated by the item-support term, which we report here.  The
        full Theorem 7 decomposition (with invalid users) lives in
        :func:`repro.core.variance.vp_count_variance`.
        """
        ph = self.p * (1.0 - self.q)
        qh = self.q * (1.0 - self.q)
        numerator = true_count * ph * (1.0 - ph) + (n - true_count) * qh * (1.0 - qh)
        return numerator / ((1.0 - self.q) * (self.p - self.q)) ** 2

    def communication_bits(self) -> int:
        return self.report_length

    def invalid_noise_expectation(self, n_invalid: int) -> float:
        """Theorem 5: expected raw-count noise an invalid user population
        injects into one valid item, ``m q (1 - p)``."""
        return float(n_invalid) * self.q * (1.0 - self.p)
