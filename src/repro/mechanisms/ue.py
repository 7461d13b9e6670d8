"""Unary-encoding oracles: SUE (basic RAPPOR probabilities) and OUE.

The user's value ``v`` is one-hot encoded into a ``d``-bit vector and each
bit is flipped independently:

* **SUE** (symmetric): ``p = e^{eps/2} / (e^{eps/2} + 1)``, ``q = 1 - p``.
* **OUE** (optimized): ``p = 1/2``, ``q = 1 / (e^eps + 1)`` — the
  variance-minimising choice from Wang et al. (USENIX Security 2017) and
  the item perturbation used throughout the paper.

Both satisfy ε-LDP with ``eps = ln[p(1-q) / ((1-p)q)]``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..exceptions import AggregationError, DomainError
from ..rng import RngLike
from .backends.numpy_backend import perturb_encoded
from .base import FrequencyOracle, calibrate_counts, pure_protocol_variance
from .kernels import bit_matrix_support, perturb_onehot_batch


class UnaryEncoding(FrequencyOracle):
    """Generic unary encoding with explicit bit-flip probabilities ``p, q``.

    Subclasses (or callers) choose ``p`` and ``q``; the implied privacy
    budget is ``ln[p(1-q) / ((1-p)q)]`` (paper Theorem 1).
    """

    name = "ue"

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        p: float,
        q: float,
        rng: RngLike = None,
    ) -> None:
        super().__init__(epsilon, domain_size, rng)
        if not (0.0 < q < p <= 1.0):
            raise ValueError(f"need 0 < q < p <= 1, got p={p}, q={q}")
        self.p = float(p)
        self.q = float(q)

    @property
    def report_length(self) -> int:
        """Number of bits in one report."""
        return self.domain_size

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def encode(self, value: int) -> np.ndarray:
        """One-hot encode ``value`` into a ``(d,)`` uint8 vector."""
        value = self._check_value(value)
        bits = np.zeros(self.domain_size, dtype=np.uint8)
        bits[value] = 1
        return bits

    def perturb_bits(self, bits: np.ndarray) -> np.ndarray:
        """Flip each bit of an encoded vector with the (p, q) law: one
        byte cell per bit, as one row of :meth:`privatize_many` draws
        (see :func:`~repro.mechanisms.backends.numpy_backend.unary_bits`)."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.domain_size,):
            raise AggregationError(
                f"expected bits of shape ({self.domain_size},), got {bits.shape}"
            )
        return perturb_encoded(bits, self.p, self.q, self.rng)

    def privatize(self, value: int) -> np.ndarray:
        return self.perturb_bits(self.encode(value))

    def privatize_many(
        self, values: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Perturb a batch of values into a ``(batch, d)`` uint8 bit matrix.

        One vectorised pass through the shared one-hot kernel: each row
        consumes ``ceil(d / 8)`` 64-bit words of the generator, split into
        ``d`` byte cells, and each cell that ties its threshold's high
        byte one more word after all the rows'.  So ``privatize(v)`` draws
        exactly what ``privatize_many([v])`` draws.  ``out``, a ``(batch,
        d)`` bool array, receives the bits when given (the batch engine
        passes its per-thread workspace).  Memory is ``batch × d`` —
        unbounded batches go through
        :func:`repro.mechanisms.engine.batch_support`.
        """
        values = np.asarray(values, dtype=np.int64).ravel()
        if values.size and (values.min() < 0 or values.max() >= self.domain_size):
            raise DomainError(
                f"values outside domain [0, {self.domain_size})"
            )
        return perturb_onehot_batch(
            values, self.domain_size, self.p, self.q, self.rng, out
        )

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def aggregate_batch(self, reports) -> np.ndarray:
        """Column sums of a ``(batch, d)`` bit-report matrix."""
        return bit_matrix_support(reports, self.domain_size, "unary-encoding")

    def estimate(self, support: np.ndarray, n: int) -> np.ndarray:
        return calibrate_counts(support, n, self.p, self.q)

    # ------------------------------------------------------------------
    # exact simulation
    # ------------------------------------------------------------------
    def simulate_support(
        self, true_counts: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Exact: bits are independent across positions and users, so
        ``support_v = Binom(n_v, p) + Binom(n - n_v, q)``."""
        rng = rng if rng is not None else self.rng
        counts = self._check_counts(true_counts)
        n = int(counts.sum())
        ones = rng.binomial(counts, self.p)
        zeros = rng.binomial(n - counts, self.q)
        return (ones + zeros).astype(np.int64)

    # ------------------------------------------------------------------
    # theory & accounting
    # ------------------------------------------------------------------
    def variance(self, n: int, true_count: float = 0.0) -> float:
        return pure_protocol_variance(n, self.p, self.q, true_count)

    def communication_bits(self) -> int:
        return self.domain_size


class SymmetricUnaryEncoding(UnaryEncoding):
    """SUE / basic-RAPPOR probabilities: ``p = e^{eps/2}/(e^{eps/2}+1)``."""

    name = "sue"

    def __init__(self, epsilon: float, domain_size: int, rng: RngLike = None) -> None:
        e_half = math.exp(float(epsilon) / 2.0)
        p = e_half / (e_half + 1.0)
        super().__init__(epsilon, domain_size, p=p, q=1.0 - p, rng=rng)


class OptimizedUnaryEncoding(UnaryEncoding):
    """OUE: ``p = 1/2``, ``q = 1/(e^eps + 1)`` (variance-optimal UE)."""

    name = "oue"

    def __init__(self, epsilon: float, domain_size: int, rng: RngLike = None) -> None:
        q = 1.0 / (math.exp(float(epsilon)) + 1.0)
        super().__init__(epsilon, domain_size, p=0.5, q=q, rng=rng)


def oue_probabilities(epsilon: float) -> tuple[float, float]:
    """Return OUE's ``(p, q) = (1/2, 1/(e^eps+1))``."""
    return 0.5, 1.0 / (math.exp(float(epsilon)) + 1.0)


def ue_epsilon(p: float, q: float) -> float:
    """Privacy budget implied by UE flip probabilities (Theorem 1)."""
    if not (0.0 < q < p < 1.0):
        raise ValueError(f"need 0 < q < p < 1, got p={p}, q={q}")
    return math.log(p * (1.0 - q) / ((1.0 - p) * q))
