"""Generalized Randomized Response (GRR, a.k.a. k-RR / direct encoding).

The user reports her true value with probability ``p = e^eps / (e^eps + d - 1)``
and any other fixed value with probability ``q = 1 / (e^eps + d - 1)``.
GRR is the variance-optimal oracle for small domains (Wang et al., USENIX
Security 2017) and is the label perturbation used by the paper's PTS and
correlated mechanisms.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..exceptions import DomainError
from ..rng import RngLike
from .base import (
    FrequencyOracle,
    calibrate_counts,
    check_domain_size,
    pure_protocol_variance,
)
from .kernels import categorical_support


class GeneralizedRandomResponse(FrequencyOracle):
    """ε-LDP randomized response over a domain of size ``d``.

    For ``d == 1`` the report is always the single domain value; the
    mechanism is then trivially private (it releases nothing).
    """

    name = "grr"

    def __init__(self, epsilon: float, domain_size: int, rng: RngLike = None) -> None:
        super().__init__(epsilon, domain_size, rng)
        e = math.exp(self.epsilon)
        d = self.domain_size
        if d == 1:
            self.p = 1.0
            self.q = 0.0
        else:
            self.p = e / (e + d - 1.0)
            self.q = 1.0 / (e + d - 1.0)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def privatize(self, value: int) -> int:
        value = self._check_value(value)
        d = self.domain_size
        if d == 1:
            return value
        if self.rng.random() < self.p:
            return value
        # Uniform over the other d-1 values: draw in [0, d-1) and skip self.
        other = int(self.rng.integers(0, d - 1))
        return other + (other >= value)

    def privatize_many(self, values: np.ndarray) -> np.ndarray:
        """Privatise a batch in one vectorised pass.

        Returns ``int64`` reports as an array rather than a list — array
        callers (``aggregate_batch``, the batch engine) consume it directly
        and list-style callers iterate it unchanged.
        """
        values = np.asarray(values, dtype=np.int64).ravel()
        d = self.domain_size
        if values.size and (values.min() < 0 or values.max() >= d):
            raise DomainError(
                f"values outside domain [0, {d}): "
                f"range [{values.min()}, {values.max()}]"
            )
        if d == 1:
            return np.zeros(values.size, dtype=np.int64)
        keep = self.rng.random(values.size) < self.p
        others = self.rng.integers(0, d - 1, size=values.size)
        others = others + (others >= values)
        return np.where(keep, values, others).astype(np.int64)

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def aggregate_batch(self, reports) -> np.ndarray:
        """Support counts of a categorical report batch (validated bincount)."""
        return categorical_support(reports, self.domain_size, "GRR")

    def estimate(self, support: np.ndarray, n: int) -> np.ndarray:
        if self.domain_size == 1:
            return np.asarray(support, dtype=np.float64)
        return calibrate_counts(support, n, self.p, self.q)

    # ------------------------------------------------------------------
    # exact simulation
    # ------------------------------------------------------------------
    def simulate_support(
        self, true_counts: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Sample support counts exactly.

        Keepers are binomial per value; each leaver picks a uniformly
        random *other* value.  Cost is ``O(d + L)`` where ``L`` is the
        number of leavers, so the path is exact even for large domains.
        """
        rng = rng if rng is not None else self.rng
        counts = self._check_counts(true_counts)
        d = self.domain_size
        if d == 1:
            return counts.copy()
        stay = rng.binomial(counts, self.p)
        leavers = counts - stay
        support = stay.astype(np.int64)
        total_leavers = int(leavers.sum())
        if total_leavers:
            origins = np.repeat(np.arange(d), leavers)
            destinations = rng.integers(0, d - 1, size=total_leavers)
            destinations = destinations + (destinations >= origins)
            support += np.bincount(destinations, minlength=d)
        return support

    # ------------------------------------------------------------------
    # theory & accounting
    # ------------------------------------------------------------------
    def variance(self, n: int, true_count: float = 0.0) -> float:
        if self.domain_size == 1:
            return 0.0
        return pure_protocol_variance(n, self.p, self.q, true_count)

    def communication_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.domain_size)))


def grr_probabilities(epsilon: float, domain_size: int) -> tuple[float, float]:
    """Return GRR's ``(p, q)`` without building a mechanism object."""
    e = math.exp(epsilon)
    d = check_domain_size(domain_size)
    if d == 1:
        return 1.0, 0.0
    return e / (e + d - 1.0), 1.0 / (e + d - 1.0)


def route_labels_grr(
    pair_counts: np.ndarray, p: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """GRR-route a ``(c, d)`` matrix of users by label, keeping their items.

    Each user keeps her label with probability ``p`` and otherwise moves
    to one of the other ``c - 1`` labels uniformly.  Returns ``(stayed,
    arrived)``, both ``(c, d)``: ``stayed[C]`` counts the users of label
    ``C`` who kept it, ``arrived[C]`` the users a flip moved into ``C``.
    With one label nobody moves and nothing is drawn.
    """
    counts = np.array(pair_counts, dtype=np.int64)
    c = counts.shape[0]
    arrived = np.zeros_like(counts)
    if c == 1:
        return counts, arrived
    stayed = rng.binomial(counts, p)
    leavers = counts - stayed
    uniform_others = np.full(c - 1, 1.0 / (c - 1))
    for origin in range(c):
        row = leavers[origin]
        if not row.sum():
            continue
        destinations = rng.multinomial(row, uniform_others)
        others = np.delete(np.arange(c), origin)
        arrived[others] += destinations.T
    return stayed, arrived
