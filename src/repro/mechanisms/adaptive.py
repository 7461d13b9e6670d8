"""Adaptive oracle selection (Wang et al., USENIX Security 2017).

GRR's variance beats OUE's exactly when the domain is small:
``d < 3 e^eps + 2``.  The paper's HEC and PTJ frameworks use this adaptive
rule (Section VII-D), so we expose it both as a predicate and as a wrapper
oracle that delegates to the winning mechanism.
"""

from __future__ import annotations

import math

from ..rng import RngLike
from .base import FrequencyOracle, check_domain_size, check_epsilon
from .grr import GeneralizedRandomResponse
from .ue import OptimizedUnaryEncoding


def grr_beats_oue(epsilon: float, domain_size: int) -> bool:
    """True when GRR has lower variance than OUE: ``d < 3 e^eps + 2``."""
    epsilon = check_epsilon(epsilon)
    domain_size = check_domain_size(domain_size)
    return domain_size < 3.0 * math.exp(epsilon) + 2.0


def make_adaptive(epsilon: float, domain_size: int, rng: RngLike = None) -> FrequencyOracle:
    """Build the variance-optimal oracle for ``(epsilon, domain_size)``."""
    if grr_beats_oue(epsilon, domain_size):
        return GeneralizedRandomResponse(epsilon, domain_size, rng=rng)
    return OptimizedUnaryEncoding(epsilon, domain_size, rng=rng)


class AdaptiveMechanism(FrequencyOracle):
    """Thin façade that owns whichever of GRR/OUE wins for the domain.

    All oracle methods delegate to the selected mechanism; ``selected``
    names the winner (``"grr"`` or ``"oue"``).
    """

    name = "adaptive"

    def __init__(self, epsilon: float, domain_size: int, rng: RngLike = None) -> None:
        super().__init__(epsilon, domain_size, rng)
        self._inner = make_adaptive(epsilon, domain_size, rng=self.rng)

    @property
    def selected(self) -> str:
        """Name of the delegated oracle."""
        return self._inner.name

    @property
    def p(self) -> float:
        return self._inner.p

    @property
    def q(self) -> float:
        return self._inner.q

    def privatize(self, value):
        return self._inner.privatize(value)

    @property
    def report_length(self):
        """Bits in one report: the inner OUE's, ``None`` when GRR reports
        a category instead."""
        return getattr(self._inner, "report_length", None)

    def privatize_many(self, values, out=None):
        if out is None:
            return self._inner.privatize_many(values)
        return self._inner.privatize_many(values, out=out)

    def aggregate(self, reports):
        return self._inner.aggregate(reports)

    def aggregate_batch(self, reports):
        return self._inner.aggregate_batch(reports)

    def estimate(self, support, n):
        return self._inner.estimate(support, n)

    def simulate_support(self, true_counts, rng=None):
        return self._inner.simulate_support(true_counts, rng=rng)

    def variance(self, n, true_count=0.0):
        return self._inner.variance(n, true_count)

    def communication_bits(self):
        return self._inner.communication_bits()
