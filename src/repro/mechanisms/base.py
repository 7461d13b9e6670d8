"""Abstract base class for LDP frequency oracles.

A *frequency oracle* is the fundamental LDP primitive: each user privatises
one value from a finite domain, the server aggregates the reports into
per-value *support counts*, and a calibration step turns supports into
unbiased frequency estimates.

Every oracle in :mod:`repro.mechanisms` implements two equivalent paths:

``privatize`` / ``aggregate``
    The literal protocol — one report per user.  Both sides are columnar
    under the hood: ``privatize_many`` perturbs a whole batch of values
    into a plain ndarray of reports in one vectorised pass, and
    ``aggregate`` is a thin wrapper over ``aggregate_batch``, the
    vectorised fold built on the kernels in
    :mod:`repro.mechanisms.kernels`.  Supports are additive: the
    ``aggregate_batch`` supports of two report sets sum to the support
    of their union, which is what lets streaming sessions fold batches
    incrementally and merge across shards.  The batch execution engine
    (:mod:`repro.mechanisms.engine`) chains the two blockwise so no hot
    path ever dispatches per user in Python.

``simulate_support``
    An exact sufficient-statistic shortcut: the aggregated support counts
    are sums of independent Bernoulli variables, so they can be drawn
    directly from binomial (and multinomial) distributions.  This makes the
    paper's million-user experiments laptop-feasible.  Unless a subclass
    documents otherwise the simulated supports are *marginally exact*
    (each count has exactly the distribution induced by the per-user
    protocol); cross-value correlations may be simplified where the
    estimators only use marginals.

Subclasses must also report their theoretical estimator variance and the
per-user communication cost in bits so that the complexity experiments
(paper Table II) can be regenerated.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..exceptions import AggregationError, DomainError, PrivacyBudgetError
from ..rng import RngLike, ensure_rng
from ..types import Report


def check_epsilon(epsilon: float) -> float:
    """Validate a privacy budget and return it as ``float``.

    Raises :class:`~repro.exceptions.PrivacyBudgetError` for non-positive
    or non-finite values.
    """
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise PrivacyBudgetError(f"privacy budget must be finite and positive, got {epsilon}")
    return epsilon


def check_domain_size(domain_size: int, minimum: int = 1) -> int:
    """Validate a domain size and return it as ``int``."""
    domain_size = int(domain_size)
    if domain_size < minimum:
        raise DomainError(f"domain size must be >= {minimum}, got {domain_size}")
    return domain_size


class FrequencyOracle(abc.ABC):
    """Base class for single-domain LDP frequency oracles.

    Parameters
    ----------
    epsilon:
        The privacy budget ε.  The mechanism guarantees ε-LDP.
    domain_size:
        The number of values ``d`` in the input domain ``[0, d)``.
    rng:
        Seed or generator driving the client-side randomness.  Server-side
        estimation is deterministic.
    """

    #: Short machine-readable identifier (used in reports and benches).
    name: str = "oracle"

    def __init__(self, epsilon: float, domain_size: int, rng: RngLike = None) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.domain_size = check_domain_size(domain_size)
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def privatize(self, value: int) -> Report:
        """Perturb one user's ``value`` into an ε-LDP report."""

    def privatize_many(self, values: np.ndarray) -> Union[Sequence[Report], np.ndarray]:
        """Privatise a batch of values (one independent report each).

        The base implementation returns a list; vectorised overrides
        (e.g. GRR) return an ``np.ndarray`` — treat the result as an
        opaque sequence of reports.
        """
        return [self.privatize(int(v)) for v in np.asarray(values).ravel()]

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def aggregate_batch(self, reports) -> np.ndarray:
        """Fold a columnar batch of reports into support counts.

        ``reports`` is whatever :meth:`privatize_many` returns (a plain
        ndarray in every subclass) or any sequence of single-report
        values; the fold is one vectorised pass with no per-report Python
        loop.  Shape of the result matches :meth:`aggregate`.
        """

    def aggregate(self, reports: Iterable[Report]) -> np.ndarray:
        """Fold reports into per-value support counts (shape ``(d,)``).

        Thin wrapper over :meth:`aggregate_batch` — the two are the same
        vectorised kernel.
        """
        return self.aggregate_batch(reports)

    @abc.abstractmethod
    def estimate(self, support: np.ndarray, n: int) -> np.ndarray:
        """Calibrate support counts from ``n`` users into unbiased counts.

        Returns estimated *counts* (not probabilities); divide by ``n`` for
        relative frequencies.
        """

    # ------------------------------------------------------------------
    # exact simulation fast path
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def simulate_support(
        self, true_counts: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw aggregated support counts directly from their distribution.

        ``true_counts`` holds the exact number of users per value (shape
        ``(d,)``); the total user count is its sum.
        """

    # ------------------------------------------------------------------
    # theory & accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def variance(self, n: int, true_count: float = 0.0) -> float:
        """Variance of the calibrated count estimate for one value.

        ``true_count`` is the value's true count; passing 0 gives the
        usual low-frequency approximation used for mechanism comparison.
        """

    @abc.abstractmethod
    def communication_bits(self) -> int:
        """Size of one client report in bits (paper Table II accounting)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _check_value(self, value: int) -> int:
        value = int(value)
        if not 0 <= value < self.domain_size:
            raise DomainError(
                f"value {value} outside domain [0, {self.domain_size})"
            )
        return value

    def _check_counts(self, true_counts: np.ndarray, size: Optional[int] = None) -> np.ndarray:
        counts = np.asarray(true_counts, dtype=np.int64)
        expected = self.domain_size if size is None else size
        if counts.shape != (expected,):
            raise AggregationError(
                f"expected counts of shape ({expected},), got {counts.shape}"
            )
        if (counts < 0).any():
            raise AggregationError("true counts must be non-negative")
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon!r}, "
            f"domain_size={self.domain_size!r})"
        )


def calibrate_counts(support: np.ndarray, n: int, p: float, q: float) -> np.ndarray:
    """Standard pure-protocol calibration ``(support - n*q) / (p - q)``.

    This is the unbiased inversion for any oracle where a value's support
    is ``Binom(n_v, p) + Binom(n - n_v, q)`` (GRR and the UE family).
    """
    if p == q:
        raise AggregationError("calibration undefined for p == q")
    return (np.asarray(support, dtype=np.float64) - n * q) / (p - q)


def pure_protocol_variance(n: int, p: float, q: float, true_count: float = 0.0) -> float:
    """Exact variance of the calibrated count for a pure protocol.

    ``Var = [n_v p(1-p) + (n - n_v) q(1-q)] / (p-q)^2`` with
    ``n_v = true_count``.
    """
    numerator = true_count * p * (1.0 - p) + (n - true_count) * q * (1.0 - q)
    return numerator / (p - q) ** 2
