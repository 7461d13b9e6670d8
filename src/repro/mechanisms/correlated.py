"""Correlated perturbation mechanism (paper Section IV-B).

The label-item pair is perturbed in a correlated manner with the budget
split ε = ε₁ + ε₂:

1. **Label perturbation** — the label is perturbed by GRR over the ``c``
   classes with budget ε₁ (probabilities ``p₁, q₁``).
2. **Item perturbation** — if the perturbed label differs from the true
   label the item becomes *invalid*; the (possibly invalidated) item is
   then perturbed with the validity perturbation mechanism under ε₂
   (probabilities ``p₂ = 1/2``, ``q₂ = 1/(e^{ε₂}+1)``).

The perturbed label doubles as the validity flag's ground truth, so no
extra budget is spent publishing item validity.  The server groups reports
by perturbed label and applies flag-filtered counting; Eq. (4) of the paper
gives the unbiased frequency calibration (:meth:`CorrelatedPerturbation.estimate`,
verified in ``tests/mechanisms/test_correlated.py``).

Expected support of cell ``(C, I)`` given pair frequency ``f``, class size
``n`` and population ``N``::

    E[support] = f  * p1 (1-q2) p2        # survived label, true item
               + (n - f) * p1 (1-q2) q2   # survived label, other item
               + (N - n) * q1 (1-p2) q2   # label flipped into C -> invalid

which matches the three coefficients in the paper's Theorem 8 / Eq. (5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..exceptions import AggregationError, ConfigurationError, DomainError
from ..rng import RngLike, ensure_rng
from ..types import INVALID_ITEM
from .backends.numpy_backend import byte_lane_sums, group_order
from .base import check_domain_size, check_epsilon
from .grr import GeneralizedRandomResponse, grr_probabilities
from .kernels import as_bit_matrix, perturb_onehot_batch
from .validity import ValidityPerturbation


def fold_correlated_batch(
    labels: np.ndarray,
    bits: np.ndarray,
    item_support: np.ndarray,
    flag_support: np.ndarray,
    label_counts: np.ndarray,
) -> None:
    """Flag-filtered fold of ``(label, bits)`` reports into the three
    correlated sufficient-statistic arrays, in place.

    The single vectorised statement of the server-side law (paper
    Section IV-B): item bits count only under a clear perturbed flag.
    :meth:`CorrelatedPerturbation.aggregate_batch` folds every batch
    through it, the streaming PTS-CP session's included, so the fold
    cannot drift between the one-shot and streaming paths.
    The clear-flag rows, sorted by perturbed label, are gathered once
    and summed per label eight bits per add by
    :func:`~repro.mechanisms.backends.numpy_backend.byte_lane_sums`.
    ``bits`` is a bool or 0/1 uint8 matrix.  Labels outside ``[0, c)``
    raise :class:`AggregationError` before any array changes.
    """
    c, d = item_support.shape
    labels = np.asarray(labels, dtype=np.int64)
    # Viewed unsigned, negative labels wrap high: one max covers both ends.
    if labels.size and labels.view(np.uint64).max() >= c:
        raise AggregationError(f"label outside [0, {c})")
    flag = bits[:, d].astype(bool)
    label_counts += np.bincount(labels, minlength=c)
    flag_support += np.bincount(labels[flag], minlength=c)
    keep = np.flatnonzero(~flag)
    kept = labels[keep]
    counts = np.bincount(kept, minlength=c)
    filled = np.flatnonzero(counts)
    if filled.size:
        bounds = [0, *np.cumsum(counts[filled]).tolist()]
        order = keep[group_order(kept, c)]
        item_support[filled] += byte_lane_sums(bits[:, :d], bounds, order)


def as_correlated_columns(reports, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalise CP reports into aligned ``(labels, bits)`` columns.

    Accepts the columnar form (a 2-tuple of a label array and a
    ``(batch, d + 1)`` bit matrix) or any iterable of per-user
    ``(label, bits)`` pairs.  The bits come back as bool; any bit outside
    {0, 1} raises :class:`AggregationError` (see
    :func:`~repro.mechanisms.kernels.as_bit_matrix`).
    """
    if isinstance(reports, tuple) and len(reports) == 2:
        labels, bits = reports
    else:
        reports = list(reports)
        labels = [label for label, _ in reports]
        bits = [np.asarray(b) for _, b in reports]
    labels = np.asarray(labels, dtype=np.int64).ravel()
    bits = as_bit_matrix(bits, n_items + 1, "correlated")
    if labels.size != bits.shape[0]:
        raise AggregationError(
            f"labels ({labels.size}) and bits ({bits.shape[0]}) must align"
        )
    return labels, bits


@dataclass
class CorrelatedSupport:
    """Server-side sufficient statistics of the correlated mechanism.

    Attributes
    ----------
    item_support:
        ``(c, d)`` flag-filtered supports: report counted at ``[C', I]``
        when the perturbed label is ``C'``, bit ``I`` is set, and the
        perturbed validity flag is clear.
    flag_support:
        ``(c,)`` per-class counts of reports whose perturbed flag is set.
    label_counts:
        ``(c,)`` raw counts of reports per perturbed label (the paper's
        ``ñ``).
    n_users:
        Total number of reports aggregated.
    """

    item_support: np.ndarray
    flag_support: np.ndarray
    label_counts: np.ndarray
    n_users: int

    def __add__(self, other: "CorrelatedSupport") -> "CorrelatedSupport":
        if self.item_support.shape != other.item_support.shape:
            raise AggregationError("cannot merge supports of different shapes")
        return CorrelatedSupport(
            self.item_support + other.item_support,
            self.flag_support + other.flag_support,
            self.label_counts + other.label_counts,
            self.n_users + other.n_users,
        )


class CorrelatedPerturbation:
    """ε-LDP correlated label-item perturbation (ε = ε₁ + ε₂).

    Parameters
    ----------
    epsilon1, epsilon2:
        Label and item budgets.  The paper's default split is
        ε₁ = ε₂ = ε/2 (see :func:`repro.mechanisms.budget.split_budget`).
    n_classes, n_items:
        Label domain size ``c`` and (valid) item domain size ``d``.
    """

    name = "cp"

    def __init__(
        self,
        epsilon1: float,
        epsilon2: float,
        n_classes: int,
        n_items: int,
        rng: RngLike = None,
    ) -> None:
        self.epsilon1 = check_epsilon(epsilon1)
        self.epsilon2 = check_epsilon(epsilon2)
        self.n_classes = check_domain_size(n_classes)
        self.n_items = check_domain_size(n_items)
        self.rng = ensure_rng(rng)
        self.p1, self.q1 = grr_probabilities(self.epsilon1, self.n_classes)
        if self.n_classes == 1:
            raise ConfigurationError(
                "correlated perturbation needs at least two classes; "
                "with one class use ValidityPerturbation directly"
            )
        self._label_mech = GeneralizedRandomResponse(
            self.epsilon1, self.n_classes, rng=self.rng
        )
        self._item_mech = ValidityPerturbation(self.epsilon2, self.n_items, rng=self.rng)
        self.p2 = self._item_mech.p
        self.q2 = self._item_mech.q

    @property
    def epsilon(self) -> float:
        """Total budget ε = ε₁ + ε₂ consumed per user."""
        return self.epsilon1 + self.epsilon2

    @property
    def report_length(self) -> int:
        """Number of bits in one report's item vector (items + flag)."""
        return self._item_mech.report_length

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def privatize(self, label: int, item: int) -> tuple[int, np.ndarray]:
        """Perturb one label-item pair into ``(perturbed_label, bits)``.

        ``item`` may be ``INVALID_ITEM`` when the user's item was already
        pruned from the candidate set; it is then invalid regardless of
        the label's fate.
        """
        if not 0 <= label < self.n_classes:
            raise DomainError(f"label {label} outside [0, {self.n_classes})")
        perturbed_label = self._label_mech.privatize(label)
        item_is_valid = item != INVALID_ITEM and item >= 0
        if perturbed_label != label:
            item_is_valid = False
        bits = self._item_mech.privatize(item if item_is_valid else INVALID_ITEM)
        return (perturbed_label, bits)

    def privatize_many(
        self,
        labels: np.ndarray,
        items: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Perturb a batch of label-item pairs into columnar reports.

        Returns ``(perturbed_labels, bits)`` — an int64 label array and a
        ``(batch, d + 1)`` uint8 bit matrix — computed in one vectorised
        pass: GRR on the labels, then the shared one-hot kernel with the
        set bit at the item for label survivors and at the flag for
        everyone else (including pre-invalidated items, marked by any
        negative value).  ``out``, a ``(batch, d + 1)`` bool array,
        receives the bits when given.
        """
        labels = np.asarray(labels, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        if labels.shape != items.shape:
            raise DomainError(
                f"labels ({labels.shape}) and items ({items.shape}) must align"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise DomainError(f"labels outside [0, {self.n_classes})")
        if items.size and items.max() >= self.n_items:
            raise DomainError(f"items outside [0, {self.n_items})")
        perturbed = self._label_mech.privatize_many(labels)
        valid = (items >= 0) & (perturbed == labels)
        positions = np.where(valid, items, self._item_mech.flag_position)
        bits = perturb_onehot_batch(
            positions, self.report_length, self.p2, self.q2, self.rng, out
        )
        return perturbed, bits

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def aggregate_batch(self, reports) -> CorrelatedSupport:
        """Fold a batch of reports into sufficient stats in one pass.

        Accepts the columnar ``(labels, bits)`` form produced by
        :meth:`privatize_many` or an iterable of per-user pairs; the fold
        is :func:`fold_correlated_batch`.
        """
        c, d = self.n_classes, self.n_items
        labels, bits = as_correlated_columns(reports, d)
        item_support = np.zeros((c, d), dtype=np.int64)
        flag_support = np.zeros(c, dtype=np.int64)
        label_counts = np.zeros(c, dtype=np.int64)
        if labels.size:
            fold_correlated_batch(
                labels, bits, item_support, flag_support, label_counts
            )
        return CorrelatedSupport(
            item_support, flag_support, label_counts, int(labels.size)
        )

    def aggregate(self, reports: Iterable[tuple[int, np.ndarray]]) -> CorrelatedSupport:
        """Fold ``(perturbed_label, bits)`` reports into sufficient stats
        (thin wrapper over :meth:`aggregate_batch`)."""
        return self.aggregate_batch(reports)

    def estimate_class_sizes(self, support: CorrelatedSupport) -> np.ndarray:
        """Unbiased class sizes ``n̂ = (ñ - N q₁) / (p₁ - q₁)``."""
        n = support.n_users
        return (support.label_counts.astype(np.float64) - n * self.q1) / (
            self.p1 - self.q1
        )

    def estimate(self, support: CorrelatedSupport) -> np.ndarray:
        """Unbiased pair counts via the paper's Eq. (4), shape ``(c, d)``.

        ``f̂(C,I) = [f̃(C,I) - N q₁q₂(1-p₂) - n̂ q₂(p₁(1-q₂) - q₁(1-p₂))]
        / [p₁(1-q₂)(p₂-q₂)]``.
        """
        p1, q1, p2, q2 = self.p1, self.q1, self.p2, self.q2
        n_total = support.n_users
        n_hat = self.estimate_class_sizes(support)
        denominator = p1 * (1.0 - q2) * (p2 - q2)
        cross_term = q2 * (p1 * (1.0 - q2) - q1 * (1.0 - p2))
        numerator = (
            support.item_support.astype(np.float64)
            - n_total * q1 * q2 * (1.0 - p2)
            - n_hat[:, None] * cross_term
        )
        return numerator / denominator

    # ------------------------------------------------------------------
    # exact simulation
    # ------------------------------------------------------------------
    def simulate_support(
        self,
        pair_counts: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        invalid_per_class: Optional[np.ndarray] = None,
    ) -> CorrelatedSupport:
        """Draw the sufficient statistics directly (marginally exact).

        Parameters
        ----------
        pair_counts:
            ``(c, d)`` true counts of users per (label, valid item).
        invalid_per_class:
            ``(c,)`` users per class whose item is already invalid (e.g.
            pruned); defaults to zero.
        """
        rng = rng if rng is not None else self.rng
        c, d = self.n_classes, self.n_items
        counts = np.asarray(pair_counts, dtype=np.int64)
        if counts.shape != (c, d):
            raise AggregationError(f"pair_counts shape {counts.shape} != ({c}, {d})")
        if (counts < 0).any():
            raise AggregationError("pair counts must be non-negative")
        if invalid_per_class is None:
            invalid = np.zeros(c, dtype=np.int64)
        else:
            invalid = np.asarray(invalid_per_class, dtype=np.int64)
            if invalid.shape != (c,):
                raise AggregationError(f"invalid_per_class shape must be ({c},)")

        # 1. Label routing: survivors stay valid; leavers and users whose
        #    item was pre-invalidated are invalid wherever they land.
        stay = rng.binomial(counts, self.p1)
        stay_invalid = rng.binomial(invalid, self.p1)
        leavers_per_class = (counts - stay).sum(axis=1) + (invalid - stay_invalid)
        arrivals = np.zeros(c, dtype=np.int64)
        for origin in range(c):
            n_leave = int(leavers_per_class[origin])
            if n_leave == 0:
                continue
            destinations = rng.multinomial(n_leave, np.full(c - 1, 1.0 / (c - 1)))
            others = np.delete(np.arange(c), origin)
            arrivals[others] += destinations

        valid_total = stay.sum(axis=1)
        invalid_total = stay_invalid + arrivals
        n_users = int(counts.sum() + invalid.sum())

        # 2. Item bits under flag filtering (marginally exact per cell).
        p2, q2 = self.p2, self.q2
        holders = rng.binomial(stay, p2 * (1.0 - q2))
        others_valid = rng.binomial(valid_total[:, None] - stay, q2 * (1.0 - q2))
        from_invalid = rng.binomial(
            np.broadcast_to(invalid_total[:, None], (c, d)), q2 * (1.0 - p2)
        )
        item_support = holders + others_valid + from_invalid

        flag_support = rng.binomial(invalid_total, p2) + rng.binomial(valid_total, q2)
        label_counts = valid_total + invalid_total
        return CorrelatedSupport(
            item_support.astype(np.int64),
            flag_support.astype(np.int64),
            label_counts.astype(np.int64),
            n_users,
        )

    # ------------------------------------------------------------------
    # theory & accounting
    # ------------------------------------------------------------------
    def expected_support(self, f: float, n: float, n_total: float) -> float:
        """Expected flag-filtered support of one cell (docstring formula)."""
        return (
            f * self.p1 * (1.0 - self.q2) * self.p2
            + (n - f) * self.p1 * (1.0 - self.q2) * self.q2
            + (n_total - n) * self.q1 * (1.0 - self.p2) * self.q2
        )

    def variance(self, f: float, n: float, n_total: float) -> float:
        """Theorem 8 / Eq. (5) variance of the calibrated ``f̂(C, I)``.

        Delegates to :func:`repro.core.variance.cp_estimate_variance` so
        the closed form lives in one place.
        """
        from ..core.variance import cp_estimate_variance

        return cp_estimate_variance(
            f=f,
            n=n,
            n_total=n_total,
            p1=self.p1,
            q1=self.q1,
            p2=self.p2,
            q2=self.q2,
        )

    def communication_bits(self) -> int:
        """Label id plus the (d+1)-bit validity-perturbed vector."""
        return max(1, math.ceil(math.log2(self.n_classes))) + self.n_items + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CorrelatedPerturbation(epsilon1={self.epsilon1!r}, "
            f"epsilon2={self.epsilon2!r}, n_classes={self.n_classes!r}, "
            f"n_items={self.n_items!r})"
        )
