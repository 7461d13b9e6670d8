"""Shared low-level report simulation for the top-k pipelines.

Every top-k iteration reduces to: a report domain (buckets or candidate
values), per-domain-value counts of *valid* users, and a pool of invalid
users.  Two invalid-handling policies exist:

* ``"random"`` — the conventional deniability trick (PEM's choice): each
  invalid user reports a uniformly random valid value, then everyone goes
  through OUE.  The random injections distort valid supports (Theorem 4).
* ``"vp"`` — the paper's validity perturbation: invalid users raise the
  validity flag, aggregation is flag-filtered (Theorem 5).

Each policy runs in either execution mode: ``"simulate"`` draws the
supports from their exact sufficient-statistic distribution
(:func:`simulate_iteration_support`), ``"protocol"`` privatises one
report per user through the vectorised report-plane engine
(:func:`protocol_iteration_support`).  :func:`iteration_support`
dispatches; the top-k pipelines thread an execution ``mode`` down to it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...exceptions import ConfigurationError, DomainError
from ...mechanisms.engine import batch_support
from ...mechanisms.ue import OptimizedUnaryEncoding
from ...mechanisms.validity import ValidityPerturbation

#: The two invalid-data policies.
INVALID_MODES = ("random", "vp")

#: The two execution modes (mirrors ``repro.core.frameworks.base.MODES``).
EXECUTION_MODES = ("simulate", "protocol")


def _replacement_probabilities(
    size: int, replacement_weights: Optional[np.ndarray]
) -> np.ndarray:
    """Normalised replacement distribution for the ``"random"`` policy."""
    if replacement_weights is None:
        return np.full(size, 1.0 / size)
    weights = np.asarray(replacement_weights, dtype=np.float64)
    if weights.shape != (size,):
        raise DomainError(
            f"replacement_weights shape {weights.shape} != ({size},)"
        )
    total = weights.sum()
    if total <= 0:
        raise DomainError("replacement_weights must have positive mass")
    return weights / total


def simulate_iteration_support(
    valid_counts: np.ndarray,
    n_invalid: int,
    epsilon: float,
    invalid_mode: str,
    rng: np.random.Generator,
    replacement_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Support counts over the report domain for one iteration.

    Parameters
    ----------
    valid_counts:
        Per-report-value counts of valid users (length = report domain).
    n_invalid:
        Users whose value is invalid this iteration (pruned item, foreign
        label, ...).
    invalid_mode:
        ``"random"`` or ``"vp"`` (see module docstring).
    replacement_weights:
        For ``"random"``: the probability a replacing user picks each
        value (e.g. proportional to bucket sizes).  Uniform by default.
    """
    counts = np.asarray(valid_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise DomainError(f"valid_counts must be a non-empty vector, got {counts.shape}")
    if n_invalid < 0:
        raise DomainError(f"n_invalid must be >= 0, got {n_invalid}")
    if invalid_mode not in INVALID_MODES:
        raise ConfigurationError(
            f"invalid_mode must be one of {INVALID_MODES}, got {invalid_mode!r}"
        )

    if invalid_mode == "vp":
        oracle = ValidityPerturbation(epsilon, counts.size)
        support = oracle.simulate_support(counts, rng=rng, n_invalid=n_invalid)
        return support[: counts.size]

    # "random": replace invalid values, then OUE everyone.
    if n_invalid:
        weights = _replacement_probabilities(counts.size, replacement_weights)
        counts = counts + rng.multinomial(n_invalid, weights)
    oracle = OptimizedUnaryEncoding(epsilon, counts.size)
    return oracle.simulate_support(counts, rng=rng)


def protocol_iteration_support(
    valid_counts: np.ndarray,
    n_invalid: int,
    epsilon: float,
    invalid_mode: str,
    rng: np.random.Generator,
    replacement_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Support counts for one iteration via the literal wire protocol.

    Same parameters and return shape as :func:`simulate_iteration_support`
    — one report per user, privatised and aggregated in vectorised blocks
    through the report-plane engine
    (:func:`repro.mechanisms.engine.batch_support`).
    """
    counts = np.asarray(valid_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise DomainError(f"valid_counts must be a non-empty vector, got {counts.shape}")
    if n_invalid < 0:
        raise DomainError(f"n_invalid must be >= 0, got {n_invalid}")
    if invalid_mode not in INVALID_MODES:
        raise ConfigurationError(
            f"invalid_mode must be one of {INVALID_MODES}, got {invalid_mode!r}"
        )
    values = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    if invalid_mode == "vp":
        if n_invalid:
            values = np.concatenate(
                [values, np.full(n_invalid, -1, dtype=np.int64)]
            )
        oracle = ValidityPerturbation(epsilon, counts.size, rng=rng)
        return batch_support(oracle, values)[: counts.size]
    if n_invalid:
        weights = _replacement_probabilities(counts.size, replacement_weights)
        replacements = rng.choice(counts.size, size=n_invalid, p=weights)
        values = np.concatenate([values, replacements.astype(np.int64)])
    oracle = OptimizedUnaryEncoding(epsilon, counts.size, rng=rng)
    return batch_support(oracle, values)


def iteration_support(
    valid_counts: np.ndarray,
    n_invalid: int,
    epsilon: float,
    invalid_mode: str,
    rng: np.random.Generator,
    replacement_weights: Optional[np.ndarray] = None,
    mode: str = "simulate",
) -> np.ndarray:
    """One iteration's supports under the chosen execution ``mode``.

    Dispatches to :func:`simulate_iteration_support` (exact sufficient
    statistics) or :func:`protocol_iteration_support` (per-user reports
    through the batch engine); the two agree in distribution.
    """
    if mode not in EXECUTION_MODES:
        raise ConfigurationError(
            f"mode must be one of {EXECUTION_MODES}, got {mode!r}"
        )
    if mode == "protocol":
        return protocol_iteration_support(
            valid_counts,
            n_invalid,
            epsilon,
            invalid_mode,
            rng,
            replacement_weights=replacement_weights,
        )
    return simulate_iteration_support(
        valid_counts,
        n_invalid,
        epsilon,
        invalid_mode,
        rng,
        replacement_weights=replacement_weights,
    )


def split_counts_over_iterations(
    counts: np.ndarray, n_iterations: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Partition a user population (given as value counts) into
    ``n_iterations`` near-equal random cohorts.

    Returns a list of count vectors summing to the input.  Sampling is
    without replacement (multivariate hypergeometric), identical in law to
    shuffling the users and slicing — each user reports in exactly one
    iteration, as the privacy analysis requires.
    """
    if n_iterations < 1:
        raise DomainError(f"need >= 1 iteration, got {n_iterations}")
    flat = np.asarray(counts, dtype=np.int64).ravel()
    if (flat < 0).any():
        raise DomainError("counts must be non-negative")
    total = int(flat.sum())
    base = total // n_iterations
    sizes = [base + (index < total % n_iterations) for index in range(n_iterations)]
    remaining = flat.copy()
    parts: list[np.ndarray] = []
    for size in sizes:
        if size == int(remaining.sum()):
            draw = remaining.copy()
        elif size == 0:
            draw = np.zeros_like(remaining)
        else:
            draw = rng.multivariate_hypergeometric(remaining, size, method="marginals")
        parts.append(draw.reshape(np.asarray(counts).shape))
        remaining -= draw
    return parts


def split_total_over_iterations(
    total: int, n_iterations: int, rng: np.random.Generator
) -> list[int]:
    """Split a user count into near-equal random cohorts."""
    if total < 0:
        raise DomainError(f"cannot split a negative count: {total}")
    if total == 0:
        return [0] * n_iterations
    parts = split_counts_over_iterations(np.asarray([total]), n_iterations, rng)
    return [int(part[0]) for part in parts]


def top_indices(support: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest supports, ties toward lower index.

    Deterministic given the support vector, so pruning is reproducible.
    """
    support = np.asarray(support)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    k = min(k, support.size)
    order = np.lexsort((np.arange(support.size), -support.astype(np.float64)))
    return order[:k]


def topk_per_class(estimates: np.ndarray, k: int) -> dict[int, list[int]]:
    """Per-class top-``k`` item ids from a ``(c, d)`` estimate matrix.

    The online-query counterpart of
    :meth:`repro.datasets.base.LabelItemDataset.true_topk`: same ordering
    rule (most frequent first, ties toward the smaller id), applied to
    estimated counts.  Used by the streaming sessions' ``topk`` query.
    """
    matrix = np.asarray(estimates)
    if matrix.ndim != 2:
        raise DomainError(f"estimates must be a (c, d) matrix, got {matrix.shape}")
    return {
        label: [int(i) for i in top_indices(matrix[label], k)]
        for label in range(matrix.shape[0])
    }
