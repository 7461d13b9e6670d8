"""PEM — Prefix Extending Method (Wang et al., TDSC 2021).

The state-of-the-art heavy-hitter baseline the paper builds on and
compares against.  Items are encoded as fixed-length bit strings; users
are partitioned over the iterations; iteration ``t`` collects supports of
the candidate prefixes at the current length, the server keeps the **top
k** and extends them by ``m`` bits — so every report domain has
``k * 2^m`` values and the per-user communication is the paper Table II's
``O(2^m k log d)``.

Two deliberate weaknesses, which the paper's optimizations remove, are
faithfully reproduced:

* only ``k`` prefixes survive each level, so one noisy level permanently
  loses a true heavy hitter, and prefix aggregation creates
  **false-positive prefixes** (Fig. 3) — structured sibling sums can
  outrank the true top item's prefix;
* users whose prefix was pruned become **invalid** and, in the classic
  protocol, are replaced by a uniformly random candidate, injecting
  Theorem-4 noise.  Passing ``invalid_mode="vp"`` swaps in the validity
  perturbation (the "+VP" ablation rows of Table III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...exceptions import ConfigurationError, DomainError
from ...mechanisms.base import check_epsilon
from ...rng import RngLike, ensure_rng
from .pruning import estimate_final, prefix_prune_once
from .reporting import (
    EXECUTION_MODES,
    INVALID_MODES,
    split_counts_over_iterations,
    split_total_over_iterations,
)
from .trie import bits_needed


def pem_iteration_count(domain_size: int, k: int, extension_bits: int = 1) -> int:
    """Number of PEM iterations for a domain: extensions plus the final.

    The starting prefix length gives a report domain of about
    ``k * 2^m`` values, and each iteration adds ``m`` bits.
    """
    total_bits = bits_needed(domain_size)
    start_bits = min(total_bits, bits_needed(min(domain_size, k << extension_bits)))
    extensions = int(np.ceil((total_bits - start_bits) / extension_bits))
    return extensions + 1


@dataclass
class PEMResult:
    """Outcome of one PEM run."""

    top_items: list[int]
    supports: np.ndarray
    candidates: np.ndarray


class PEMMiner:
    """Top-k mining over one value domain via prefix extension.

    Parameters
    ----------
    k:
        Number of heavy hitters to return.
    epsilon:
        Per-user item budget for the OUE/VP reports.
    domain_size:
        Size of the (possibly joint) value domain.
    keep:
        Prefixes kept per iteration.  Default ``k`` — the original PEM
        retention; the joint PTJ baseline passes ``k*c``.
    extension_bits:
        The paper's ``m``: bits added per iteration (default 1).
    invalid_mode:
        ``"random"`` (classic PEM) or ``"vp"`` (the +VP ablation).
    mode:
        ``"simulate"`` (exact sufficient statistics, the default) or
        ``"protocol"`` — every iteration consumes per-user report batches
        through the vectorised engine instead.
    """

    def __init__(
        self,
        k: int,
        epsilon: float,
        domain_size: int,
        keep: Optional[int] = None,
        extension_bits: int = 1,
        invalid_mode: str = "random",
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        if domain_size < 1:
            raise DomainError(f"domain size must be >= 1, got {domain_size}")
        if extension_bits < 1:
            raise DomainError(f"extension_bits must be >= 1, got {extension_bits}")
        if invalid_mode not in INVALID_MODES:
            raise ConfigurationError(
                f"invalid_mode must be one of {INVALID_MODES}, got {invalid_mode!r}"
            )
        if mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"mode must be one of {EXECUTION_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.k = int(k)
        self.epsilon = check_epsilon(epsilon)
        self.domain_size = int(domain_size)
        self.keep = int(keep) if keep is not None else self.k
        self.extension_bits = int(extension_bits)
        self.invalid_mode = invalid_mode
        self.rng = ensure_rng(rng)
        self.total_bits = bits_needed(self.domain_size)
        self.start_bits = min(
            self.total_bits,
            bits_needed(min(self.domain_size, self.keep << self.extension_bits)),
        )

    @property
    def n_iterations(self) -> int:
        """Total mining iterations (extension steps + final)."""
        extensions = int(
            np.ceil((self.total_bits - self.start_bits) / self.extension_bits)
        )
        return extensions + 1

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def mine_counts(
        self,
        item_counts: np.ndarray,
        n_always_invalid: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> PEMResult:
        """Mine the top-k from true per-item counts.

        Each iteration's supports come from the configured execution
        ``mode``: exact sufficient-statistic simulation, or per-user
        report batches privatised and folded through the report-plane
        engine.  ``n_always_invalid`` users never hold a valid item (e.g.
        HEC's foreign-label users) and follow the invalid policy each
        iteration.
        """
        rng = rng if rng is not None else self.rng
        counts = np.asarray(item_counts, dtype=np.int64).ravel()
        if counts.size != self.domain_size:
            raise DomainError(
                f"expected counts of length {self.domain_size}, got {counts.size}"
            )

        iterations = self.n_iterations
        cohorts = split_counts_over_iterations(counts, iterations, rng)
        invalid_cohorts = split_total_over_iterations(
            n_always_invalid, iterations, rng
        )

        prefixes = np.arange(1 << self.start_bits, dtype=np.int64)
        depth = self.start_bits
        for iteration in range(iterations - 1):
            outcome = prefix_prune_once(
                prefixes=prefixes,
                depth=depth,
                total_bits=self.total_bits,
                cohort_item_counts=cohorts[iteration],
                n_extra_invalid=invalid_cohorts[iteration],
                keep=self.keep,
                epsilon=self.epsilon,
                invalid_mode=self.invalid_mode,
                rng=rng,
                extension_bits=self.extension_bits,
                mode=self.mode,
            )
            prefixes = outcome.candidates
            depth = min(depth + self.extension_bits, self.total_bits)

        # Final iteration: full-length codes, direct estimation.
        candidates = prefixes[prefixes < self.domain_size]
        top_items, support = estimate_final(
            candidates=candidates,
            valid_item_counts=cohorts[-1],
            n_invalid=invalid_cohorts[-1],
            epsilon=self.epsilon,
            invalid_mode=self.invalid_mode,
            k=self.k,
            rng=rng,
            mode=self.mode,
        )
        return PEMResult(
            top_items=top_items,
            supports=support,
            candidates=candidates,
        )
