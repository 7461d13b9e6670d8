"""End-to-end multi-class top-k mining schemes (paper Section VI-B).

:class:`MultiClassTopK` assembles the full pipelines evaluated in the
paper's Figs. 7-10 and Table III:

===========================  ====================================================
paper legend                 construction here
===========================  ====================================================
``HEC``                      user partition per class + PEM (random replacement)
``PTJ``                      PEM over the joint label-item domain
``PTJ-Shuffling+VP``         joint shuffled buckets + validity perturbation
``PTS``                      GRR label routing + per-class PEM
``PTS-Shuffling+VP+CP``      Algorithm 1 global candidates + Algorithm 2
                             per-class mining with buckets, VP and the CP
                             final iteration under the ``b`` noise rule
===========================  ====================================================

The four optimizations are independent toggles so the Table III ablation
rows are first-class configurations:

* ``"shuffle"`` — shuffled-bucket pruning instead of prefix extension;
* ``"vp"``      — validity perturbation instead of random replacement;
* ``"cp"``      — correlated final iteration (PTS only);
* ``"global"``  — Algorithm 1's sampled global candidate phase (PTS only).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ...datasets.base import LabelItemDataset
from ...exceptions import ConfigurationError, DomainError
from ...mechanisms.base import check_epsilon
from ...mechanisms.budget import split_budget
from ...mechanisms.grr import grr_probabilities, route_labels_grr
from ...rng import RngLike, ensure_rng
from ..frameworks.base import split_counts_into_groups
from .candidate import CandidateGenerationResult, generate_candidates
from .classwise import ClassMiningData, mine_class_topk, noise_rule_use_cp
from .pruning import (
    bucket_iteration_count,
    bucket_prune_once,
    estimate_final,
    prefix_prune_once,
)
from .reporting import (
    EXECUTION_MODES,
    iteration_support,
    split_counts_over_iterations,
    top_indices,
)
from .shuffling import assign_buckets
from .trie import bits_needed
from ...rng import derive_seed

#: Recognised optimization toggles.
OPTIMIZATIONS = frozenset({"shuffle", "vp", "cp", "global"})

#: Framework names accepted by :meth:`MultiClassTopK.for_framework`.
TOPK_FRAMEWORKS = ("hec", "ptj", "pts")


class MultiClassTopK:
    """Configurable multi-class top-k mining pipeline.

    Parameters
    ----------
    framework:
        ``"hec"``, ``"ptj"`` or ``"pts"``.
    k, epsilon:
        Items per class and the total per-user budget ε.
    optimizations:
        Any subset of ``{"shuffle", "vp", "cp", "global"}``; ``cp`` and
        ``global`` are PTS-only (they require label routing).
    a:
        Fraction of users sampled for the Algorithm-1 global phase
        (paper default 0.2).
    b:
        Noise-rule threshold of Algorithm 2 (paper default 2).
    label_fraction:
        ε₁/ε for the PTS label perturbation (paper default 0.5).
    mode:
        Execution mode threaded into every iteration: ``"simulate"``
        (exact sufficient statistics, default) or ``"protocol"``
        (per-user report batches through the vectorised engine).
    """

    def __init__(
        self,
        framework: str,
        k: int,
        epsilon: float,
        n_classes: int,
        n_items: int,
        optimizations: Iterable[str] = (),
        a: float = 0.2,
        b: float = 2.0,
        label_fraction: float = 0.5,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        if framework not in TOPK_FRAMEWORKS:
            raise ConfigurationError(
                f"framework must be one of {TOPK_FRAMEWORKS}, got {framework!r}"
            )
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        if n_classes < 1 or n_items < 1:
            raise DomainError("domains must be non-empty")
        if not 0.0 < a < 1.0:
            raise ConfigurationError(f"a must be in (0, 1), got {a}")
        if b <= 0:
            raise ConfigurationError(f"b must be positive, got {b}")
        self.framework = framework
        self.k = int(k)
        self.epsilon = check_epsilon(epsilon)
        self.n_classes = int(n_classes)
        self.n_items = int(n_items)
        self.optimizations = frozenset(optimizations)
        unknown = self.optimizations - OPTIMIZATIONS
        if unknown:
            raise ConfigurationError(
                f"unknown optimizations {sorted(unknown)}; "
                f"choose from {sorted(OPTIMIZATIONS)}"
            )
        if self.optimizations & {"cp", "global"} and framework != "pts":
            raise ConfigurationError(
                "the 'cp' and 'global' optimizations require the pts "
                "framework (they rely on label routing)"
            )
        if mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"mode must be one of {EXECUTION_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.a = float(a)
        self.b = float(b)
        self.label_fraction = float(label_fraction)
        self.rng = ensure_rng(rng)
        if framework == "pts":
            self.epsilon1, self.epsilon2 = split_budget(epsilon, label_fraction)
        else:
            # HEC and PTJ spend the whole budget on the single report.
            self.epsilon1, self.epsilon2 = 0.0, self.epsilon

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_framework(
        cls,
        framework: str,
        k: int,
        epsilon: float,
        n_classes: int,
        n_items: int,
        optimized: bool = True,
        rng: RngLike = None,
        **options,
    ) -> "MultiClassTopK":
        """Build the paper's named configuration for ``framework``.

        ``optimized=True`` yields ``PTJ-Shuffling+VP`` /
        ``PTS-Shuffling+VP+CP`` (+ global candidates); HEC has no
        optimized variant in the paper and always runs the baseline.
        """
        if optimized and framework == "ptj":
            toggles: Iterable[str] = ("shuffle", "vp")
        elif optimized and framework == "pts":
            toggles = ("shuffle", "vp", "cp", "global")
        else:
            toggles = ()
        return cls(
            framework,
            k=k,
            epsilon=epsilon,
            n_classes=n_classes,
            n_items=n_items,
            optimizations=toggles,
            rng=rng,
            **options,
        )

    @property
    def use_shuffle(self) -> bool:
        return "shuffle" in self.optimizations

    @property
    def use_vp(self) -> bool:
        return "vp" in self.optimizations

    @property
    def use_cp(self) -> bool:
        return "cp" in self.optimizations

    @property
    def use_global(self) -> bool:
        return "global" in self.optimizations

    @property
    def invalid_mode(self) -> str:
        """Invalid-data policy implied by the VP toggle."""
        return "vp" if self.use_vp else "random"

    def describe(self) -> str:
        """The paper-style method name for reports (e.g. PTS-Shuffling+VP+CP)."""
        if not self.optimizations:
            return self.framework.upper()
        parts = []
        if self.use_shuffle:
            parts.append("Shuffling")
        if self.use_vp:
            parts.append("VP")
        if self.use_cp:
            parts.append("CP")
        if self.use_global:
            parts.append("Global")
        return f"{self.framework.upper()}-" + "+".join(parts)

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def mine(
        self, dataset: LabelItemDataset, rng: Optional[np.random.Generator] = None
    ) -> dict[int, list[int]]:
        """Mine the per-class top-k.  Returns ``{label: items}``; a class
        the pipeline could not resolve (e.g. starved under PTJ) maps to a
        short or empty list."""
        if dataset.n_classes != self.n_classes or dataset.n_items != self.n_items:
            raise ConfigurationError(
                f"scheme configured for (c={self.n_classes}, d={self.n_items}) "
                f"but dataset has (c={dataset.n_classes}, d={dataset.n_items})"
            )
        rng = rng if rng is not None else self.rng
        if self.framework == "hec":
            return self._mine_hec(dataset, rng)
        if self.framework == "ptj":
            return self._mine_ptj(dataset, rng)
        return self._mine_pts(dataset, rng)

    # ------------------------------------------------------------------
    # HEC
    # ------------------------------------------------------------------
    def _mine_hec(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> dict[int, list[int]]:
        c = self.n_classes
        sizes = [dataset.n_users // c] * c
        for index in range(dataset.n_users - sum(sizes)):
            sizes[index] += 1
        groups = split_counts_into_groups(dataset.pair_counts(), sizes, rng)
        result: dict[int, list[int]] = {}
        for g in range(c):
            valid = groups[g, g, :]
            n_invalid = int(groups[g].sum() - valid.sum())
            result[g] = self._mine_single_domain(valid, n_invalid, rng)
        return result

    def _mine_single_domain(
        self, valid_counts: np.ndarray, n_always_invalid: int, rng: np.random.Generator
    ) -> list[int]:
        """One class's mining run over the plain item domain (HEC groups)."""
        d, k = self.n_items, self.k
        if self.use_shuffle:
            iterations = bucket_iteration_count(d, k)
            cohorts = split_counts_over_iterations(valid_counts, iterations, rng)
            invalid_cohorts = _split_scalar(n_always_invalid, iterations, rng)
            candidates = np.arange(d, dtype=np.int64)
            for cohort, extra in zip(cohorts[:-1], invalid_cohorts[:-1]):
                outcome = bucket_prune_once(
                    candidates=candidates,
                    cohort_item_counts=cohort,
                    n_extra_invalid=extra,
                    n_buckets=4 * k,
                    keep=2 * k,
                    epsilon=self.epsilon2,
                    invalid_mode=self.invalid_mode,
                    rng=rng,
                    mode=self.mode,
                )
                candidates = outcome.candidates
            top, _support = estimate_final(
                candidates=candidates,
                valid_item_counts=cohorts[-1],
                n_invalid=invalid_cohorts[-1],
                epsilon=self.epsilon2,
                invalid_mode=self.invalid_mode,
                k=k,
                rng=rng,
                mode=self.mode,
            )
            return top
        from .pem import PEMMiner

        miner = PEMMiner(
            k=k,
            epsilon=self.epsilon2,
            domain_size=d,
            invalid_mode=self.invalid_mode,
            mode=self.mode,
            rng=rng,
        )
        return miner.mine_counts(valid_counts, n_always_invalid=n_always_invalid, rng=rng).top_items

    # ------------------------------------------------------------------
    # PTJ
    # ------------------------------------------------------------------
    def _mine_ptj(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> dict[int, list[int]]:
        if self.use_shuffle:
            return self._mine_ptj_buckets(dataset, rng)
        return self._mine_ptj_prefix(dataset, rng)

    def _mine_ptj_buckets(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> dict[int, list[int]]:
        """Joint shuffled buckets: ``4k`` buckets per class, the top
        ``2kc`` kept *globally* — large classes can crowd out small ones,
        which is exactly the Fig. 8 starvation effect."""
        c, d, k = self.n_classes, self.n_items, self.k
        iterations = bucket_iteration_count(d, k)
        cohorts = split_counts_over_iterations(dataset.pair_counts(), iterations, rng)
        class_candidates = [np.arange(d, dtype=np.int64) for _ in range(c)]

        for cohort in cohorts[:-1]:
            assignments = []
            joint_counts = []
            offsets = [0]
            for label in range(c):
                if class_candidates[label].size == 0:
                    assignments.append(None)
                    offsets.append(offsets[-1])
                    continue
                assignment = assign_buckets(
                    class_candidates[label], 4 * k, derive_seed(rng)
                )
                assignments.append(assignment)
                joint_counts.append(
                    assignment.bucket_counts(cohort[label][assignment.candidates])
                )
                offsets.append(offsets[-1] + assignment.n_buckets)
            if offsets[-1] == 0:
                break
            joint = np.concatenate(joint_counts)
            n_invalid = int(cohort.sum() - joint.sum())
            support = iteration_support(
                valid_counts=joint,
                n_invalid=n_invalid,
                epsilon=self.epsilon,
                invalid_mode=self.invalid_mode,
                rng=rng,
                replacement_weights=self._joint_bucket_weights(assignments),
                mode=self.mode,
            )
            kept = set(top_indices(support, min(2 * k * c, joint.size)).tolist())
            for label in range(c):
                assignment = assignments[label]
                if assignment is None:
                    continue
                local_kept = [
                    bucket
                    for bucket in range(assignment.n_buckets)
                    if offsets[label] + bucket in kept
                ]
                if local_kept:
                    class_candidates[label] = assignment.surviving_candidates(
                        np.asarray(local_kept)
                    )
                else:
                    class_candidates[label] = np.empty(0, dtype=np.int64)

        # Final iteration: direct supports over the surviving pairs.
        final = cohorts[-1]
        joint_counts = []
        offsets = [0]
        for label in range(c):
            cand = class_candidates[label]
            joint_counts.append(final[label][cand])
            offsets.append(offsets[-1] + cand.size)
        result: dict[int, list[int]] = {label: [] for label in range(c)}
        if offsets[-1] == 0:
            return result
        joint = np.concatenate(joint_counts)
        n_invalid = int(final.sum() - joint.sum())
        support = iteration_support(
            valid_counts=joint,
            n_invalid=n_invalid,
            epsilon=self.epsilon,
            invalid_mode=self.invalid_mode,
            rng=rng,
            mode=self.mode,
        )
        for label in range(c):
            cand = class_candidates[label]
            if cand.size == 0:
                continue
            block = support[offsets[label] : offsets[label + 1]]
            kept = top_indices(block, min(self.k, cand.size))
            result[label] = [int(v) for v in cand[kept]]
        return result

    @staticmethod
    def _joint_bucket_weights(assignments: list) -> np.ndarray:
        """Replacement weights proportional to bucket sizes across the
        concatenated per-class blocks."""
        sizes = [
            assignment.bucket_sizes().astype(np.float64)
            for assignment in assignments
            if assignment is not None
        ]
        return np.concatenate(sizes)

    def _mine_ptj_prefix(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> dict[int, list[int]]:
        """Baseline PTJ: PEM over the label-major joint encoding, keeping
        the top ``2kc`` prefixes globally."""
        c, d, k = self.n_classes, self.n_items, self.k
        item_bits = bits_needed(d)
        label_bits = bits_needed(c)
        total_bits = label_bits + item_bits
        flat_counts = np.zeros((1 << total_bits,), dtype=np.int64)
        pair_counts = dataset.pair_counts()
        labels = np.repeat(np.arange(c), d)
        items = np.tile(np.arange(d), c)
        flat_counts[(labels << item_bits) | items] = pair_counts.ravel()

        start_bits = min(total_bits, bits_needed(min(1 << total_bits, 2 * k * c)))
        iterations = total_bits - start_bits + 1
        cohorts = split_counts_over_iterations(flat_counts, iterations, rng)
        prefixes = np.arange(1 << start_bits, dtype=np.int64)
        depth = start_bits
        for cohort in cohorts[:-1]:
            outcome = prefix_prune_once(
                prefixes=prefixes,
                depth=depth,
                total_bits=total_bits,
                cohort_item_counts=cohort,
                n_extra_invalid=0,
                keep=k * c,  # PEM retention scaled to the joint domain
                epsilon=self.epsilon,
                invalid_mode=self.invalid_mode,
                rng=rng,
                mode=self.mode,
            )
            prefixes = outcome.candidates
            depth += 1
        # Final: full-length codes; per-class selection.
        valid_codes = prefixes[(prefixes & ((1 << item_bits) - 1)) < d]
        valid_codes = valid_codes[(valid_codes >> item_bits) < c]
        result: dict[int, list[int]] = {label: [] for label in range(c)}
        if valid_codes.size == 0:
            return result
        final = cohorts[-1]
        candidate_counts = final[valid_codes]
        n_invalid = int(final.sum() - candidate_counts.sum())
        support = iteration_support(
            valid_counts=candidate_counts,
            n_invalid=n_invalid,
            epsilon=self.epsilon,
            invalid_mode=self.invalid_mode,
            rng=rng,
            mode=self.mode,
        )
        code_labels = valid_codes >> item_bits
        for label in range(c):
            mask = code_labels == label
            if not mask.any():
                continue
            block_support = support[mask]
            block_items = valid_codes[mask] & ((1 << item_bits) - 1)
            kept = top_indices(block_support, min(self.k, block_items.size))
            result[label] = [int(v) for v in block_items[kept]]
        return result

    # ------------------------------------------------------------------
    # PTS
    # ------------------------------------------------------------------
    def _mine_pts(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> dict[int, list[int]]:
        c, d, k = self.n_classes, self.n_items, self.k
        pair_counts = dataset.pair_counts()
        total_bits = bits_needed(d)
        # PEM's report domain is k * 2^m values (m = 1 here), so prefix
        # schedules start at ~2k prefixes; bucket schedules start full.
        start_bits = min(total_bits, bits_needed(min(d, 2 * k)))
        if self.use_shuffle:
            iterations = bucket_iteration_count(d, k)
        else:
            iterations = total_bits - start_bits + 1
        it_f = iterations // 2 if (self.use_global and iterations >= 2) else 0
        it_r = iterations - it_f

        # --- phase allocation -----------------------------------------
        if it_f > 0:
            n_global = int(round(self.a * dataset.n_users))
            n_global = min(max(n_global, 0), dataset.n_users - 1)
            split = split_counts_into_groups(
                pair_counts, [n_global, dataset.n_users - n_global], rng
            )
            global_counts, class_counts = split[0], split[1]
        else:
            global_counts = np.zeros_like(pair_counts)
            class_counts = pair_counts

        # --- Algorithm 1: global candidates + class-size estimates ----
        generation: Optional[CandidateGenerationResult] = None
        if it_f > 0:
            generation = generate_candidates(
                item_counts=global_counts.sum(axis=0),
                label_counts=global_counts.sum(axis=1),
                k=k,
                n_iterations=it_f,
                epsilon1=self.epsilon1,
                epsilon2=self.epsilon2,
                invalid_mode=self.invalid_mode,
                use_buckets=self.use_shuffle,
                rng=rng,
                total_bits=None if self.use_shuffle else total_bits,
                start_prefixes=(
                    None
                    if self.use_shuffle
                    else np.arange(1 << start_bits, dtype=np.int64)
                ),
                start_depth=None if self.use_shuffle else start_bits,
                mode=self.mode,
            )
            candidates = generation.candidates
            prefix_depth = generation.prefix_depth
        else:
            if self.use_shuffle:
                candidates = np.arange(d, dtype=np.int64)
                prefix_depth = None
            else:
                candidates = np.arange(1 << start_bits, dtype=np.int64)
                prefix_depth = start_bits

        # --- label routing (GRR, ε₁) ----------------------------------
        p1, _q1 = grr_probabilities(self.epsilon1, c)
        native, foreign = route_labels_grr(class_counts, p1, rng)
        inflows = native.sum(axis=1) + foreign.sum(axis=1)
        n_phase2 = int(class_counts.sum())
        expected = self._expected_class_sizes(generation, inflows, n_phase2)

        # --- Algorithm 2 per class -------------------------------------
        result: dict[int, list[int]] = {}
        for label in range(c):
            use_cp = self.use_cp and noise_rule_use_cp(
                float(inflows[label]), float(expected[label]), self.b
            )
            mined = mine_class_topk(
                data=ClassMiningData(
                    native_counts=native[label], foreign_counts=foreign[label]
                ),
                candidates=candidates,
                k=k,
                n_iterations=it_r,
                epsilon2=self.epsilon2,
                use_cp_final=use_cp,
                invalid_mode=self.invalid_mode,
                rng=rng,
                use_buckets=self.use_shuffle,
                total_bits=None if self.use_shuffle else total_bits,
                prefix_depth=prefix_depth,
                mode=self.mode,
            )
            result[label] = mined.top_items
        return result

    def _expected_class_sizes(
        self,
        generation: Optional[CandidateGenerationResult],
        inflows: np.ndarray,
        n_phase2: int,
    ) -> np.ndarray:
        """|D'_C| for the ``b`` rule: global-phase estimates scaled to the
        phase-2 population, or (without a global phase) the unbiased
        inversion of the phase-2 inflows themselves."""
        if generation is not None:
            return generation.class_fractions() * n_phase2
        p1, q1 = grr_probabilities(self.epsilon1 or self.epsilon, self.n_classes)
        if self.n_classes == 1:
            return np.asarray(inflows, dtype=np.float64)
        return (np.asarray(inflows, dtype=np.float64) - n_phase2 * q1) / (p1 - q1)


def _split_scalar(total: int, n_parts: int, rng: np.random.Generator) -> list[int]:
    """Split a user count into near-equal random cohorts."""
    if total < 0:
        raise DomainError(f"cannot split a negative count: {total}")
    if total == 0:
        return [0] * n_parts
    parts = split_counts_over_iterations(np.asarray([total]), n_parts, rng)
    return [int(part[0]) for part in parts]
