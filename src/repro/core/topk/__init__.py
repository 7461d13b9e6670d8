"""Multi-class top-k item mining (paper Section VI-B).

* :mod:`~repro.core.topk.trie` / :mod:`~repro.core.topk.pem` — the PEM
  prefix-extension baseline and its bit-string helpers.
* :mod:`~repro.core.topk.shuffling` — seeded candidate shuffling and the
  Fig. 3 combinatorics.
* :mod:`~repro.core.topk.pruning` — single bucket/prefix iterations and
  the final estimation step.
* :mod:`~repro.core.topk.candidate` — Algorithm 1 (global candidates).
* :mod:`~repro.core.topk.classwise` — Algorithm 2 (per-class mining).
* :mod:`~repro.core.topk.scheme` — the assembled HEC / PTJ / PTS
  pipelines with the four optimization toggles.
"""

from .candidate import CandidateGenerationResult, generate_candidates
from .classwise import (
    ClassMiningData,
    ClassMiningResult,
    mine_class_topk,
    noise_rule_use_cp,
)
from .pem import PEMMiner, PEMResult, pem_iteration_count
from .pruning import (
    bucket_iteration_count,
    bucket_prune_once,
    estimate_final,
    prefix_prune_once,
)
from .reporting import (
    EXECUTION_MODES,
    INVALID_MODES,
    iteration_support,
    protocol_iteration_support,
    simulate_iteration_support,
    split_counts_over_iterations,
    top_indices,
    topk_per_class,
)
from .scheme import OPTIMIZATIONS, TOPK_FRAMEWORKS, MultiClassTopK
from .shuffling import (
    BucketAssignment,
    BucketState,
    assign_buckets,
    fig3_success_probability,
    pair_partition_count,
)
from .trie import bits_needed, extend_prefixes, prefix_counts, prefix_of

__all__ = [
    "BucketAssignment",
    "BucketState",
    "CandidateGenerationResult",
    "ClassMiningData",
    "ClassMiningResult",
    "EXECUTION_MODES",
    "INVALID_MODES",
    "MultiClassTopK",
    "OPTIMIZATIONS",
    "PEMMiner",
    "PEMResult",
    "TOPK_FRAMEWORKS",
    "assign_buckets",
    "bits_needed",
    "bucket_iteration_count",
    "bucket_prune_once",
    "estimate_final",
    "extend_prefixes",
    "fig3_success_probability",
    "generate_candidates",
    "iteration_support",
    "mine_class_topk",
    "noise_rule_use_cp",
    "pair_partition_count",
    "pem_iteration_count",
    "prefix_counts",
    "prefix_of",
    "prefix_prune_once",
    "protocol_iteration_support",
    "simulate_iteration_support",
    "split_counts_over_iterations",
    "top_indices",
    "topk_per_class",
]
