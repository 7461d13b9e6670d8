"""repro — Multi-class Item Mining under Local Differential Privacy.

A from-scratch reproduction of the ICDE 2025 paper: the LDP frequency
oracles it builds on (GRR, SUE/OUE and the adaptive GRR/OUE choice), the
paper's validity and correlated perturbation mechanisms, the
HEC/PTJ/PTS/PTS-CP multi-class frameworks, and the shuffling-based
multi-class top-k mining pipeline, plus datasets, metrics and a bench
harness regenerating every table and figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import LabelItemDataset, estimate_frequencies

    rng = np.random.default_rng(7)
    data = LabelItemDataset(
        labels=rng.integers(0, 3, 10_000),
        items=rng.integers(0, 50, 10_000),
        n_classes=3,
        n_items=50,
    )
    f_hat = estimate_frequencies(data, framework="pts-cp", epsilon=2.0, rng=rng)
"""

from .core.frameworks import (
    HECFramework,
    MulticlassFramework,
    PTJFramework,
    PTSCPFramework,
    PTSFramework,
    make_framework,
)
from .core.queries import estimate_frequencies, mine_topk
from .datasets import LabelItemDataset
from .exceptions import (
    AggregationError,
    ConfigurationError,
    DomainError,
    PrivacyBudgetError,
    ProtocolError,
    ReproError,
)
from .mechanisms import (
    CorrelatedPerturbation,
    GeneralizedRandomResponse,
    OptimizedUnaryEncoding,
    PrivacyBudget,
    ValidityPerturbation,
)
from .stream import OnlineFrameworkSession, ShardedAggregator, make_session
from .types import INVALID_ITEM, DomainSpec, LabelItemPair

__version__ = "1.1.0"

__all__ = [
    "AggregationError",
    "ConfigurationError",
    "CorrelatedPerturbation",
    "DomainError",
    "DomainSpec",
    "GeneralizedRandomResponse",
    "HECFramework",
    "INVALID_ITEM",
    "LabelItemDataset",
    "LabelItemPair",
    "MulticlassFramework",
    "OnlineFrameworkSession",
    "OptimizedUnaryEncoding",
    "PTJFramework",
    "PTSCPFramework",
    "PTSFramework",
    "PrivacyBudget",
    "PrivacyBudgetError",
    "ProtocolError",
    "ReproError",
    "ShardedAggregator",
    "ValidityPerturbation",
    "estimate_frequencies",
    "make_framework",
    "make_session",
    "mine_topk",
    "__version__",
]
