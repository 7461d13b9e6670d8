"""LDP frequency-oracle substrate.

This subpackage implements every perturbation primitive the paper uses or
compares against, from scratch:

* :class:`~repro.mechanisms.grr.GeneralizedRandomResponse` — k-RR.
* :class:`~repro.mechanisms.ue.SymmetricUnaryEncoding` /
  :class:`~repro.mechanisms.ue.OptimizedUnaryEncoding` — SUE / OUE.
* :class:`~repro.mechanisms.olh.OptimalLocalHashing` — OLH.
* :class:`~repro.mechanisms.rappor.Rappor` — one-shot RAPPOR.
* :class:`~repro.mechanisms.hadamard.HadamardResponse` — Hadamard response.
* :class:`~repro.mechanisms.adaptive.AdaptiveMechanism` — the GRR/OUE
  selector (``d < 3e^ε + 2``) from Wang et al.
* :class:`~repro.mechanisms.validity.ValidityPerturbation` — the paper's
  validity-flag mechanism (Section IV-A).
* :class:`~repro.mechanisms.correlated.CorrelatedPerturbation` — the
  paper's correlated label-item mechanism (Section IV-B).

Every oracle exposes the columnar batch API of the unified report plane:
``privatize_many`` (vectorised, plain-ndarray reports) and
``aggregate_batch`` (one-pass fold built on
:mod:`~repro.mechanisms.kernels`).  The batch execution engine
(:mod:`~repro.mechanisms.engine`) chains the two in bounded blocks and is
the single protocol-mode primitive used by frameworks, streaming sessions
and the top-k miners.
"""

from .adaptive import AdaptiveMechanism, grr_beats_oue, make_adaptive
from .base import FrequencyOracle, calibrate_counts, pure_protocol_variance
from .budget import PrivacyBudget, split_budget
from .correlated import (
    CorrelatedPerturbation,
    CorrelatedSupport,
    fold_correlated_batch,
)
from .engine import batch_spans, batch_support, grouped_batch_support
from .grr import GeneralizedRandomResponse, grr_probabilities, route_labels_grr
from .hadamard import HadamardResponse
from .olh import OptimalLocalHashing
from .rappor import Rappor
from .ue import (
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    UnaryEncoding,
    oue_probabilities,
    ue_epsilon,
)
from .validity import ValidityPerturbation

__all__ = [
    "AdaptiveMechanism",
    "CorrelatedPerturbation",
    "CorrelatedSupport",
    "FrequencyOracle",
    "batch_spans",
    "batch_support",
    "fold_correlated_batch",
    "grouped_batch_support",
    "GeneralizedRandomResponse",
    "HadamardResponse",
    "OptimalLocalHashing",
    "OptimizedUnaryEncoding",
    "PrivacyBudget",
    "Rappor",
    "SymmetricUnaryEncoding",
    "UnaryEncoding",
    "ValidityPerturbation",
    "calibrate_counts",
    "grr_beats_oue",
    "grr_probabilities",
    "make_adaptive",
    "oue_probabilities",
    "pure_protocol_variance",
    "route_labels_grr",
    "split_budget",
    "ue_epsilon",
]
