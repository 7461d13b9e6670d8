"""Framework base class for multi-class frequency estimation.

A *framework* fixes how the label-item pair travels to the server (HEC's
user partition, PTJ's joint domain, PTS's split budget, PTS-CP's
correlated perturbation) and produces an unbiased ``(c, d)`` matrix of
estimated pair counts from a :class:`~repro.datasets.base.LabelItemDataset`.

Every framework supports two execution modes:

``"simulate"`` (default)
    Exact sufficient-statistic sampling — the aggregated supports are
    drawn directly from the distribution the per-user protocol induces
    (see :mod:`repro.mechanisms.base`).  Scales to millions of users.

``"protocol"``
    The literal wire protocol: one report per user, privatised and
    aggregated in vectorised batches through the report-plane engine
    (:mod:`repro.mechanisms.engine`).

A framework is a configuration; its one implementation is its
:class:`~repro.stream.session.OnlineFrameworkSession`.  A one-shot run is
a stream of one batch in both modes: a fresh session folds in the whole
dataset — its cached pair counts in simulate mode, its users in protocol
mode — and answers ``estimate()``.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ...datasets.base import LabelItemDataset
from ...exceptions import ConfigurationError
from ...rng import RngLike, ensure_rng, spawn

#: The two execution modes accepted by every framework.
MODES = ("simulate", "protocol")


class MulticlassFramework(abc.ABC):
    """Estimate the ``(c, d)`` pair-count matrix under ε-LDP.

    Parameters
    ----------
    epsilon:
        Total per-user privacy budget.
    n_classes, n_items:
        Domain sizes; must match the dataset passed to
        :meth:`estimate_frequencies`.
    mode:
        ``"simulate"`` or ``"protocol"`` (see module docstring).
    """

    name: str = "framework"

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        from ...stream.session import make_session

        self.rng = ensure_rng(rng)
        # Validates the configuration and holds the mechanisms whose
        # probabilities and report sizes the subclasses expose; it never
        # ingests.  Split-budget subclasses set ``label_fraction`` first.
        self._session = make_session(
            self.name,
            epsilon=epsilon,
            n_classes=n_classes,
            n_items=n_items,
            mode=mode,
            rng=self.rng,
            label_fraction=getattr(self, "label_fraction", None),
        )
        self.epsilon = self._session.epsilon
        self.n_classes = self._session.n_classes
        self.n_items = self._session.n_items
        self.mode = mode

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def estimate_frequencies(
        self, dataset: LabelItemDataset, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Run the framework end to end and return estimated pair counts.

        A fresh session drawing from ``rng`` (default: the framework's
        generator) ingests the dataset as one batch and answers
        ``estimate()``.  Simulate mode folds in the dataset's cached
        :meth:`~repro.datasets.base.LabelItemDataset.pair_counts`.
        """
        self._check_dataset(dataset)
        session = self._session._clone_config(rng)
        if self.mode == "simulate":
            session.ingest_counts(dataset.pair_counts())
        else:
            session.ingest_batch(dataset.labels, dataset.items)
        return session.estimate()

    @abc.abstractmethod
    def communication_bits_per_user(self) -> int:
        """Per-user report size in bits (Table II accounting)."""

    def streaming_session(self, rng: RngLike = None):
        """A fresh online session with this framework's configuration.

        The session ingests ``(labels, items)`` batches incrementally and
        answers ``estimate()`` / ``topk(k)`` queries at any point
        mid-stream (see :mod:`repro.stream.session`).  Pass ``rng`` to
        give the session its own stream; it defaults to a child of this
        framework's generator so framework and session stay independent.
        """
        if rng is None:
            rng = spawn(self.rng, 1)[0]
        return self._session._clone_config(rng)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_dataset(self, dataset: LabelItemDataset) -> None:
        if dataset.n_classes != self.n_classes or dataset.n_items != self.n_items:
            raise ConfigurationError(
                f"framework configured for (c={self.n_classes}, d={self.n_items}) "
                f"but dataset has (c={dataset.n_classes}, d={dataset.n_items})"
            )
        if dataset.n_users == 0:
            raise ConfigurationError("dataset holds no users")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon!r}, "
            f"n_classes={self.n_classes!r}, n_items={self.n_items!r}, "
            f"mode={self.mode!r})"
        )


class SplitBudgetFramework(MulticlassFramework):
    """A framework that splits ε between the label (ε₁) and the item (ε₂);
    ``label_fraction`` is ε₁'s share (paper default 0.5)."""

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        label_fraction: float = 0.5,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        self.label_fraction = float(label_fraction)
        super().__init__(epsilon, n_classes, n_items, mode=mode, rng=rng)
        self.epsilon1 = self._session.epsilon1
        self.epsilon2 = self._session.epsilon2


def split_counts_into_groups(
    pair_counts: np.ndarray, group_sizes: list[int], rng: np.random.Generator
) -> np.ndarray:
    """Exactly partition a ``(c, d)`` count matrix into user groups.

    Returns ``(g, c, d)`` counts whose sum over axis 0 reproduces the
    input.  Each group is a uniform random sample without replacement of
    the user population, so per-group cell counts follow the multivariate
    hypergeometric distribution — identical in law to shuffling the users
    and slicing.
    """
    counts = np.asarray(pair_counts, dtype=np.int64)
    remaining = counts.ravel().copy()
    total = int(remaining.sum())
    if sum(group_sizes) != total:
        raise ConfigurationError(
            f"group sizes sum to {sum(group_sizes)} but the dataset has {total} users"
        )
    out = np.empty((len(group_sizes), counts.size), dtype=np.int64)
    for index, size in enumerate(group_sizes):
        if size == int(remaining.sum()):
            draw = remaining.copy()
        else:
            draw = rng.multivariate_hypergeometric(remaining, size, method="marginals")
        out[index] = draw
        remaining -= draw
    return out.reshape(len(group_sizes), *counts.shape)
