"""Online framework sessions — incremental multi-class estimation.

An :class:`OnlineFrameworkSession` is the streaming counterpart of a
:class:`~repro.core.frameworks.base.MulticlassFramework`: instead of one
``estimate_frequencies(dataset)`` call it ingests ``(labels, items)``
batches as they arrive and answers queries at any point mid-stream:

* :meth:`~OnlineFrameworkSession.estimate` — the unbiased ``(c, d)`` pair
  count matrix from everything ingested so far;
* :meth:`~OnlineFrameworkSession.topk` — per-class top-k item ids;
* :meth:`~OnlineFrameworkSession.class_sizes` — estimated class amounts.

Sessions are *mergeable*: every framework's sufficient statistics are
additive counters, so :meth:`~OnlineFrameworkSession.merge` combines two
partial sessions (associatively and commutatively) and shard-parallel
ingestion through :class:`repro.stream.sharding.ShardedAggregator` yields
the same estimates as a single session.  Sessions checkpoint to ``.npz``
(:meth:`~OnlineFrameworkSession.save` /
:meth:`~OnlineFrameworkSession.load`).

Both framework execution modes are supported per batch: ``"simulate"``
draws the batch's sufficient statistics exactly from its ``(c, d)`` pair
counts (fast path — LDP noise is iid per user, so batch-wise simulation
induces the same law as one pass over all users), ``"protocol"``
privatises each user's report through the report-plane engine
(:mod:`repro.mechanisms.engine`) — the same blockwise ``privatize_many``
→ ``aggregate_batch`` primitive the top-k miners use.  These sessions are
the frameworks' only implementation:
:meth:`~repro.core.frameworks.base.MulticlassFramework.estimate_frequencies`
is a session fed the whole dataset as one batch, in both modes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.estimators import (
    calibrate_hec,
    calibrate_pts,
    calibrate_ptj,
    estimate_class_sizes,
)
from ..core.variance import (
    cp_variance_matrix,
    hec_variance_matrix,
    ldp_variance_matrix,
    pts_variance_matrix,
)
from ..core.topk.reporting import topk_per_class
from ..exceptions import ConfigurationError, DomainError, ProtocolError
from ..mechanisms.adaptive import make_adaptive
from ..mechanisms.base import check_domain_size, check_epsilon
from ..mechanisms.budget import split_budget
from ..mechanisms.correlated import CorrelatedPerturbation, CorrelatedSupport
from ..mechanisms.engine import batch_support, grouped_batch_support
from ..mechanisms.grr import GeneralizedRandomResponse, route_labels_grr
from ..mechanisms.ue import OptimizedUnaryEncoding
from ..rng import RngLike, ensure_rng


class OnlineFrameworkSession:
    """Base class: batch ingestion, online queries, merge, checkpointing.

    Parameters mirror the one-shot frameworks; see the module docstring
    for semantics.  Subclasses declare ``_STATE_FIELDS`` — the names of
    their additive ``int64`` state arrays — and everything generic
    (merge, save/load, queries) is driven off that list.
    """

    name: str = "session"
    #: Names of the additive state arrays (attribute ``_<name>`` each).
    _STATE_FIELDS: tuple[str, ...] = ()

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        from ..core.frameworks.base import MODES

        self.epsilon = check_epsilon(epsilon)
        self.n_classes = check_domain_size(n_classes)
        self.n_items = check_domain_size(n_items)
        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.rng = ensure_rng(rng)
        self._n = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def n_ingested(self) -> int:
        """Number of user reports ingested so far."""
        return self._n

    def ingest_batch(self, labels, items=None) -> int:
        """Ingest one batch of users; returns the batch size.

        Accepts either two aligned arrays or a single ``(labels, items)``
        tuple (the form :class:`~repro.stream.sharding.ShardedAggregator`
        fans out).
        """
        if items is None:
            labels, items = labels
        labels = np.asarray(labels, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        if labels.shape != items.shape:
            raise DomainError(
                f"labels ({labels.shape}) and items ({items.shape}) must align"
            )
        if labels.size == 0:
            return 0
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise DomainError(f"labels outside [0, {self.n_classes})")
        if items.min() < 0 or items.max() >= self.n_items:
            raise DomainError(f"items outside [0, {self.n_items})")
        if self.mode == "simulate":
            self._ingest_simulated(self._batch_pair_counts(labels, items))
        else:
            self._ingest_protocol(labels, items)
        self._n += labels.size
        return labels.size

    def ingest_counts(self, pair_counts) -> int:
        """Ingest one batch given as its ``(c, d)`` matrix of user counts
        per (label, item) cell; returns the batch size.

        Simulate mode only: its draws depend on a batch through these
        counts alone, so this folds the same batch as :meth:`ingest_batch`
        with the same draws, without recounting labels and items.
        """
        if self.mode != "simulate":
            raise ConfigurationError(
                "ingest_counts needs simulate mode; protocol mode privatises "
                "one report per user, so feed it ingest_batch"
            )
        counts = np.asarray(pair_counts)
        if counts.shape != (self.n_classes, self.n_items):
            raise DomainError(
                f"pair counts have shape {counts.shape}, expected "
                f"{(self.n_classes, self.n_items)}"
            )
        if counts.dtype.kind not in "iu":
            raise DomainError(f"pair counts must be integers, got {counts.dtype}")
        if counts.min() < 0:
            raise DomainError("pair counts must be non-negative")
        counts = counts.astype(np.int64, copy=False)
        n = int(counts.sum())
        if n == 0:
            return 0
        self._ingest_simulated(counts)
        self._n += n
        return n

    def ingest_dataset(self, dataset, batch_size: int = 65_536) -> int:
        """Stream a :class:`~repro.datasets.base.LabelItemDataset` through
        the session in ``batch_size`` slices; returns the user count."""
        if dataset.n_classes != self.n_classes or dataset.n_items != self.n_items:
            raise ConfigurationError(
                f"session configured for (c={self.n_classes}, d={self.n_items}) "
                f"but dataset has (c={dataset.n_classes}, d={dataset.n_items})"
            )
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        total = 0
        for start in range(0, dataset.n_users, batch_size):
            stop = start + batch_size
            total += self.ingest_batch(
                dataset.labels[start:stop], dataset.items[start:stop]
            )
        return total

    def _batch_pair_counts(self, labels: np.ndarray, items: np.ndarray) -> np.ndarray:
        flat = labels * self.n_items + items
        counts = np.bincount(flat, minlength=self.n_classes * self.n_items)
        return counts.reshape(self.n_classes, self.n_items)

    def _ingest_simulated(self, counts: np.ndarray) -> None:
        raise NotImplementedError

    def _ingest_protocol(self, labels: np.ndarray, items: np.ndarray) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # online queries
    # ------------------------------------------------------------------
    def estimate(self) -> np.ndarray:
        """Unbiased ``(c, d)`` pair-count estimates from the stream so far."""
        if self._n == 0:
            raise ProtocolError("no data ingested yet; estimate() needs reports")
        return self._estimate()

    def _estimate(self) -> np.ndarray:
        raise NotImplementedError

    def topk(self, k: int) -> dict[int, list[int]]:
        """Per-class top-``k`` item ids, most frequent first (online query)."""
        return topk_per_class(self.estimate(), k)

    def class_sizes(self) -> np.ndarray:
        """Estimated class amounts ``n̂_C`` from the stream so far."""
        return self.estimate().sum(axis=1)

    def estimate_variance(self) -> np.ndarray:
        """Per-cell ``(c, d)`` variance bound of :meth:`estimate`.

        The Section-V closed forms evaluated at the plug-in estimate
        (see ``repro.core.variance``'s ``*_variance_matrix`` helpers) —
        the noise floor the drift detector measures residuals against.
        """
        if self._n == 0:
            raise ProtocolError(
                "no data ingested yet; estimate_variance() needs reports"
            )
        return self._estimate_variance()

    def _estimate_variance(self) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # ageing
    # ------------------------------------------------------------------
    def decay(self, factor: float) -> None:
        """Exponentially age the stream: scale every additive counter (and
        the ingested-user count) by ``factor`` in ``(0, 1]``.

        Applied periodically this turns the session into a recency-weighted
        estimator for time-varying streams: old reports fade geometrically
        while fresh batches enter at full weight.  Supports and user counts
        shrink together, so the calibrations stay consistent; the integer
        rounding adds a vanishing O(1) perturbation per counter.

        The user count is rounded with the same half-to-even ``np.rint``
        as the counters and then clamped to at least 1 while any counter
        is nonzero — on sparse streams a long decay schedule can round
        ``_n`` down to 0 while support mass survives, which would make
        every calibration degenerate (or divide by zero) even though the
        session still holds signal.
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"decay factor must be in (0, 1], got {factor!r}"
            )
        if factor == 1.0:
            return
        any_nonzero = False
        for field in self._STATE_FIELDS:
            arr = np.rint(getattr(self, "_" + field) * factor).astype(np.int64)
            setattr(self, "_" + field, arr)
            any_nonzero = any_nonzero or bool(arr.any())
        self._n = int(np.rint(self._n * factor))
        if any_nonzero and self._n < 1:
            self._n = 1

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: "OnlineFrameworkSession") -> "OnlineFrameworkSession":
        """Combined session (associative, commutative in distribution).

        Both sessions must share framework, budget and domains; the
        execution mode may differ (simulate and protocol batches produce
        the same sufficient statistics).
        """
        if type(other) is not type(self) or self._config() != other._config():
            raise ConfigurationError(
                f"cannot merge {self!r} with "
                f"{other!r}"
            )
        out = self._clone_config()
        for field in self._STATE_FIELDS:
            setattr(
                out,
                "_" + field,
                getattr(self, "_" + field) + getattr(other, "_" + field),
            )
        out._n = self._n + other._n
        return out

    def _config(self) -> dict:
        """Scalars a merge partner / checkpoint must agree on."""
        return {
            "session": self.name,
            "epsilon": self.epsilon,
            "n_classes": self.n_classes,
            "n_items": self.n_items,
        }

    def _config_kwargs(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n_classes": self.n_classes,
            "n_items": self.n_items,
            "mode": self.mode,
            "rng": self.rng,
        }

    def _clone_config(self, rng: RngLike = None) -> "OnlineFrameworkSession":
        """An empty session with this configuration, drawing from ``rng``
        (default: this session's generator)."""
        kwargs = self._config_kwargs()
        if rng is not None:
            kwargs["rng"] = rng
        return type(self)(**kwargs)

    def copy(self) -> "OnlineFrameworkSession":
        """Detached snapshot of the aggregation state (shares the rng)."""
        out = self._clone_config()
        for field in self._STATE_FIELDS:
            setattr(out, "_" + field, getattr(self, "_" + field).copy())
        out._n = self._n
        return out

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Checkpoint the aggregation state to an ``.npz`` archive.

        Client-side randomness is not captured (the server never holds
        it); restore with :meth:`load`, passing a generator to resume
        ingestion.
        """
        from .checkpoint import save_state

        meta = dict(self._config())
        meta["mode"] = self.mode
        meta["n"] = int(self._n)
        arrays = {
            field: getattr(self, "_" + field) for field in self._STATE_FIELDS
        }
        save_state(path, meta, arrays)

    @classmethod
    def load(cls, path, rng: RngLike = None) -> "OnlineFrameworkSession":
        """Restore a session checkpointed with :meth:`save`."""
        from .checkpoint import load_state

        meta, arrays = load_state(path)
        name = meta["session"]
        session = make_session(
            name,
            epsilon=meta["epsilon"],
            n_classes=meta["n_classes"],
            n_items=meta["n_items"],
            mode=meta.get("mode", "simulate"),
            rng=rng,
            label_fraction=meta.get("label_fraction"),
        )
        if cls is not OnlineFrameworkSession and not isinstance(session, cls):
            raise ConfigurationError(
                f"checkpoint holds a {name!r} session, not {cls.name!r}"
            )
        for field in session._STATE_FIELDS:
            stored = np.asarray(arrays[field], dtype=np.int64)
            target = getattr(session, "_" + field)
            if stored.shape != target.shape:
                raise ConfigurationError(
                    f"checkpoint array {field!r} has shape {stored.shape}, "
                    f"expected {target.shape}"
                )
            setattr(session, "_" + field, stored)
        session._n = int(meta["n"])
        return session

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon!r}, "
            f"n_classes={self.n_classes!r}, n_items={self.n_items!r}, "
            f"mode={self.mode!r}, n_ingested={self._n})"
        )


class OnlinePTJ(OnlineFrameworkSession):
    """Streaming PTJ: one adaptive oracle over the joint ``c * d`` domain."""

    name = "ptj"
    _STATE_FIELDS = ("support",)

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        super().__init__(epsilon, n_classes, n_items, mode=mode, rng=rng)
        self._oracle = make_adaptive(
            self.epsilon, self.n_classes * self.n_items, rng=self.rng
        )
        self._support = np.zeros(self.n_classes * self.n_items, dtype=np.int64)

    def _ingest_simulated(self, counts: np.ndarray) -> None:
        self._support += self._oracle.simulate_support(counts.ravel(), rng=self.rng)

    def _ingest_protocol(self, labels: np.ndarray, items: np.ndarray) -> None:
        flat = labels * self.n_items + items
        self._support += batch_support(self._oracle, flat)

    def _estimate(self) -> np.ndarray:
        return calibrate_ptj(
            self._support, self._n, self._oracle.p, self._oracle.q, self.n_classes
        )

    def _estimate_variance(self) -> np.ndarray:
        return ldp_variance_matrix(
            self._estimate(), self._n, self._oracle.p, self._oracle.q
        )


class OnlinePTS(OnlineFrameworkSession):
    """Streaming PTS: GRR labels (ε₁) + OUE items (ε₂), grouped by
    perturbed label."""

    name = "pts"
    _STATE_FIELDS = ("pair_support", "label_counts")

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        label_fraction: float = 0.5,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        super().__init__(epsilon, n_classes, n_items, mode=mode, rng=rng)
        if self.n_classes < 2:
            raise ConfigurationError("PTS needs at least two classes")
        self.label_fraction = float(label_fraction)
        self.epsilon1, self.epsilon2 = split_budget(epsilon, label_fraction)
        self._label_oracle = GeneralizedRandomResponse(
            self.epsilon1, self.n_classes, rng=self.rng
        )
        self._item_oracle = OptimizedUnaryEncoding(
            self.epsilon2, self.n_items, rng=self.rng
        )
        self._pair_support = np.zeros((self.n_classes, self.n_items), dtype=np.int64)
        self._label_counts = np.zeros(self.n_classes, dtype=np.int64)

    def _ingest_simulated(self, counts: np.ndarray) -> None:
        stayed, arrived = route_labels_grr(counts, self._label_oracle.p, self.rng)
        routed = stayed + arrived
        batch_label_counts = routed.sum(axis=1)
        p2, q2 = self._item_oracle.p, self._item_oracle.q
        ones = self.rng.binomial(routed, p2)
        zeros = self.rng.binomial(batch_label_counts[:, None] - routed, q2)
        self._pair_support += ones + zeros
        self._label_counts += batch_label_counts

    def _ingest_protocol(self, labels: np.ndarray, items: np.ndarray) -> None:
        perturbed = self._label_oracle.privatize_many(labels)
        self._pair_support += grouped_batch_support(
            self._item_oracle, perturbed, items, self.n_classes
        )
        self._label_counts += np.bincount(perturbed, minlength=self.n_classes)

    def _estimate(self) -> np.ndarray:
        return calibrate_pts(
            self._pair_support,
            self._label_counts,
            self._n,
            self._label_oracle.p,
            self._label_oracle.q,
            self._item_oracle.p,
            self._item_oracle.q,
        )

    def class_sizes(self) -> np.ndarray:
        if self._n == 0:
            raise ProtocolError("no data ingested yet; class_sizes() needs reports")
        return estimate_class_sizes(
            self._label_counts, self._n, self._label_oracle.p, self._label_oracle.q
        )

    def _estimate_variance(self) -> np.ndarray:
        return pts_variance_matrix(
            self._estimate(),
            self.class_sizes(),
            self._n,
            self._label_oracle.p,
            self._label_oracle.q,
            self._item_oracle.p,
            self._item_oracle.q,
        )

    def _config(self) -> dict:
        out = super()._config()
        out["label_fraction"] = self.label_fraction
        return out

    def _config_kwargs(self) -> dict:
        out = super()._config_kwargs()
        out["label_fraction"] = self.label_fraction
        return out


class OnlinePTSCP(OnlineFrameworkSession):
    """Streaming PTS-CP: correlated label-item perturbation with
    flag-filtered sufficient statistics."""

    name = "pts-cp"
    _STATE_FIELDS = ("item_support", "flag_support", "label_counts")

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        label_fraction: float = 0.5,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        super().__init__(epsilon, n_classes, n_items, mode=mode, rng=rng)
        if self.n_classes < 2:
            raise ConfigurationError("PTS-CP needs at least two classes")
        self.label_fraction = float(label_fraction)
        self.epsilon1, self.epsilon2 = split_budget(epsilon, label_fraction)
        self._mechanism = CorrelatedPerturbation(
            self.epsilon1,
            self.epsilon2,
            n_classes=self.n_classes,
            n_items=self.n_items,
            rng=self.rng,
        )
        self._item_support = np.zeros((self.n_classes, self.n_items), dtype=np.int64)
        self._flag_support = np.zeros(self.n_classes, dtype=np.int64)
        self._label_counts = np.zeros(self.n_classes, dtype=np.int64)

    def _ingest_simulated(self, counts: np.ndarray) -> None:
        support = self._mechanism.simulate_support(counts, rng=self.rng)
        self._item_support += support.item_support
        self._flag_support += support.flag_support
        self._label_counts += support.label_counts

    def _ingest_protocol(self, labels: np.ndarray, items: np.ndarray) -> None:
        support = batch_support(self._mechanism, (labels, items))
        self._item_support += support.item_support
        self._flag_support += support.flag_support
        self._label_counts += support.label_counts

    def _correlated_support(self) -> CorrelatedSupport:
        return CorrelatedSupport(
            item_support=self._item_support,
            flag_support=self._flag_support,
            label_counts=self._label_counts,
            n_users=self._n,
        )

    def _estimate(self) -> np.ndarray:
        return self._mechanism.estimate(self._correlated_support())

    def class_sizes(self) -> np.ndarray:
        if self._n == 0:
            raise ProtocolError("no data ingested yet; class_sizes() needs reports")
        return self._mechanism.estimate_class_sizes(self._correlated_support())

    def _estimate_variance(self) -> np.ndarray:
        return cp_variance_matrix(
            self._estimate(),
            self.class_sizes(),
            self._n,
            self._mechanism.p1,
            self._mechanism.q1,
            self._mechanism.p2,
            self._mechanism.q2,
        )

    def _config(self) -> dict:
        out = super()._config()
        out["label_fraction"] = self.label_fraction
        return out

    def _config_kwargs(self) -> dict:
        out = super()._config_kwargs()
        out["label_fraction"] = self.label_fraction
        return out


class OnlineHEC(OnlineFrameworkSession):
    """Streaming HEC: iid-uniform group assignment on arrival.

    Each arriving user draws her group uniformly from the ``c`` classes;
    a stream's size is unknown, so the population cannot be partitioned
    exactly, and a per-batch partition would always hand a batch's
    remainder to the first groups.  Realised group sizes enter the
    calibration, so estimates stay unbiased (up to HEC's inherent
    Theorem-4 deniability bias).
    """

    name = "hec"
    _STATE_FIELDS = ("group_support", "group_sizes")

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        super().__init__(epsilon, n_classes, n_items, mode=mode, rng=rng)
        self._oracle = make_adaptive(self.epsilon, self.n_items, rng=self.rng)
        self._group_support = np.zeros((self.n_classes, self.n_items), dtype=np.int64)
        self._group_sizes = np.zeros(self.n_classes, dtype=np.int64)

    def _ingest_simulated(self, counts: np.ndarray) -> None:
        c, d = self.n_classes, self.n_items
        assigned = self.rng.multinomial(counts.ravel(), np.full(c, 1.0 / c))
        for group in range(c):
            cells = assigned[:, group].reshape(c, d)
            size = int(cells.sum())
            if size == 0:
                continue
            valid = cells[group]
            n_invalid = size - int(valid.sum())
            self._group_support[group] += self._simulate_group(valid, n_invalid)
            self._group_sizes[group] += size

    def _simulate_group(self, valid_counts: np.ndarray, n_invalid: int) -> np.ndarray:
        """Support of one group: valid users through the adaptive oracle,
        invalid users replaced by a uniformly random item first."""
        oracle, rng, d = self._oracle, self.rng, self.n_items
        if oracle.name == "grr":
            support = oracle.simulate_support(valid_counts, rng=rng)
            if n_invalid:
                # uniform item + GRR lands uniformly on the whole domain
                # (q + (p-q)/d per value, summing to one).
                support += rng.multinomial(n_invalid, np.full(d, 1.0 / d))
            return support
        # OUE: valid users are exact binomials; an invalid user sets bit v
        # with marginal probability q + (p - q)/d.
        p, q = oracle.p, oracle.q
        n_valid = int(valid_counts.sum())
        ones = rng.binomial(valid_counts, p)
        zeros = rng.binomial(n_valid - valid_counts, q)
        support = ones + zeros
        if n_invalid:
            support += rng.binomial(np.full(d, n_invalid), q + (p - q) / d)
        return support.astype(np.int64)

    def _ingest_protocol(self, labels: np.ndarray, items: np.ndarray) -> None:
        c, d = self.n_classes, self.n_items
        groups = self.rng.integers(0, c, size=labels.size)
        for group in range(c):
            mask = groups == group
            size = int(mask.sum())
            if size == 0:
                continue
            # Deniability: a foreign-label user reports a random item.
            values = np.where(
                labels[mask] == group,
                items[mask],
                self.rng.integers(0, d, size=size),
            )
            self._group_support[group] += batch_support(self._oracle, values)
            self._group_sizes[group] += size

    def _estimate(self) -> np.ndarray:
        if (self._group_sizes == 0).any():
            raise ProtocolError(
                "every HEC group needs at least one user before estimate(); "
                f"group sizes so far: {self._group_sizes.tolist()}"
            )
        return calibrate_hec(
            self._group_support,
            self._group_sizes.astype(np.float64),
            self._n,
            self._oracle.p,
            self._oracle.q,
        )

    def _estimate_variance(self) -> np.ndarray:
        return hec_variance_matrix(
            self._estimate(),
            self._group_sizes,
            self._n,
            self._oracle.p,
            self._oracle.q,
        )


#: Registry of session classes by framework name (mirrors FRAMEWORKS).
SESSIONS: dict[str, type[OnlineFrameworkSession]] = {
    "hec": OnlineHEC,
    "ptj": OnlinePTJ,
    "pts": OnlinePTS,
    "pts-cp": OnlinePTSCP,
}


def make_session(
    name: str,
    epsilon: float,
    n_classes: int,
    n_items: int,
    mode: str = "simulate",
    rng: RngLike = None,
    label_fraction: Optional[float] = None,
) -> OnlineFrameworkSession:
    """Build an online session by framework name (mirrors
    :func:`repro.core.frameworks.make_framework`)."""
    try:
        cls = SESSIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown framework {name!r}; choose from {sorted(SESSIONS)}"
        ) from None
    kwargs = dict(
        epsilon=epsilon, n_classes=n_classes, n_items=n_items, mode=mode, rng=rng
    )
    if label_fraction is not None:
        if name not in ("pts", "pts-cp"):
            raise ConfigurationError(
                f"label_fraction only applies to pts/pts-cp, not {name!r}"
            )
        kwargs["label_fraction"] = label_fraction
    return cls(**kwargs)
