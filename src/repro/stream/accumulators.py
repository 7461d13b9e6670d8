"""Mergeable support accumulators — the streaming server's state.

Every LDP frequency oracle's sufficient statistic is an *additive* support
vector: the aggregate of a report set is the elementwise sum of per-report
contributions.  A :class:`SupportAccumulator` exploits that to make
aggregation incremental and shardable:

* ``ingest_batch(reports)`` folds a batch of client reports into the
  accumulated support in one vectorised pass;
* ``merge(other)`` combines two partial states and is associative and
  commutative, so shards can aggregate independently and reduce in any
  order;
* after ingesting a report set — in any batch split, across any shard
  topology — ``support()`` equals the mechanism's one-shot ``aggregate``
  on the same reports, exactly.

Accumulators are deliberately mechanism-*parameter* aware (domain size,
hash range) but mechanism-*object* free: they hold no probabilities and no
RNG, only counts, so they serialise to plain arrays
(:meth:`SupportAccumulator.state_dict`, :meth:`SupportAccumulator.save`)
and can be shipped between processes.  Calibration stays with the
mechanism: ``mechanism.estimate(acc.support(), acc.n)``.

Every ``ingest_batch`` delegates to the same columnar kernels the
mechanisms' ``aggregate_batch`` methods use
(:mod:`repro.mechanisms.kernels` and the per-mechanism bulk folds), so
incremental and one-shot aggregation are literally the same code.

Build one with :func:`accumulator_for` (or ``mechanism.accumulator()``).
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np

from ..exceptions import AggregationError, ConfigurationError
from ..mechanisms.correlated import fold_correlated_batch
from ..mechanisms.kernels import (
    as_report_matrix as _as_report_matrix,
    bit_matrix_support,
    categorical_support,
)
from ..mechanisms.validity import flag_filtered_support


class SupportAccumulator(abc.ABC):
    """Mergeable, serialisable aggregation state for one report format.

    Subclasses hold only integer count arrays plus the domain parameters
    needed to validate reports and merges.  ``n`` counts ingested reports.
    """

    #: Machine-readable accumulator type, used by (de)serialisation.
    kind: str = "accumulator"

    def __init__(self) -> None:
        self.n = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ingest_batch(self, reports) -> int:
        """Fold a batch of reports into the state; returns the batch size."""

    def ingest(self, report) -> None:
        """Fold a single report (convenience wrapper over the batch path)."""
        self.ingest_batch([report])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def support(self) -> np.ndarray:
        """Accumulated support counts, matching the oracle's ``aggregate``."""

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: "SupportAccumulator") -> "SupportAccumulator":
        """Combined state of two accumulators (associative, commutative)."""
        self._check_mergeable(other)
        out = self.copy()
        for key, value in other._count_arrays().items():
            out._count_arrays()[key] += value
        out.n = self.n + other.n
        return out

    def _check_mergeable(self, other: "SupportAccumulator") -> None:
        if type(other) is not type(self) or other._params() != self._params():
            raise AggregationError(
                f"cannot merge {self.describe()} with "
                f"{other.describe() if isinstance(other, SupportAccumulator) else other!r}"
            )

    def copy(self) -> "SupportAccumulator":
        """Independent deep copy of the accumulated state."""
        return type(self).from_state(self.state_dict())

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _params(self) -> dict:
        """Domain parameters (plain scalars) identifying compatible states."""

    @abc.abstractmethod
    def _count_arrays(self) -> dict[str, np.ndarray]:
        """The live count arrays, keyed by state-dict name (not copies)."""

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self._params().items())
        return f"{type(self).__name__}({params}, n={self.n})"

    def state_dict(self) -> dict:
        """Plain-data snapshot: parameters, ``n``, and copied count arrays."""
        state: dict = {"kind": self.kind, "n": int(self.n)}
        state.update(self._params())
        for key, value in self._count_arrays().items():
            state[key] = value.copy()
        return state

    @classmethod
    def from_state(cls, state: Mapping) -> "SupportAccumulator":
        """Rebuild an accumulator from :meth:`state_dict` output."""
        state = dict(state)
        kind = str(state.pop("kind"))
        if cls is SupportAccumulator:
            try:
                cls = ACCUMULATORS[kind]
            except KeyError:
                raise ConfigurationError(
                    f"unknown accumulator kind {kind!r}; "
                    f"choose from {sorted(ACCUMULATORS)}"
                ) from None
        elif kind != cls.kind:
            raise ConfigurationError(
                f"state of kind {kind!r} cannot restore a {cls.kind!r} accumulator"
            )
        n = int(state.pop("n"))
        arrays = {
            key: np.asarray(state.pop(key), dtype=np.int64)
            for key in list(state)
            if isinstance(state[key], np.ndarray)
        }
        out = cls(**{key: int(value) for key, value in state.items()})
        for key, value in arrays.items():
            target = out._count_arrays()[key]
            if target.shape != value.shape:
                raise ConfigurationError(
                    f"state array {key!r} has shape {value.shape}, "
                    f"expected {target.shape}"
                )
            target[...] = value
        out.n = n
        return out

    def save(self, path) -> None:
        """Checkpoint the state to ``path`` as an ``.npz`` archive."""
        from .checkpoint import save_state

        state = self.state_dict()
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        meta = {k: v for k, v in state.items() if not isinstance(v, np.ndarray)}
        save_state(path, meta, arrays)

    @classmethod
    def load(cls, path) -> "SupportAccumulator":
        """Restore an accumulator checkpointed with :meth:`save`."""
        from .checkpoint import load_state

        meta, arrays = load_state(path)
        return cls.from_state({**meta, **arrays})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class CountAccumulator(SupportAccumulator):
    """Categorical reports (GRR and the adaptive oracle's GRR arm).

    A report is one integer in ``[0, domain_size)``; the support is a
    bincount.
    """

    kind = "count"

    def __init__(self, domain_size: int) -> None:
        super().__init__()
        self.domain_size = int(domain_size)
        self._support = np.zeros(self.domain_size, dtype=np.int64)

    def ingest_batch(self, reports) -> int:
        if not isinstance(reports, np.ndarray):
            reports = list(reports)
        arr = np.asarray(reports, dtype=np.int64).ravel()
        if arr.size:
            self._support += categorical_support(arr, self.domain_size)
            self.n += arr.size
        return int(arr.size)

    def support(self) -> np.ndarray:
        return self._support.copy()

    def _params(self) -> dict:
        return {"domain_size": self.domain_size}

    def _count_arrays(self) -> dict[str, np.ndarray]:
        return {"support": self._support}


class BitVectorAccumulator(SupportAccumulator):
    """Bit-vector reports (SUE/OUE unary encodings and RAPPOR Bloom bits).

    A report is a 0/1 vector of fixed ``width`` (the item domain for UE,
    the Bloom filter length for RAPPOR); the support is the column sum.
    """

    kind = "bits"

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = int(width)
        self._support = np.zeros(self.width, dtype=np.int64)

    def ingest_batch(self, reports) -> int:
        bits = _as_report_matrix(reports, self.width, "bit-vector")
        if bits.shape[0]:
            self._support += bit_matrix_support(bits, self.width)
            self.n += bits.shape[0]
        return int(bits.shape[0])

    def support(self) -> np.ndarray:
        return self._support.copy()

    def _params(self) -> dict:
        return {"width": self.width}

    def _count_arrays(self) -> dict[str, np.ndarray]:
        return {"support": self._support}


class FlagFilteredAccumulator(SupportAccumulator):
    """Validity-perturbation reports: ``d`` item bits plus a validity flag.

    Matches :meth:`repro.mechanisms.validity.ValidityPerturbation.aggregate`:
    item bits count only when the report's perturbed flag is clear, and
    position ``d`` of :meth:`support` holds the flag support.
    """

    kind = "flag-filtered"

    def __init__(self, domain_size: int) -> None:
        super().__init__()
        self.domain_size = int(domain_size)
        self._item_support = np.zeros(self.domain_size, dtype=np.int64)
        self._flag_support = np.zeros(1, dtype=np.int64)

    def ingest_batch(self, reports) -> int:
        bits = _as_report_matrix(reports, self.domain_size + 1, "validity")
        if bits.shape[0]:
            support = flag_filtered_support(bits, self.domain_size)
            self._item_support += support[: self.domain_size]
            self._flag_support[0] += support[self.domain_size]
            self.n += bits.shape[0]
        return int(bits.shape[0])

    def support(self) -> np.ndarray:
        return np.concatenate([self._item_support, self._flag_support])

    def _params(self) -> dict:
        return {"domain_size": self.domain_size}

    def _count_arrays(self) -> dict[str, np.ndarray]:
        return {"item_support": self._item_support, "flag_support": self._flag_support}


class LocalHashAccumulator(SupportAccumulator):
    """OLH reports ``(a, b, perturbed_hash)``.

    Uses the same vectorised bulk-hash path as
    :meth:`repro.mechanisms.olh.OptimalLocalHashing.aggregate`, so the
    ``O(n * d)`` hash evaluation is paid in NumPy blocks at ingest time
    and queries are O(1).
    """

    kind = "local-hash"

    def __init__(self, domain_size: int, g: int) -> None:
        super().__init__()
        self.domain_size = int(domain_size)
        self.g = int(g)
        self._support = np.zeros(self.domain_size, dtype=np.int64)

    def ingest_batch(self, reports) -> int:
        """Ingest ``(a, b, report)`` triples — any sequence/array of rows,
        or the column form: a tuple of three aligned ``np.ndarray``s.
        (Requiring arrays for the column form keeps a tuple of three
        report triples unambiguous: it is parsed as rows.)"""
        from ..mechanisms.olh import as_report_triples, bulk_hash_support

        if (
            isinstance(reports, tuple)
            and len(reports) == 3
            and all(isinstance(col, np.ndarray) for col in reports)
        ):
            a, b, r = (col.ravel() for col in reports)
        else:
            arr = as_report_triples(reports)
            if arr.size == 0:
                return 0
            a, b, r = arr[:, 0], arr[:, 1], arr[:, 2]
        self._support += bulk_hash_support(a, b, r, self.domain_size, self.g)
        self.n += int(r.size)
        return int(r.size)

    def support(self) -> np.ndarray:
        return self._support.copy()

    def _params(self) -> dict:
        return {"domain_size": self.domain_size, "g": self.g}

    def _count_arrays(self) -> dict[str, np.ndarray]:
        return {"support": self._support}


class HadamardAccumulator(SupportAccumulator):
    """Hadamard-response reports ``(row, sign)``.

    The "support" is the signed correlation sum
    ``S_v = sum_u sign_u * H[row_u, v+1]``, evaluated blockwise with the
    vectorised parity kernel shared with
    :class:`repro.mechanisms.hadamard.HadamardResponse`.
    """

    kind = "hadamard"

    def __init__(self, domain_size: int, K: int) -> None:
        super().__init__()
        self.domain_size = int(domain_size)
        self.K = int(K)
        self._support = np.zeros(self.domain_size, dtype=np.int64)

    def ingest_batch(self, reports) -> int:
        from ..mechanisms.hadamard import as_report_pairs, bulk_signed_support

        arr = as_report_pairs(reports)
        if arr.size == 0:
            return 0
        self._support += bulk_signed_support(
            arr[:, 0], arr[:, 1], self.domain_size, self.K
        )
        self.n += int(arr.shape[0])
        return int(arr.shape[0])

    def support(self) -> np.ndarray:
        return self._support.copy()

    def _params(self) -> dict:
        return {"domain_size": self.domain_size, "K": self.K}

    def _count_arrays(self) -> dict[str, np.ndarray]:
        return {"support": self._support}


class CorrelatedAccumulator(SupportAccumulator):
    """Correlated-perturbation reports ``(perturbed_label, bits)``.

    Maintains the three flag-filtered sufficient statistics of
    :class:`repro.mechanisms.correlated.CorrelatedSupport`; query with
    :meth:`as_correlated_support` and calibrate through the mechanism's
    ``estimate``.
    """

    kind = "correlated"

    def __init__(self, n_classes: int, n_items: int) -> None:
        super().__init__()
        self.n_classes = int(n_classes)
        self.n_items = int(n_items)
        self._item_support = np.zeros((self.n_classes, self.n_items), dtype=np.int64)
        self._flag_support = np.zeros(self.n_classes, dtype=np.int64)
        self._label_counts = np.zeros(self.n_classes, dtype=np.int64)

    def ingest_batch(self, reports) -> int:
        from ..mechanisms.correlated import as_correlated_columns

        labels, bits = as_correlated_columns(reports, self.n_items)
        if labels.size == 0:
            return 0
        fold_correlated_batch(
            labels, bits, self._item_support, self._flag_support, self._label_counts
        )
        self.n += int(labels.size)
        return int(labels.size)

    def support(self) -> np.ndarray:
        """Flag-filtered ``(c, d)`` item supports (the primary statistic)."""
        return self._item_support.copy()

    def as_correlated_support(self):
        """The accumulated state as a
        :class:`~repro.mechanisms.correlated.CorrelatedSupport` (views)."""
        from ..mechanisms.correlated import CorrelatedSupport

        return CorrelatedSupport(
            item_support=self._item_support,
            flag_support=self._flag_support,
            label_counts=self._label_counts,
            n_users=self.n,
        )

    def _params(self) -> dict:
        return {"n_classes": self.n_classes, "n_items": self.n_items}

    def _count_arrays(self) -> dict[str, np.ndarray]:
        return {
            "item_support": self._item_support,
            "flag_support": self._flag_support,
            "label_counts": self._label_counts,
        }


#: Registry of accumulator classes by serialisation kind.
ACCUMULATORS: dict[str, type[SupportAccumulator]] = {
    cls.kind: cls
    for cls in (
        CountAccumulator,
        BitVectorAccumulator,
        FlagFilteredAccumulator,
        LocalHashAccumulator,
        HadamardAccumulator,
        CorrelatedAccumulator,
    )
}


def accumulator_for(mechanism) -> SupportAccumulator:
    """Build the streaming accumulator matching ``mechanism``'s reports.

    Dispatches on the mechanism type: GRR (and the adaptive oracle's
    selected arm), UE/OUE/SUE, RAPPOR, OLH, Hadamard response, validity
    perturbation, and the correlated label-item mechanism.
    """
    from ..mechanisms.adaptive import AdaptiveMechanism
    from ..mechanisms.correlated import CorrelatedPerturbation
    from ..mechanisms.grr import GeneralizedRandomResponse
    from ..mechanisms.hadamard import HadamardResponse
    from ..mechanisms.olh import OptimalLocalHashing
    from ..mechanisms.rappor import Rappor
    from ..mechanisms.ue import UnaryEncoding
    from ..mechanisms.validity import ValidityPerturbation

    if isinstance(mechanism, AdaptiveMechanism):
        return accumulator_for(mechanism._inner)
    if isinstance(mechanism, CorrelatedPerturbation):
        return CorrelatedAccumulator(mechanism.n_classes, mechanism.n_items)
    if isinstance(mechanism, GeneralizedRandomResponse):
        return CountAccumulator(mechanism.domain_size)
    if isinstance(mechanism, ValidityPerturbation):
        return FlagFilteredAccumulator(mechanism.domain_size)
    if isinstance(mechanism, Rappor):
        return BitVectorAccumulator(mechanism.n_bits)
    if isinstance(mechanism, UnaryEncoding):
        return BitVectorAccumulator(mechanism.domain_size)
    if isinstance(mechanism, OptimalLocalHashing):
        return LocalHashAccumulator(mechanism.domain_size, mechanism.g)
    if isinstance(mechanism, HadamardResponse):
        return HadamardAccumulator(mechanism.domain_size, mechanism.K)
    raise ConfigurationError(
        f"no streaming accumulator for {type(mechanism).__name__}"
    )
