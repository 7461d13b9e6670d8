"""Incremental multi-class top-k mining — the streaming miner.

The one-shot pipelines (:class:`~repro.core.topk.pem.PEMMiner`,
:class:`~repro.core.topk.scheme.MultiClassTopK`) hold the whole user
population and split it over iterations internally.  An
:class:`OnlineTopKSession` inverts that control flow for streams: users
arrive in ``(labels, items)`` batches, every batch reports against the
*current* mining round's per-class candidate frontier, and the server
advances rounds explicitly once a round has seen enough users:

* :meth:`~OnlineTopKSession.ingest_batch` — fold one batch of users into
  the current round's per-class supports (labels GRR-routed with ε₁,
  items reported over the candidate frontier with ε₂);
* :meth:`~OnlineTopKSession.advance_round` — prune each class's frontier
  to the ``keep`` best candidates and extend prefixes by ``m`` bits (the
  PEM schedule), or finalise the per-class top-k on the last round;
* :meth:`~OnlineTopKSession.topk` — per-class top candidates mid-stream,
  at any point: full item ids once the frontier reaches full depth,
  prefix previews before that.

Both execution modes of the report plane are supported per batch:
``"simulate"`` draws each round's supports from their exact sufficient
statistics, ``"protocol"`` privatises one report per user through the
vectorised batch engine (:mod:`repro.mechanisms.engine`).  Each user
reports in exactly one round, as the privacy analysis requires — the
stream's arrival order supplies the cohort split that the one-shot
miners sample explicitly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.topk.reporting import (
    EXECUTION_MODES,
    INVALID_MODES,
    simulate_iteration_support,
    top_indices,
)
from ..core.topk.trie import bits_needed, extend_prefixes, prefix_counts
from ..exceptions import ConfigurationError, DomainError, ProtocolError
from ..mechanisms.base import check_domain_size, check_epsilon
from ..mechanisms.budget import split_budget
from ..mechanisms.engine import batch_support
from ..mechanisms.grr import GeneralizedRandomResponse, route_labels_grr
from ..mechanisms.ue import OptimizedUnaryEncoding, oue_probabilities
from ..mechanisms.validity import ValidityPerturbation
from ..rng import RngLike, ensure_rng


class OnlineTopKSession:
    """Round-by-round streaming top-k miner over ``(labels, items)``.

    Parameters
    ----------
    k:
        Items to mine per class.
    epsilon:
        Total per-user budget; split ε₁/ε₂ between label and item reports
        when there is more than one class (``label_fraction``, paper
        default 0.5), spent entirely on items otherwise.
    keep:
        Candidates kept per class per round (default ``k`` — the PEM
        retention).
    extension_bits:
        Prefix bits added per round (the paper's ``m``).
    invalid_mode:
        ``"vp"`` (validity perturbation, default) or ``"random"``
        (classic random replacement) for users whose item left the
        frontier.
    mode:
        ``"simulate"`` or ``"protocol"`` per-batch execution.
    """

    def __init__(
        self,
        k: int,
        epsilon: float,
        n_classes: int,
        n_items: int,
        label_fraction: float = 0.5,
        keep: Optional[int] = None,
        extension_bits: int = 1,
        invalid_mode: str = "vp",
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
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
        self.k = int(k)
        self.epsilon = check_epsilon(epsilon)
        self.n_classes = check_domain_size(n_classes)
        self.n_items = check_domain_size(n_items)
        self.keep = self.k if keep is None else int(keep)
        if self.keep < 1:
            raise DomainError(f"keep must be >= 1, got {self.keep}")
        self.extension_bits = int(extension_bits)
        self.invalid_mode = invalid_mode
        self.mode = mode
        self.label_fraction = float(label_fraction)
        self.rng = ensure_rng(rng)

        if self.n_classes > 1:
            self.epsilon1, self.epsilon2 = split_budget(epsilon, label_fraction)
            self._label_oracle: Optional[GeneralizedRandomResponse] = (
                GeneralizedRandomResponse(self.epsilon1, self.n_classes, rng=self.rng)
            )
        else:
            self.epsilon1, self.epsilon2 = 0.0, self.epsilon
            self._label_oracle = None

        self.total_bits = bits_needed(self.n_items)
        self.start_bits = min(
            self.total_bits,
            bits_needed(min(self.n_items, self.keep << self.extension_bits)),
        )
        extensions = int(
            np.ceil((self.total_bits - self.start_bits) / self.extension_bits)
        )
        #: Total rounds: prefix extensions plus the final estimation round.
        self.n_rounds = extensions + 1

        start = np.arange(1 << self.start_bits, dtype=np.int64)
        if self.start_bits == self.total_bits:
            start = start[start < self.n_items]
        self._depth = self.start_bits
        self._candidates = [start.copy() for _ in range(self.n_classes)]
        self._support = [
            np.zeros(start.size, dtype=np.int64) for _ in range(self.n_classes)
        ]
        self._round = 0
        self._round_n = 0
        self._round_class_n = np.zeros(self.n_classes, dtype=np.int64)
        self._n = 0
        self._result: Optional[dict[int, list[int]]] = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def round(self) -> int:
        """Index of the current mining round (0-based)."""
        return self._round

    @property
    def depth(self) -> int:
        """Prefix depth of the current candidate frontier."""
        return self._depth

    @property
    def finished(self) -> bool:
        """True once the final round has been advanced."""
        return self._round >= self.n_rounds

    @property
    def n_ingested(self) -> int:
        """Users ingested across all rounds."""
        return self._n

    @property
    def round_ingested(self) -> int:
        """Users ingested in the current round so far."""
        return self._round_n

    def frontier(self, label: int) -> np.ndarray:
        """Copy of one class's current candidate frontier."""
        return self._candidates[label].copy()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_batch(self, labels, items=None) -> int:
        """Fold one batch of users into the current round's supports."""
        if self.finished:
            raise ProtocolError("mining is finished; no further rounds accept data")
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
        if self.mode == "protocol":
            self._ingest_protocol(labels, items)
        else:
            self._ingest_simulated(labels, items)
        self._round_n += labels.size
        self._n += labels.size
        return int(labels.size)

    def _ingest_simulated(self, labels: np.ndarray, items: np.ndarray) -> None:
        flat = labels * self.n_items + items
        counts = np.bincount(flat, minlength=self.n_classes * self.n_items)
        counts = counts.reshape(self.n_classes, self.n_items)
        if self._label_oracle is not None:
            stayed, arrived = route_labels_grr(counts, self._label_oracle.p, self.rng)
            counts = stayed + arrived
        self._round_class_n += counts.sum(axis=1)
        for label in range(self.n_classes):
            cand = self._candidates[label]
            class_counts = counts[label]
            total = int(class_counts.sum())
            if cand.size == 0 or total == 0:
                continue
            per_prefix = prefix_counts(class_counts, self.total_bits, self._depth)
            valid = per_prefix[cand]
            self._support[label] += simulate_iteration_support(
                valid_counts=valid,
                n_invalid=total - int(valid.sum()),
                epsilon=self.epsilon2,
                invalid_mode=self.invalid_mode,
                rng=self.rng,
            )

    def _ingest_protocol(self, labels: np.ndarray, items: np.ndarray) -> None:
        if self._label_oracle is not None:
            routed = self._label_oracle.privatize_many(labels)
        else:
            routed = labels
        self._round_class_n += np.bincount(routed, minlength=self.n_classes)
        for label in range(self.n_classes):
            mask = routed == label
            if not mask.any():
                continue
            self._accumulate_protocol(label, items[mask])

    def _accumulate_protocol(self, label: int, class_items: np.ndarray) -> None:
        cand = self._candidates[label]
        if cand.size == 0:
            return
        prefixes = class_items >> (self.total_bits - self._depth)
        clipped = np.minimum(np.searchsorted(cand, prefixes), cand.size - 1)
        valid = cand[clipped] == prefixes
        values = np.where(valid, clipped, -1)
        if self.invalid_mode == "vp":
            oracle = ValidityPerturbation(self.epsilon2, cand.size, rng=self.rng)
            support = batch_support(oracle, values)[: cand.size]
        else:
            invalid = values < 0
            values[invalid] = self.rng.integers(
                0, cand.size, size=int(invalid.sum())
            )
            oracle = OptimizedUnaryEncoding(self.epsilon2, cand.size, rng=self.rng)
            support = batch_support(oracle, values)
        self._support[label] += support

    # ------------------------------------------------------------------
    # round control
    # ------------------------------------------------------------------
    def advance_round(self) -> None:
        """Close the current round: prune and extend each class's frontier
        (or finalise the top-k on the last round).

        Users arriving after the advance report at the new frontier, so
        every user participates in exactly one round.
        """
        if self.finished:
            raise ProtocolError("mining is finished; no rounds left to advance")
        final = self._round == self.n_rounds - 1
        for label in range(self.n_classes):
            cand = self._candidates[label]
            sup = self._support[label]
            if cand.size == 0:
                continue
            if final:
                continue  # handled below, after the loop flags the result
            kept = top_indices(sup, min(self.keep, cand.size))
            survivors = cand[kept]
            extension = min(self.extension_bits, self.total_bits - self._depth)
            survivors = extend_prefixes(survivors, extension)
            if self._depth + extension == self.total_bits:
                survivors = survivors[survivors < self.n_items]
            self._candidates[label] = survivors
            self._support[label] = np.zeros(survivors.size, dtype=np.int64)
        if final:
            # Rank every surviving candidate so post-finish topk(k) honours
            # any k, exactly like the mid-stream query.
            result: dict[int, list[int]] = {}
            for label in range(self.n_classes):
                cand = self._candidates[label]
                sup = self._support[label]
                if cand.size == 0:
                    result[label] = []
                    continue
                order = top_indices(sup, cand.size)
                result[label] = [int(v) for v in cand[order]]
            self._result = result
        else:
            self._depth = min(self._depth + self.extension_bits, self.total_bits)
        self._round += 1
        self._round_n = 0
        self._round_class_n[:] = 0

    def round_snr(self) -> float:
        """Signal-to-noise ratio of the current round's pruning decision.

        For each class with a decision pending (more candidates than the
        round keeps), calibrate the frontier supports into count
        estimates ``f̂ = (s - m q) / (p - q)`` — ``m`` the reports GRR
        routing delivered to the class this round, ``(p, q)`` the item
        oracle's keep probabilities (identical for VP and OUE).  When the
        last kept candidate carries significant mass, the class's score
        is the kept/dropped boundary gap over the combined binomial noise
        of the two supports; when the boundary sits in pure noise (both
        candidates statistically zero — the decision between them is
        immaterial), the score is instead how clearly the strongest
        candidate rises above the dropped one, i.e. whether the round has
        resolved any structure at all.  The minimum over classes is
        returned: the frontier is only as settled as its least-settled
        class.  ``inf`` when no class has a decision pending, ``0.0``
        while any deciding class is still empty.
        """
        if self.finished:
            raise ProtocolError("mining is finished; no round to score")
        p, q = oue_probabilities(self.epsilon2)
        final = self._round == self.n_rounds - 1
        boundary = self.k if final else self.keep
        base_var = 2.0 * q * (1.0 - q)
        extra_var = p * (1.0 - p) - q * (1.0 - q)
        worst = np.inf
        for label in range(self.n_classes):
            cand = self._candidates[label]
            if cand.size <= boundary:
                continue
            m = float(self._round_class_n[label])
            if m <= 0.0:
                return 0.0
            estimates = (self._support[label] - m * q) / (p - q)
            order = np.sort(estimates)[::-1]
            kept, dropped = float(order[boundary - 1]), float(order[boundary])
            noise_std = np.sqrt(m * q * (1.0 - q)) / (p - q)
            signal = kept if kept > 2.0 * noise_std else float(order[0])
            plug_in = np.clip(signal, 0.0, m) + np.clip(dropped, 0.0, m)
            variance = m * base_var + plug_in * extra_var
            std = np.sqrt(max(variance, q * (1.0 - q))) / (p - q)
            worst = min(worst, (signal - dropped) / std)
        return float(worst)

    def should_advance(
        self,
        snr_threshold: float = 3.0,
        min_round_users: int = 1,
        max_round_users: Optional[int] = None,
    ) -> bool:
        """Whether the round's decision has cleared the noise floor.

        True once :meth:`round_snr` reaches ``snr_threshold`` (after at
        least ``min_round_users`` reports); ``max_round_users`` is a
        safety valve that forces an advance regardless of SNR, bounding
        the budget a pathologically flat class can absorb.
        """
        if snr_threshold <= 0:
            raise ConfigurationError(
                f"snr_threshold must be > 0, got {snr_threshold!r}"
            )
        if self.finished:
            return False
        if max_round_users is not None and self._round_n >= max_round_users:
            return True
        if self._round_n < max(int(min_round_users), 1):
            return False
        return self.round_snr() >= snr_threshold

    def maybe_advance(
        self,
        snr_threshold: float = 3.0,
        min_round_users: int = 1,
        max_round_users: Optional[int] = None,
    ) -> bool:
        """Adaptive round control: advance when the estimated SNR clears
        ``snr_threshold`` instead of waiting for a fixed user budget.
        Returns whether a round was advanced."""
        if self.should_advance(
            snr_threshold=snr_threshold,
            min_round_users=min_round_users,
            max_round_users=max_round_users,
        ):
            self.advance_round()
            return True
        return False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def topk(self, k: Optional[int] = None) -> dict[int, list[int]]:
        """Per-class top candidates, best first, queryable at any time.

        After the final round these are the mined item ids.  Mid-stream
        they rank the current frontier by the running round's supports:
        item ids once :attr:`depth` has reached full length, ``depth``-bit
        prefixes before that (a coarse preview of where the heavy hitters
        live).
        """
        k = self.k if k is None else int(k)
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        if self._result is not None:
            return {label: list(items[:k]) for label, items in self._result.items()}
        out: dict[int, list[int]] = {}
        for label in range(self.n_classes):
            cand = self._candidates[label]
            if cand.size == 0:
                out[label] = []
                continue
            kept = top_indices(self._support[label], min(k, cand.size))
            out[label] = [int(v) for v in cand[kept]]
        return out

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Checkpoint the mining state to an ``.npz`` archive.

        Everything server-side round-trips — configuration, round/depth
        counters, each class's candidate frontier and running supports,
        and the final ranking once mining finished.  Client-side
        randomness is never part of the state; :meth:`restore` takes a
        fresh generator to resume ingestion.
        """
        from .checkpoint import save_state

        meta = {
            "session": "topk",
            "k": self.k,
            "epsilon": self.epsilon,
            "n_classes": self.n_classes,
            "n_items": self.n_items,
            "label_fraction": self.label_fraction,
            "keep": self.keep,
            "extension_bits": self.extension_bits,
            "invalid_mode": self.invalid_mode,
            "mode": self.mode,
            "depth": int(self._depth),
            "round": int(self._round),
            "round_n": int(self._round_n),
            "n": int(self._n),
            "finished": self._result is not None,
        }
        arrays = {"round_class_n": self._round_class_n}
        for label in range(self.n_classes):
            arrays[f"candidates_{label}"] = self._candidates[label]
            arrays[f"support_{label}"] = self._support[label]
            if self._result is not None:
                arrays[f"result_{label}"] = np.asarray(
                    self._result[label], dtype=np.int64
                )
        save_state(path, meta, arrays)

    @classmethod
    def restore(cls, path, rng: RngLike = None) -> "OnlineTopKSession":
        """Rebuild a miner checkpointed with :meth:`save`, resuming at the
        saved round with ``rng`` driving further ingestion."""
        from .checkpoint import load_state

        meta, arrays = load_state(path)
        if meta.get("session") != "topk":
            raise ConfigurationError(
                f"checkpoint holds a {meta.get('session')!r} state, "
                "not an OnlineTopKSession"
            )
        session = cls(
            k=meta["k"],
            epsilon=meta["epsilon"],
            n_classes=meta["n_classes"],
            n_items=meta["n_items"],
            label_fraction=meta["label_fraction"],
            keep=meta["keep"],
            extension_bits=meta["extension_bits"],
            invalid_mode=meta["invalid_mode"],
            mode=meta["mode"],
            rng=rng,
        )
        if not 0 <= meta["round"] <= session.n_rounds:
            raise ConfigurationError(
                f"checkpoint round {meta['round']} outside "
                f"[0, {session.n_rounds}]"
            )
        session._depth = int(meta["depth"])
        session._round = int(meta["round"])
        session._round_n = int(meta["round_n"])
        session._n = int(meta["n"])
        if "round_class_n" in arrays:
            stored = np.asarray(arrays["round_class_n"], dtype=np.int64)
            if stored.shape != (session.n_classes,):
                raise ConfigurationError(
                    f"checkpoint round_class_n has shape {stored.shape}, "
                    f"expected ({session.n_classes},)"
                )
            session._round_class_n = stored
        # (checkpoints predating per-class round counts restore to zeros:
        # round_snr() then reports 0.0 until fresh reports arrive, which
        # only delays an adaptive advance — never corrupts it.)
        candidates, support = [], []
        for label in range(session.n_classes):
            try:
                cand = arrays[f"candidates_{label}"]
                sup = arrays[f"support_{label}"]
            except KeyError:
                raise ConfigurationError(
                    f"checkpoint is missing class {label}'s frontier"
                ) from None
            cand = np.asarray(cand, dtype=np.int64)
            sup = np.asarray(sup, dtype=np.int64)
            if cand.shape != sup.shape:
                raise ConfigurationError(
                    f"class {label}: candidates {cand.shape} and supports "
                    f"{sup.shape} must align"
                )
            candidates.append(cand)
            support.append(sup)
        session._candidates = candidates
        session._support = support
        if meta["finished"]:
            session._result = {
                label: [int(v) for v in arrays[f"result_{label}"]]
                for label in range(session.n_classes)
            }
        return session

    def run(self, labels, items) -> dict[int, list[int]]:
        """Convenience: stream a full population through the remaining
        rounds (near-equal random cohorts, one per round) and return the
        mined per-class top-k."""
        labels = np.asarray(labels, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        if labels.shape != items.shape:
            raise DomainError(
                f"labels ({labels.shape}) and items ({items.shape}) must align"
            )
        rounds_left = self.n_rounds - self._round
        if rounds_left <= 0:
            raise ProtocolError("mining is finished; nothing to run")
        order = self.rng.permutation(labels.size)
        for part in np.array_split(order, rounds_left):
            if part.size:
                self.ingest_batch(labels[part], items[part])
            self.advance_round()
        return self.topk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineTopKSession(k={self.k!r}, epsilon={self.epsilon!r}, "
            f"n_classes={self.n_classes!r}, n_items={self.n_items!r}, "
            f"mode={self.mode!r}, round={self._round}/{self.n_rounds}, "
            f"depth={self._depth})"
        )
