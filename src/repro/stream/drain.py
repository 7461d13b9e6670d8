"""Drain adapters — a uniform ingestion back-end for report front-ends.

An ingestion front-end (the asyncio collector in :mod:`repro.serve`, or
any other transport) produces ``(labels, items)`` batches and needs three
operations from the aggregation layer behind it: *submit* a batch,
*drain* everything queued, and take a queryable *snapshot*.  The two
streaming back-ends expose those operations differently — a
:class:`~repro.stream.sharding.ShardedAggregator` fans batches over
mergeable framework sessions, while an
:class:`~repro.stream.topk_session.OnlineTopKSession` is a single stateful
miner with no ``merge`` — so this module wraps both behind one interface:

* :class:`AggregatorDrain` — round-robin over a sharded aggregator,
  snapshot via ``merged()``;
* :class:`SessionDrain` — a single session-like target served by its own
  single-worker executor (FIFO, deterministic RNG consumption).

Both adapters optionally record every submitted batch (``record=True``) —
the *drain log* — so a transport path can be replayed offline through
identically seeded sessions and checked for exact equality, and both
carry the *decayed-ingest hook*: with ``decay`` set, every
``decay_every`` ingested reports the underlying state is aged by
:meth:`~repro.stream.session.OnlineFrameworkSession.decay`, turning any
front-end into a recency-weighted collector.  A target *window length*
can be given instead of the raw knobs (``window=``); it is translated
through :class:`~repro.stream.window.WindowPolicy`.

Every ageing pass — hook-driven or out-of-band via :meth:`BatchDrain.age`
— is appended to the drain log as an explicit decay event.  That makes
offline replay exact: replaying ingest alone would have to re-derive
decay points from thresholds, which differing batch splits would move.

A failed :meth:`~BatchDrain.drain` waits for every queued batch before
it re-raises the first error in submission order, so no batch is still
ingesting once the caller sees the failure.  It credits the batches that
landed to :attr:`~BatchDrain.n_drained` and the failed batches' reports
to :attr:`~BatchDrain.n_rejected` first, so the counters settle either
way.

Adapters are not thread-safe: callers serialise ``submit``/``drain``
(the serve collector holds one asyncio lock per hosted session).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..obs import metrics as _obs
from ..obs import trace as _trace
from .sharding import sum_batch_results
from .window import WindowPolicy

#: Shard slot of a decay event in the drain log.
DECAY_EVENT = "decay"

#: One recorded submission ``(shard_index, labels, items)`` — or a decay
#: event ``(DECAY_EVENT, factor, None)`` marking where ageing applied.
DrainLogEntry = tuple[int, np.ndarray, np.ndarray]


def _as_batch(labels, items) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    items = np.asarray(items, dtype=np.int64).ravel()
    return labels, items


class BatchDrain:
    """Shared plumbing: decay hook, drain log, submission accounting."""

    def __init__(
        self,
        decay: Optional[float] = None,
        decay_every: Optional[int] = None,
        window: Optional[int] = None,
        record: bool = False,
    ) -> None:
        self.window_policy: Optional[WindowPolicy] = None
        if window is not None:
            if decay is not None or decay_every is not None:
                raise ConfigurationError(
                    "window and explicit decay/decay_every are mutually "
                    "exclusive — the window policy derives both knobs"
                )
            self.window_policy = WindowPolicy.from_window(window)
            decay, decay_every = self.window_policy.knobs()
        if (decay is None) != (decay_every is None):
            raise ConfigurationError(
                "decay and decay_every must be given together"
            )
        if decay is not None and not 0.0 < decay <= 1.0:
            raise ConfigurationError(f"decay must be in (0, 1], got {decay!r}")
        if decay_every is not None and decay_every < 1:
            raise ConfigurationError(
                f"decay_every must be >= 1, got {decay_every!r}"
            )
        self.decay = decay
        self.decay_every = decay_every
        self._since_decay = 0
        #: Reports handed to :meth:`submit` across the adapter's lifetime.
        #: Credited synchronously on the submitting thread, so front-ends
        #: can detect submitted-but-not-yet-credited work without waiting
        #: for a :meth:`drain` to reconcile :attr:`n_drained`.
        self.n_submitted = 0
        #: Reports folded into the underlying state across all drains.
        self.n_drained = 0
        #: Reports of batches whose ingest raised.  Once a drain has
        #: settled every submission, ``n_drained + n_rejected ==
        #: n_submitted``.
        self.n_rejected = 0
        self.drain_log: Optional[list[DrainLogEntry]] = [] if record else None
        self._futures: list[Future] = []

    def _observe_drain(self, drained: int) -> None:
        registry = _obs.get_registry()
        if registry.enabled and drained:
            registry.counter(
                "drain_reports_total", adapter=type(self).__name__
            ).inc(int(drained))

    def submit(self, labels, items, trace=None) -> Future:
        """Queue one batch.  ``trace`` (a
        :class:`~repro.obs.trace.TraceContext`, default ``None``) rides
        along to the aggregation layer so shard ingest spans parent on
        the submitting request; it never affects the estimate path."""
        raise NotImplementedError

    def drain(self) -> int:
        """Wait for every queued batch; returns the reports folded in.

        When a batch raised, the batches that landed are still credited
        and the failed ones counted as rejected before the first error
        re-raises.
        """
        futures, self._futures = self._futures, []
        try:
            drained = self._wait(futures)
        except Exception:
            landed = sum(
                int(future.result() or 0)
                for future in futures
                if not future.cancelled() and future.exception() is None
            )
            unsettled = self.n_submitted - self.n_drained - self.n_rejected
            self.n_rejected += unsettled - landed
            self._credit(landed)
            raise
        self._credit(drained)
        return drained

    def _wait(self, futures: list[Future]) -> int:
        """Block until ``futures`` are done; their summed batch sizes."""
        raise NotImplementedError

    def _credit(self, drained: int) -> None:
        self.n_drained += drained
        self._observe_drain(drained)
        self._apply_decay(drained)

    def snapshot(self):
        """Queryable state covering everything drained so far."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def _record(self, shard: int, labels: np.ndarray, items: np.ndarray) -> None:
        if self.drain_log is not None:
            self.drain_log.append((shard, labels, items))

    def _decay_targets(self):
        """The session-like objects an ageing pass must touch."""
        raise NotImplementedError

    def _age(self, factor: float) -> None:
        """Apply ``factor`` to every target and record the event in the
        drain log.  The compounded factor is logged (not the per-period
        knob) so replay applies exactly the rounding passes the live run
        did."""
        for target in self._decay_targets():
            target.decay(factor)
        if self.drain_log is not None:
            self.drain_log.append((DECAY_EVENT, float(factor), None))

    def _apply_decay(self, drained: int) -> None:
        """One decay per ``decay_every`` ingested reports, regardless of
        how many drains (or how large a drain) delivered them: a drain
        covering several periods compounds the factor, and the remainder
        carries into the next drain, so the ageing schedule tracks the
        report count, not the caller's drain cadence."""
        if self.decay is None or self.decay == 1.0 or drained <= 0:
            return
        self._since_decay += drained
        periods = self._since_decay // self.decay_every
        if periods:
            self._age(self.decay**periods)
            self._since_decay -= periods * self.decay_every

    def age(self, factor: float) -> None:
        """Out-of-band ageing (wall-clock timers, operator commands) —
        decay that no ingest threshold triggered.  Pending submissions
        are drained first so the decay lands after them in both the
        state and the drain log."""
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"decay factor must be in (0, 1], got {factor!r}"
            )
        self.drain()
        if factor < 1.0:
            self._age(factor)

    def __enter__(self) -> "BatchDrain":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AggregatorDrain(BatchDrain):
    """Drain into a :class:`~repro.stream.sharding.ShardedAggregator`.

    The adapter owns the round-robin shard choice (instead of deferring to
    the aggregator's internal rotation) so the drain log can name the
    shard each batch landed on — replaying the log per shard, in order,
    through identically seeded sessions reproduces the merged state
    exactly.
    """

    def __init__(
        self,
        aggregator,
        decay: Optional[float] = None,
        decay_every: Optional[int] = None,
        window: Optional[int] = None,
        record: bool = False,
    ) -> None:
        super().__init__(
            decay=decay, decay_every=decay_every, window=window, record=record
        )
        if self.decay is not None:
            for shard in aggregator.partials():
                if not hasattr(shard, "decay"):
                    raise ConfigurationError(
                        f"shard {shard!r} does not support decay"
                    )
        self._aggregator = aggregator
        self._next = 0

    @property
    def aggregator(self):
        return self._aggregator

    def _decay_targets(self):
        return self._aggregator.partials()

    def submit(self, labels, items, trace=None) -> Future:
        labels, items = _as_batch(labels, items)
        shard = self._next % self._aggregator.n_shards
        self._next += 1
        self.n_submitted += int(labels.size)
        self._record(shard, labels, items)
        future = self._aggregator.submit((labels, items), shard=shard, trace=trace)
        self._futures.append(future)
        return future

    def _wait(self, futures: list[Future]) -> int:
        # The aggregator's drain records the shard-drain telemetry.  The
        # count comes from the adapter's own futures: a caller may have
        # drained the aggregator directly (merged(), partials()), which
        # consumes its copies of them but credits nothing here.
        self._aggregator.drain()
        return sum_batch_results(futures)

    def snapshot(self):
        # Drain through the adapter first (not just inside merged()) so
        # n_drained is credited and due decay periods apply before the
        # merge; merged()'s own internal drain is then a no-op.
        self.drain()
        return self._aggregator.merged()

    def close(self) -> None:
        self._aggregator.close()


class SessionDrain(BatchDrain):
    """Drain into one session-like target (``ingest_batch`` of a
    ``(labels, items)`` tuple) through a private single-worker executor,
    keeping submissions FIFO like a one-shard aggregator.

    The natural target is an
    :class:`~repro.stream.topk_session.OnlineTopKSession`, whose rounds
    are global state no shard split can carry; queries and round control
    go through :meth:`snapshot`, which hands back the live target once
    pending work is drained.
    """

    def __init__(
        self,
        target,
        decay: Optional[float] = None,
        decay_every: Optional[int] = None,
        window: Optional[int] = None,
        record: bool = False,
    ) -> None:
        super().__init__(
            decay=decay, decay_every=decay_every, window=window, record=record
        )
        if self.decay is not None and not hasattr(target, "decay"):
            raise ConfigurationError(f"{target!r} does not support decay")
        self._target = target
        self._executor = ThreadPoolExecutor(max_workers=1)

    @property
    def target(self):
        return self._target

    def _decay_targets(self):
        return (self._target,)

    def submit(self, labels, items, trace=None) -> Future:
        labels, items = _as_batch(labels, items)
        self.n_submitted += int(labels.size)
        self._record(0, labels, items)
        if trace is not None and _trace.get_tracer().enabled:
            future = self._executor.submit(
                self._traced_ingest, (labels, items), trace
            )
        else:
            future = self._executor.submit(
                self._target.ingest_batch, (labels, items)
            )
        self._futures.append(future)
        return future

    def _traced_ingest(self, batch, trace):
        with _trace.get_tracer().span("session.ingest", trace, cat="shard"):
            return self._target.ingest_batch(batch)

    def _wait(self, futures: list[Future]) -> int:
        return sum_batch_results(futures)

    def snapshot(self):
        self.drain()
        return self._target

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def replay_drain_log(log, shards) -> list:
    """Replay a recorded drain log into fresh per-shard states.

    ``shards`` are session-like objects seeded exactly as the recorded
    run's shards were (e.g. via :func:`repro.rng.spawn` from the same base
    seed); each log entry is ingested into its shard in log order, which
    matches the per-shard FIFO of the original run.  Decay events are
    replayed in place — every shard is aged by the logged compounded
    factor, exactly where the live run aged its targets — so a decayed
    session replays bit-identically too.  Returns the mutated shard
    list — reduce with ``merge`` (or query the single shard) to compare
    against the live snapshot.
    """
    for shard, labels, items in log:
        if shard == DECAY_EVENT:
            for target in shards:
                target.decay(labels)
            continue
        if not 0 <= shard < len(shards):
            raise ConfigurationError(
                f"log names shard {shard} but only {len(shards)} given"
            )
        shards[shard].ingest_batch((labels, items))
    return list(shards)
