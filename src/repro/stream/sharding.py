"""Shard-parallel batch ingestion with mergeable partial states.

A :class:`ShardedAggregator` owns ``n_shards`` independent shard states
— :class:`~repro.stream.session.OnlineFrameworkSession` instances, or
anything else exposing ``ingest_batch``, ``merge`` and ``copy`` — and
fans submitted batches across them round-robin.  Each shard is served by
its own single-worker thread, so batches bound for one shard execute in
submission order (keeping per-shard RNG streams deterministic) while
different shards ingest concurrently — bounded by the GIL outside NumPy
kernels, and not at all under a GIL-free kernel backend.  ``merged()``
reduces the partial states with ``merge``.

The result is exact in either mode: with seeded sessions,
``merged().estimate()`` equals what the same sessions give when fed the
same batches round-robin in-process and then reduced with ``merge``.
Sessions hold additive support counts, so the reduction order does not
matter.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from functools import reduce
from typing import Callable, Optional, Sequence, Union

from ..exceptions import ConfigurationError
from ..obs import metrics as _obs
from ..obs import trace as _trace

#: Anything shard-shaped: ingest_batch(batch) + merge(other).
Mergeable = object
ShardFactory = Callable[[], Mergeable]


def default_shard_count() -> int:
    """Shards used when the caller does not choose: one per CPU, capped."""
    return max(1, min(8, os.cpu_count() or 1))


def sum_batch_results(futures: Sequence[Future]) -> int:
    """Wait for every batch future, then return their summed sizes.

    Re-raises the first error in submission order, but only once every
    future is done: a failed batch never leaves others still ingesting
    behind the caller's back.
    """
    wait(futures)
    return sum(int(future.result() or 0) for future in futures)


class ShardedAggregator:
    """Fan report batches across worker shards and merge their states.

    Parameters
    ----------
    shards:
        Either a sequence of pre-built shard states (e.g. sessions seeded
        with independent generators via :func:`repro.rng.spawn`) or a
        zero-argument factory called ``n_shards`` times.
    n_shards:
        Number of shards when ``shards`` is a factory; ignored (and
        validated) otherwise.  Defaults to :func:`default_shard_count`.

    Use as a context manager (or call :meth:`close`) to release the
    worker threads.
    """

    def __init__(
        self,
        shards: Union[Sequence[Mergeable], ShardFactory],
        n_shards: Optional[int] = None,
    ) -> None:
        if callable(shards):
            count = default_shard_count() if n_shards is None else int(n_shards)
            if count < 1:
                raise ConfigurationError(f"need at least one shard, got {count}")
            self._shards = [shards() for _ in range(count)]
        else:
            self._shards = list(shards)
            if not self._shards:
                raise ConfigurationError("need at least one shard")
            if n_shards is not None and int(n_shards) != len(self._shards):
                raise ConfigurationError(
                    f"n_shards={n_shards} but {len(self._shards)} shards given"
                )
        # One single-worker executor per shard: batches for a shard run
        # FIFO (deterministic per-shard RNG consumption), shards overlap.
        self._executors = [
            ThreadPoolExecutor(max_workers=1) for _ in self._shards
        ]
        self._futures: list[Future] = []
        self._next = 0
        self._closed = False
        # Per-shard submitted-batch tallies (plain ints — cheap enough to
        # keep unconditionally; the imbalance gauge reads them at drain).
        self._shard_batches = [0] * len(self._shards)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def submit(
        self,
        batch,
        shard: Optional[int] = None,
        trace: Optional[_trace.TraceContext] = None,
    ) -> Future:
        """Queue one batch for ingestion; returns its future.

        Batches rotate round-robin unless ``shard`` pins one.  ``batch``
        is handed to the shard's ``ingest_batch`` as a single argument —
        sessions take their ``(labels, items)`` tuple that way.

        ``trace`` attaches a :class:`~repro.obs.trace.TraceContext` to
        the batch: the shard ingest records a child ``shard.ingest``
        span.  ``None`` — the default — is the zero-cost path.
        """
        if self._closed:
            raise ConfigurationError("aggregator is closed")
        if shard is None:
            shard = self._next % len(self._shards)
            self._next += 1
        elif not 0 <= shard < len(self._shards):
            raise ConfigurationError(
                f"shard {shard} outside [0, {len(self._shards)})"
            )
        self._shard_batches[shard] += 1
        target = self._shards[shard]
        if trace is not None and _trace.get_tracer().enabled:
            future = self._executors[shard].submit(
                self._traced_ingest, target, batch, trace, shard
            )
        else:
            future = self._executors[shard].submit(target.ingest_batch, batch)
        self._futures.append(future)
        return future

    @staticmethod
    def _traced_ingest(target, batch, trace, shard):
        with _trace.get_tracer().span(
            "shard.ingest", trace, cat="shard", shard=shard
        ):
            return target.ingest_batch(batch)

    def ingest(self, batches) -> int:
        """Submit every batch of an iterable, drain, and return the total
        number of reports ingested."""
        for batch in batches:
            self.submit(batch)
        return self.drain()

    def drain(self) -> int:
        """Block until all queued batches are ingested.

        Returns the summed batch sizes.  A shard error re-raises only
        after every queued batch has finished (see
        :func:`sum_batch_results`).
        """
        registry = _obs.get_registry()
        if not registry.enabled:
            return self._drain_all()
        with registry.span("shard_drain_seconds"):
            total = self._drain_all()
        registry.counter("shard_drained_reports_total").inc(total)
        registry.gauge("shard_imbalance_batches").set(
            max(self._shard_batches) - min(self._shard_batches)
        )
        return total

    def _drain_all(self) -> int:
        futures, self._futures = self._futures, []
        return sum_batch_results(futures)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def partials(self) -> list:
        """The live shard states (drains pending work first)."""
        self.drain()
        return list(self._shards)

    def merged(self):
        """Reduce all shard states into one (drains pending work first).

        The result is always detached from the live shards, so a
        mid-stream snapshot stays frozen while ingestion continues —
        including in the single-shard configuration, where a bare reduce
        would hand back the live shard itself.
        """
        self.drain()
        if len(self._shards) == 1:
            return self._shards[0].copy()
        return reduce(lambda left, right: left.merge(right), self._shards)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Wait for queued work and release the worker threads."""
        if not self._closed:
            self._closed = True
            for executor in self._executors:
                executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedAggregator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedAggregator(n_shards={len(self._shards)}, "
            f"pending={len(self._futures)})"
        )
