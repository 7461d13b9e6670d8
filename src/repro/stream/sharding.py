"""Shard-parallel batch ingestion with mergeable partial states.

A :class:`ShardedAggregator` owns ``n_shards`` independent shard states
— :class:`~repro.stream.session.OnlineFrameworkSession` instances, or
anything else exposing ``ingest_batch``, ``merge`` and ``copy`` — and
fans submitted batches across them round-robin.  Each shard is served by
its own single-worker executor, so batches bound for one shard execute
in submission order (keeping per-shard RNG streams deterministic) while
different shards ingest concurrently.  ``merged()`` reduces the partial
states with ``merge``.

The result is exact, in either mode and under either executor: with
seeded sessions, ``merged().estimate()`` equals what the same sessions
give when fed the same batches round-robin in-process and then reduced
with ``merge``.  Sessions hold additive support counts, so the reduction
order does not matter.

Two executors are available.  ``executor="thread"`` (default) serves each
shard from its own single-worker thread — cheap hand-off, shared memory,
concurrency bounded by the GIL outside NumPy kernels (and not at all
under a GIL-free kernel backend).  ``executor="process"`` keeps one
*persistent* worker process per shard: the shard state ships to its
worker once, stays resident there across drains, and only queued batches
cross the process boundary at :meth:`ShardedAggregator.drain` time.  How
they cross is the *transport*: ``"shm"`` (default where supported) packs
each drain's report arrays into one shared-memory segment per shard and
sends only a descriptor manifest over the pipe — the worker ingests
zero-copy views, nothing is pickled per report — while ``"pickle"``
falls back to serialising batches through the pipe.  Snapshots of the
resident states are pickled back only on demand (:meth:`partials`,
:meth:`merged`, :meth:`close`), never per drain.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import reduce
from typing import Callable, Optional, Sequence, Union

from ..exceptions import ConfigurationError
from ..obs import metrics as _obs
from ..obs import trace as _trace
from . import shm as _shm

#: Anything shard-shaped: ingest_batch(batch) + merge(other).
Mergeable = object
ShardFactory = Callable[[], Mergeable]

#: The two batch executors.
EXECUTORS = ("thread", "process")

#: Process-mode batch transports (``"auto"`` resolves at construction).
TRANSPORTS = ("auto", "shm", "pickle")


def default_shard_count() -> int:
    """Shards used when the caller does not choose: one per CPU, capped."""
    return max(1, min(8, os.cpu_count() or 1))


def resolve_transport(transport: Optional[str]) -> str:
    """Effective process-mode transport for a requested name.

    ``None``/``"auto"`` picks shared memory when the host supports it and
    degrades to pickle quietly; an explicit ``"shm"`` on a host without
    usable shared memory is a configuration error.
    """
    requested = "auto" if transport is None else str(transport)
    if requested not in TRANSPORTS:
        raise ConfigurationError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if requested == "auto":
        return "shm" if _shm.shm_supported() else "pickle"
    if requested == "shm" and not _shm.shm_supported():
        raise ConfigurationError(
            "transport='shm' requested but shared memory is unavailable"
        )
    return requested


def _shard_worker_main(connection, state, index: int = 0) -> None:
    """Persistent shard worker: hold ``state`` resident, serve commands.

    Commands arrive as tuples on ``connection``:

    ``("ingest", "shm", (segment_name, manifest), telemetry)`` /
    ``("ingest", "pickle", batches, telemetry)``
        Replay the batches into the state in order.  Ingestion runs
        against a ``copy()`` that only replaces the resident state when
        *every* batch succeeds, so a failed drain leaves the shard
        exactly as it was (all-or-nothing, matching the old pool
        semantics where a failed worker's state never came back).
        ``telemetry`` is ``None`` on the fast path (reply payload is
        the size list, unchanged); when the parent's telemetry plane is
        live it is ``{"traces": [...], "metrics": bool}`` and the reply
        payload becomes ``(sizes, spans, snapshot)`` — per-batch span
        records parented on the shipped ``(trace_id, span_id)`` tuples,
        plus this process's metrics snapshot for the parent to fold in.
    ``("snapshot",)``
        Reply with the resident state (the one place states are pickled).
    ``("stop",)``
        Acknowledge and exit.

    Replies are ``("ok", payload)`` or ``("error", exception)``.
    """
    # The registry was fork-copied from the parent; its values belong to
    # the parent's series.  Start from zero so a shipped-back snapshot
    # counts only work this shard actually did.
    _obs.get_registry().clear()
    service = f"shard{index}"
    while True:
        command = connection.recv()
        kind = command[0]
        if kind == "stop":
            connection.send(("ok", None))
            return
        if kind == "snapshot":
            connection.send(("ok", state))
            continue
        # kind == "ingest"
        transport, payload = command[1], command[2]
        telemetry = command[3] if len(command) > 3 else None
        segment = None
        try:
            if transport == "shm":
                name, manifest = payload
                segment, batches = _shm.attach_batches(name, manifest)
            else:
                batches = payload
            registry = _obs.get_registry()
            if telemetry is not None and telemetry.get("metrics"):
                registry.enable()
            work = state.copy()
            if telemetry is None:
                sizes = [
                    int(work.ingest_batch(batch) or 0) for batch in batches
                ]
                reply = sizes
            else:
                traces = telemetry.get("traces") or [None] * len(batches)
                sizes, spans = [], []
                for batch, wire in zip(batches, traces):
                    if wire is None:
                        sizes.append(int(work.ingest_batch(batch) or 0))
                        continue
                    trace_id, parent_id = wire
                    start = time.time()
                    clock = time.perf_counter()
                    size = int(work.ingest_batch(batch) or 0)
                    sizes.append(size)
                    spans.append(
                        {
                            "name": "shard.ingest",
                            "cat": "shard",
                            "trace_id": trace_id,
                            "span_id": _trace._new_id(),
                            "parent_id": parent_id,
                            "start": start,
                            "duration": time.perf_counter() - clock,
                            "service": service,
                            "thread": "worker",
                            "args": {"shard": index, "reports": size},
                        }
                    )
                snapshot = (
                    registry.snapshot() if telemetry.get("metrics") else None
                )
                reply = (sizes, spans, snapshot)
            del batches  # drop the views before unmapping the segment
            state = work
            connection.send(("ok", reply))
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            connection.send(("error", error))
        finally:
            _shm.release(segment, unlink=False)


class _ShardWorker:
    """Parent-side handle on one persistent shard worker process."""

    def __init__(self, state, transport: str, index: int = 0) -> None:
        self.transport = transport
        self.index = index
        context = multiprocessing.get_context()
        self._connection, child_connection = context.Pipe()
        self._process = context.Process(
            target=_shard_worker_main,
            args=(child_connection, state, index),
            daemon=True,
        )
        self._process.start()
        child_connection.close()

    def send_ingest(self, batches, telemetry=None):
        """Ship ``batches`` to the worker; returns the in-flight segment
        (``None`` on the pickle transport) for :meth:`recv_ingest`."""
        if self.transport == "shm":
            segment, manifest = _shm.pack_batches(batches)
            name = segment.name if segment is not None else None
            try:
                self._connection.send(
                    ("ingest", "shm", (name, manifest), telemetry)
                )
            except BaseException:
                _shm.release(segment, unlink=True)
                raise
            return segment
        self._connection.send(("ingest", "pickle", batches, telemetry))
        return None

    def recv_ingest(self, segment) -> list[int]:
        """Collect the per-batch sizes for a :meth:`send_ingest`; always
        releases (and unlinks) the in-flight segment."""
        try:
            return self._recv()
        finally:
            _shm.release(segment, unlink=True)

    def snapshot(self):
        """The worker's resident state, pickled back on demand."""
        self._connection.send(("snapshot",))
        return self._recv()

    def stop(self) -> None:
        try:
            self._connection.send(("stop",))
            self._recv()
        except (BrokenPipeError, EOFError, OSError):  # already gone
            pass
        self._process.join(timeout=10)
        self._connection.close()

    def _recv(self):
        try:
            status, payload = self._connection.recv()
        except EOFError:
            raise RuntimeError("shard worker process terminated unexpectedly")
        if status == "error":
            raise payload
        return payload


class _DeferredFuture(Future):
    """Future resolved by the aggregator's next drain.

    Process-mode batches only ship at :meth:`ShardedAggregator.drain`
    time; waiting on the future before that would deadlock, so
    ``result``/``exception`` trigger the drain themselves, keeping the
    thread-mode contract (``submit(...).result()`` just works).
    """

    def __init__(self, drain) -> None:
        super().__init__()
        self._drain = drain

    def _drain_resolving(self) -> None:
        """Run the drain; if it fails before resolving this future (broken
        worker, another shard's error), park the failure here so waiting
        neither deadlocks nor raises an unrelated shard's exception."""
        try:
            self._drain()
        except BaseException as error:  # noqa: BLE001 - parked on the future
            if not self.done():
                self.set_exception(error)

    def result(self, timeout=None):
        if not self.done():
            self._drain_resolving()
        return super().result(timeout)

    def exception(self, timeout=None):
        if not self.done():
            self._drain_resolving()
        return super().exception(timeout)


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
    executor:
        ``"thread"`` (default) or ``"process"`` — see the module
        docstring.  Process mode requires picklable shard states (every
        session qualifies) and defers actual ingestion to
        :meth:`drain`.
    transport:
        Process-mode batch transport: ``"shm"`` (zero-copy shared-memory
        views), ``"pickle"``, or ``"auto"``/``None`` (shared memory when
        the host supports it).  Thread mode shares one address space and
        accepts only the default.

    Use as a context manager (or call :meth:`close`) to release the
    workers.
    """

    def __init__(
        self,
        shards: Union[Sequence[Mergeable], ShardFactory],
        n_shards: Optional[int] = None,
        executor: str = "thread",
        transport: Optional[str] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
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
        self.executor = executor
        if executor == "thread":
            if transport not in (None, "auto"):
                raise ConfigurationError(
                    "transport applies to the process executor only; "
                    f"got transport={transport!r} with executor='thread'"
                )
            self.transport = None
            # One single-worker executor per shard: batches for a shard run
            # FIFO (deterministic per-shard RNG consumption), shards overlap.
            self._executors = [
                ThreadPoolExecutor(max_workers=1) for _ in self._shards
            ]
            self._workers = None
            self._pending = None
        else:
            self.transport = resolve_transport(transport)
            self._executors = []
            # One persistent worker per shard: the state ships once and
            # stays resident; self._shards becomes a snapshot cache that
            # partials()/merged()/close() refresh from the workers.
            self._workers = [
                _ShardWorker(shard, self.transport, index)
                for index, shard in enumerate(self._shards)
            ]
            # Per-shard FIFO of (batch, future, trace) awaiting the drain.
            self._pending = [[] for _ in self._shards]
        self._futures: list[Future] = []
        # Latest worker-process metrics snapshots, relabelled per shard
        # (process mode only; populated when the parent registry is live).
        self._worker_metrics: dict[int, dict] = {}
        self._next = 0
        self._closed = False
        self._snapshots_stale = False
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
        the batch: the shard ingest records a child span (in-process for
        the thread executor, shipped back from the worker process
        otherwise).  ``None`` — the default — is the zero-cost path.
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
        if self._pending is not None:
            # Process mode: queue locally; the batch ships at drain time
            # (or when the future itself is awaited).
            future: Future = _DeferredFuture(self._drain_process)
            self._pending[shard].append((batch, future, trace))
            self._futures.append(future)
            return future
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

        Returns the summed batch sizes; re-raises the first shard error.
        In process mode this is where the work happens: each shard's
        queued batches ship to its resident worker over the configured
        transport and fold into the worker-held state — no state ever
        travels at drain time.
        """
        registry = _obs.get_registry()
        if not registry.enabled:
            return self._drain_all()
        with registry.span(
            "shard_drain_seconds", executor=self.executor
        ):
            total = self._drain_all()
        registry.counter("shard_drained_reports_total").inc(total)
        registry.gauge("shard_imbalance_batches").set(
            max(self._shard_batches) - min(self._shard_batches)
        )
        return total

    def _drain_all(self) -> int:
        if self._pending is not None:
            self._futures = []
            return self._drain_process()
        futures, self._futures = self._futures, []
        return sum(int(future.result() or 0) for future in futures)

    def _drain_process(self) -> int:
        if self._workers is None:  # closed: queues were drained then
            return 0
        # When either telemetry plane is live, piggyback on the drain
        # round-trip: ship trace contexts out, collect spans and metrics
        # snapshots back.  ``None`` keeps the wire format untouched.
        tracer = _trace.get_tracer()
        want_metrics = _obs.get_registry().enabled
        want_telemetry = tracer.enabled or want_metrics
        # Phase 1: ship every shard's queue — all workers start folding
        # concurrently before we collect any reply.
        inflight = []
        first_error = None
        shipped_bytes = 0
        for index, worker in enumerate(self._workers):
            pending, self._pending[index] = self._pending[index], []
            if not pending:
                continue
            batches = [batch for batch, _future, _trace_ctx in pending]
            telemetry = None
            if want_telemetry:
                traces = None
                if tracer.enabled:
                    traces = [
                        None
                        if ctx is None
                        else (ctx.trace_id, ctx.span_id)
                        for _batch, _future, ctx in pending
                    ]
                telemetry = {"traces": traces, "metrics": want_metrics}
            try:
                segment = worker.send_ingest(batches, telemetry)
            except BaseException as error:  # noqa: BLE001 - parked on futures
                for _batch, submit_future, _trace_ctx in pending:
                    submit_future.set_exception(error)
                first_error = first_error or error
                continue
            shipped_bytes += _shm.manifest_nbytes(segment)
            inflight.append((worker, pending, segment, telemetry))
        # Phase 2: collect replies in shard order.
        total = 0
        for worker, pending, segment, telemetry in inflight:
            try:
                reply = worker.recv_ingest(segment)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                for _batch, submit_future, _trace_ctx in pending:
                    submit_future.set_exception(error)
                first_error = first_error or error
                continue
            if telemetry is None:
                sizes = reply
            else:
                sizes, spans, snapshot = reply
                if spans:
                    tracer.adopt(spans)
                if snapshot is not None:
                    self._worker_metrics[worker.index] = _obs.relabel_snapshot(
                        snapshot, worker=f"shard{worker.index}"
                    )
            self._snapshots_stale = True
            for (_batch, submit_future, _trace_ctx), size in zip(
                pending, sizes
            ):
                submit_future.set_result(size)
                total += size
        if inflight:
            registry = _obs.get_registry()
            if registry.enabled:
                registry.counter(
                    "shard_transport_bytes_total", transport=self.transport
                ).inc(shipped_bytes)
        if first_error is not None:
            raise first_error
        return total

    def _refresh_snapshots(self) -> None:
        """Pull the resident worker states into the local snapshot cache."""
        if self._workers is None or self._closed or not self._snapshots_stale:
            return
        self._shards = [worker.snapshot() for worker in self._workers]
        self._snapshots_stale = False

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def partials(self) -> list:
        """The live shard states (drains pending work first).

        In process mode these are snapshots of the worker-resident
        states, fetched on demand — mutating them does not affect
        subsequent ingestion.
        """
        self.drain()
        self._refresh_snapshots()
        return list(self._shards)

    def merged(self):
        """Reduce all shard states into one (drains pending work first).

        The result is always detached from the live shards, so a
        mid-stream snapshot stays frozen while ingestion continues —
        including in the single-shard configuration, where a bare reduce
        would hand back the live shard itself.
        """
        self.drain()
        self._refresh_snapshots()
        if len(self._shards) == 1:
            return self._shards[0].copy()
        return reduce(lambda left, right: left.merge(right), self._shards)

    def worker_metrics(self) -> list[dict]:
        """Latest metrics snapshots shipped back from the shard worker
        processes, one per shard that has drained since the registry went
        live.  Series are relabelled with ``worker="shard<i>"`` so they
        merge next to — never over — the parent's own series (fold them
        in with :func:`repro.obs.merge_snapshots`).  Thread mode shares
        the parent registry, so this is empty there.
        """
        return [
            self._worker_metrics[index]
            for index in sorted(self._worker_metrics)
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Wait for queued work, cache final states, release the workers."""
        if not self._closed:
            if self._pending is not None and any(self._pending):
                self._drain_process()
            self._refresh_snapshots()
            self._closed = True
            for executor in self._executors:
                executor.shutdown(wait=True)
            if self._workers is not None:
                for worker in self._workers:
                    worker.stop()
                self._workers = None

    def __enter__(self) -> "ShardedAggregator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedAggregator(n_shards={len(self._shards)}, "
            f"pending={len(self._futures)})"
        )
