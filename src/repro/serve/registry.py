"""Hosted session registry: concurrent server-side LDP cohorts.

A :class:`HostedSession` is one collection cohort living inside the
collector — an :class:`~repro.stream.session.OnlineFrameworkSession`
fleet behind a :class:`~repro.stream.sharding.ShardedAggregator` (kind
``"framework"``), or a single
:class:`~repro.stream.topk_session.OnlineTopKSession` miner (kind
``"topk"``) — wrapped in the micro-batching and backpressure state the
asyncio front-end needs:

* incoming reports write *in place* into a preallocated columnar ring
  buffer (:class:`~repro.serve.ringbuf.ReportRing`) — the arrival path
  allocates nothing; once ``flush_reports`` accumulate (or the periodic
  flusher / a query / a BYE fires) the ring's window is copied out once,
  in arrival order, and submitted through a :mod:`repro.stream.drain`
  adapter in engine-bounded chunks;
* when buffered + in-flight reports exceed ``high_water`` the session
  reports itself unwritable and connections stop reading — TCP pushes the
  backpressure to clients — until ingestion drains below ``low_water``;
* queries serialise against flushing through one asyncio lock, drain
  synchronously in a worker thread, and answer from a merged snapshot, so
  every report accepted before the query is reflected in the answer.

A :class:`SessionRegistry` keys hosted sessions by id: the first HELLO
naming a session creates it from the handshake config, later HELLOs join
it — with the exact same canonical config, else the join is refused.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import Optional

import numpy as np

from ..exceptions import DomainError
from ..mechanisms.engine import batch_spans
from ..obs.log import log_event
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry, Span
from ..rng import ensure_rng, spawn
from ..stream import (
    AggregatorDrain,
    DriftDetector,
    OnlineTopKSession,
    SESSIONS,
    SessionDrain,
    ShardedAggregator,
    make_session,
)
from .protocol import ServeError, decode_reports_view
from .ringbuf import ReportRing

#: Session kinds hosted by the collector.
KINDS = ("framework", "topk")

#: Hard ceilings on what one unauthenticated HELLO may make the server
#: allocate: ``c * d`` int64 cells per shard array and the shard count.
MAX_DOMAIN_CELLS = 10_000_000
MAX_SHARDS = 64

#: Every key a HELLO config may carry.
_CONFIG_KEYS = frozenset(
    (
        "session", "kind", "framework", "epsilon", "n_classes", "n_items",
        "mode", "label_fraction", "seed", "shards",
        "k", "keep", "extension_bits", "invalid_mode",
        "decay", "decay_every", "window",
    )
)

#: Keys meaningful only for one kind (rejected on the other).  The decay
#: hook (and the sliding window built on it) rides
#: OnlineFrameworkSession.decay, which the top-k miner lacks.
_FRAMEWORK_ONLY = frozenset(
    ("framework", "shards", "decay", "decay_every", "window")
)
_TOPK_ONLY = frozenset(("k", "keep", "extension_bits", "invalid_mode"))


def canonical_config(raw: dict, default_shards: int = 1) -> dict:
    """Validate and normalise a handshake config.

    Fills defaults so two HELLOs describing the same cohort canonicalise
    identically — the join check is plain dict equality.
    """
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ServeError(f"unknown session config keys: {sorted(unknown)}")
    session_id = raw.get("session")
    if not isinstance(session_id, str) or not session_id:
        raise ServeError("config needs a non-empty string 'session' id")
    kind = raw.get("kind", "framework")
    if kind not in KINDS:
        raise ServeError(f"kind must be one of {KINDS}, got {kind!r}")
    for key in ("epsilon", "n_classes", "n_items"):
        if key not in raw:
            raise ServeError(f"config is missing required key {key!r}")
    misplaced = set(raw) & (_TOPK_ONLY if kind == "framework" else _FRAMEWORK_ONLY)
    if misplaced:
        raise ServeError(
            f"config keys {sorted(misplaced)} do not apply to kind {kind!r}"
        )
    n_classes, n_items = int(raw["n_classes"]), int(raw["n_items"])
    if n_classes < 1 or n_items < 1:
        raise ServeError(
            f"n_classes ({n_classes}) and n_items ({n_items}) must be >= 1"
        )
    if n_classes * n_items > MAX_DOMAIN_CELLS:
        raise ServeError(
            f"domain of {n_classes} x {n_items} cells exceeds the "
            f"{MAX_DOMAIN_CELLS}-cell per-session ceiling"
        )
    config = {
        "session": session_id,
        "kind": kind,
        "epsilon": float(raw["epsilon"]),
        "n_classes": n_classes,
        "n_items": n_items,
        "mode": raw.get("mode", "simulate"),
        "seed": None if raw.get("seed") is None else int(raw["seed"]),
        "decay": None if raw.get("decay") is None else float(raw["decay"]),
        "decay_every": (
            None if raw.get("decay_every") is None else int(raw["decay_every"])
        ),
        "window": None if raw.get("window") is None else int(raw["window"]),
    }
    if config["window"] is not None:
        if config["decay"] is not None or config["decay_every"] is not None:
            raise ServeError(
                "window and explicit decay/decay_every are mutually "
                "exclusive — the window policy derives both knobs"
            )
        if config["window"] < 2:
            raise ServeError(
                f"window must be >= 2 reports, got {config['window']}"
            )
    if kind == "framework":
        framework = raw.get("framework")
        if framework not in SESSIONS:
            raise ServeError(
                f"framework must be one of {sorted(SESSIONS)}, got {framework!r}"
            )
        config["framework"] = framework
        shards = raw.get("shards")
        config["shards"] = default_shards if shards is None else int(shards)
        if not 1 <= config["shards"] <= MAX_SHARDS:
            raise ServeError(
                f"shards must be in [1, {MAX_SHARDS}], got {config['shards']}"
            )
        label_fraction = raw.get("label_fraction")
        if framework in ("pts", "pts-cp"):
            # Fill the effective default so an omitted and an explicit 0.5
            # canonicalise identically for the join equality check.
            config["label_fraction"] = (
                0.5 if label_fraction is None else float(label_fraction)
            )
        elif label_fraction is not None:
            raise ServeError(
                f"label_fraction does not apply to framework {framework!r}"
            )
        else:
            config["label_fraction"] = None
    else:
        if "k" not in raw:
            raise ServeError("top-k config is missing required key 'k'")
        config["k"] = int(raw["k"])
        config["keep"] = None if raw.get("keep") is None else int(raw["keep"])
        config["extension_bits"] = int(raw.get("extension_bits", 1))
        config["invalid_mode"] = raw.get("invalid_mode", "vp")
        config["label_fraction"] = float(raw.get("label_fraction", 0.5))
    return config


def _build_drain(config: dict, record: bool):
    """The drain adapter for a canonical config.

    Framework shards spawn their generators from the config seed with
    :func:`repro.rng.spawn`, so a recorded run replays offline from the
    same seed (see :func:`repro.stream.drain.replay_drain_log`).
    """
    decay = dict(
        decay=config["decay"],
        decay_every=config["decay_every"],
        window=config["window"],
    )
    if config["kind"] == "framework":
        children = spawn(ensure_rng(config["seed"]), config["shards"])
        shards = [
            make_session(
                config["framework"],
                epsilon=config["epsilon"],
                n_classes=config["n_classes"],
                n_items=config["n_items"],
                mode=config["mode"],
                rng=child,
                label_fraction=config["label_fraction"],
            )
            for child in children
        ]
        return AggregatorDrain(ShardedAggregator(shards), record=record, **decay)
    miner = OnlineTopKSession(
        k=config["k"],
        epsilon=config["epsilon"],
        n_classes=config["n_classes"],
        n_items=config["n_items"],
        label_fraction=config["label_fraction"],
        keep=config["keep"],
        extension_bits=config["extension_bits"],
        invalid_mode=config["invalid_mode"],
        mode=config["mode"],
        rng=ensure_rng(config["seed"]),
    )
    return SessionDrain(miner, record=record, **decay)


class HostedSession:
    """One live cohort: buffers, drain adapter, backpressure, queries.

    Its instruments, labelled by session id, record into ``metrics``,
    the collector's registry.
    """

    def __init__(
        self,
        config: dict,
        metrics: MetricsRegistry,
        flush_reports: int = 65_536,
        high_water: int = 262_144,
        record: bool = False,
    ) -> None:
        if flush_reports < 1:
            raise ServeError(f"flush_reports must be >= 1, got {flush_reports}")
        if high_water < flush_reports:
            raise ServeError(
                f"high_water ({high_water}) must be >= flush_reports "
                f"({flush_reports})"
            )
        self.config = config
        self.session_id = config["session"]
        self.kind = config["kind"]
        self.n_classes = config["n_classes"]
        self.n_items = config["n_items"]
        self.flush_reports = int(flush_reports)
        self.high_water = int(high_water)
        self.low_water = max(1, self.high_water // 2)
        self._drain = _build_drain(config, record)
        self._ring = ReportRing(capacity=max(2 * self.flush_reports, 8192))
        self._drift = DriftDetector()
        self._buffered = 0
        self._inflight = 0
        self.n_accepted = 0
        self._lock = asyncio.Lock()
        self._resume = asyncio.Event()
        self._resume.set()
        # Backpressure stall accounting (loop thread only): how many
        # waiters are currently paused, when the ongoing stall began
        # (epoch seconds, ``None`` when writable), and the accumulated
        # stalled wall-clock across completed stalls.
        self._stall_waiters = 0
        self._stall_clock = 0.0
        self._stall_started: Optional[float] = None
        self._stall_seconds = 0.0
        # Fetched once: the REPORTS hot path then touches no registry key.
        session = self.session_id
        self._m_flush = metrics.histogram(
            "serve_flush_reports", buckets=DEFAULT_COUNT_BUCKETS, session=session
        )
        self._m_pending = metrics.gauge("serve_session_pending", session=session)
        self._m_pause = metrics.counter(
            "serve_backpressure_pause_total", session=session
        )
        self._m_resume = metrics.counter(
            "serve_backpressure_resume_total", session=session
        )
        self._m_occupancy = metrics.gauge("serve_ring_occupancy", session=session)
        metrics.gauge("serve_ring_capacity", session=session).set(
            self._ring.capacity
        )
        self._m_flush_seconds = metrics.histogram(
            "serve_flush_seconds", session=session
        )
        self._m_decode = metrics.histogram("serve_decode_seconds", session=session)
        self._m_query = metrics.histogram("serve_query_seconds", session=session)
        self._m_drift_score = metrics.gauge("serve_drift_score", session=session)
        self._m_drift_events = metrics.counter(
            "serve_drift_events_total", session=session
        )

    # ------------------------------------------------------------------
    # buffering and flushing (event-loop thread only)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Reports accepted but not yet folded into session state."""
        return self._buffered + self._inflight

    @property
    def stalled(self) -> bool:
        """Whether at least one connection is paused on backpressure."""
        return self._stall_waiters > 0

    @property
    def stall_seconds(self) -> float:
        """Total wall-clock this session has spent above the high-water
        mark (completed stalls plus the ongoing one, if any)."""
        total = self._stall_seconds
        if self._stall_waiters:
            total += time.perf_counter() - self._stall_clock
        return total

    @property
    def drain_log(self):
        return self._drain.drain_log

    def buffer_frames(self, bodies: list) -> int:
        """Accept a run of coalesced REPORTS frame bodies in one pass.

        Each body is a zero-copy view over the connection's socket
        buffer; columns decode as strided ``int32`` views and write in
        place into the ring — no per-frame ndarray materialises.
        """
        total = 0
        with Span(self._m_decode):
            for body in bodies:
                labels, items = decode_reports_view(body)
                n = int(labels.size)
                if n == 0:
                    continue
                # One reduction per column: the int32 wire views
                # reinterpret as uint32, where a negative value wraps
                # above 2**31 — so a single unsigned max catches both
                # out-of-range directions.
                if labels.view(np.uint32).max() >= self.n_classes:
                    raise DomainError(f"labels outside [0, {self.n_classes})")
                if items.view(np.uint32).max() >= self.n_items:
                    raise DomainError(f"items outside [0, {self.n_items})")
                self._ring.append(labels, items)
                total += n
        self._buffered += total
        self.n_accepted += total
        if total:
            self._m_pending.set(self.pending)
            self._m_occupancy.set(len(self._ring))
        return total

    def flush(self) -> int:
        """Drain the ingest ring into the aggregation plane.

        The ring's window is copied out once, in arrival order, into
        fresh ``int64`` columns — fresh because the drain adapter
        consumes them on worker threads and its log may keep them — and
        cut into ``flush_reports``-sized sub-batches with the engine's
        :func:`~repro.mechanisms.engine.batch_spans` before submission.
        Loop-thread only; callers serialise against :meth:`query` via the
        session lock (or skip when it is held).
        """
        if self._buffered == 0:
            return 0
        with Span(self._m_flush_seconds):
            labels = np.empty(len(self._ring), dtype=np.int64)
            items = np.empty(len(self._ring), dtype=np.int64)
            flushed = self._ring.consume(labels, items)
        self._buffered -= flushed
        self._m_flush.observe(flushed)
        self._m_occupancy.set(len(self._ring))
        loop = asyncio.get_running_loop()
        for span in batch_spans(flushed, 1, self.flush_reports):
            chunk_labels, chunk_items = labels[span], items[span]
            self._inflight += int(chunk_labels.size)
            future = self._drain.submit(chunk_labels, chunk_items)
            future.add_done_callback(
                partial(self._on_drained, loop, int(chunk_labels.size))
            )
        return flushed

    def try_flush(self, only_full: bool = False) -> int:
        """Opportunistic flush, skipped while a query holds the lock.

        ``only_full`` applies the micro-batching threshold (the REPORTS
        hot path); the periodic sweep and backpressure paths flush
        whatever is buffered.
        """
        if self._lock.locked():
            return 0
        if only_full and self._buffered < self.flush_reports:
            return 0
        return self.flush()

    def _on_drained(self, loop, n: int, _future) -> None:
        # Runs on a drain worker thread; hop back to the loop.
        loop.call_soon_threadsafe(self._mark_drained, n)

    def _mark_drained(self, n: int) -> None:
        self._inflight -= n
        self._m_pending.set(self.pending)
        if self.pending <= self.low_water:
            self._resume.set()

    # ------------------------------------------------------------------
    # backpressure
    # ------------------------------------------------------------------
    async def wait_writable(self) -> None:
        """Pause the caller (and so its socket reads) above the high-water
        mark until ingestion catches up below the low-water mark."""
        paused = False
        while self.pending > self.high_water:
            if not paused:
                paused = True
                self._stall_waiters += 1
                if self._stall_waiters == 1:
                    self._stall_clock = time.perf_counter()
                    self._stall_started = time.time()
                self._m_pause.inc()
                log_event(
                    "serve.backpressure.pause",
                    session=self.session_id,
                    pending=self.pending,
                )
            self.try_flush()
            self._resume.clear()
            await self._resume.wait()
        if paused:
            self._stall_waiters -= 1
            if self._stall_waiters == 0:
                self._stall_seconds += time.perf_counter() - self._stall_clock
                self._stall_started = None
            self._m_resume.inc()
            log_event(
                "serve.backpressure.resume",
                session=self.session_id,
                pending=self.pending,
            )

    # ------------------------------------------------------------------
    # queries and settling
    # ------------------------------------------------------------------
    async def query(self, spec: dict):
        """Answer one control-channel query against a drained snapshot.

        Takes the session lock, flushes whatever is buffered, then drains
        every submission and runs the query on a worker thread, so the
        answer reflects every report accepted before the query.
        """
        async with self._lock:
            self.flush()
            loop = asyncio.get_running_loop()
            try:
                with Span(self._m_query):
                    return await loop.run_in_executor(
                        None, self._query_sync, spec
                    )
            finally:
                self._resume.set()  # re-check writability after the drain

    async def settle(self) -> None:
        """Flush and drain everything buffered (BYE / shutdown path)."""
        async with self._lock:
            self.flush()
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, self._drain.drain)
            finally:
                self._resume.set()

    def _query_sync(self, spec: dict):
        self._drain.drain()
        query = spec.get("query")
        if query == "stats":
            return self._stats()
        snapshot = self._drain.snapshot()
        if query == "topk":
            k = spec.get("k")
            try:
                k = None if k is None else int(k)
            except (TypeError, ValueError):
                raise ServeError(f"topk k must be an integer, got {k!r}") from None
            if k is None and self.kind == "framework":
                # Only the miner has an inherent k to default to.
                raise ServeError(
                    "topk on a framework session needs an explicit k"
                )
            result = snapshot.topk(k)
            return {str(label): ids for label, ids in result.items()}
        if self.kind == "framework":
            if query == "estimate":
                return snapshot.estimate().tolist()
            if query == "class_sizes":
                return snapshot.class_sizes().tolist()
            if query == "drift":
                return self._drift_check(snapshot, spec)
        else:
            if query == "advance_round":
                snapshot.advance_round()
                return self._round_stats(snapshot)
        raise ServeError(
            f"unknown query {query!r} for a {self.kind!r} session"
        )

    def _drift_check(self, snapshot, spec: dict) -> dict:
        """Score the drained estimate against the drift baseline.

        The residual between the current private estimate and the last
        baseline is normalised by the closed-form variance bound
        (``estimate_variance``); cells the noise cannot explain flag
        drift, the detector re-baselines, and the score lands on the
        ``serve_drift_score`` gauge.  Stateful: every check advances the
        baseline's age.
        """
        threshold = spec.get("threshold")
        try:
            threshold = None if threshold is None else float(threshold)
        except (TypeError, ValueError):
            raise ServeError(
                f"drift threshold must be a number, got {threshold!r}"
            ) from None
        if threshold is not None and not threshold > 0:
            raise ServeError(
                f"drift threshold must be > 0, got {threshold!r}"
            )
        report = self._drift.update(
            snapshot.estimate(), snapshot.estimate_variance(),
            threshold=threshold,
        )
        self._m_drift_score.set(report.score)
        if report.drifted:
            self._m_drift_events.inc()
            log_event(
                "serve.drift.flagged",
                session=self.session_id,
                score=report.score,
                n_flagged=report.n_flagged,
            )
        out = report.to_dict()
        out["n_ingested"] = int(self._drain.n_drained)
        return out

    def _round_stats(self, miner) -> dict:
        return {
            "round": miner.round,
            "n_rounds": miner.n_rounds,
            "depth": miner.depth,
            "finished": miner.finished,
            "round_ingested": miner.round_ingested,
        }

    def _stats(self) -> dict:
        # Runs post-drain in the worker thread; count from the drain
        # adapter, not the loop-side pending markers (their decrements hop
        # back through the event loop and may not have landed yet).
        stats = {
            "session": self.session_id,
            "kind": self.kind,
            "n_accepted": self.n_accepted,
            "pending": (
                self.n_accepted - self._drain.n_drained - self._drain.n_rejected
            ),
        }
        if self.kind == "topk":
            miner = self._drain.snapshot()
            stats["n_ingested"] = miner.n_ingested
            stats.update(self._round_stats(miner))
        else:
            stats["n_ingested"] = self._drain.n_drained
        return stats

    def ingest_stats(self) -> dict:
        """Loop-thread-safe ingest counters for the STATS frame.

        Unlike :meth:`_stats` (the ``stats`` query, which drains first on
        a worker thread) this never touches the drain adapter's work
        queue, so the collector can answer a STATS poll without blocking
        the event loop: ``pending`` here is the live ingest lag —
        buffered plus in-flight reports, both loop-side counters, so a
        sweep-flushed session reads 0 as soon as its drain futures land
        (``n_drained`` lags until the next query reconciles the adapter).
        ``n_rejected`` counts the reports of shard batches whose ingest
        raised: once a query has drained, ``n_drained + n_rejected ==
        n_submitted``.
        """
        return {
            "session": self.session_id,
            "kind": self.kind,
            "n_accepted": int(self.n_accepted),
            "buffered": int(self._buffered),
            "inflight": int(self._inflight),
            "pending": int(self.pending),
            "n_submitted": int(self._drain.n_submitted),
            "n_drained": int(self._drain.n_drained),
            "n_rejected": int(self._drain.n_rejected),
            "high_water": int(self.high_water),
            "stalled": self.stalled,
            "stall_seconds": float(self.stall_seconds),
        }

    def close(self) -> None:
        self._drain.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HostedSession(id={self.session_id!r}, kind={self.kind!r}, "
            f"accepted={self.n_accepted}, pending={self.pending})"
        )


class SessionRegistry:
    """Concurrent hosted sessions keyed by id (create-or-join).

    ``metrics`` is the collector's registry; every hosted session
    records into it.  ``max_sessions`` bounds how many distinct cohorts unauthenticated
    handshakes can create (each holds shard arrays and worker threads);
    per-session allocations are capped by :data:`MAX_DOMAIN_CELLS` /
    :data:`MAX_SHARDS` in :func:`canonical_config`.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        default_shards: int = 1,
        flush_reports: int = 65_536,
        high_water: int = 262_144,
        record: bool = False,
        max_sessions: int = 256,
    ) -> None:
        self.default_shards = int(default_shards)
        self.flush_reports = int(flush_reports)
        self.high_water = int(high_water)
        self.record = bool(record)
        self.max_sessions = int(max_sessions)
        self.metrics = metrics
        self._sessions: dict[str, HostedSession] = {}

    def open(self, raw_config: dict) -> tuple[HostedSession, bool]:
        """The hosted session for a HELLO config: created on first sight,
        joined (under an exactly matching config) afterwards."""
        config = canonical_config(raw_config, self.default_shards)
        existing = self._sessions.get(config["session"])
        if existing is not None:
            if existing.config != config:
                raise ServeError(
                    f"session {config['session']!r} exists with a different "
                    "config; joins must match the creating handshake exactly"
                )
            return existing, False
        if len(self._sessions) >= self.max_sessions:
            raise ServeError(
                f"session cap ({self.max_sessions}) reached; "
                f"cannot create {config['session']!r}"
            )
        hosted = HostedSession(
            config,
            self.metrics,
            flush_reports=self.flush_reports,
            high_water=self.high_water,
            record=self.record,
        )
        self._sessions[config["session"]] = hosted
        self.metrics.gauge("serve_sessions_active").set(len(self._sessions))
        log_event(
            "serve.session.create",
            session=config["session"],
            kind=config["kind"],
        )
        return hosted, True

    def get(self, session_id: str) -> HostedSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ServeError(f"unknown session {session_id!r}") from None

    def sessions(self) -> list[HostedSession]:
        return list(self._sessions.values())

    async def settle_all(self) -> None:
        for hosted in self.sessions():
            await hosted.settle()

    def close(self) -> None:
        for hosted in self.sessions():
            hosted.close()

    def __len__(self) -> int:
        return len(self._sessions)
