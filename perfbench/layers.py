"""Where the traced run wraps the program, and how spans become metrics.

Every wrapper sits on a public function or method of one of the
``src/repro`` layers — ``mechanisms``, ``core``, ``stream``, ``serve`` —
and is installed from the benchmark's own files; no file of the program
changes.  Functions that callers import by name (``batch_support``,
``calibrate_*``, the top-k steps) are replaced in every ``repro`` module
that holds them, so the wrapper sits where each caller looks the name up.
Methods are replaced on each class that defines them.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Optional

from spans import (
    Recorder,
    Span,
    clip,
    current_task_named,
    outermost,
    parents,
    self_times,
    union_length,
)

#: Spans during which the caller blocks on other threads' work.
WAIT_SPANS = ("stream.drain_wait",)

#: Task name the load generator gives its ingest stream, so the client
#: write-wait wrapper times that connection only.
INGEST_TASK = "perfbench-ingest"

#: Top-k pipeline steps timed as prune work (``core.topk.prune_s``).
TOPK_STEP_SPANS = (
    "core.topk.prune",
    "core.topk.final",
    "core.topk.candidate",
    "core.topk.classwise",
)


def _replace_everywhere(func: Callable, wrapper: Callable) -> None:
    """Swap ``func`` for ``wrapper`` in every loaded ``repro`` module that
    binds it, including modules that imported it by name."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, wrapper)


def _wrap_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = cls.__dict__.get(attr)
    if (
        original is None
        or not callable(original)
        or getattr(original, "__isabstractmethod__", False)
        or getattr(original, "__wrapped_by_perfbench__", False)
    ):
        return
    setattr(cls, attr, make(original))


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _column_size(values) -> int:
    first = values[0] if isinstance(values, tuple) else values
    return int(len(first))


def _ingest_info(args, kwargs, _result):
    session, labels = args[0], args[1]
    items = args[2] if len(args) > 2 else kwargs.get("items")
    if items is None:
        labels = labels[0]
    return (id(session), int(len(labels)))


def install_engine(recorder: Recorder) -> None:
    """Wrap the ``mechanisms``, ``core`` and ``stream`` layers."""
    import repro  # noqa: F401 - loads every subpackage the wrappers touch
    from repro.core import estimators
    from repro.core.frameworks import MulticlassFramework
    from repro.core.frameworks import base as frameworks_base
    from repro.core.topk import candidate, classwise, pruning, reporting
    from repro.core.topk.pem import PEMMiner
    from repro.core.topk.scheme import MultiClassTopK
    from repro.mechanisms import engine
    from repro.mechanisms.base import FrequencyOracle
    from repro.mechanisms.correlated import CorrelatedPerturbation
    from repro.stream.session import OnlineFrameworkSession
    from repro.stream.sharding import ShardedAggregator

    wrap = recorder.wrap
    _replace_everywhere(
        engine.batch_support,
        wrap(engine.batch_support, "mechanisms.batch",
             lambda a, k, r: _column_size(a[1])),
    )
    _replace_everywhere(
        engine.grouped_batch_support,
        wrap(engine.grouped_batch_support, "mechanisms.batch",
             lambda a, k, r: int(len(a[2]))),
    )
    original_get_kernel = engine.get_kernel
    wrapped_kernels: dict = {}

    def get_kernel(kernel_name):
        kernel = original_get_kernel(kernel_name)
        if kernel_name != "grouped_scatter":
            return kernel
        if kernel not in wrapped_kernels:
            wrapped_kernels[kernel] = wrap(kernel, "mechanisms.aggregate")
        return wrapped_kernels[kernel]

    engine.get_kernel = get_kernel
    for cls in _subclasses(FrequencyOracle) + [CorrelatedPerturbation]:
        _wrap_method(cls, "privatize_many",
                     lambda f: wrap(f, "mechanisms.privatize"))
        _wrap_method(cls, "aggregate_batch",
                     lambda f: wrap(f, "mechanisms.aggregate"))

    for func in (
        estimators.calibrate_hec,
        estimators.calibrate_ptj,
        estimators.calibrate_pts,
        estimators.calibrate_cp,
        estimators.estimate_class_sizes,
    ):
        _replace_everywhere(func, wrap(func, "core.calibrate"))
    _wrap_method(CorrelatedPerturbation, "estimate",
                 lambda f: wrap(f, "core.calibrate"))
    _wrap_method(MulticlassFramework, "estimate_frequencies",
                 lambda f: wrap(f, "core.estimate_frequencies"))
    _wrap_method(MultiClassTopK, "mine", lambda f: wrap(f, "core.topk.mine"))

    for func in (
        reporting.split_counts_over_iterations,
        frameworks_base.split_counts_into_groups,
    ):
        _replace_everywhere(func, wrap(func, "core.topk.split"))
    for func, name in (
        (pruning.bucket_prune_once, "core.topk.prune"),
        (pruning.prefix_prune_once, "core.topk.prune"),
        (pruning.estimate_final, "core.topk.final"),
        (candidate.generate_candidates, "core.topk.candidate"),
    ):
        _replace_everywhere(func, wrap(func, name))
    # The per-class miners return the candidates left before the final
    # round; the span keeps them for core.topk.candidate_recall.
    _replace_everywhere(
        classwise.mine_class_topk,
        wrap(classwise.mine_class_topk, "core.topk.classwise",
             lambda a, k, r: None if r is None else r.candidates),
    )
    _wrap_method(
        PEMMiner, "mine_counts",
        lambda f: wrap(f, "core.topk.classwise",
                       lambda a, k, r: None if r is None else r.candidates),
    )

    _wrap_method(OnlineFrameworkSession, "ingest_batch",
                 lambda f: wrap(f, "stream.ingest", _ingest_info))
    _wrap_method(OnlineFrameworkSession, "estimate",
                 lambda f: wrap(f, "stream.estimate"))
    _wrap_method(ShardedAggregator, "merged",
                 lambda f: wrap(f, "stream.estimate"))
    _wrap_method(ShardedAggregator, "drain",
                 lambda f: wrap(f, "stream.drain_wait"))


def install_collector(recorder: Recorder) -> None:
    """Wrap the collector side of ``serve`` plus the event loop's idle wait."""
    import asyncio
    import selectors

    from repro.serve.registry import HostedSession

    install_engine(recorder)
    _wrap_method(
        HostedSession, "buffer_frames",
        lambda f: recorder.wrap(
            f, "serve.decode",
            lambda a, k, r: (len(a[1]), sum(len(body) for body in a[1])),
        ),
    )
    _wrap_method(HostedSession, "flush",
                 lambda f: recorder.wrap(f, "serve.flush"))
    _wrap_method(HostedSession, "query",
                 lambda f: recorder.wrap_async(f, "serve.query"))
    # The event loop's own work: every callback and task step (socket
    # reads, frame parsing, the connection handlers) runs in a Handle.
    _wrap_method(asyncio.events.Handle, "_run",
                 lambda f: recorder.wrap(f, "serve.loop"))
    _wrap_method(selectors.EpollSelector, "select",
                 lambda f: recorder.wrap(f, "loop.idle"))


def install_client(recorder: Recorder) -> None:
    """Wrap the load generator's side of ``serve``: frame packing, and the
    ingest connection's waits on TCP flow control."""
    import asyncio

    from repro.serve.protocol import ReportsEncoder

    _wrap_method(ReportsEncoder, "pack",
                 lambda f: recorder.wrap_generator(f, "serve.client_pack"))
    _wrap_method(
        asyncio.StreamWriter, "drain",
        lambda f: recorder.wrap_async(
            f, "serve.client_write_wait", only=current_task_named(INGEST_TASK)
        ),
    )


# ----------------------------------------------------------------------
# spans -> per-layer numbers
# ----------------------------------------------------------------------
def _inclusive(spans: list[Span], names: Iterable[str]) -> float:
    return sum(spans[i].duration for i in outermost(spans, names))


def summarize(
    spans: Iterable[Span],
    start: float,
    end: float,
    base_thread: int,
    shards: int = 1,
) -> dict:
    """Per-layer metrics of the spans inside the window ``[start, end]``.

    ``base_thread`` is the thread whose wall the trace must account for:
    the benchmark's own thread for in-process workloads, the collector's
    event-loop thread for the serve workloads.  Its time idle in
    ``select`` is not busy wall; ``trace.unattributed_frac`` is the share
    of the rest that no top-level span covers.
    """
    window = clip(spans, start, end)
    sync = [span for span in window if span.thread != 0]
    asynchronous = [span for span in window if span.thread == 0]
    own = self_times(sync, WAIT_SPANS)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own_time in zip(sync, own):
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own_time
        calls[span.name] = calls.get(span.name, 0) + 1

    wall = end - start
    batch_spans = outermost(sync, ["mechanisms.batch"])
    reports = sum(int(sync[i].info or 0) for i in batch_spans)
    batch_busy = sum(sync[i].duration for i in batch_spans)
    per_shard: dict[int, int] = {}
    for span in sync:
        if span.name == "stream.ingest" and span.info is not None:
            key, n = span.info
            per_shard[key] = per_shard.get(key, 0) + n
    ingest_s = _inclusive(sync, ["stream.ingest"])
    if shards > 1 and per_shard:
        loads = list(per_shard.values())
        imbalance = max(loads) / (sum(loads) / len(loads))
    else:
        imbalance = 1.0
    decode = [span for span in sync if span.name == "serve.decode"]

    queries = [span for span in asynchronous if span.name == "serve.query"]
    query_total = sum(span.duration for span in queries)
    query_windows = [(span.start, span.end) for span in queries]
    drain_in_query = sum(
        union_length(
            (max(span.start, lo), min(span.end, hi)) for lo, hi in query_windows
        )
        for span in sync
        if span.name == "stream.drain_wait"
    )

    on_base = [
        (span, parent)
        for span, parent in zip(sync, parents(sync))
        if span.thread == base_thread
    ]
    idle = sum(span.duration for span, _ in on_base if span.name == "loop.idle")
    busy_base = wall - idle
    covered = union_length(
        (span.start, span.end)
        for span, parent in on_base
        if parent is None and span.name != "loop.idle"
    )
    unattributed = max(0.0, busy_base - covered) / busy_base if busy_base > 0 else 0.0

    layer_self: dict[str, float] = {}
    for name, total in self_by_name.items():
        if name == "loop.idle":
            continue
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + total

    return {
        "metrics": {
            "mechanisms.privatize_s": self_by_name.get("mechanisms.privatize", 0.0),
            "mechanisms.aggregate_s": self_by_name.get("mechanisms.aggregate", 0.0),
            "mechanisms.calls": calls.get("mechanisms.batch", 0),
            "mechanisms.reports": reports,
            "mechanisms.ns_per_report": batch_busy / reports * 1e9 if reports else 0.0,
            "core.calibrate_s": self_by_name.get("core.calibrate", 0.0),
            "core.topk.split_s": self_by_name.get("core.topk.split", 0.0),
            "core.topk.prune_s": sum(
                self_by_name.get(name, 0.0) for name in TOPK_STEP_SPANS
            ),
            "core.topk.iterations": calls.get("core.topk.prune", 0)
            + calls.get("core.topk.final", 0),
            "stream.ingest_s": ingest_s,
            "stream.ingest_calls": calls.get("stream.ingest", 0),
            "stream.shard_busy_frac": ingest_s / (wall * shards) if wall > 0 else 0.0,
            "stream.shard_imbalance": imbalance,
            "stream.drain_wait_s": _inclusive(sync, ["stream.drain_wait"]),
            "stream.estimate_s": _inclusive(sync, ["stream.estimate"]),
            "serve.decode_s": self_by_name.get("serve.decode", 0.0),
            "serve.flush_sort_s": self_by_name.get("serve.flush", 0.0),
            "serve.frames": sum(span.info[0] for span in decode),
            "serve.bytes_in": sum(span.info[1] for span in decode),
            "serve.query_wait_frac": (
                drain_in_query / query_total if query_total > 0 else 0.0
            ),
            "trace.unattributed_frac": unattributed,
        },
        "layer_self_s": layer_self,
        "busy_base_s": busy_base,
    }


def client_summary(spans: Iterable[Span], start: float, end: float) -> dict:
    """The load generator's own serve-layer time inside the window."""
    window = clip(spans, start, end)
    return {
        "serve.client_pack_s": sum(
            span.duration for span in window if span.name == "serve.client_pack"
        ),
        "serve.client_write_wait_s": sum(
            span.duration for span in window
            if span.name == "serve.client_write_wait"
        ),
    }


def classwise_candidates(spans: Iterable[Span]) -> list[list]:
    """Per ``mine()`` call, the final-round candidate arrays of its
    per-class miners, in call order (one per class)."""
    spans = sorted(
        (s for s in spans if s.name in ("core.topk.mine", "core.topk.classwise")),
        key=lambda s: s.start,
    )
    out: list[list] = []
    current_end = None
    for span in spans:
        if span.name == "core.topk.mine":
            out.append([])
            current_end = span.end
        elif current_end is not None and span.end <= current_end:
            out[-1].append(span.info)
    return out
