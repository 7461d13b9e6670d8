"""The vectorised batch execution engine of the report plane.

One primitive serves every protocol-mode execution path in the library —
one-shot frameworks, streaming sessions, and the iterative top-k miners:

    privatise a block of values through the oracle's columnar
    ``privatize_many``, fold the block with ``aggregate_batch``, repeat.

Blocking bounds peak memory (a block materialises at most roughly
:data:`BLOCK_ELEMENTS` report bits) while keeping every operation
vectorised, so there is no per-user Python dispatch anywhere on the hot
path.  The helpers accept any object exposing the two batch methods: all
:class:`~repro.mechanisms.base.FrequencyOracle` subclasses and the
correlated mechanism (whose "values" are a ``(labels, items)`` column
tuple and whose "support" is a
:class:`~repro.mechanisms.correlated.CorrelatedSupport`).
"""

from __future__ import annotations

import copy
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Iterator, Optional, Union

import numpy as np

from ..exceptions import AggregationError, ConfigurationError
from ..obs import metrics as _obs
from ..rng import ensure_rng, spawn_seeds
from .backends import active_backend, get_kernel
from .backends.numpy_backend import group_order

#: How many report bits one privatised block may materialise at once.
BLOCK_ELEMENTS = 2_000_000

#: Environment variable setting the default block-thread count.
THREADS_ENV = "REPRO_THREADS"

#: Process-wide thread default installed by :func:`set_default_threads`.
_DEFAULT_THREADS: Optional[int] = None


def default_thread_count() -> int:
    """Block-execution threads used for ``threads="auto"``: one per CPU,
    capped (mirrors :func:`repro.stream.sharding.default_shard_count`)."""
    return max(1, min(8, os.cpu_count() or 1))


def set_default_threads(threads: Optional[int]) -> Optional[int]:
    """Install a process-wide default for the engine's ``threads``
    argument; returns the previous default (so callers can restore it).

    ``None`` clears the override — resolution falls back to the
    ``REPRO_THREADS`` environment variable and then to the serial path.
    """
    global _DEFAULT_THREADS
    previous = _DEFAULT_THREADS
    _DEFAULT_THREADS = None if threads is None else _check_threads(threads)
    return previous


def _check_threads(threads) -> int:
    if threads == "auto":
        return default_thread_count()
    count = int(threads)
    if count < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads!r}")
    return count


def _resolve_threads(threads) -> Optional[int]:
    """Effective thread count: explicit argument, else the process default,
    else ``REPRO_THREADS``, else ``None`` (the serial sequential-stream
    path — bit-identical to the pre-threading engine)."""
    if threads is not None:
        return _check_threads(threads)
    if _DEFAULT_THREADS is not None:
        return _DEFAULT_THREADS
    env = os.environ.get(THREADS_ENV)
    if env:
        return _check_threads(env)
    return None


def batch_spans(
    n_values: int, width: int, block_elements: Optional[int] = None
) -> Iterator[slice]:
    """Slices covering ``n_values`` rows in blocks of ``~block_elements``
    total cells for rows of ``width`` cells each.

    A ``block_elements`` cap smaller than one row's ``width`` degrades to
    one row per block (a block always holds at least one whole row); the
    final block simply covers the remainder when ``n_values`` is not a
    multiple of the block's row count.  The serve layer reuses these spans
    to cut concatenated socket batches into bounded ingest batches.
    """
    cap = BLOCK_ELEMENTS if block_elements is None else int(block_elements)
    if cap < 1:
        raise ConfigurationError(
            f"block_elements must be >= 1, got {block_elements!r}"
        )
    rows = max(1, cap // max(1, int(width)))
    for start in range(0, int(n_values), rows):
        yield slice(start, start + rows)


def _columns(values) -> tuple[np.ndarray, ...]:
    if isinstance(values, tuple):
        return tuple(np.asarray(col) for col in values)
    return (np.asarray(values),)


def _as_bits(reports):
    """``privatize_many`` reports with each uint8 bit matrix viewed as bool.

    The unary oracles build their uint8 rows from a comparison, so every
    entry is 0 or 1.  The bool view tells the folds so: they skip the
    binary check and the lane-sizing max pass that uint8 input costs.
    Categorical reports and the correlated mechanism's label column
    (int64) pass through.
    """
    if isinstance(reports, tuple):
        return tuple(map(_as_bits, reports))
    if getattr(reports, "dtype", None) == np.uint8 and reports.ndim == 2:
        return reports.view(np.bool_)
    return reports


#: Each thread's report-bit buffer (see :func:`_bit_workspace`).
_WORKSPACE = threading.local()


def _bit_workspace(rows: int, width: int) -> np.ndarray:
    """This thread's report-bit buffer as a ``(rows, width)`` bool array.

    The unary oracles privatise each block into it, and the fold reads it
    before the thread privatises its next block.  It outlives the call
    and only ever grows: a buffer freed after every block is handed back
    to the OS and faulted in afresh, which on the serve path cost more
    than the privatisation itself.  One buffer per thread, so
    concurrently running block clones never share one.
    """
    need = rows * width
    buffer = getattr(_WORKSPACE, "bits", None)
    if buffer is None or buffer.size < need:
        buffer = _WORKSPACE.bits = np.empty(need, dtype=np.bool_)
    return buffer[:need].reshape(rows, width)


def _privatize(oracle, columns: tuple):
    """``oracle.privatize_many(*columns)`` with bit-vector reports written
    into this thread's workspace (oracles whose reports are rows of
    ``report_length`` bits); categorical reports pass through.  The bit
    matrix comes back as a bool view (:func:`_as_bits`)."""
    width = getattr(oracle, "report_length", None)
    if width is None:
        return _as_bits(oracle.privatize_many(*columns))
    out = _bit_workspace(columns[0].size, width)
    return _as_bits(oracle.privatize_many(*columns, out=out))


_NULL_SPAN = nullcontext()


def _telemetry(oracle, n_reports: int):
    """Per-call engine telemetry handle, or ``None`` while telemetry is off.

    Instruments are fetched from the process registry per *call*, never
    cached on oracles or sessions — a cached one would outlive a
    ``clear()`` of the registry and count into a series no snapshot shows.
    """
    registry = _obs.get_registry()
    if not registry.enabled:
        return None
    oracle_name = type(oracle).__name__
    registry.counter("engine_reports_total", oracle=oracle_name).inc(int(n_reports))
    return (
        registry.histogram("engine_block_seconds", oracle=oracle_name),
        registry.counter("engine_blocks_total", oracle=oracle_name),
    )


def _block_span(telemetry):
    """A timing context for one privatise+aggregate block (no-op when off)."""
    if telemetry is None:
        return _NULL_SPAN
    histogram, blocks = telemetry
    blocks.inc()
    return _obs.Span(histogram)


def _with_rng(oracle, rng):
    """``oracle`` rebound to ``rng`` (oracle's ``with_rng`` when present)."""
    rebind = getattr(oracle, "with_rng", None)
    if rebind is not None:
        return rebind(rng)
    clone = copy.copy(oracle)
    clone.rng = rng
    return clone


def _block_oracles(oracle, spans: list) -> list:
    """One oracle clone per block, each on its own pre-split stream.

    Streams are spawned from the oracle's generator with
    :func:`repro.rng.spawn_seeds`, so the schedule — and therefore every
    block's draws — depends only on the generator state and the block
    split, never on the thread count or interleaving.
    """
    seeds = spawn_seeds(oracle.rng, len(spans))
    return [_with_rng(oracle, ensure_rng(seed)) for seed in seeds]


def _run_blocks(tasks: list, threads: int) -> list:
    """Run block thunks, in order, optionally on a bounded thread pool.

    The pool only engages when the active kernel backend is GIL-free —
    with the NumPy reference backend the threads would serialise on the
    interpreter lock and pay hand-off overhead for nothing.  Results come
    back in block order either way, so the reduction is deterministic.
    """
    if threads > 1 and len(tasks) > 1 and active_backend().gil_free:
        with ThreadPoolExecutor(
            max_workers=min(threads, len(tasks)),
            thread_name_prefix="repro-engine",
        ) as pool:
            return list(pool.map(lambda task: task(), tasks))
    return [task() for task in tasks]


def batch_support(
    oracle,
    values: Union[np.ndarray, tuple],
    block_elements: Optional[int] = None,
    threads: Optional[int] = None,
):
    """Support of a privatised batch: ``aggregate_batch(privatize_many(v))``
    evaluated in bounded blocks.

    ``values`` is an array of per-user true values, or a tuple of aligned
    column arrays for multi-input mechanisms (the correlated mechanism
    takes ``(labels, items)``).  Returns whatever the oracle's
    ``aggregate_batch`` returns — support vectors are summed across
    blocks, so the result equals the sum of the blocks' own
    ``aggregate_batch(privatize_many(block))`` calls, in order.  Unary
    oracles privatise each block into a per-thread workspace
    (:func:`_bit_workspace`).

    ``threads`` selects the execution schedule (default: the process
    override from :func:`set_default_threads`, then ``REPRO_THREADS``,
    then serial).  Serial runs privatise blocks sequentially off the
    oracle's own generator.  Any explicit thread count switches to
    pre-split per-block streams with an ordered reduction, making the
    result *independent of the thread count*: ``threads=1`` and
    ``threads=8`` agree bit-for-bit (blocks only actually overlap when
    the active kernel backend is GIL-free).
    """
    cols = _columns(values)
    width = max(1, int(oracle.communication_bits()))
    telemetry = _telemetry(oracle, cols[0].size)

    def block(cut, block_oracle):
        with _block_span(telemetry):
            reports = _privatize(block_oracle, tuple(col[cut] for col in cols))
            return block_oracle.aggregate_batch(reports)

    support = None
    for partial in _blocks(oracle, block, cols[0].size, width, block_elements, threads):
        support = partial if support is None else support + partial
    if support is None:  # empty batch: aggregate nothing for typed zeros
        reports = oracle.privatize_many(*(col[:0] for col in cols))
        support = oracle.aggregate_batch(reports)
    return support


def _blocks(oracle, block, n_values, width, block_elements, threads):
    """Yield ``block(cut, oracle)`` over the batch's spans, in order.

    With no thread count every block runs on ``oracle`` itself, so the
    blocks draw one after another from its generator; any explicit count
    gives each block a clone on its own pre-split stream
    (:func:`_block_oracles`) and may run them on a pool
    (:func:`_run_blocks`).
    """
    thread_count = _resolve_threads(threads)
    spans = batch_spans(n_values, width, block_elements)
    if thread_count is None:
        for cut in spans:
            yield block(cut, oracle)
        return
    spans = list(spans)
    yield from _run_blocks(
        [
            (lambda cut=cut, clone=clone: block(cut, clone))
            for cut, clone in zip(spans, _block_oracles(oracle, spans))
        ],
        thread_count,
    )


def grouped_batch_support(
    oracle,
    groups: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    block_elements: Optional[int] = None,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Per-group support of bit-vector reports: row ``g`` sums the reports
    of users with ``groups[u] == g``.

    The label-grouped aggregation PTS-style sessions need — item reports
    are summed into the perturbed label's row instead of one global
    support.  ``oracle`` must produce fixed-width bit-vector reports of
    ``oracle.domain_size`` bits (OUE/SUE).  Each block privatises its
    users in group order (a stable sort), into the per-thread workspace,
    and its sum goes through the backend registry's ``grouped_scatter``
    kernel, which on NumPy then sums each group's run of rows in place,
    with no row gather.  Group ids are checked against ``[0, n_groups)``
    once, here, because the kernels do no bounds checks (numba compiles
    without them).  ``threads`` behaves exactly as in
    :func:`batch_support`.
    """
    groups = np.asarray(groups, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=np.int64).ravel()
    n_groups = int(n_groups)
    if groups.size != values.size:
        raise AggregationError(
            f"groups ({groups.size}) and values ({values.size}) must align"
        )
    # Viewed unsigned, negative ids wrap high: one max covers both ends.
    if groups.size and groups.view(np.uint64).max() >= n_groups:
        raise AggregationError(f"group id outside [0, {n_groups})")
    width = int(oracle.domain_size)
    telemetry = _telemetry(oracle, values.size)
    scatter = get_kernel("grouped_scatter")

    def block(cut, block_oracle):
        with _block_span(telemetry):
            order = group_order(groups[cut], n_groups)
            bits = _privatize(block_oracle, (values[cut][order],))
            return scatter(groups[cut][order], bits, n_groups)

    out = np.zeros((n_groups, width), dtype=np.int64)
    for partial in _blocks(oracle, block, values.size, width, block_elements, threads):
        out += partial
    return out
