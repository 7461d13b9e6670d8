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

import os
import threading
from typing import Iterator, Optional, Union

import numpy as np

from ..exceptions import AggregationError, ConfigurationError
from .backends import get_kernel
from .backends.numpy_backend import group_order

#: How many report bits one privatised block may materialise at once.
BLOCK_ELEMENTS = 2_000_000


def default_thread_count() -> int:
    """One per CPU, capped at 8.  Nothing in the library uses it; it is
    kept only because perfbench's provenance line imports it, until
    perfbench tolerates its absence."""
    return max(1, min(8, os.cpu_count() or 1))


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
    than the privatisation itself.  One buffer per thread, so sessions
    ingesting at once on different threads (the shard workers of
    :class:`~repro.stream.sharding.ShardedAggregator`) never share one.
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


def batch_support(
    oracle,
    values: Union[np.ndarray, tuple],
    block_elements: Optional[int] = None,
):
    """Support of a privatised batch: ``aggregate_batch(privatize_many(v))``
    evaluated in bounded blocks.

    ``values`` is an array of per-user true values, or a tuple of aligned
    column arrays for multi-input mechanisms (the correlated mechanism
    takes ``(labels, items)``).  Returns whatever the oracle's
    ``aggregate_batch`` returns — support vectors are summed across
    blocks, so the result equals the sum of the blocks' own
    ``aggregate_batch(privatize_many(block))`` calls, in order.  The
    blocks draw one after another from the oracle's generator.  Unary
    oracles privatise each block into a per-thread workspace
    (:func:`_bit_workspace`).
    """
    cols = _columns(values)
    width = max(1, int(oracle.communication_bits()))
    support = None
    for cut in batch_spans(cols[0].size, width, block_elements):
        reports = _privatize(oracle, tuple(col[cut] for col in cols))
        partial = oracle.aggregate_batch(reports)
        support = partial if support is None else support + partial
    if support is None:  # empty batch: aggregate nothing for typed zeros
        reports = oracle.privatize_many(*(col[:0] for col in cols))
        support = oracle.aggregate_batch(reports)
    return support


def grouped_batch_support(
    oracle,
    groups: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    block_elements: Optional[int] = None,
) -> np.ndarray:
    """Per-group support of bit-vector reports: row ``g`` sums the reports
    of users with ``groups[u] == g``.

    The label-grouped aggregation PTS-style sessions need — item reports
    are summed into the perturbed label's row instead of one global
    support.  ``oracle`` must produce fixed-width bit-vector reports of
    ``oracle.domain_size`` bits (OUE/SUE).  Each block privatises its
    users in group order (a stable sort), into the per-thread workspace,
    and ``grouped_scatter`` then sums each group's run of rows in place,
    with no row gather.  The kernel is fetched through
    :func:`~repro.mechanisms.backends.get_kernel` at call time, so that
    perfbench's traced run can wrap it.  Group ids are checked against
    ``[0, n_groups)`` once, here, so that a malformed id raises
    :class:`~repro.exceptions.AggregationError` before any draw.  The
    blocks draw one after another from the oracle's generator, as in
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
    scatter = get_kernel("grouped_scatter")
    out = np.zeros((n_groups, width), dtype=np.int64)
    for cut in batch_spans(values.size, width, block_elements):
        order = group_order(groups[cut], n_groups)
        bits = _privatize(oracle, (values[cut][order],))
        out += scatter(groups[cut][order], bits, n_groups)
    return out
