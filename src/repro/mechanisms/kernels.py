"""Columnar report kernels — the report plane's shared vocabulary.

Every LDP oracle in this package privatises and aggregates *batches* of
reports through a handful of vectorised kernels.  They live here, below
the oracles, so the one-shot ``aggregate_batch`` path and a streaming
session's incremental ``ingest_batch`` path (which folds each batch
through the engine into ``aggregate_batch``) are the same code — the two
cannot drift apart.

The kernels operate on plain ndarrays (no mechanism objects, no RNG state
beyond an explicit generator argument) and therefore compose freely: the
batch execution engine (:mod:`repro.mechanisms.engine`) slices value
arrays into bounded blocks and pushes each block through
``privatize_many`` → ``aggregate_batch``, both of which bottom out here.

The arithmetic itself lives in
:mod:`repro.mechanisms.backends.numpy_backend`: the wrappers here
validate, then call it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import AggregationError
from .backends import numpy_backend
from .backends.numpy_backend import byte_lane_sums


def as_report_array(reports, name: str = "categorical") -> np.ndarray:
    """Normalise categorical (integer) reports into a flat int64 array."""
    if isinstance(reports, np.ndarray):
        return np.asarray(reports, dtype=np.int64).ravel()
    try:
        return np.asarray(reports, dtype=np.int64).ravel()
    except (TypeError, ValueError):
        # Only consumable iterators (generators) need the list round-trip;
        # sequences convert directly above without the extra copy.
        return np.asarray(list(reports), dtype=np.int64).ravel()


def as_report_matrix(reports, width: int, name: str) -> np.ndarray:
    """Normalise bit-vector reports into a ``(batch, width)`` array.

    Accepts an ndarray, a sequence of per-user vectors, or a single 1-D
    report (treated as a batch of one).
    """
    if not isinstance(reports, np.ndarray):
        if not hasattr(reports, "__len__"):
            # Consumable iterator: materialise once.  Sized sequences
            # (lists of rows) convert below without the list() copy.
            reports = list(reports)
        if not len(reports):
            return np.zeros((0, width), dtype=np.int64)
        reports = np.asarray(reports)
    if reports.ndim == 1:
        reports = reports[None, :] if reports.size else reports.reshape(0, width)
    if reports.ndim != 2 or reports.shape[1] != width:
        raise AggregationError(
            f"{name} reports must have shape (batch, {width}), got {reports.shape}"
        )
    return reports


def as_bit_matrix(reports, width: int, name: str) -> np.ndarray:
    """:func:`as_report_matrix`, failing closed on any entry outside {0, 1}.

    Returns the bits as bool, which the folds take as proof that every
    entry is 0 or 1.  Bool input is binary by type and passes unchecked
    (the batch engine hands its own privatised reports over as a bool
    view); uint8 costs one max pass, any other dtype a comparison with
    its own truth value.  A bad bit raises
    :class:`~repro.exceptions.AggregationError` instead of being counted.
    """
    bits = as_report_matrix(reports, width, name)
    if bits.dtype == np.bool_:
        return bits
    if bits.dtype == np.uint8:
        flags = bits.view(np.bool_)
        binary = bits.max(initial=0) <= 1
    else:
        flags = bits.astype(np.bool_)
        binary = np.array_equal(flags, bits)
    if not binary:
        raise AggregationError(f"{name} report bits must be 0 or 1")
    return flags


def categorical_support(reports, domain_size: int, name: str = "categorical") -> np.ndarray:
    """Support counts of categorical reports: a validated bincount.

    The domain check is fused into the counting pass (no separate
    ``min()``/``max()`` sweeps); out-of-domain reports raise
    :class:`~repro.exceptions.AggregationError` either way.
    """
    arr = as_report_array(reports, name)
    return numpy_backend.categorical_support(arr, int(domain_size), name)


def bit_matrix_support(reports, width: int, name: str = "bit-vector") -> np.ndarray:
    """Support counts of bit-vector reports: the validated column sum,
    folded eight bits per add by
    :func:`~repro.mechanisms.backends.numpy_backend.byte_lane_sums`."""
    bits = as_bit_matrix(reports, width, name)
    return byte_lane_sums(bits, (0, bits.shape[0]))[0]


def perturb_onehot_batch(
    positions: np.ndarray,
    width: int,
    p: float,
    q: float,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Perturbed one-hot rows: ``positions[u]`` is user ``u``'s set bit and
    every bit keeps/flips with the ``(p, q)`` law.

    The one unary-encoding perturbation kernel shared by OUE/SUE, the
    validity perturbation (whose set bit may be the flag) and the
    correlated mechanism's item stage.  Each row consumes
    ``ceil(width / 8)`` 64-bit words of the generator in order, split
    into ``width`` byte cells; a bit is set when its cell's byte is below
    the high byte of ``floor(p * 2**32)`` at ``positions[u]`` and of
    ``ceil(q * 2**32)`` elsewhere, and a cell whose byte ties that high
    byte (one in 256) settles on a fresh 24-bit low part, drawn after
    all the rows' words (see
    :func:`~repro.mechanisms.backends.numpy_backend.unary_bits`).  So each
    bit is set with probability exactly threshold / 2**32, and the
    realised budget never exceeds the nominal ε.  A one-row batch draws
    exactly what the per-user ``privatize`` draws.

    ``out``, a C-contiguous ``(batch, width)`` bool array, receives the
    rows when given; the result is then its uint8 view.  Memory is ``batch ×
    width``; callers with unbounded batches go through
    :func:`repro.mechanisms.engine.batch_support`, which blocks the input
    and privatises each block into a per-thread workspace.
    """
    positions = np.asarray(positions, dtype=np.int64).ravel()
    if out is not None and (
        out.shape != (positions.size, width)
        or out.dtype != np.bool_
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous ({positions.size}, {width}) bool array"
        )
    return numpy_backend.perturb_onehot(positions, width, p, q, rng, out)
