"""Reference NumPy implementations of the hot report-plane kernels.

This module is the semantic ground truth of the kernel registry
(:mod:`repro.mechanisms.backends`): every other backend must reproduce
these functions draw-for-draw (where a generator is consumed) and
bit-for-bit (where the computation is deterministic).  Their callers in
:mod:`repro.mechanisms` (the ``kernels``, ``engine``, ``correlated`` and
``validity`` modules) perform the argument validation; the functions
here assume validated inputs and do only the arithmetic.
:func:`byte_lane_sums` is the column sum under ``grouped_scatter``; it
is not a registry kernel, and the OUE/SUE support and the validity flag
filter call it directly whichever backend is active.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ...exceptions import AggregationError


def unary_cells(
    rng: np.random.Generator, rows: int, width: int, p: float, q: float
) -> tuple[np.ndarray, int, int]:
    """Uniform 32-bit cells for ``rows`` unary reports of ``width`` bits,
    with the integer thresholds of the ``(p, q)`` law.

    Row ``u`` consumes ``ceil(width / 2)`` 64-bit words of ``rng`` in
    order and splits each into two cells, low half first.  A report bit
    is set when its cell is below its threshold: ``floor(p * 2**32)``
    where the encoded bit is 1 and ``ceil(q * 2**32)`` where it is 0.
    Both scalings are exact, and the rounding directions give realised
    probabilities ``p - 2**-32 < p' <= p`` and ``q <= q' < q + 2**-32``,
    so the realised budget ``ln[p'(1-q') / ((1-p')q')]`` never exceeds
    the nominal one.  The one statement of the bit-flip law, shared by
    :func:`perturb_onehot`, its numba twin and the oracles' per-user
    ``perturb_bits``.
    """
    words = rng.integers(0, 1 << 64, size=(rows, (width + 1) // 2), dtype=np.uint64)
    # A little-endian view puts each word's low half first on any host.
    cells = words.astype("<u8", copy=False).view("<u4")[:, :width]
    return cells, math.floor(p * 2.0**32), math.ceil(q * 2.0**32)


def perturb_onehot(
    positions: np.ndarray,
    width: int,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Perturbed one-hot rows drawn through :func:`unary_cells`; row ``u``
    consumes ``ceil(width / 2)`` words in order, so a batch is
    draw-for-draw identical to the per-user loop."""
    cells, p_cut, q_cut = unary_cells(rng, positions.size, width, p, q)
    bits = cells < q_cut
    rows = np.arange(positions.size)
    bits[rows, positions] = cells[rows, positions] < p_cut
    return bits.view(np.uint8)


def categorical_support(
    reports: np.ndarray, domain_size: int, name: str = "categorical"
) -> np.ndarray:
    """Validated bincount of categorical reports in one bounds pass.

    ``np.bincount`` itself rejects negatives and reveals too-large values
    through the output length, so the domain check costs no separate
    ``min()``/``max()`` sweeps over the reports.
    """
    try:
        counts = np.bincount(reports, minlength=domain_size)
    except ValueError as error:
        raise AggregationError(
            f"{name} report outside domain [0, {domain_size})"
        ) from error
    if counts.size > domain_size:
        raise AggregationError(f"{name} report outside domain [0, {domain_size})")
    return counts.astype(np.int64, copy=False)


def byte_lane_sums(
    bits: np.ndarray, bounds: Sequence[int], order: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact int64 column sums of runs of rows of a bool or uint8 matrix.

    The rows are zero-padded to whole 8-byte words and gathered into a
    C-contiguous buffer (rows ``order``, in that order, when given); run
    ``i`` covers buffer rows ``bounds[i]:bounds[i + 1]``.  Viewed as
    uint64, each word holds eight byte lanes, and adding up to
    ``255 // peak`` rows into one word partial (``peak`` the largest
    entry, 1 for bool) cannot carry out of a lane: one add sums eight
    report bits exactly.  Each run's partials are widened to int64 once.
    Returns ``(len(bounds) - 1, width)`` int64 sums.
    """
    width = int(bits.shape[1])
    rows = bits.view(np.uint8)
    pad = -width % 8
    if pad:
        # Padding before the gather keeps it a whole-row np.take, which
        # beats a strided write into a padded buffer at every width.
        padded = np.zeros((rows.shape[0], width + pad), dtype=np.uint8)
        padded[:, :width] = rows
        rows = padded
    if order is not None:
        rows = np.take(rows, order, axis=0)
    rows = np.ascontiguousarray(rows)
    peak = 1 if bits.dtype == np.bool_ else int(rows.max(initial=0))
    step = 255 // max(peak, 1)
    words = rows.view(np.uint64)
    runs = list(zip(bounds[:-1], bounds[1:]))
    partials = np.empty(
        (len(runs) + rows.shape[0] // step, words.shape[1]), dtype=np.uint64
    )
    firsts = []
    at = 0
    for start, end in runs:
        firsts.append(at)
        full = (end - start) // step
        stop = start + full * step
        if full:
            np.einsum(
                "ijk->ik",
                words[start:stop].reshape(full, step, -1),
                out=partials[at : at + full],
            )
            at += full
        if stop < end or not full:
            np.add.reduce(words[stop:end], axis=0, out=partials[at])
            at += 1
    lanes = partials[:at].view(np.uint8)[:, :width]
    return np.add.reduceat(lanes, firsts, axis=0, dtype=np.int64)


def grouped_scatter(
    groups: np.ndarray, bits: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group column sums: row ``g`` of the result accumulates the
    report rows of users with ``groups[u] == g``.

    Sorts the rows by group and sums each group's contiguous run: a
    stable argsort of the group ids on a 16-bit key (NumPy radix-sorts
    keys of 16 bits or fewer in O(n)), one row gather, then the
    byte-lane fold of :func:`byte_lane_sums` over each non-empty group.
    Every step streams whole rows, so the cost is one pass over the
    report bytes however many bits are set; expanding each set bit (at
    OUE's ``q`` about a third of them) into a (row, column) index pair
    costs an order of magnitude more.  ``bits`` may be any integer
    matrix, strided views included: bool and uint8 rows take the
    byte-lane fold, wider integers one int64 sum per group.
    """
    n_groups = int(n_groups)
    out = np.zeros((n_groups, int(bits.shape[1])), dtype=np.int64)
    counts = np.bincount(groups, minlength=n_groups)
    filled = np.flatnonzero(counts)
    if not filled.size:
        return out
    key = groups.astype(np.uint16) if n_groups <= 1 << 16 else groups
    order = np.argsort(key, kind="stable")
    bounds = [0, *np.cumsum(counts[filled]).tolist()]
    if bits.dtype == np.bool_ or bits.dtype == np.uint8:
        out[filled] = byte_lane_sums(bits, bounds, order)
    else:
        rows = np.take(bits, order, axis=0)
        out[filled] = np.add.reduceat(rows, bounds[:-1], axis=0, dtype=np.int64)
    return out


#: Kernel table exposed to the registry.
KERNELS = {
    "perturb_onehot": perturb_onehot,
    "categorical_support": categorical_support,
    "grouped_scatter": grouped_scatter,
}
