"""The NumPy kernels of the report plane's hot loops.

Their callers in :mod:`repro.mechanisms` (the ``kernels``, ``engine``,
``correlated`` and ``validity`` modules) perform the argument
validation; the functions here assume validated inputs and do only the
arithmetic.  :func:`byte_lane_sums` is the column sum under
``grouped_scatter``, the OUE/SUE support, the validity flag filter and
the PTS-CP fold.  :func:`unary_cells` and :func:`unary_bits` are the
one-hot kernel's draw and compare, which the oracles' per-user
``perturb_bits`` share through :func:`perturb_encoded`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ...exceptions import AggregationError


#: A 32-bit threshold is a high byte, compared with a cell, and a 24-bit
#: low part, compared with a fresh draw only where the two bytes tie.
LOW_BITS = 24


def unary_cells(
    rng: np.random.Generator, rows: int, width: int, p: float, q: float
) -> tuple[np.ndarray, int, int]:
    """Uniform byte cells for ``rows`` unary reports of ``width`` bits,
    with the integer thresholds of the ``(p, q)`` law.

    Row ``u`` consumes ``ceil(width / 8)`` 64-bit words of ``rng`` in
    order and splits each into eight byte cells, least significant byte
    first; bit ``j`` of the row takes cell ``j``, and the cells past
    ``width`` pad the row's last word.  Returns the ``(rows,
    8 * ceil(width / 8))`` uint8 cells with the thresholds
    ``floor(p * 2**32)``, for the encoded bit, and ``ceil(q * 2**32)``,
    for every other bit.  Both scalings are exact, and the rounding
    directions give realised probabilities ``p - 2**-32 < p' <= p`` and
    ``q <= q' < q + 2**-32``, so the realised budget
    ``ln[p'(1-q') / ((1-p')q')]`` never exceeds the nominal one.
    :func:`unary_bits` turns the cells into report bits.
    """
    words = rng.integers(0, 1 << 64, size=(rows, -(-width // 8)), dtype=np.uint64)
    # A little-endian view puts each word's low byte first on any host.
    cells = words.astype("<u8", copy=False).view(np.uint8)
    return cells, math.floor(p * 2.0**32), math.ceil(q * 2.0**32)


def unary_bits(
    cells: np.ndarray,
    width: int,
    hot: tuple[np.ndarray, np.ndarray],
    p_cut: int,
    q_cut: int,
    rng: np.random.Generator,
    out: np.ndarray,
) -> np.ndarray:
    """Report bits from :func:`unary_cells`: the one statement of the
    bit-flip law, shared by :func:`perturb_onehot` and
    :func:`perturb_encoded`.

    ``hot`` indexes the encoded cells, which compare with ``p_cut``;
    every other cell compares with ``q_cut``.  A byte cell stands for the
    high byte of a uniform 32-bit cell: the bit is set when the byte is
    below its threshold's high byte, clear when above, and where the two
    tie (one cell in 256) the cell draws its low 24 bits afresh and the
    bit is set when they are below the threshold's low 24 bits.  So a
    bit is set with probability exactly ``threshold / 2**32``, as if
    each cell were 32 bits wide.  The tie draws follow the call's cell
    words, one further word per tie in row-major order, whose top 24
    bits are the low part.  ``out`` is a ``(rows, width)`` bool array
    and is returned; ``cells`` is overwritten.
    """
    p_high, p_low = divmod(p_cut, 1 << LOW_BITS)
    q_high, q_low = divmod(q_cut, 1 << LOW_BITS)
    stride = cells.shape[1]
    hot_at = hot[0] * stride + hot[1]
    hot_cells = cells.reshape(-1)[hot_at]
    np.less(cells[:, :width], q_high, out=out)
    out.reshape(-1)[hot[0] * width + hot[1]] = hot_cells < p_high
    # The cells become the tie marks: a cell ties its own threshold's
    # high byte (p's where encoded, q's elsewhere); padding never ties.
    ties = cells.view(np.bool_)
    np.equal(cells, q_high, out=ties)
    ties[:, width:] = False
    hot_ties = hot_cells == p_high
    ties.reshape(-1)[hot_at] = hot_ties
    # Ties are rare, so find the marked words first, then their bytes.
    words = cells.view(np.uint64).reshape(-1)
    marked = np.flatnonzero(words != 0)
    if marked.size:
        hit = np.flatnonzero(words[marked].view(np.bool_))
        at = marked[hit >> 3] * 8 + (hit & 7)
        cuts = np.full(at.size, q_low, dtype=np.uint64)
        cuts[np.searchsorted(at, hot_at[hot_ties])] = p_low
        low = rng.integers(0, 1 << 64, size=at.size, dtype=np.uint64)
        if width != stride:
            rows, columns = np.divmod(at, stride)
            at = rows * width + columns
        out.reshape(-1)[at] = (low >> np.uint64(64 - LOW_BITS)) < cuts
    return out


def perturb_onehot(
    positions: np.ndarray,
    width: int,
    p: float,
    q: float,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Perturbed one-hot rows: bit ``positions[u]`` of row ``u`` is the
    encoded bit.  Draws ``ceil(width / 8)`` words per row, then one word
    per tie (:func:`unary_bits`).  Writes into ``out``, a ``(rows,
    width)`` bool array, when given; returns the rows as uint8."""
    rows = positions.size
    cells, p_cut, q_cut = unary_cells(rng, rows, width, p, q)
    if out is None:
        out = np.empty((rows, width), dtype=np.bool_)
    hot = (np.arange(rows), positions)
    return unary_bits(cells, width, hot, p_cut, q_cut, rng, out).view(np.uint8)


def perturb_encoded(
    bits: np.ndarray, p: float, q: float, rng: np.random.Generator
) -> np.ndarray:
    """One encoded vector perturbed bit by bit: a one-row
    :func:`unary_bits` whose encoded cells are the vector's 1 bits.  A
    one-hot vector draws exactly what :func:`perturb_onehot` draws for
    one row."""
    width = bits.size
    cells, p_cut, q_cut = unary_cells(rng, 1, width, p, q)
    columns = np.flatnonzero(bits == 1)
    out = np.empty((1, width), dtype=np.bool_)
    hot = (np.zeros_like(columns), columns)
    return unary_bits(cells, width, hot, p_cut, q_cut, rng, out)[0].view(np.uint8)


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

    The rows (rows ``order``, in that order, when given) are gathered
    into a C-contiguous buffer and zero-padded to whole 8-byte words; run
    ``i`` covers buffer rows ``bounds[i]:bounds[i + 1]``.  Viewed as
    uint64, each word holds eight byte lanes, and adding up to
    ``255 // peak`` rows into one word partial (``peak`` the largest
    entry, 1 for bool) cannot carry out of a lane: one add sums eight
    report bits exactly.  Each run's partials are widened to int64 once.
    Returns ``(len(bounds) - 1, width)`` int64 sums.
    """
    width = int(bits.shape[1])
    rows = bits.view(np.uint8)
    if order is not None:
        # np.take copies a strided source whole before it gathers (the
        # PTS-CP fold's item columns are one); indexing gathers per row.
        contiguous = rows.flags.c_contiguous
        rows = np.take(rows, order, axis=0) if contiguous else rows[order]
    pad = -width % 8
    if pad:
        # Padding after the gather copies only the rows that are summed;
        # the flag filter and the PTS-CP fold drop rows in ``order``.
        padded = np.zeros((rows.shape[0], width + pad), dtype=np.uint8)
        padded[:, :width] = rows
        rows = padded
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


def group_order(groups: np.ndarray, n_groups: int) -> np.ndarray:
    """The stable order that sorts rows by group id: an argsort on a
    16-bit key where the ids fit one (NumPy radix-sorts keys of 16 bits
    or fewer in O(n))."""
    key = groups.astype(np.uint16) if n_groups <= 1 << 16 else groups
    return np.argsort(key, kind="stable")


def grouped_scatter(
    groups: np.ndarray, bits: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group column sums: row ``g`` of the result accumulates the
    report rows of users with ``groups[u] == g``.

    Sums each group's contiguous run of rows: when ``groups`` is not
    already sorted, a :func:`group_order` sort and one row gather come
    first; the batch engine privatises PTS reports in label order, so it
    skips both.  Bool and uint8 rows take the byte-lane fold of
    :func:`byte_lane_sums` over each non-empty group, wider integers one
    int64 sum per group.  Every step streams whole rows, so the cost is
    one pass over the report bytes however many bits are set; expanding
    each set bit (at OUE's ``q`` about a third of them) into a (row,
    column) index pair costs an order of magnitude more.  ``bits`` may
    be any integer matrix, strided views included.
    """
    n_groups = int(n_groups)
    out = np.zeros((n_groups, int(bits.shape[1])), dtype=np.int64)
    counts = np.bincount(groups, minlength=n_groups)
    filled = np.flatnonzero(counts)
    if not filled.size:
        return out
    order = None
    if (groups[1:] < groups[:-1]).any():
        order = group_order(groups, n_groups)
    bounds = [0, *np.cumsum(counts[filled]).tolist()]
    if bits.dtype == np.bool_ or bits.dtype == np.uint8:
        out[filled] = byte_lane_sums(bits, bounds, order)
    else:
        rows = bits if order is None else np.take(bits, order, axis=0)
        out[filled] = np.add.reduceat(rows, bounds[:-1], axis=0, dtype=np.int64)
    return out


#: The kernels :func:`repro.mechanisms.backends.get_kernel` hands out:
#: the grouped fold, which perfbench's traced run wraps by that name.
KERNELS = {"grouped_scatter": grouped_scatter}
