"""Reference NumPy implementations of the hot report-plane kernels.

This module is the semantic ground truth of the kernel registry
(:mod:`repro.mechanisms.backends`): every other backend must reproduce
these functions draw-for-draw (where a generator is consumed) and
bit-for-bit (where the computation is deterministic).  Their callers in
:mod:`repro.mechanisms` (the ``kernels``, ``engine`` and ``correlated``
modules) perform the argument validation; the functions here assume
validated inputs and do only the arithmetic.
"""

from __future__ import annotations

import math

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


def grouped_scatter(
    groups: np.ndarray, bits: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group column sums: row ``g`` of the result accumulates the
    report rows of users with ``groups[u] == g``.

    Sorts the rows by group and sums each group's contiguous run: a
    stable argsort of the group ids on a 16-bit key (NumPy radix-sorts
    keys of 16 bits or fewer in O(n)), one row gather, then one int64
    column sum per non-empty group.  Every step streams whole rows, so
    the cost is one pass over the report bytes however many bits are
    set; expanding each set bit (at OUE's ``q`` about a third of them)
    into a (row, column) index pair costs an order of magnitude more.
    ``bits`` may be any integer matrix, strided views included.
    """
    n_groups = int(n_groups)
    out = np.zeros((n_groups, int(bits.shape[1])), dtype=np.int64)
    key = groups.astype(np.uint16) if n_groups <= 1 << 16 else groups
    rows = np.take(bits, np.argsort(key, kind="stable"), axis=0)
    ends = np.cumsum(np.bincount(groups, minlength=n_groups)).tolist()
    start = 0
    for group, end in enumerate(ends):
        if end > start:
            rows[start:end].sum(axis=0, dtype=np.int64, out=out[group])
        start = end
    return out


#: Kernel table exposed to the registry.
KERNELS = {
    "perturb_onehot": perturb_onehot,
    "categorical_support": categorical_support,
    "grouped_scatter": grouped_scatter,
}
