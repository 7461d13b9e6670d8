"""Zero-allocation ingest buffer for the serve plane's hot path.

The collector's REPORTS fast lane runs arrival → flush with no per-frame
allocation: decoded wire columns (zero-copy ``int32`` views over the
socket buffer) are written in place into a :class:`ReportRing` — one
growable ring of aligned ``(label, item)`` ``int32`` columns.  Appends
are at most two slice writes (the second across the wrap point);
capacity doubles only when a burst outruns the flush cadence, and the
linearised copy that regrowth implies is the only allocation the
arrival path can ever make.

A flush copies the ring's window out once, in arrival order, through
:meth:`ReportRing.consume`.
"""

from __future__ import annotations

import numpy as np

#: Smallest ring capacity (kept a power of two for cheap wrap math).
MIN_RING_CAPACITY = 1024


def _pow2_at_least(n: int) -> int:
    return 1 << max(int(n) - 1, MIN_RING_CAPACITY - 1).bit_length()


class ReportRing:
    """A growable ring buffer of aligned ``(label, item)`` report columns.

    Stored as two ``int32`` arrays (the wire dtype — half the memory
    traffic of ``int64`` staging) indexed by a head offset and a size.
    ``append`` accepts any integer array-likes whose values fit ``int32``
    (the wire codec and the domain bounds both guarantee this upstream);
    strided views decoded straight off the socket buffer write in place
    with no intermediate materialisation.
    """

    __slots__ = ("_labels", "_items", "_head", "_size")

    def __init__(self, capacity: int = 8192) -> None:
        cap = _pow2_at_least(capacity)
        self._labels = np.empty(cap, dtype=np.int32)
        self._items = np.empty(cap, dtype=np.int32)
        self._head = 0
        self._size = 0

    @property
    def capacity(self) -> int:
        return self._labels.shape[0]

    def __len__(self) -> int:
        return self._size

    def append(self, labels: np.ndarray, items: np.ndarray) -> int:
        """Write one decoded batch in place; returns the report count."""
        n = int(labels.shape[0])
        if n == 0:
            return 0
        cap = self._labels.shape[0]
        if self._size + n > cap:
            self._grow(self._size + n)
            cap = self._labels.shape[0]
        tail = (self._head + self._size) & (cap - 1)
        first = min(n, cap - tail)
        self._labels[tail : tail + first] = labels[:first]
        self._items[tail : tail + first] = items[:first]
        if first < n:  # wrapped: the remainder lands at the buffer start
            self._labels[: n - first] = labels[first:]
            self._items[: n - first] = items[first:]
        self._size += n
        return n

    def _grow(self, needed: int) -> None:
        """Double (at least) the capacity, linearising the live window."""
        cap = _pow2_at_least(max(needed, 2 * self.capacity))
        labels = np.empty(cap, dtype=np.int32)
        items = np.empty(cap, dtype=np.int32)
        n = self._size
        self._copy_out(labels[:n], items[:n])
        self._labels, self._items = labels, items
        self._head = 0
        self._size = n

    def _copy_out(self, out_labels: np.ndarray, out_items: np.ndarray) -> None:
        """The live window, in arrival order, into ``out`` arrays (whose
        dtype may differ — the slice assignment converts in one pass)."""
        n = self._size
        cap = self._labels.shape[0]
        head = self._head
        first = min(n, cap - head)
        out_labels[:first] = self._labels[head : head + first]
        out_items[:first] = self._items[head : head + first]
        if first < n:
            out_labels[first:n] = self._labels[: n - first]
            out_items[first:n] = self._items[: n - first]

    def consume(self, out_labels: np.ndarray, out_items: np.ndarray) -> int:
        """Copy the buffered prefix into ``out`` arrays and drain it."""
        n = self._size
        self._copy_out(out_labels[:n], out_items[:n])
        self._head = (self._head + n) & (self.capacity - 1)
        self._size = 0
        return n

