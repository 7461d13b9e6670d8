"""Zero-copy shared-memory batch transport for process-mode sharding.

Process-mode :class:`~repro.stream.sharding.ShardedAggregator` workers
live in separate interpreters, so report batches have to cross a process
boundary somehow.  Pickling them through a pipe copies every array twice
(serialise, deserialise); this module instead packs all of a drain's
ndarray payloads into one :class:`multiprocessing.shared_memory.SharedMemory`
segment and ships only a tiny *manifest* — offsets, dtypes and shapes —
over the pipe.  The worker maps the same segment and reconstructs the
batches as zero-copy views onto it.

The packed layout is described by a tree of descriptor nodes, one per
batch:

``("array", offset, dtype, shape)``
    An ndarray leaf living in the segment at ``offset``.
``("tuple", [child, ...])``
    A tuple batch (sessions take ``(labels, items)``) whose leaves are
    described recursively.
``("pickle", payload)``
    Anything that is not an ndarray, pickled inline in the manifest.
    Only non-array batches (e.g. plain lists, which ``submit`` accepts
    like any other batch) take this path — ndarrays never travel pickled.

Segment lifecycle: the parent creates, fills, sends the name, and
unlinks after the worker's reply; the worker attaches, ingests the views
and closes its mapping before replying.  On Python < 3.13 attaching
registers the segment with the ``resource_tracker`` as if the worker
owned it — :func:`attach_batches` suppresses that registration so
ownership (and unlinking) stays with the parent.
"""

from __future__ import annotations

import pickle
from multiprocessing import resource_tracker, shared_memory
from typing import Optional, Sequence

import numpy as np

#: Alignment of every array leaf inside the segment (cache-line sized,
#: comfortably above any NumPy dtype's alignment requirement).
ALIGNMENT = 64

_SUPPORTED: Optional[bool] = None


def shm_supported() -> bool:
    """Whether POSIX shared memory actually works on this host.

    Containers occasionally run without a usable ``/dev/shm``; the probe
    result is cached for the life of the process.
    """
    global _SUPPORTED
    if _SUPPORTED is None:
        try:
            segment = shared_memory.SharedMemory(create=True, size=1)
            segment.close()
            segment.unlink()
            _SUPPORTED = True
        except OSError:
            _SUPPORTED = False
    return _SUPPORTED


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def pack_batches(batches: Sequence) -> tuple:
    """Pack ``batches`` into ``(segment, manifest)``.

    ``segment`` is a freshly created shared-memory block holding every
    ndarray leaf back to back (``None`` when no batch contains an array —
    the manifest is then self-contained).  The caller owns the segment:
    close and unlink it once the consumer has replied.
    """
    leaves: list[tuple[int, np.ndarray]] = []
    cursor = 0

    def describe(obj):
        nonlocal cursor
        if isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            start = _align(cursor)
            cursor = start + arr.nbytes
            leaves.append((start, arr))
            return ("array", start, arr.dtype.str, arr.shape)
        if isinstance(obj, tuple):
            return ("tuple", [describe(element) for element in obj])
        return ("pickle", pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    manifest = [describe(batch) for batch in batches]
    if cursor == 0:
        return None, manifest
    segment = shared_memory.SharedMemory(create=True, size=cursor)
    for start, arr in leaves:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf, offset=start)
        view[...] = arr
    return segment, manifest


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    Ownership (and unlinking) stays with the creating process.  On
    Python >= 3.13 ``track=False`` says exactly that; earlier versions
    register unconditionally on attach — under ``fork`` the consumer
    shares the creator's tracker, so an ``unregister`` after the fact
    would revoke the *creator's* registration, and under ``spawn`` the
    consumer's own tracker would unlink the live segment when the
    consumer exits.  Suppressing the registration call during attach is
    correct for both.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pre-3.13: no track parameter
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_batches(name: Optional[str], manifest: list) -> tuple:
    """Rebuild batches from a manifest as ``(segment, batches)``.

    Array leaves come back as zero-copy views onto the attached segment;
    the caller must drop every view before closing the segment (a live
    view pins the underlying mapping).  ``segment`` is ``None`` when the
    manifest carried no arrays.
    """
    segment = _attach_untracked(name) if name is not None else None

    def rebuild(node):
        kind = node[0]
        if kind == "array":
            _, offset, dtype, shape = node
            return np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        if kind == "tuple":
            return tuple(rebuild(child) for child in node[1])
        return pickle.loads(node[1])

    return segment, [rebuild(node) for node in manifest]


def manifest_nbytes(segment) -> int:
    """Bytes shipped through the segment (0 when no arrays travelled)."""
    return int(segment.size) if segment is not None else 0


def release(segment, *, unlink: bool) -> None:
    """Close (and optionally unlink) a segment, tolerating pinned buffers.

    A consumer that failed mid-ingest may still hold views; ``close``
    then raises :class:`BufferError`.  The mapping is released when the
    process exits anyway, so swallow it rather than masking the original
    ingest error.
    """
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:  # pragma: no cover - views still alive
        pass
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
