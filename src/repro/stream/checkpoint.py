"""``.npz`` checkpointing for streaming state.

A checkpoint is a single NumPy archive holding the integer count arrays
of a session plus a JSON metadata record (stored as a
zero-dimensional string array under ``__meta__``).  Everything is plain
data — no pickling — so checkpoints are safe to load from untrusted
storage and portable across processes and hosts.

Checkpoints capture *server-side aggregation state only*.  Client-side
randomness is not part of the state (the server never holds it), so a
restored session resumes ingestion with a caller-provided generator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.log import log_event

PathLike = Union[str, Path]

#: Reserved archive key holding the JSON metadata record.
_META_KEY = "__meta__"


def save_state(path: PathLike, meta: Mapping, arrays: Mapping[str, np.ndarray]) -> Path:
    """Write ``meta`` (JSON-serialisable scalars) and ``arrays`` to ``path``.

    The ``.npz`` suffix is appended when missing (mirroring
    :func:`numpy.savez`); the resolved path is returned.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    payload = {}
    for key, value in arrays.items():
        if key == _META_KEY:
            raise ConfigurationError(f"array name {_META_KEY!r} is reserved")
        payload[key] = np.asarray(value)
    payload[_META_KEY] = np.asarray(json.dumps(dict(meta)))
    with open(path, "wb") as handle:
        np.savez(handle, **payload)
    log_event("checkpoint.save", path=str(path), session=meta.get("session"))
    return path


def load_state(path: PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back a checkpoint written by :func:`save_state`.

    Returns ``(meta, arrays)``.  Raises
    :class:`~repro.exceptions.ConfigurationError` when the archive lacks
    the metadata record (i.e. is not a repro checkpoint).
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    with np.load(path, allow_pickle=False) as archive:
        if _META_KEY not in archive.files:
            raise ConfigurationError(f"{path} is not a repro streaming checkpoint")
        meta = json.loads(str(archive[_META_KEY][()]))
        arrays = {
            key: archive[key] for key in archive.files if key != _META_KEY
        }
    log_event("checkpoint.load", path=str(path), session=meta.get("session"))
    return meta, arrays
