"""Streaming ingestion subsystem: online, shardable LDP aggregation.

The one-shot reproduction harness runs each protocol as a single batch;
this subpackage converts aggregation into an online system:

* :mod:`~repro.stream.session` — :class:`OnlineFrameworkSession` per
  framework (HEC / PTJ / PTS / PTS-CP): ingest ``(labels, items)``
  batches, query ``estimate()`` / ``topk(k)`` at any time, merge across
  shards, checkpoint to ``.npz``.
* :mod:`~repro.stream.sharding` — :class:`ShardedAggregator`, fanning
  batches across session shards and merging their states.
* :mod:`~repro.stream.topk_session` — :class:`OnlineTopKSession`, the
  incremental top-k miner: ingest users round-by-round against a
  per-class candidate frontier, query per-class top-k mid-stream.
* :mod:`~repro.stream.drain` — drain adapters giving ingestion
  front-ends (e.g. the :mod:`repro.serve` collector) one submit / drain /
  snapshot interface over sharded sessions and the top-k miner, with an
  optional decayed-ingest hook and a replayable drain log.
* :mod:`~repro.stream.checkpoint` — the plain-data ``.npz`` state format.

Quickstart::

    import numpy as np
    from repro.stream import make_session

    session = make_session("pts-cp", epsilon=2.0, n_classes=3, n_items=50,
                           rng=np.random.default_rng(7))
    for labels, items in batches:          # any batch split
        session.ingest_batch(labels, items)
        partial = session.estimate()       # query mid-stream
    top = session.topk(10)
    session.save("checkpoint.npz")
"""

from .checkpoint import load_state, save_state
from .drain import (
    DECAY_EVENT,
    AggregatorDrain,
    BatchDrain,
    SessionDrain,
    replay_drain_log,
)
from .drift import DriftDetector, DriftReport
from .session import (
    SESSIONS,
    OnlineFrameworkSession,
    OnlineHEC,
    OnlinePTJ,
    OnlinePTS,
    OnlinePTSCP,
    make_session,
)
from .sharding import ShardedAggregator, default_shard_count
from .topk_session import OnlineTopKSession
from .window import WindowPolicy

__all__ = [
    "AggregatorDrain",
    "BatchDrain",
    "DECAY_EVENT",
    "DriftDetector",
    "DriftReport",
    "OnlineFrameworkSession",
    "OnlineHEC",
    "OnlinePTJ",
    "OnlinePTS",
    "OnlinePTSCP",
    "OnlineTopKSession",
    "SESSIONS",
    "SessionDrain",
    "ShardedAggregator",
    "WindowPolicy",
    "default_shard_count",
    "load_state",
    "make_session",
    "replay_drain_log",
    "save_state",
]
