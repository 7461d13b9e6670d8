"""Protocol-mode ingest reuses its report buffers instead of faulting
fresh pages in on every batch.

A shard thread privatises each block into a bit workspace that outlives
the call (``engine._bit_workspace``).  Buffers of a few megabytes that
are freed after every block can be handed back to the OS and faulted
in again on the next one; on the serve path that cost one shard thread
millions of minor faults and seconds of system time.  Two threads each
ingest serve-sized PTS batches, and each thread's own minor-fault count
must stay near zero per batch.
"""

import resource
import threading

import numpy as np
import pytest

from repro.mechanisms.backends import use_backend
from repro.stream import make_session

RUSAGE_THREAD = getattr(resource, "RUSAGE_THREAD", None)

N_CLASSES, N_ITEMS, BATCH = 5, 256, 8192
WARMUP_BATCHES, MEASURED_BATCHES = 5, 50

#: Fixed before the first run.  A freed 2 MB bit buffer faults back in
#: at ~500 pages per batch, and ~1,000–1,500 faults per batch were seen
#: with per-block or per-call buffers; a reused buffer faults ~0.
MAX_FAULTS_PER_BATCH = 64


def _ingest_and_count_faults(index: int, faults: dict, errors: list) -> None:
    try:
        session = make_session(
            "pts", 1.0, N_CLASSES, N_ITEMS, mode="protocol", rng=index
        )
        rng = np.random.default_rng(100 + index)
        batches = [
            (rng.integers(0, N_CLASSES, BATCH), rng.integers(0, N_ITEMS, BATCH))
            for _ in range(4)
        ]
        for step in range(WARMUP_BATCHES):
            session.ingest_batch(*batches[step % 4])
        before = resource.getrusage(RUSAGE_THREAD).ru_minflt
        for step in range(MEASURED_BATCHES):
            session.ingest_batch(*batches[step % 4])
        after = resource.getrusage(RUSAGE_THREAD).ru_minflt
        faults[index] = (after - before) / MEASURED_BATCHES
    except BaseException as error:  # re-raised on the test's thread
        errors.append(error)


@pytest.mark.skipif(
    RUSAGE_THREAD is None, reason="per-thread rusage is unavailable here"
)
def test_protocol_ingest_threads_stay_off_the_page_fault_path():
    faults, errors = {}, []
    # The NumPy kernels are the ones that must hold their buffers; the
    # numba twin of grouped_scatter widens every block to int64.
    with use_backend("numpy"):
        workers = [
            threading.Thread(
                target=_ingest_and_count_faults, args=(index, faults, errors)
            )
            for index in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    if errors:
        raise errors[0]
    assert sorted(faults) == [0, 1]
    for index, per_batch in faults.items():
        assert per_batch <= MAX_FAULTS_PER_BATCH, (index, faults)
