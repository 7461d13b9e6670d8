"""Golden sha256 digests of seeded outputs of the public entry points.

Every case below runs one seeded entry point and hashes what it returns:

* ``estimate/<framework>/<mode>`` — ``estimate_frequencies`` of each of
  the four frameworks in both execution modes (the estimate is all that
  API exposes);
* ``session/<framework>/d=<d>`` — a protocol-mode session fed five
  batches, one of them longer than an engine block, at a width that
  fills whole 8-bit words (64) and one that does not (257); the digest
  covers the session's integer state;
* ``mine/<method>/<mode>`` — ``MultiClassTopK.mine`` for the paper's
  five top-k methods in both modes; the digest covers the mined lists;
* ``serve/<session>`` — a recording :class:`~repro.serve.HostedSession`
  fed fixed runs of REPORTS frame bodies, each run followed by an
  explicit ``flush()``: framework cohorts of every framework in both
  modes over 2 and 3 shards, decayed cohorts (which settle after every
  run, so ageing lands between runs), and top-k miners under both
  invalid-report modes and non-default ``keep``/``extension_bits``; the
  digest covers every drain-log entry and the integer state
  :func:`~repro.stream.replay_drain_log` rebuilds from the log, which
  must equal the live state.

A change that alters no law must leave every digest as it is.  The
inputs are built with integer arithmetic only, so no platform's float
rounding enters them.  The table is keyed by NumPy's major.minor
version, since a NumPy release may change how a generator's words become
the bounded integers, binomials and permutations drawn here.  On a
version with no table the test fails; a change that alters a law on
purpose regenerates the table with::

    PYTHONPATH=src python tests/test_golden_digests.py

which prints the current version's entry for :data:`DIGESTS`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from functools import reduce

import numpy as np
import pytest

from repro.core.frameworks import make_framework
from repro.core.topk import MultiClassTopK
from repro.datasets import LabelItemDataset
from repro.obs import MetricsRegistry
from repro.rng import ensure_rng, spawn
from repro.serve import SessionRegistry, protocol
from repro.serve.registry import canonical_config
from repro.stream import (
    DECAY_EVENT,
    OnlineTopKSession,
    make_session,
    replay_drain_log,
)

FRAMEWORKS = ("hec", "ptj", "pts", "pts-cp")
MODES = ("simulate", "protocol")

#: ``(framework, optimizations)`` of the paper's five top-k methods:
#: HEC, PTJ, PTJ-Shuffling+VP, PTS and PTS-Shuffling+VP+CP.
METHODS = {
    "HEC": ("hec", ()),
    "PTJ": ("ptj", ()),
    "PTJ-Shuffling+VP": ("ptj", ("shuffle", "vp")),
    "PTS": ("pts", ()),
    "PTS-Shuffling+VP+CP": ("pts", ("shuffle", "vp", "cp", "global")),
}

#: Session batch sizes: an empty and a one-user batch, and one batch of
#: more rows than one engine block holds at every width used here.
SESSION_BATCHES = (3000, 0, 1, 9000, 700)


def _dataset(n_users: int, n_classes: int, n_items: int, seed: int) -> LabelItemDataset:
    """Skewed label-item pairs from integer draws: each class ranks the
    items from its own offset, and the product of two uniform draws puts
    more users on low ranks."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, n_users)
    rank = rng.integers(0, n_items, n_users) * rng.integers(0, n_items, n_users)
    items = (rank // n_items + 7 * labels) % n_items
    return LabelItemDataset(labels, items, n_classes, n_items)


def _digest(*parts) -> str:
    """sha256 over each part's dtype, shape and bytes; a ``dict`` part
    (mined lists) is hashed as canonical JSON."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            mined = {str(label): [int(i) for i in items] for label, items in part.items()}
            digest.update(json.dumps(mined, sort_keys=True).encode())
            continue
        array = np.ascontiguousarray(part)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _estimate(framework: str, mode: str) -> str:
    model = make_framework(framework, 1.0, 4, 48, mode=mode, rng=11)
    return _digest(model.estimate_frequencies(_dataset(4000, 4, 48, seed=1)))


def _session(framework: str, n_items: int) -> str:
    session = make_session(framework, 2.0, 5, n_items, mode="protocol", rng=12)
    rng = np.random.default_rng(n_items)
    for size in SESSION_BATCHES:
        session.ingest_batch(rng.integers(0, 5, size), rng.integers(0, n_items, size))
    state = [getattr(session, "_" + field) for field in session._STATE_FIELDS]
    return _digest(np.int64(session.n_ingested), *state)


def _mine(method: str, mode: str) -> str:
    framework, optimizations = METHODS[method]
    dataset = _dataset(20000, 3, 64, seed=2)
    scheme = MultiClassTopK(
        framework, k=4, epsilon=4.0, n_classes=3, n_items=64,
        optimizations=optimizations, mode=mode, rng=13,
    )
    return _digest(scheme.mine(dataset))


#: Hosted-session configs (HELLO form) of the ``serve/`` cases.
SERVED = {
    "pts-2shards": dict(
        session="golden-pts", framework="pts", epsilon=2.0, n_classes=5,
        n_items=64, mode="protocol", seed=14, shards=2,
    ),
    "topk": dict(
        session="golden-topk", kind="topk", k=4, epsilon=4.0, n_classes=3,
        n_items=64, mode="protocol", seed=15,
    ),
    **{
        f"{framework}/{mode}/shards=3": dict(
            session="golden-shards", framework=framework, epsilon=2.0,
            n_classes=5, n_items=64, mode=mode, seed=17, shards=3,
        )
        for framework in FRAMEWORKS
        for mode in MODES
    },
    # A factor of 1/2 keeps the ageing exact: every compounded factor is
    # a power of two, so no platform's float rounding enters the state.
    **{
        f"{framework}/decay": dict(
            session="golden-decay", framework=framework, epsilon=2.0,
            n_classes=5, n_items=64, mode="protocol", seed=18, shards=2,
            decay=0.5, decay_every=1500,
        )
        for framework in FRAMEWORKS
    },
    **{
        f"topk/{invalid_mode}/{mode}": dict(
            session="golden-topk", kind="topk", k=4, epsilon=4.0,
            n_classes=3, n_items=64, mode=mode, seed=19,
            invalid_mode=invalid_mode,
        )
        for invalid_mode in ("random", "vp")
        for mode in MODES
    },
    "topk/keep+extension_bits": dict(
        session="golden-topk", kind="topk", k=4, epsilon=4.0, n_classes=3,
        n_items=64, mode="protocol", seed=20, keep=6, extension_bits=2,
        label_fraction=0.25,
    ),
}

#: Frame sizes of each run buffered before one ``flush()``: an empty
#: frame, a one-report frame, and runs longer than ``SERVE_FLUSH_REPORTS``
#: so the flush cuts them into sub-batches over both shards.
SERVE_ROUNDS = ((2500, 1, 700), (0,), (4096, 3000), (9,))
SERVE_FLUSH_REPORTS = 1500


def _served_log(config: dict) -> tuple[list, object]:
    """The drain log of a recording hosted session fed
    :data:`SERVE_ROUNDS`, and its live snapshot after settling."""
    registry = SessionRegistry(
        record=True, flush_reports=SERVE_FLUSH_REPORTS, metrics=MetricsRegistry()
    )
    hosted, _ = registry.open(config)
    rng = np.random.default_rng(16)

    async def feed():
        for sizes in SERVE_ROUNDS:
            bodies = [
                protocol.encode_reports(
                    rng.integers(0, config["n_classes"], size),
                    rng.integers(0, config["n_items"], size),
                )[5:]  # strip the length prefix and type byte
                for size in sizes
            ]
            hosted.buffer_frames(bodies)
            hosted.flush()
            if "decay" in config:
                await hosted.settle()
        await hosted.settle()

    try:
        asyncio.run(feed())
        return list(hosted.drain_log), hosted._drain.snapshot()
    finally:
        registry.close()


def _serve(name: str) -> str:
    config = canonical_config(SERVED[name])
    log, live = _served_log(SERVED[name])
    if config["kind"] == "topk":
        [replayed] = replay_drain_log(log, [OnlineTopKSession(
            k=config["k"], epsilon=config["epsilon"],
            n_classes=config["n_classes"], n_items=config["n_items"],
            label_fraction=config["label_fraction"], keep=config["keep"],
            extension_bits=config["extension_bits"],
            invalid_mode=config["invalid_mode"],
            mode=config["mode"], rng=ensure_rng(config["seed"]),
        )])
        state = lambda miner: [  # noqa: E731
            np.int64(miner.n_ingested), miner._round_class_n,
            *miner._candidates, *miner._support,
        ]
    else:
        shards = replay_drain_log(log, [
            make_session(
                config["framework"], config["epsilon"], config["n_classes"],
                config["n_items"], mode=config["mode"], rng=child,
                label_fraction=config["label_fraction"],
            )
            for child in spawn(ensure_rng(config["seed"]), config["shards"])
        ])
        replayed = reduce(lambda a, b: a.merge(b), shards)
        state = lambda session: [  # noqa: E731
            np.int64(session.n_ingested),
            *(getattr(session, "_" + field) for field in session._STATE_FIELDS),
        ]
    for got, want in zip(state(replayed), state(live)):
        np.testing.assert_array_equal(got, want)
    entries = [
        # A decay event hashes as its compounded factor.
        (np.float64(labels),) if shard == DECAY_EVENT
        else (np.int64(shard), labels, items)
        for shard, labels, items in log
    ]
    return _digest(*(part for entry in entries for part in entry), *state(replayed))


CASES = {
    **{
        f"estimate/{framework}/{mode}": (_estimate, framework, mode)
        for framework in FRAMEWORKS
        for mode in MODES
    },
    **{
        f"session/{framework}/d={n_items}": (_session, framework, n_items)
        for framework in FRAMEWORKS
        for n_items in (64, 257)
    },
    **{
        f"mine/{method}/{mode}": (_mine, method, mode)
        for method in METHODS
        for mode in MODES
    },
    **{f"serve/{name}": (_serve, name) for name in SERVED},
}


def _compute(case: str) -> str:
    run, *args = CASES[case]
    return run(*args)


#: ``numpy major.minor`` → case → sha256 digest.
DIGESTS: dict[str, dict[str, str]] = {
    "2.4": {
        "estimate/hec/protocol": "ca2e85a11be25ff1553137a4b86e905ead9c748be52850d244e65282e73f189e",
        "estimate/hec/simulate": "930d2bcef9a394faa1b575df083c4df4c9b63da3941442cad9ac3ee144c1a8b8",
        "estimate/ptj/protocol": "bf6de3222f3c9e68eaf6e4a1cf713434d3a8d5a0e73d738e7753c4d63a309ad2",
        "estimate/ptj/simulate": "e4d47a72f5609617a035889eeae0db0852277cff774cc19d7f4a14ffc3a53928",
        "estimate/pts-cp/protocol": "964c89edbe4b3c069fa499e64fc80d7f1a48016502313821eea688cdac2d544b",
        "estimate/pts-cp/simulate": "346c9a34a2fd9d6c741d200f6e84bcd60639af88adf178b135a5f33e8f3ece45",
        "estimate/pts/protocol": "ca8968cb12c8cde8d09affb733b23bfb3d12d901d459db077f2ead5dd5240fc3",
        "estimate/pts/simulate": "123654fd4f1b0cf0a5c66d4b950271f61cec3e0823f520e3526d5a60cc8afd7e",
        "mine/HEC/protocol": "aef206d8324faf9172c4261b4d5339a0fe2c4a10e741e63b63f39eb8c1a7601c",
        "mine/HEC/simulate": "899466b06dd89268d2a6c70b84ed812728849196ea7e6ddad1eb596e0ac77aec",
        "mine/PTJ-Shuffling+VP/protocol": "894c9f0c0f1585bf3c655c96f67ee1f1281c4c6336b0ee09ddb4fdaacdd27190",
        "mine/PTJ-Shuffling+VP/simulate": "2b84e9c7078364d13406b25960037263fce16db7a2930e14cfd8f27df258504b",
        "mine/PTJ/protocol": "7117176cf1281c6935df820391d78241109009f7b9be913370462e8e83593e5e",
        "mine/PTJ/simulate": "8fc978b5c7f792c9933193ba2986e0169d2186450d320d11b293fbe9568a4fed",
        "mine/PTS-Shuffling+VP+CP/protocol": "8402fa4903332593b65d4cc611e42dc26f4f271e8cd6125e73cf31b922e6c9eb",
        "mine/PTS-Shuffling+VP+CP/simulate": "8b1a88a7020b7e91e637a8a12ca7f6f273c7f696ac6a9c278fb357b87b57f408",
        "mine/PTS/protocol": "e06a963514c447b585b79dc2433831aad2a25637f9b468e88954c9cadd1adfe0",
        "mine/PTS/simulate": "fd20559903c2c7a9ba3a1ad27688cb0d7a0236f1ced5cc774e96bb5d4204041d",
        "serve/hec/decay": "7dd6e484b7777f8042f3e070b7513c55090126bdb1ac8942ad5fe7292ff0c07c",
        "serve/hec/protocol/shards=3": "65ca1413e043c77bf298bfd67dad990509091f1375527a64e3f0d565993b0c9a",
        "serve/hec/simulate/shards=3": "3de4b2f609d0d320d25d1b65f68ef15580bff23f17bfa36d88abe5698c41c120",
        "serve/ptj/decay": "99aae4c335703b76651a01b594c2e9091b22073e5f1d6a3bd447e6362bf83d54",
        "serve/ptj/protocol/shards=3": "fdfc36418501e51721cfbaf96993e65a2658bfa5b559490ce3c7b005b3d0b3d1",
        "serve/ptj/simulate/shards=3": "8da0039f601113f322156017966075a2a7a16c44d1c530d738ae1b5fb3633dd8",
        "serve/pts-2shards": "250434e2f0d5b61b61552d187430878bf6d019b334c1acd448e06daf498b8ec7",
        "serve/pts-cp/decay": "d0d3e6a23f1bf44d0a217b215249202463fe9a00fbb0ec8a42ee87cd786cc214",
        "serve/pts-cp/protocol/shards=3": "b122a46a7a9482fd563069c30661becfa8db5969f26662759d832f8f494626ab",
        "serve/pts-cp/simulate/shards=3": "05105bea555c85d76309f1f1395d3039720c225b0daf81243cc88ad5c2e7e1f2",
        "serve/pts/decay": "af56ceb2c7d6c848456ab6d1be4ae686f5b67f0448c00cbd0e4aca9f001554ea",
        "serve/pts/protocol/shards=3": "9c7c35e72d00555dc4831a9f1015f7f1a12ede662db26945d042bbc303427fd2",
        "serve/pts/simulate/shards=3": "a3e28c8663f2a80a8919bf915e254dc0c9af9324a58d41da7a900fd3df2a22ab",
        "serve/topk": "c6e0a5f1337120ee7bcea381536dc9eebcd115661ff15e46650950239011852a",
        "serve/topk/keep+extension_bits": "33683b4a63207c0f66e2af7bf1e68659f12e4640f4a4505f6bd2e6b021e3a5a1",
        "serve/topk/random/protocol": "9e93dbb5bc9ff1aec2da9bf5cad45e9f176290d9c93bde5c1cd75b1420f808d1",
        "serve/topk/random/simulate": "c85b59bca7125f4433521d8e45c15ca0516d6ec13a2b7cfd6f4c6e5672059d48",
        "serve/topk/vp/protocol": "613bdf2ddea689f05f921c4f97571fa6fd3ae7c301eb955f3b99d1ca0bfe796c",
        "serve/topk/vp/simulate": "0afa7a93a3cb00ae2517ef7ed29f3651f487d9487cc3537f620a0c61e3ba2979",
        "session/hec/d=257": "1ba6ef796e7079cbf0720a9702be623e92d66500107f0865d21b978a3d0f9c54",
        "session/hec/d=64": "f076250e7bd3096e8bac0f2c83e8a575523c9c9b3453b2c1c16cdc4764ba36fc",
        "session/ptj/d=257": "8684982bf0463a56559195f26f38a063d4fe2dca38a3f93e2718d16ee419468f",
        "session/ptj/d=64": "23fdf12441c12a5382f2c412542799a2ec081f20fd9e9aeacb7641651f165123",
        "session/pts-cp/d=257": "217f581b5caf6dc68fa7855fd4ac8194b3a7dff584853b62100657bd53ea12ef",
        "session/pts-cp/d=64": "80bb8469314b4d7110719b02bea242673a7bf87ed46d2611c21c2af9d896a887",
        "session/pts/d=257": "bf0bf17ad52a9d4da6ed129edc8ff1d1683a4eb9db2c1d6fff3b2d63948b7cdd",
        "session/pts/d=64": "bf66ff9fe9f3278af1ccf5fed91ac20c943e246054275c5a6ea15f564081e9b8",
    },
}


def _numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_digest(case):
    table = DIGESTS.get(_numpy_version())
    assert table is not None, (
        f"no golden digests for numpy {_numpy_version()} (have "
        f"{sorted(DIGESTS)}); regenerate with "
        "`PYTHONPATH=src python tests/test_golden_digests.py`"
    )
    assert _compute(case) == table[case], (
        f"{case}: seeded output changed; if the law changed on purpose, "
        "regenerate with `PYTHONPATH=src python tests/test_golden_digests.py`"
    )


if __name__ == "__main__":
    print(f'    "{_numpy_version()}": {{')
    for case in sorted(CASES):
        print(f'        "{case}": "{_compute(case)}",')
    print("    },")
