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
  five top-k methods in both modes; the digest covers the mined lists.

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

import hashlib
import json

import numpy as np
import pytest

from repro.core.frameworks import make_framework
from repro.core.topk import MultiClassTopK
from repro.datasets import LabelItemDataset
from repro.stream import make_session

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
