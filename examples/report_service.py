"""Report-collection service, end to end in one process.

Starts the asyncio :class:`~repro.serve.collector.ReportCollector` on an
OS-assigned localhost port, then simulates a report population: four
concurrent clients each stream one privatised report per user into the
same hosted PTS session, querying estimates mid-stream over the control
channel.  A second cohort mines per-class top-k round by round through
the same collector, driving round advancement from the client side.

The script ends on the operator's view: the collector's HEALTH verdict,
graded per session from the collector's own registry (ingest lag,
backpressure stall, drift rate, flush and query latency).

Run:  python examples/report_service.py
"""

import asyncio

import numpy as np

from repro.metrics import rmse
from repro.serve import (
    ReportClient,
    ReportCollector,
    fetch_health,
    fetch_stats,
    generate_load,
)


async def monitor_stats(collector: ReportCollector, period: float = 0.1) -> None:
    """Poll the collector's STATS frame while load is running.

    A monitor needs no session handshake — ``fetch_stats`` opens a bare
    connection and the collector answers STATS pre-HELLO, reading its
    own registry without draining any session's queue.
    """
    while True:
        live = await fetch_stats(collector.host, collector.port)
        c = live["collector"]
        lag = sum(s["pending"] for s in live["sessions"])
        print(f"  [monitor] {c['reports_ingested']:,} reports ingested, "
              f"{c['connections_active']} connections, {lag:,} pending")
        await asyncio.sleep(period)


async def frequency_cohort(collector: ReportCollector) -> None:
    rng = np.random.default_rng(7)
    n_users, n_classes, n_items = 120_000, 3, 64
    labels = rng.integers(0, n_classes, n_users)
    base = rng.dirichlet(np.ones(n_items) * 0.3, size=n_classes)
    items = np.empty(n_users, dtype=np.int64)
    for label in range(n_classes):
        mask = labels == label
        items[mask] = rng.choice(n_items, size=int(mask.sum()), p=base[label])
    truth = np.bincount(labels * n_items + items,
                        minlength=n_classes * n_items).reshape(n_classes, n_items)

    config = dict(
        session="frequencies", framework="pts", epsilon=2.0,
        n_classes=n_classes, n_items=n_items, seed=11, shards=2,
    )

    # Half the population first, then a mid-stream query, then the rest —
    # with a STATS monitor polling live ingest progress alongside.
    half = n_users // 2
    monitor = asyncio.ensure_future(monitor_stats(collector))
    try:
        load = await generate_load(
            collector.host, collector.port, config,
            labels[:half], items[:half], n_connections=4,
        )
    finally:
        monitor.cancel()
        try:
            await monitor
        except asyncio.CancelledError:
            pass
    print(f"first wave:  {load['reports']:,} reports at "
          f"{load['reports_per_sec']:,.0f}/sec over {load['n_connections']} connections")
    live = await fetch_stats(collector.host, collector.port)
    frames = live["collector"]["frames"]
    print(f"wire frames: {frames.get('hello', 0)} hello, "
          f"{frames.get('reports', 0)} reports, {frames.get('bye', 0)} bye; "
          f"{live['collector']['reports_ingested']:,} reports collected")

    client = await ReportClient.connect(collector.host, collector.port, **config)
    async with client:
        mid = await client.estimate()
        print(f"mid-stream:  RMSE vs half-time truth = "
              f"{rmse(mid, truth * 0.5):,.1f}")

        await client.send(labels[half:], items[half:])
        final = await client.estimate()
        stats = await client.stats()
    print(f"final:       RMSE = {rmse(final, truth):,.1f} after "
          f"{stats['n_ingested']:,} reports")
    print(f"top-3 items, class 0: served "
          f"{sorted(int(i) for i in np.argsort(final[0])[-3:])} "
          f"vs true {sorted(int(i) for i in np.argsort(truth[0])[-3:])}")


async def topk_cohort(collector: ReportCollector) -> None:
    rng = np.random.default_rng(13)
    n_classes, n_items, per_round = 2, 256, 30_000
    heavy = {0: 41, 1: 200}
    config = dict(
        session="miner", kind="topk", k=3, epsilon=4.0,
        n_classes=n_classes, n_items=n_items, seed=3,
    )

    client = await ReportClient.connect(collector.host, collector.port, **config)
    async with client:
        rounds = (await client.stats())["n_rounds"]
        print(f"\ntop-k miner: {rounds} rounds over d = {n_items}")
        for _ in range(rounds):
            labels = rng.integers(0, n_classes, per_round)
            items = rng.integers(0, n_items, per_round)
            hot = rng.random(per_round) < 0.4
            items[hot] = np.vectorize(heavy.get)(labels[hot])
            await client.send(labels, items)
            state = await client.advance_round()
        mined = await client.topk()
    print(f"mined top-3: {mined} (planted heavy hitters: {heavy})")
    assert state["finished"]


async def main() -> None:
    async with ReportCollector() as collector:
        print(f"collector listening on {collector.host}:{collector.port}")
        await frequency_cohort(collector)
        await topk_cohort(collector)

        # The operator's view: a machine-readable verdict with reasons
        # (the same payload /healthz serves).
        verdict = await fetch_health(collector.host, collector.port)
        print(f"\nhealth: {verdict['status']}")
        for check in verdict["checks"]:
            print(f"  {check['status']:4s} {check['check']} "
                  f"[{check['session']}]: {check['reason']}")


if __name__ == "__main__":
    asyncio.run(main())
