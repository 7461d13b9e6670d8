"""Localhost end-to-end: async clients stream reports into the collector
and the served sessions match their offline counterparts exactly."""

import asyncio
from functools import reduce

import numpy as np
import pytest

from repro.rng import ensure_rng, spawn
from repro.serve import (
    ReportClient,
    ReportCollector,
    ServeError,
    generate_load,
)
from repro.serve.registry import MAX_SHARDS
from repro.stream import make_session, replay_drain_log


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _population(n=6000, c=3, d=32, seed=4):
    rng = np.random.default_rng(seed)
    return rng.integers(0, c, size=n), rng.integers(0, d, size=n)


def _config(**overrides):
    config = dict(
        session="cohort",
        framework="ptj",
        epsilon=1.0,
        n_classes=3,
        n_items=32,
        mode="simulate",
        seed=17,
        shards=2,
    )
    config.update(overrides)
    return config


class TestExactOfflineEquivalence:
    """The acceptance criterion: N async clients each send one privatised
    report per simulated user; the served estimate equals the offline
    OnlineFrameworkSession result on the same seeded report stream."""

    @pytest.mark.parametrize(
        "framework,mode",
        [("ptj", "simulate"), ("ptj", "protocol"), ("pts", "protocol"),
         ("pts-cp", "simulate"), ("hec", "protocol")],
    )
    def test_served_estimate_matches_offline_replay(self, framework, mode):
        labels, items = _population()
        config = _config(framework=framework, mode=mode)

        async def serve() -> tuple[np.ndarray, list]:
            async with ReportCollector(record=True) as collector:
                load = await generate_load(
                    collector.host, collector.port, config,
                    labels, items, n_connections=4, chunk_size=512,
                )
                assert load["reports"] == labels.size
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    served = await client.estimate()
                log = list(collector.registry.get("cohort").drain_log)
            return served, log

        served, log = run(serve())
        assert sum(entry[1].size for entry in log) == labels.size

        # Offline: identically seeded per-shard sessions replaying the
        # recorded drain order reproduce the served state bit-for-bit.
        shards = [
            make_session(
                framework,
                epsilon=config["epsilon"],
                n_classes=config["n_classes"],
                n_items=config["n_items"],
                mode=mode,
                rng=child,
            )
            for child in spawn(ensure_rng(config["seed"]), config["shards"])
        ]
        replayed = replay_drain_log(log, shards)
        offline = reduce(lambda a, b: a.merge(b), replayed)
        assert offline.n_ingested == labels.size
        np.testing.assert_array_equal(served, offline.estimate())

    def test_equivalence_holds_across_repeated_queries(self):
        """Bit-identical equivalence survives repeated mid-stream and
        post-stream queries: they all answer exactly what an offline
        replay of the drain log computes."""
        labels, items = _population()
        config = _config(framework="ptj", mode="simulate")

        async def serve():
            async with ReportCollector(record=True) as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    half = labels.size // 2
                    await client.send(labels[:half], items[:half])
                    mid_first = await client.estimate()  # drains half
                    mid_second = await client.estimate()
                    await client.send(labels[half:], items[half:])
                    final_first = await client.estimate()
                    final_second = await client.estimate()
                    log = list(collector.registry.get("cohort").drain_log)
            return mid_first, mid_second, final_first, final_second, log

        mid_first, mid_second, final_first, final_second, log = run(serve())
        np.testing.assert_array_equal(mid_first, mid_second)
        np.testing.assert_array_equal(final_first, final_second)

        shards = [
            make_session(
                "ptj",
                epsilon=config["epsilon"],
                n_classes=config["n_classes"],
                n_items=config["n_items"],
                mode="simulate",
                rng=child,
            )
            for child in spawn(ensure_rng(config["seed"]), config["shards"])
        ]
        replayed = replay_drain_log(log, shards)
        offline = reduce(lambda a, b: a.merge(b), replayed)
        assert offline.n_ingested == labels.size
        np.testing.assert_array_equal(final_first, offline.estimate())


class TestDecayedServing:
    def test_decayed_session_replay_bit_identical(self):
        """A sliding-window session's drain log replays to the exact live
        state — decay events included — across repeated queries; every
        answer matches the offline replay."""
        labels, items = _population()
        config = _config(framework="ptj", mode="simulate", window=2500)

        async def serve():
            async with ReportCollector(record=True) as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    half = labels.size // 2
                    await client.send(labels[:half], items[:half])
                    mid_first = await client.estimate()  # drains and decays
                    mid_second = await client.estimate()
                    await client.send(labels[half:], items[half:])
                    final_first = await client.estimate()
                    final_second = await client.estimate()
                    log = list(collector.registry.get("cohort").drain_log)
            return mid_first, mid_second, final_first, final_second, log

        mid_first, mid_second, final_first, final_second, log = run(serve())
        np.testing.assert_array_equal(mid_first, mid_second)
        np.testing.assert_array_equal(final_first, final_second)

        decay_events = [entry for entry in log if entry[0] == "decay"]
        assert decay_events, "a 6000-report stream must tick a 2500 window"
        # The window bounds the effective cohort despite 6000 sent.
        assert float(final_first.sum()) < labels.size

        shards = [
            make_session(
                "ptj",
                epsilon=config["epsilon"],
                n_classes=config["n_classes"],
                n_items=config["n_items"],
                mode="simulate",
                rng=child,
            )
            for child in spawn(ensure_rng(config["seed"]), config["shards"])
        ]
        replayed = replay_drain_log(log, shards)
        offline = reduce(lambda a, b: a.merge(b), replayed)
        np.testing.assert_array_equal(final_first, offline.estimate())

    def test_out_of_band_decay_reaches_the_next_query(self):
        """Ageing that no submit accompanied (drain.age) must still show
        in the next query instead of the pre-decay answer."""
        labels, items = _population(n=2000)
        config = _config(session="aged", shards=1)

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    before = await client.estimate()
                    repeated = await client.estimate()
                    hosted = collector.registry.get("aged")
                    hosted._drain.age(0.5)  # no submit, state changed
                    after = await client.estimate()
                    again = await client.estimate()
            return before, repeated, after, again

        before, repeated, after, again = run(scenario())
        np.testing.assert_array_equal(before, repeated)
        np.testing.assert_array_equal(after, again)
        # The decay halved the state; a stale answer would have hidden it.
        assert not np.array_equal(before, after)
        assert float(after.sum()) == pytest.approx(
            float(before.sum()) * 0.5, rel=0.05
        )

    def test_drift_query_flags_distribution_shift(self):
        """The drift control query scores residuals against the variance
        bound: quiet under a stable stream, flagged (with cell
        coordinates and telemetry) after a hard shift."""
        rng = np.random.default_rng(11)
        c, d, n = 3, 32, 4000
        config = _config(session="drifty", epsilon=4.0, window=4000, shards=1)

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(
                        rng.integers(0, c, n), rng.integers(0, d, n)
                    )
                    first = await client.drift()
                    await client.send(
                        rng.integers(0, c, n), rng.integers(0, d, n)
                    )
                    stable = await client.drift()
                    await client.send(
                        np.zeros(n, dtype=np.int64),
                        np.full(n, 7, dtype=np.int64),
                    )
                    shifted = await client.drift(threshold=4.0)
                gauges = collector.metrics.snapshot()["gauges"]
                counters = collector.metrics.snapshot()["counters"]
            return first, stable, shifted, gauges, counters

        first, stable, shifted, gauges, counters = run(scenario())
        assert first["score"] == 0.0 and not first["drifted"]
        assert not stable["drifted"], stable
        assert shifted["drifted"] and [0, 7] in shifted["flagged"]
        assert shifted["n_ingested"] == 3 * n
        session = 'session="drifty"'
        assert gauges[f"serve_drift_score{{{session}}}"] == pytest.approx(
            shifted["score"]
        )
        assert counters[f"serve_drift_events_total{{{session}}}"] == 1

    def test_window_config_validation(self):
        async def scenario():
            async with ReportCollector() as collector:
                with pytest.raises(ServeError, match="window"):
                    await ReportClient.connect(
                        collector.host,
                        collector.port,
                        **_config(window=1000, decay=0.5, decay_every=100),
                    )
                with pytest.raises(ServeError, match="window"):
                    await ReportClient.connect(
                        collector.host, collector.port, **_config(window=1)
                    )

        run(scenario())


class TestServiceBehaviour:
    def test_mid_stream_queries_see_buffered_reports(self):
        labels, items = _population(n=1000)
        config = _config(session="midstream", epsilon=4.0)

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    stats = await client.stats()
                    estimate = await client.estimate()
                    sizes = await client.class_sizes()
                return stats, estimate, sizes

        stats, estimate, sizes = run(scenario())
        assert stats["n_ingested"] == 1000
        assert stats["pending"] == 0
        assert estimate.shape == (3, 32)
        assert abs(estimate.sum() - 1000) < 1000
        assert sizes.shape == (3,)

    def test_concurrent_sessions_are_isolated(self):
        labels, items = _population(n=800)

        async def scenario():
            async with ReportCollector() as collector:
                first = await ReportClient.connect(
                    collector.host, collector.port, **_config(session="a")
                )
                second = await ReportClient.connect(
                    collector.host, collector.port,
                    **_config(session="b", framework="pts", epsilon=2.0),
                )
                async with first, second:
                    await first.send(labels, items)
                    stats_a = await first.stats()
                    stats_b = await second.stats()
                assert len(collector.registry) == 2
                return stats_a, stats_b

        stats_a, stats_b = run(scenario())
        assert stats_a["n_accepted"] == 800
        assert stats_b["n_accepted"] == 0

    def test_join_with_mismatched_config_refused(self):
        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **_config(session="strict")
                )
                async with client:
                    with pytest.raises(ServeError, match="different config"):
                        await ReportClient.connect(
                            collector.host,
                            collector.port,
                            **_config(session="strict", epsilon=9.0),
                        )

        run(scenario())

    def test_join_with_matching_config_shares_state(self):
        labels, items = _population(n=600)
        config = _config(session="shared")

        async def scenario():
            async with ReportCollector() as collector:
                writer = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with writer:
                    await writer.send(labels, items)
                    await writer.stats()  # forces a flush+drain
                reader = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with reader:
                    assert reader.hello["created"] is False
                    return await reader.stats()

        stats = run(scenario())
        assert stats["n_ingested"] == 600

    def test_query_before_any_data_is_recoverable(self):
        labels, items = _population(n=200)
        config = _config(session="early")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    with pytest.raises(ServeError, match="no data ingested"):
                        await client.estimate()
                    await client.send(labels, items)
                    return await client.estimate()

        estimate = run(scenario())
        assert estimate.shape == (3, 32)

    def test_framework_topk_needs_explicit_k(self):
        labels, items = _population(n=500)
        config = _config(session="fwtopk", epsilon=4.0)

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    with pytest.raises(ServeError, match="explicit k"):
                        await client.topk()
                    with pytest.raises(ServeError, match="must be an integer"):
                        await client.query("topk", k="three")
                    top = await client.topk(5)  # connection survived
                    return top

        top = run(scenario())
        assert set(top) == {0, 1, 2}
        assert all(len(ids) == 5 for ids in top.values())

    def test_topk_session_rejects_decay_config(self):
        config = dict(
            session="nodk", kind="topk", k=2, epsilon=2.0,
            n_classes=2, n_items=16, decay=0.9, decay_every=100,
        )

        async def scenario():
            async with ReportCollector() as collector:
                with pytest.raises(ServeError, match="do not apply"):
                    await ReportClient.connect(
                        collector.host, collector.port, **config
                    )

        run(scenario())

    def test_malformed_reports_body_gets_error_frame(self):
        """An unaligned REPORTS body must come back as a wire ERROR, not a
        silent disconnect."""
        import struct

        from repro.serve import protocol

        config = _config(session="garbled")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                bad_body = struct.pack("!I", 1) + b"\x00" * 7
                client._writer.write(
                    protocol.encode_frame(protocol.REPORTS, bad_body)
                )
                await client._writer.drain()
                # The next request surfaces the collector's pending ERROR.
                with pytest.raises(ServeError, match="int32-aligned"):
                    await client.stats()
                client.abort()

        run(scenario())

    def test_unknown_query_rejected(self):
        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **_config(session="q")
                )
                async with client:
                    with pytest.raises(ServeError, match="unknown query"):
                        await client.query("median")

        run(scenario())

    def test_out_of_domain_reports_close_the_connection(self):
        config = _config(session="bounds")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                await client.send(np.array([0]), np.array([999]))
                with pytest.raises(
                    (ServeError, ConnectionError, asyncio.IncompleteReadError)
                ):
                    await client.stats()
                client.abort()

        run(scenario())

    def test_omitted_and_explicit_default_label_fraction_join(self):
        """An omitted label_fraction and the explicit default 0.5 describe
        the same pts cohort and must canonicalise identically."""
        base = _config(session="lf", framework="pts")

        async def scenario():
            async with ReportCollector() as collector:
                creator = await ReportClient.connect(
                    collector.host, collector.port, **base
                )
                async with creator:
                    joiner = await ReportClient.connect(
                        collector.host, collector.port,
                        **base, label_fraction=0.5,
                    )
                    async with joiner:
                        assert joiner.hello["created"] is False

        run(scenario())

    def test_label_fraction_rejected_for_single_oracle_frameworks(self):
        async def scenario():
            async with ReportCollector() as collector:
                with pytest.raises(ServeError, match="does not apply"):
                    await ReportClient.connect(
                        collector.host, collector.port,
                        **_config(session="lf2", framework="ptj"),
                        label_fraction=0.5,
                    )

        run(scenario())

    def test_oversized_domain_refused(self):
        async def scenario():
            async with ReportCollector() as collector:
                with pytest.raises(ServeError, match="ceiling"):
                    await ReportClient.connect(
                        collector.host, collector.port,
                        **_config(session="huge", n_items=10**7),
                    )

        run(scenario())

    def test_session_cap_bounds_registry_growth(self):
        async def scenario():
            async with ReportCollector(max_sessions=2) as collector:
                for name in ("one", "two"):
                    client = await ReportClient.connect(
                        collector.host, collector.port, **_config(session=name)
                    )
                    await client.close()
                with pytest.raises(ServeError, match="session cap"):
                    await ReportClient.connect(
                        collector.host, collector.port, **_config(session="three")
                    )
                # Joining an existing session still works at the cap.
                rejoin = await ReportClient.connect(
                    collector.host, collector.port, **_config(session="one")
                )
                assert rejoin.hello["created"] is False
                await rejoin.close()

        run(scenario())

    def test_zero_shards_refused(self):
        async def scenario():
            async with ReportCollector() as collector:
                with pytest.raises(ServeError, match="shards must be in"):
                    await ReportClient.connect(
                        collector.host, collector.port,
                        **_config(session="z", shards=0),
                    )

        run(scenario())

    def test_too_many_shards_refused(self):
        async def scenario():
            async with ReportCollector() as collector:
                with pytest.raises(ServeError, match="shards must be in"):
                    await ReportClient.connect(
                        collector.host, collector.port,
                        **_config(session="wide", shards=MAX_SHARDS + 1),
                    )

        run(scenario())

    def test_unknown_config_keys_refused(self):
        async def scenario():
            async with ReportCollector() as collector:
                with pytest.raises(ServeError, match="unknown session config"):
                    await ReportClient.connect(
                        collector.host, collector.port,
                        **_config(session="x"), frobnicate=1,
                    )

        run(scenario())

    def test_backpressure_marks_preserve_every_report(self):
        """Tiny water marks force the pause/resume path; no report is
        lost or duplicated on the way to the session state."""
        labels, items = _population(n=20_000)
        config = _config(session="pressure", shards=1)

        async def scenario():
            async with ReportCollector(
                flush_reports=256, high_water=512
            ) as collector:
                load = await generate_load(
                    collector.host, collector.port, config,
                    labels, items, n_connections=3, chunk_size=128,
                )
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    stats = await client.stats()
                return load, stats

        load, stats = run(scenario())
        assert load["reports"] == 20_000
        assert stats["n_ingested"] == 20_000

    def test_backpressure_releases_without_a_query(self):
        """A client that only sends, into a two-shard session past the
        high-water mark, is resumed by the shard batches completing: it
        needs no query in flight to drain the backlog."""
        labels, items = _population(n=60_000)
        config = _config(
            session="sendonly", framework="pts", mode="protocol", shards=2
        )

        async def scenario():
            async with ReportCollector(
                flush_reports=4096, high_water=8192
            ) as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                sent = await asyncio.wait_for(
                    client.send(labels, items, chunk_size=2048), 30
                )
                ingested = await client.close()
                return sent, ingested, collector.metrics.snapshot()

        sent, ingested, snapshot = run(scenario())
        assert sent == ingested == 60_000
        key = 'serve_backpressure_pause_total{session="sendonly"}'
        assert snapshot["counters"][key] >= 1  # the backlog did pause the client

    def test_single_report_per_user_protocol_message(self):
        config = _config(session="single")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    for user in range(10):
                        await client.send_one(user % 3, user % 32)
                    stats = await client.stats()
                ingested = await client.close()
                return stats, ingested

        stats, _ = run(scenario())
        assert stats["n_ingested"] == 10


class TestTopKOverTheWire:
    def test_round_by_round_mining_via_control_channel(self):
        c, d, per_round = 2, 16, 4000
        rng = np.random.default_rng(9)
        heavy = {0: 5, 1: 12}
        config = dict(
            session="miner", kind="topk", k=2, epsilon=6.0,
            n_classes=c, n_items=d, mode="simulate", seed=3,
        )

        def round_batch():
            labels = rng.integers(0, c, size=per_round)
            items = rng.integers(0, d, size=per_round)
            hot = rng.random(per_round) < 0.6
            items[hot] = np.vectorize(heavy.get)(labels[hot])
            return labels, items

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    stats = await client.stats()
                    rounds = stats["n_rounds"]
                    for _ in range(rounds):
                        labels, items = round_batch()
                        await client.send(labels, items)
                        state = await client.advance_round()
                    assert state["finished"]
                    return await client.topk()

        mined = run(scenario())
        assert mined[0][0] == heavy[0]
        assert mined[1][0] == heavy[1]

    def test_framework_queries_rejected_for_topk_session(self):
        config = dict(
            session="miner2", kind="topk", k=2, epsilon=2.0,
            n_classes=2, n_items=16, seed=1,
        )

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    with pytest.raises(ServeError, match="unknown query"):
                        await client.estimate()

        run(scenario())
