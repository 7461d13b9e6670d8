"""The zero-allocation ingest fast lane: ring buffers, counting-sort
flushes, coalesced frame decode, and the epoch-cached query plane."""

import asyncio

import numpy as np
import pytest

from repro.exceptions import DomainError
from repro.serve import ReportClient, ReportCollector, protocol
from repro.serve.protocol import ServeError, WireError
from repro.serve.registry import HostedSession
from repro.serve.ringbuf import (
    FlushArena,
    MIN_RING_CAPACITY,
    ReportRing,
    _pow2_at_least,
)
from repro.stream.session import OnlineFrameworkSession


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _reader(*frames, coalesce=64):
    stream = asyncio.StreamReader()
    stream.feed_data(b"".join(frames))
    stream.feed_eof()
    return protocol.FrameReader(stream, coalesce=coalesce)


def _reports(n, seed=0, c=5, d=64):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, c, n).astype(np.int32),
        rng.integers(0, d, n).astype(np.int32),
    )


class TestReportRing:
    def test_append_consume_roundtrip_in_arrival_order(self):
        ring = ReportRing()
        labels, items = _reports(300)
        ring.append(labels[:200], items[:200])
        ring.append(labels[200:], items[200:])
        assert len(ring) == 300
        out_l = np.empty(300, dtype=np.int64)
        out_i = np.empty(300, dtype=np.int64)
        assert ring.consume(out_l, out_i) == 300
        assert len(ring) == 0
        np.testing.assert_array_equal(out_l, labels)
        np.testing.assert_array_equal(out_i, items)

    def test_wraparound_preserves_order(self):
        ring = ReportRing(capacity=MIN_RING_CAPACITY)
        cap = ring.capacity
        first_l, first_i = _reports(cap - 100, seed=1)
        ring.append(first_l, first_i)
        sink_l = np.empty(cap, dtype=np.int64)
        sink_i = np.empty(cap, dtype=np.int64)
        ring.consume(sink_l, sink_i)  # head now near the buffer's end
        # This append is forced across the wrap point (two slice writes).
        wrap_l, wrap_i = _reports(300, seed=2)
        ring.append(wrap_l, wrap_i)
        assert ring.capacity == cap  # wrapped, not regrown
        out_l = np.empty(300, dtype=np.int64)
        out_i = np.empty(300, dtype=np.int64)
        ring.consume(out_l, out_i)
        np.testing.assert_array_equal(out_l, wrap_l)
        np.testing.assert_array_equal(out_i, wrap_i)

    def test_regrow_at_capacity_boundary_linearises(self):
        ring = ReportRing(capacity=MIN_RING_CAPACITY)
        cap = ring.capacity
        pre_l, pre_i = _reports(cap - 10, seed=3)
        ring.append(pre_l, pre_i)
        sink = np.empty(cap, dtype=np.int64)
        ring.consume(sink, sink.copy())
        # Fill beyond physical capacity while the head sits mid-buffer:
        # the ring must double and keep every report in arrival order.
        big_l, big_i = _reports(cap + 50, seed=4)
        ring.append(big_l[:20], big_i[:20])
        ring.append(big_l[20:], big_i[20:])
        assert ring.capacity == 2 * cap
        assert len(ring) == cap + 50
        out_l = np.empty(cap + 50, dtype=np.int64)
        out_i = np.empty(cap + 50, dtype=np.int64)
        ring.consume(out_l, out_i)
        np.testing.assert_array_equal(out_l, big_l)
        np.testing.assert_array_equal(out_i, big_i)

    def test_regrow_races_a_wrap_boundary(self):
        """Regrow while the live window straddles the wrap point: the
        buffered reports sit as two physical segments (tail of the array
        + its start), and the linearising copy must stitch them back in
        arrival order before the new batch lands."""
        ring = ReportRing(capacity=MIN_RING_CAPACITY)
        cap = ring.capacity
        pre_l, pre_i = _reports(cap - 100, seed=5)
        ring.append(pre_l, pre_i)
        sink = np.empty(cap, dtype=np.int64)
        ring.consume(sink, sink.copy())  # head parked 100 short of the end
        # Buffer a batch across the wrap: 100 reports at the physical end,
        # 200 at the physical start.
        wrapped_l, wrapped_i = _reports(300, seed=6)
        ring.append(wrapped_l, wrapped_i)
        assert ring.capacity == cap  # wrapped in place, no regrow yet
        # Now outrun the capacity while still wrapped: the regrow must
        # linearise both segments in order, then take the new batch.
        burst_l, burst_i = _reports(cap, seed=7)
        ring.append(burst_l, burst_i)
        assert ring.capacity == 2 * cap
        assert len(ring) == 300 + cap
        out_l = np.empty(300 + cap, dtype=np.int64)
        out_i = np.empty(300 + cap, dtype=np.int64)
        ring.consume(out_l, out_i)
        np.testing.assert_array_equal(out_l, np.concatenate([wrapped_l, burst_l]))
        np.testing.assert_array_equal(out_i, np.concatenate([wrapped_i, burst_i]))

    def test_regrow_with_wrap_at_exact_segment_boundary(self):
        """The degenerate wrap: the live window ends exactly at the
        physical end of the array when the regrow hits, so the 'second
        segment' is empty — the copy must not read a stale word from the
        buffer start."""
        ring = ReportRing(capacity=MIN_RING_CAPACITY)
        cap = ring.capacity
        pre_l, pre_i = _reports(cap - 64, seed=8)
        ring.append(pre_l, pre_i)
        sink = np.empty(cap, dtype=np.int64)
        ring.consume(sink, sink.copy())  # head at cap - 64
        edge_l, edge_i = _reports(64, seed=9)
        ring.append(edge_l, edge_i)  # fills precisely to the array end
        big_l, big_i = _reports(cap, seed=10)
        ring.append(big_l, big_i)  # regrows with head+size == cap exactly
        out_l = np.empty(64 + cap, dtype=np.int64)
        out_i = np.empty(64 + cap, dtype=np.int64)
        ring.consume(out_l, out_i)
        np.testing.assert_array_equal(out_l, np.concatenate([edge_l, big_l]))
        np.testing.assert_array_equal(out_i, np.concatenate([edge_i, big_i]))

    def test_capacity_is_a_power_of_two(self):
        for requested in (1, 7, 1024, 1025, 100_000):
            ring = ReportRing(capacity=requested)
            cap = ring.capacity
            assert cap >= max(requested, MIN_RING_CAPACITY)
            assert cap & (cap - 1) == 0
        assert _pow2_at_least(3000) == 4096

    def test_strided_views_append_in_place(self):
        # The collector feeds strided int32 views decoded straight off
        # the wire; the ring must accept them without materialising.
        ring = ReportRing()
        flat = np.arange(20, dtype=np.int32)
        ring.append(flat[0::2], flat[1::2])
        out_l = np.empty(10, dtype=np.int64)
        out_i = np.empty(10, dtype=np.int64)
        ring.consume(out_l, out_i)
        np.testing.assert_array_equal(out_l, flat[0::2])
        np.testing.assert_array_equal(out_i, flat[1::2])


class TestFlushArena:
    def _sorted_reference(self, labels, items):
        order = np.argsort(labels, kind="stable")
        return labels[order].astype(np.int64), items[order].astype(np.int64)

    @pytest.mark.parametrize("n_classes", [1, 3, 5, 300, 70_000])
    def test_class_sort_matches_stable_reference(self, n_classes):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, n_classes, 2000).astype(np.int32)
        items = rng.integers(0, 50, 2000).astype(np.int32)
        ring = ReportRing()
        ring.append(labels, items)
        got_l, got_i = FlushArena().class_sort(ring, n_classes)
        ref_l, ref_i = self._sorted_reference(labels, items)
        assert got_l.dtype == np.int64 and got_i.dtype == np.int64
        np.testing.assert_array_equal(got_l, ref_l)
        np.testing.assert_array_equal(got_i, ref_i)
        assert len(ring) == 0  # the sort drains the ring

    def test_within_class_arrival_order_is_stable(self):
        # Tag items with their arrival index so stability is observable:
        # the exact order the old per-class list buffering produced.
        labels = np.array([2, 0, 2, 1, 0, 2, 1, 0], dtype=np.int32)
        items = np.arange(8, dtype=np.int32)
        ring = ReportRing()
        ring.append(labels[:5], items[:5])
        ring.append(labels[5:], items[5:])
        got_l, got_i = FlushArena().class_sort(ring, 3)
        np.testing.assert_array_equal(got_l, [0, 0, 0, 1, 1, 2, 2, 2])
        np.testing.assert_array_equal(got_i, [1, 4, 7, 3, 6, 0, 2, 5])

    def test_output_batches_are_fresh_not_arena_scratch(self):
        # Drain adapters consume flush batches asynchronously and the
        # drain log retains them forever: a later flush reusing the same
        # memory would corrupt already-submitted reports.
        arena = FlushArena()
        ring = ReportRing()
        first_l, first_i = _reports(500, seed=5)
        ring.append(first_l, first_i)
        out1_l, out1_i = arena.class_sort(ring, 5)
        keep_l, keep_i = out1_l.copy(), out1_i.copy()
        second_l, second_i = _reports(500, seed=6)
        ring.append(second_l, second_i)
        out2_l, out2_i = arena.class_sort(ring, 5)
        assert not np.shares_memory(out1_l, out2_l)
        assert not np.shares_memory(out1_i, out2_i)
        np.testing.assert_array_equal(out1_l, keep_l)
        np.testing.assert_array_equal(out1_i, keep_i)


class TestFrameReader:
    def test_coalesces_consecutive_reports_frames(self):
        columns = [_reports(40, seed=s) for s in range(3)]
        frames = [protocol.encode_reports(l, i) for l, i in columns]
        query = protocol.query_frame("estimate")

        async def scenario():
            reader = _reader(*frames, query)
            frame_type, bodies = await reader.read_batch()
            assert frame_type == protocol.REPORTS
            assert len(bodies) == 3
            for (ref_l, ref_i), body in zip(columns, bodies):
                got_l, got_i = protocol.decode_reports_view(body)
                np.testing.assert_array_equal(got_l, ref_l)
                np.testing.assert_array_equal(got_i, ref_i)
            del bodies  # release buffer views before the next read
            frame_type, body = await reader.read_batch()
            assert frame_type == protocol.QUERY
            assert protocol.decode_json(body) == {"query": "estimate"}

        run(scenario())

    def test_coalesce_cap_bounds_one_batch(self):
        frames = [
            protocol.encode_reports(*_reports(10, seed=s)) for s in range(5)
        ]

        async def scenario():
            reader = _reader(*frames, coalesce=2)
            sizes = []
            for _ in range(3):
                frame_type, bodies = await reader.read_batch()
                assert frame_type == protocol.REPORTS
                sizes.append(len(bodies))
                del bodies
            return sizes

        assert run(scenario()) == [2, 2, 1]

    def test_control_frame_stops_the_batch(self):
        reports = protocol.encode_reports(*_reports(10))
        bye = protocol.bye_frame()

        async def scenario():
            reader = _reader(reports, bye, reports)
            frame_type, bodies = await reader.read_batch()
            assert (frame_type, len(bodies)) == (protocol.REPORTS, 1)
            del bodies
            frame_type, body = await reader.read_batch()
            assert (frame_type, body) == (protocol.BYE, b"")
            frame_type, bodies = await reader.read_batch()
            assert (frame_type, len(bodies)) == (protocol.REPORTS, 1)

        run(scenario())

    def test_malformed_frame_surfaces_on_its_own_read(self):
        good = protocol.encode_reports(*_reports(10))
        import struct

        bogus = struct.pack("!I", 1) + bytes((0x7F,))

        async def scenario():
            reader = _reader(good, bogus)
            frame_type, bodies = await reader.read_batch()
            assert (frame_type, len(bodies)) == (protocol.REPORTS, 1)
            del bodies
            with pytest.raises(WireError):
                await reader.read_batch()

        run(scenario())

    def test_eof_mid_frame_raises_incomplete_read(self):
        frame = protocol.encode_reports(*_reports(10))

        async def scenario():
            reader = _reader(frame[:-3])
            with pytest.raises(asyncio.IncompleteReadError):
                await reader.read_batch()

        run(scenario())

    def test_single_frame_compat_read(self):
        labels, items = _reports(25)

        async def scenario():
            reader = _reader(protocol.encode_reports(labels, items))
            frame_type, body = await reader.read_frame()
            assert frame_type == protocol.REPORTS
            got_l, got_i = protocol.decode_reports(body)
            np.testing.assert_array_equal(got_l, labels)
            np.testing.assert_array_equal(got_i, items)

        run(scenario())


class TestDecodeSemantics:
    def _body(self, labels, items):
        return protocol.encode_reports(labels, items)[5:]  # strip len+type

    def test_decode_reports_owns_writable_columns(self):
        # The contract downstream consumers rely on: exactly one copy
        # per column (strided wire view -> contiguous int64), so the
        # results own their memory and are freely writable.
        labels, items = _reports(50)
        body = self._body(labels, items)
        got_l, got_i = protocol.decode_reports(body)
        for column in (got_l, got_i):
            assert column.flags.writeable
            assert column.flags.c_contiguous
            assert column.base is None  # owns its data: the single copy
            assert not np.shares_memory(
                column, np.frombuffer(body, dtype=np.uint8)
            )
        got_l[:] = -1  # mutation must not corrupt the wire body
        re_l, re_i = protocol.decode_reports(body)
        np.testing.assert_array_equal(re_l, labels)
        np.testing.assert_array_equal(re_i, items)

    def test_decode_reports_view_is_zero_copy(self):
        labels, items = _reports(50, seed=1)
        body = self._body(labels, items)
        view_l, view_i = protocol.decode_reports_view(body)
        np.testing.assert_array_equal(view_l, labels)
        np.testing.assert_array_equal(view_i, items)
        backing = np.frombuffer(body, dtype=np.uint8)
        assert np.shares_memory(view_l, backing)
        assert np.shares_memory(view_i, backing)
        # bytes bodies are immutable; the views must refuse writes too.
        assert not view_l.flags.writeable
        assert not view_i.flags.writeable


class TestReportsEncoder:
    def test_pack_matches_encode_reports_framing(self):
        labels, items = _reports(100, seed=7)
        packed = b"".join(
            protocol.ReportsEncoder().pack(labels, items, chunk_size=17)
        )
        reference = b"".join(
            protocol.encode_reports(labels[span], items[span])
            for span in protocol.chunk_spans(labels.size, 17)
        )
        assert packed == reference

    def test_tiny_arena_regrows_to_fit_a_chunk(self):
        labels, items = _reports(64, seed=8)
        encoder = protocol.ReportsEncoder(arena_bytes=16)
        packed = b"".join(encoder.pack(labels, items, chunk_size=16))
        reference = b"".join(
            protocol.encode_reports(labels[span], items[span])
            for span in protocol.chunk_spans(labels.size, 16)
        )
        assert packed == reference

    def test_empty_population_yields_one_empty_payload(self):
        payloads = list(protocol.ReportsEncoder().pack([], []))
        assert payloads == [b""]


def _topk_config(**overrides):
    config = dict(
        session="fastlane-topk",
        kind="topk",
        epsilon=2.0,
        n_classes=3,
        n_items=64,
        k=4,
        seed=11,
    )
    config.update(overrides)
    return config


class TestEpochCachedQueries:
    def _config(self, **overrides):
        config = dict(
            session="fastlane",
            framework="pts",
            epsilon=4.0,
            n_classes=3,
            n_items=32,
            mode="simulate",
            seed=13,
            shards=2,
        )
        config.update(overrides)
        return config

    def _cache_counters(self, collector, session_id):
        snapshot = collector.metrics.snapshot()["counters"]
        hits = snapshot.get(
            f'serve_query_cache_hits_total{{session="{session_id}"}}', 0
        )
        misses = snapshot.get(
            f'serve_query_cache_misses_total{{session="{session_id}"}}', 0
        )
        return hits, misses

    def test_repeated_query_hits_cache_and_matches(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, 2000)
        items = rng.integers(0, 32, 2000)
        config = self._config()

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    first = await client.estimate()
                    second = await client.estimate()
                    hits, misses = self._cache_counters(collector, "fastlane")
                return first, second, hits, misses

        first, second, hits, misses = run(scenario())
        np.testing.assert_array_equal(first, second)
        assert misses == 1
        assert hits == 1

    def test_failed_drain_settles_cache_and_pending(self, monkeypatch):
        """One shard batch raises: the query that drains it reports the
        error, and after it a repeated estimate answers from cache and
        ``stats`` reads no pending reports."""
        ingest = OnlineFrameworkSession.ingest_batch
        raised = []

        def fail_once(self, labels, items=None):
            if not raised:
                raised.append(True)
                raise DomainError("injected shard failure")
            return ingest(self, labels, items)

        monkeypatch.setattr(OnlineFrameworkSession, "ingest_batch", fail_once)
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, 2000)
        items = rng.integers(0, 32, 2000)
        config = self._config(session="fastlane-reject")

        async def scenario():
            # 500-report sub-batches: the failing one cannot be all 2000.
            async with ReportCollector(flush_reports=500) as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    with pytest.raises(ServeError, match="injected"):
                        await client.estimate()
                    first = await client.estimate()
                    second = await client.estimate()
                    stats = await client.stats()
                    hits, misses = self._cache_counters(
                        collector, "fastlane-reject"
                    )
                return first, second, stats, hits, misses

        first, second, stats, hits, misses = run(scenario())
        np.testing.assert_array_equal(first, second)
        assert (hits, misses) == (1, 1)
        assert stats["n_accepted"] == 2000
        assert stats["pending"] == 0
        assert 0 < stats["n_ingested"] < 2000

    def test_new_reports_invalidate_the_cache(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, 3000)
        items = rng.integers(0, 32, 3000)
        config = self._config(session="fastlane-inval")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels[:1500], items[:1500])
                    before = await client.estimate()
                    await client.estimate()  # the cache hit
                    await client.send(labels[1500:], items[1500:])
                    after = await client.estimate()  # must recompute
                    hits, misses = self._cache_counters(
                        collector, "fastlane-inval"
                    )
                return before, after, hits, misses

        before, after, hits, misses = run(scenario())
        assert misses == 2  # initial + post-ingest recompute
        assert hits == 1
        # 1500 more reports folded in: the recomputed estimate moved.
        assert not np.array_equal(before, after)

    def test_advance_round_invalidates_topk_cache(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, 2000)
        items = rng.integers(0, 64, 2000)
        config = _topk_config()

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    await client.topk()
                    await client.topk()  # hit
                    await client.advance_round()
                    await client.topk()  # epoch moved: recompute
                    hits, misses = self._cache_counters(
                        collector, "fastlane-topk"
                    )
                return hits, misses

        hits, misses = run(scenario())
        assert misses == 2
        assert hits == 1

    def test_distinct_specs_cache_separately(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, 2000)
        items = rng.integers(0, 64, 2000)
        config = _topk_config(session="fastlane-specs")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    a1 = await client.topk(2)
                    b1 = await client.topk(4)
                    a2 = await client.topk(2)
                    b2 = await client.topk(4)
                    hits, misses = self._cache_counters(
                        collector, "fastlane-specs"
                    )
                return a1, b1, a2, b2, hits, misses

        a1, b1, a2, b2, hits, misses = run(scenario())
        assert a1 == a2 and b1 == b2
        assert misses == 2
        assert hits == 2

    def test_cache_hit_does_not_wait_for_late_drained_callbacks(
        self, monkeypatch
    ):
        """A query's drain settles ``n_drained`` before the query answers,
        but the loop-side in-flight count only drops when each future's
        done callback hops back to the loop, and ``concurrent.futures``
        runs those callbacks after it wakes the drain's waiter.  Holding
        every callback back past the repeated query must not turn that
        query into a cache miss."""
        held = []

        def held_on_drained(self, loop, n, _future):
            held.append((self, n))

        monkeypatch.setattr(HostedSession, "_on_drained", held_on_drained)
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 3, 2000)
        items = rng.integers(0, 32, 2000)
        config = self._config(session="fastlane-late")

        async def scenario():
            async with ReportCollector() as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items)
                    first = await client.estimate()
                    second = await client.estimate()
                    hits, misses = self._cache_counters(
                        collector, "fastlane-late"
                    )
                    session = collector.registry.get("fastlane-late")
                    held_back = session.ingest_stats()["inflight"]
                    for _ in range(500):  # callbacks land on worker threads
                        if sum(n for _, n in held) == labels.size:
                            break
                        await asyncio.sleep(0.01)
                    for hosted, n in list(held):
                        hosted._mark_drained(n)
                    released = session.ingest_stats()["inflight"]
            return first, second, hits, misses, held_back, released

        first, second, hits, misses, held_back, released = run(scenario())
        assert held_back == labels.size  # the decrements really were late
        assert released == 0
        np.testing.assert_array_equal(first, second)
        assert misses == 1
        assert hits == 1


class TestTrickleFlusherSweep:
    def test_trickle_drains_within_flush_interval(self):
        """Buffers far below ``flush_reports`` must still drain on the
        periodic sweep, and the sweep's drain must invalidate the epoch
        cache exactly like a threshold flush."""
        rng = np.random.default_rng(7)
        config = dict(
            session="trickle",
            framework="pts",
            epsilon=4.0,
            n_classes=3,
            n_items=32,
            mode="simulate",
            seed=19,
            shards=1,
        )

        async def scenario():
            async with ReportCollector(flush_interval=0.02) as collector:
                hosted_getter = collector.registry.get
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(
                        rng.integers(0, 3, 50), rng.integers(0, 32, 50)
                    )
                    baseline = await client.estimate()
                    await client.estimate()  # warm the cache
                    # A trickle far below flush_reports (65536 default):
                    # only the periodic sweep can drain it.
                    await client.send(
                        rng.integers(0, 3, 40), rng.integers(0, 32, 40)
                    )
                    hosted = hosted_getter("trickle")
                    loop = asyncio.get_running_loop()
                    deadline = loop.time() + 50 * collector.flush_interval
                    # First wait until the trickle has actually arrived
                    # (send returns once written to the socket), then
                    # require the sweep to flush and drain it — without
                    # any query forcing a flush on its behalf.
                    def settled():
                        stats = hosted.ingest_stats()
                        return stats["n_accepted"] == 90 and stats["pending"] == 0
                    while not settled():
                        assert (
                            loop.time() < deadline
                        ), f"sweep did not drain in time: {hosted.ingest_stats()}"
                        await asyncio.sleep(collector.flush_interval / 4)
                    # The sweep submitted new reports: the stored epoch is
                    # stale and the next estimate must recompute.
                    swept = await client.estimate()
                    hits, misses = (
                        collector.metrics.snapshot()["counters"].get(
                            'serve_query_cache_hits_total{session="trickle"}',
                            0,
                        ),
                        collector.metrics.snapshot()["counters"].get(
                            'serve_query_cache_misses_total{session="trickle"}',
                            0,
                        ),
                    )
                return baseline, swept, hits, misses

        baseline, swept, hits, misses = run(scenario())
        # The sweep landed all 90 reports and invalidated the cache: the
        # post-sweep estimate was recomputed against the drained state.
        assert misses == 2
        assert hits == 1
        assert not np.array_equal(baseline, swept)
