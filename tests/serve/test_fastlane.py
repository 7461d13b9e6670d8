"""The zero-allocation ingest fast lane: ring buffers, arrival-order
flushes, coalesced frame decode, and queries over drained state."""

import asyncio

import numpy as np
import pytest

from repro.exceptions import DomainError
from repro.obs.metrics import MetricsRegistry
from repro.serve import ReportClient, ReportCollector, protocol
from repro.serve.protocol import ServeError, WireError
from repro.serve.registry import HostedSession, SessionRegistry
from repro.serve.ringbuf import MIN_RING_CAPACITY, ReportRing, _pow2_at_least
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


def _body(labels, items):
    return protocol.encode_reports(labels, items)[5:]  # strip len+type


class TestHostedFlush:
    """``HostedSession.flush`` copies the ring's window out once, in
    arrival order, into fresh ``int64`` columns cut at ``flush_reports``."""

    def _flush_rounds(
        self, rounds, n_classes=5, n_items=64, flush_reports=65_536, metrics=None
    ):
        """Buffer each round's frames and flush them, then settle.

        Returns the (closed) hosted session and each flush's count.
        """
        registry = SessionRegistry(
            record=True, flush_reports=flush_reports, metrics=metrics
        )
        hosted, _ = registry.open(
            dict(
                session="flush",
                framework="ptj",
                epsilon=2.0,
                n_classes=n_classes,
                n_items=n_items,
                seed=3,
            )
        )

        async def scenario():
            flushed = []
            for frames in rounds:
                hosted.buffer_frames([_body(l, i) for l, i in frames])
                flushed.append(hosted.flush())
            await hosted.settle()
            return flushed

        try:
            return hosted, run(scenario())
        finally:
            registry.close()

    @pytest.mark.parametrize("n_classes", [1, 3, 5, 300, 70_000])
    def test_flush_matches_arrival_order_reference(self, n_classes):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, n_classes, 2000).astype(np.int32)
        items = rng.integers(0, 4, 2000).astype(np.int32)
        frames = [(labels[:700], items[:700]), (labels[700:], items[700:])]
        hosted, flushed = self._flush_rounds(
            [frames], n_classes=n_classes, n_items=4
        )
        assert flushed == [2000]
        assert hosted.ingest_stats()["buffered"] == 0  # the flush drains the ring
        [(_, got_l, got_i)] = hosted.drain_log
        assert got_l.dtype == np.int64 and got_i.dtype == np.int64
        np.testing.assert_array_equal(got_l, labels)
        np.testing.assert_array_equal(got_i, items)

    def test_flush_cuts_flush_reports_sub_batches(self):
        labels, items = _reports(1000, seed=3)
        frames = [(labels[:450], items[:450]), (labels[450:], items[450:])]
        hosted, flushed = self._flush_rounds([frames], flush_reports=300)
        assert flushed == [1000]
        log = hosted.drain_log
        assert [entry[1].size for entry in log] == [300, 300, 300, 100]
        np.testing.assert_array_equal(
            np.concatenate([entry[1] for entry in log]), labels
        )
        np.testing.assert_array_equal(
            np.concatenate([entry[2] for entry in log]), items
        )

    def test_flush_keeps_arrival_order_across_the_ring_wrap(self):
        # The ring holds max(2 * flush_reports, 8192) reports: after 8000,
        # the second round's window straddles the physical end.
        first = _reports(8000, seed=4)
        second = [_reports(250, seed=5), _reports(250, seed=6)]
        hosted, flushed = self._flush_rounds(
            [[first], second], flush_reports=4096
        )
        assert flushed == [8000, 500]
        assert hosted._ring.capacity == 8192  # wrapped in place, not regrown
        (_, got_l, got_i) = hosted.drain_log[-1]
        np.testing.assert_array_equal(
            got_l, np.concatenate([second[0][0], second[1][0]])
        )
        np.testing.assert_array_equal(
            got_i, np.concatenate([second[0][1], second[1][1]])
        )

    def test_output_batches_are_fresh_not_ring_views(self):
        # Drain adapters consume flush batches on worker threads and the
        # drain log keeps them: the ring reusing its slots for later
        # reports must not reach already-submitted batches.
        # Three 4000-report flushes lap the 8192-slot ring: the third
        # writes over the slots the first was copied out of.
        sent = [_reports(4000, seed=s) for s in (5, 6, 7)]
        hosted, flushed = self._flush_rounds(
            [[batch] for batch in sent], flush_reports=4096
        )
        assert hosted._ring.capacity == 8192
        assert flushed == [4000, 4000, 4000]
        log = hosted.drain_log
        assert len(log) == 3
        for (_, got_l, got_i), (ref_l, ref_i) in zip(log, sent):
            np.testing.assert_array_equal(got_l, ref_l)
            np.testing.assert_array_equal(got_i, ref_i)
            assert not np.shares_memory(got_l, hosted._ring._labels)
            assert not np.shares_memory(got_i, hosted._ring._items)
        assert not np.shares_memory(log[0][1], log[2][1])
        assert not np.shares_memory(log[0][2], log[2][2])

    def test_empty_flush_submits_nothing(self):
        empty = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))
        hosted, flushed = self._flush_rounds([[], [empty]])
        assert flushed == [0, 0]
        assert hosted.drain_log == []
        stats = hosted.ingest_stats()
        assert stats["n_accepted"] == stats["n_submitted"] == 0

    def test_flush_times_the_copy_and_counts_the_reports(self):
        metrics = MetricsRegistry(enabled=True)
        rounds = [[_reports(700, seed=7)], [], [_reports(300, seed=8)]]
        _, flushed = self._flush_rounds(rounds, metrics=metrics)
        assert flushed == [700, 0, 300]
        histograms = metrics.snapshot()["histograms"]
        # One timed copy per flush that found reports; the empty one
        # returns before the span.
        assert histograms['serve_flush_sort_seconds{session="flush"}']["count"] == 2
        sizes = histograms['serve_flush_reports{session="flush"}']
        assert (sizes["count"], sizes["sum"]) == (2, 1000)

    def test_ingest_stats_reconcile_after_a_clean_drain(self):
        labels, items = _reports(1200, seed=9)
        rounds = [[(labels[:800], items[:800])], [(labels[800:], items[800:])]]
        hosted, _ = self._flush_rounds(rounds, flush_reports=500)
        stats = hosted.ingest_stats()
        assert stats["buffered"] == 0
        assert stats["n_accepted"] == stats["n_submitted"] == 1200
        assert (stats["n_drained"], stats["n_rejected"]) == (1200, 0)


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

    def test_collector_coalesce_cap_is_not_an_argument(self):
        # The collector reads with the reader's fixed cap of 64 frames.
        with pytest.raises(TypeError, match="coalesce_frames"):
            ReportCollector(coalesce_frames=8)

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


class TestArrivalOrderFlush:
    """A flush hands the drain the ring's window in arrival order, so one
    connection's stream reads back from the drain log exactly as sent."""

    @pytest.mark.parametrize(
        "kind,shards",
        [("framework", 1), ("framework", 2), ("topk", None)],
        ids=["framework-1-shard", "framework-2-shards", "topk"],
    )
    def test_drain_log_concatenates_to_the_sent_stream(self, kind, shards):
        labels, items = _reports(5000, seed=12, c=3, d=64)
        if kind == "topk":
            config = _topk_config(session="arrival-topk")
        else:
            config = dict(
                session=f"arrival-{shards}",
                framework="pts",
                epsilon=2.0,
                n_classes=3,
                n_items=64,
                seed=5,
                shards=shards,
            )

        async def scenario():
            async with ReportCollector(
                record=True, flush_reports=512
            ) as collector:
                client = await ReportClient.connect(
                    collector.host, collector.port, **config
                )
                async with client:
                    await client.send(labels, items, chunk_size=300)
                    await client.stats()  # flushes and drains every report
                return list(collector.registry.get(config["session"]).drain_log)

        log = run(scenario())
        assert len(log) > 1
        np.testing.assert_array_equal(
            np.concatenate([entry[1] for entry in log]), labels
        )
        np.testing.assert_array_equal(
            np.concatenate([entry[2] for entry in log]), items
        )


class TestDrainedQueries:
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

    def test_repeated_query_matches(self):
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
                histograms = collector.metrics.snapshot()["histograms"]
                return first, second, histograms

        first, second, histograms = run(scenario())
        np.testing.assert_array_equal(first, second)
        # Both queries drained and ran the estimator on a worker.
        assert histograms['serve_query_seconds{session="fastlane"}']["count"] == 2

    def test_failed_drain_settles_pending(self, monkeypatch):
        """One shard batch raises: the query that drains it reports the
        error, and after it a repeated estimate answers the same state,
        ``stats`` reads no pending reports, and the STATS frame accounts
        for every submitted report as drained or rejected."""
        ingest = OnlineFrameworkSession.ingest_batch
        raised = []

        def fail_once(self, labels, items=None):
            if not raised:
                batch = labels if items is None else (labels, items)
                raised.append(len(batch[0]))
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
                    live = await client.server_stats()
                return first, second, stats, live

        first, second, stats, live = run(scenario())
        np.testing.assert_array_equal(first, second)
        assert stats["n_accepted"] == 2000
        assert stats["pending"] == 0
        assert 0 < stats["n_ingested"] < 2000
        [session] = live["sessions"]
        assert session["n_submitted"] == 2000
        assert session["n_rejected"] == raised[0]
        assert session["n_drained"] + session["n_rejected"] == 2000

    def test_new_reports_reach_the_next_query(self):
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
                    await client.estimate()
                    await client.send(labels[1500:], items[1500:])
                    after = await client.estimate()
                return before, after

        before, after = run(scenario())
        # 1500 more reports folded in: the next estimate moved.
        assert not np.array_equal(before, after)

    def test_advance_round_reaches_the_next_topk(self):
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
                    state = await client.advance_round()
                    served = await client.topk()
                    miner = collector.registry.get("fastlane-topk")._drain.target
                    return state, served, miner.round, miner.topk()

        state, served, round_after, live = run(scenario())
        assert state["round"] == round_after == 1
        # The answer after the advance ranks the advanced miner's frontier.
        assert served == live

    def test_distinct_specs_answer_separately(self):
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
                return a1, b1, a2, b2

        a1, b1, a2, b2 = run(scenario())
        assert a1 == a2 and b1 == b2
        assert all(len(ids) == 2 for ids in a1.values())
        assert all(len(ids) == 4 for ids in b1.values())

    def test_query_does_not_wait_for_late_drained_callbacks(self, monkeypatch):
        """A query's drain settles ``n_drained`` before the query answers,
        but the loop-side in-flight count only drops when each future's
        done callback hops back to the loop, and ``concurrent.futures``
        runs those callbacks after it wakes the drain's waiter.  Holding
        every callback back past the repeated query must not stall it or
        change its answer."""
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
                    session = collector.registry.get("fastlane-late")
                    held_back = session.ingest_stats()["inflight"]
                    for _ in range(500):  # callbacks land on worker threads
                        if sum(n for _, n in held) == labels.size:
                            break
                        await asyncio.sleep(0.01)
                    for hosted, n in list(held):
                        hosted._mark_drained(n)
                    released = session.ingest_stats()["inflight"]
            return first, second, held_back, released

        first, second, held_back, released = run(scenario())
        assert held_back == labels.size  # the decrements really were late
        assert released == 0
        np.testing.assert_array_equal(first, second)


class TestTrickleFlusherSweep:
    def test_trickle_drains_within_flush_interval(self):
        """Buffers far below ``flush_reports`` must still drain on the
        periodic sweep, and the next query must see the swept reports."""
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
                    swept = await client.estimate()
                return baseline, swept

        baseline, swept = run(scenario())
        # The sweep landed all 90 reports: the post-sweep estimate was
        # computed against the drained state.
        assert not np.array_equal(baseline, swept)
