"""Ledger edge cases the obs snapshot leans on: loopback ExchangeMetrics
(no transport), concurrent TransportMetrics merging, and zero-baseline
Breakdown normalization."""

import json
import threading

import pytest

from repro.delta import ChannelStats
from repro.exchange.metrics import ExchangeMetrics
from repro.simtime import Breakdown, Category
from repro.transport.metrics import TransportMetrics


class TestExchangeMetricsLoopback:
    def test_build_with_no_transport(self):
        metrics = ExchangeMetrics.build(
            substrate="loopback",
            destination="worker-0",
            channel_id=7,
            capabilities={"delta": True, "kernel": True},
            sends=2,
            wire_bytes=123,
            nack_recoveries=0,
            sim_totals={Category.SERIALIZATION: 0.5,
                        Category.DESERIALIZATION: 0.25},
            stats=ChannelStats(epochs=2, full_sends=1, delta_sends=1),
            transport=None,
        )
        d = metrics.as_dict()
        assert d["transport"] is None
        assert d["breakdown"]["serialization"] == 0.5
        assert d["breakdown"]["total"] == 0.75
        assert d["breakdown"]["bytes_written"] == 123.0
        assert d["delta"]["epochs"] == 2
        json.dumps(d)  # the registry source must be JSON-safe as-is

    def test_to_json_round_trips(self):
        metrics = ExchangeMetrics.build(
            substrate="loopback", destination="d", channel_id=1,
            capabilities={}, sends=0, wire_bytes=0, nack_recoveries=0,
            sim_totals={}, stats=ChannelStats(),
        )
        assert json.loads(metrics.to_json())["wire_bytes"] == 0


class TestTransportMetricsMerge:
    def test_concurrent_merges_are_exact(self):
        target = TransportMetrics()
        parts = []
        for _ in range(8):
            part = TransportMetrics()
            for _ in range(100):
                part.note_frame_sent(3)
            part.add_phase("send", 0.001)
            parts.append(part)
        threads = [threading.Thread(target=target.merge, args=(p,))
                   for p in parts]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.frames_sent == 800
        assert target.bytes_sent == 2400
        assert target.phases["send"] == pytest.approx(0.008)

    def test_merge_while_source_still_updating(self):
        src = TransportMetrics()
        total = 5000

        def writer():
            for _ in range(total):
                src.note_chunk_sent()

        t = threading.Thread(target=writer)
        t.start()
        seen = 0
        while t.is_alive():
            agg = TransportMetrics.merged([src])
            assert agg.chunks_sent >= seen  # consistent, monotone snapshots
            seen = agg.chunks_sent
        t.join()
        assert TransportMetrics.merged([src]).chunks_sent == total

    def test_merge_into_self_rejected(self):
        metrics = TransportMetrics()
        with pytest.raises(ValueError):
            metrics.merge(metrics)


class TestBreakdownZeroBaseline:
    def test_zero_valued_baseline_categories(self):
        baseline = Breakdown()  # all categories zero
        mine = Breakdown(serialization=1.0, bytes_written=10)
        ratios = mine.normalized_to(baseline)
        assert ratios["ser"] == float("inf")
        assert ratios["size"] == float("inf")
        assert ratios["write"] == 0.0  # 0/0 reads as "no change"
        assert ratios["des"] == 0.0

    def test_zero_over_zero_everywhere(self):
        zero = Breakdown()
        assert all(v == 0.0 for v in zero.normalized_to(zero).values())

    def test_mixed_baseline(self):
        baseline = Breakdown(serialization=2.0, bytes_written=100)
        mine = Breakdown(serialization=1.0, write_io=0.5, bytes_written=50)
        ratios = mine.normalized_to(baseline)
        assert ratios["ser"] == 0.5
        assert ratios["size"] == 0.5
        assert ratios["write"] == float("inf")
