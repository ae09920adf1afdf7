"""Ledger edge cases the obs snapshot leans on: a loopback channel's
registry source (no transport), TransportMetrics snapshots taken while a
writer thread updates it, and zero-baseline Breakdown normalization."""

import json
import threading

from repro import obs
from repro.core.runtime import attach_skyway
from repro.exchange import GraphChannel, Loopback
from repro.jvm.jvm import JVM
from repro.simtime import Breakdown
from repro.transport.metrics import TransportMetrics

from tests.conftest import make_list, sample_classpath


class TestChannelObsSource:
    def test_loopback_source_is_json_safe(self):
        """The dict a channel registers is what the snapshot exports,
        JSON-safe as-is; on loopback it has no transport counters, and
        its breakdown carries both clocks' charges and the wire bytes."""
        sender = JVM("obs-src-send", classpath=sample_classpath())
        receiver = JVM("obs-src-recv", classpath=sample_classpath())
        attach_skyway(sender, [receiver])
        channel = GraphChannel(sender.skyway, Loopback(receiver.skyway),
                               destination="obs-src")
        try:
            fresh = channel.metrics()
            assert fresh["sends"] == fresh["wire_bytes"] == 0
            assert fresh["last_plan"] is None
            head = make_list(sender, range(8))
            channel.send([head])
            sender.set_field(head, "payload", 3)
            channel.send([head])
            d = channel.metrics()
            assert obs.registry().snapshot()["sources"][
                channel._obs_source] == d
        finally:
            channel.close()
        assert json.loads(json.dumps(d)) == d
        assert d["transport"] is None
        breakdown = d["breakdown"]
        assert breakdown["serialization"] > 0
        assert breakdown["deserialization"] > 0
        assert breakdown["bytes_written"] == d["wire_bytes"] > 0
        assert d["delta"]["epochs"] == 2
        assert d["delta"]["bytes_total"] == d["wire_bytes"]


class TestTransportMetricsMerge:
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
            chunks = src.as_dict()["chunks_sent"]
            assert chunks >= seen  # consistent, monotone snapshots
            seen = chunks
        t.join()
        assert src.as_dict()["chunks_sent"] == total


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
