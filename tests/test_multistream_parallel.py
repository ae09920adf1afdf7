"""Tests for the multi-stream parallel send (paper §4.2, transport edition).

In-process tests cover the baddr crossover mechanics (two streams with
distinct thread_ids reaching one shared subgraph, each getting its own
clone through the per-stream shared table) and the 5-byte relative-address
ceiling; one spawned-worker test proves N concurrent socket streams land
the same object graphs as a serial send, kernels on or off, with the
streams' wire counters merged into the report.
"""

import pytest

from repro.core.runtime import attach_skyway
from repro.core.sender import (
    _REL_BITS,
    baddr_relative,
    baddr_sid,
    baddr_thread,
    compose_baddr,
)
from repro.jvm.jvm import JVM
from repro.transport.errors import TransportError
from repro.transport.parallel import ParallelGraphSender, shard_roots

from tests.conftest import make_list


# ---------------------------------------------------------------------------
# root sharding
# ---------------------------------------------------------------------------

class TestShardRoots:
    def test_round_robin_deal(self):
        assert shard_roots([1, 2, 3, 4, 5], 2) == [[1, 3, 5], [2, 4]]

    def test_more_streams_than_roots(self):
        assert shard_roots([1], 3) == [[1], [], []]

    def test_zero_streams_rejected(self):
        with pytest.raises(ValueError):
            shard_roots([1], 0)


# ---------------------------------------------------------------------------
# baddr crossover between two in-process streams
# ---------------------------------------------------------------------------

class TestTwoStreamCrossover:
    @pytest.fixture
    def setup(self, classpath):
        src = JVM("ms-src", classpath=classpath)
        dst = JVM("ms-dst", classpath=classpath)
        attach_skyway(src, [dst])
        return src, dst

    def test_shared_subgraph_cloned_once_per_stream(self, setup):
        """Roots on two streams share a chain: stream 2 sees stream 1's
        baddrs (foreign thread, same sID), routes every shared node through
        its hash table, and ships its own complete copy."""
        src, _ = setup
        shared = make_list(src, range(20))
        r1 = src.new_instance("ListNode")
        src.set_field(r1, "payload", 101)
        src.set_field(r1, "next", shared)
        r2 = src.new_instance("ListNode")
        src.set_field(r2, "payload", 202)
        src.set_field(r2, "next", shared)

        src.skyway.shuffle_start()
        s1 = src.skyway.new_sender("a", thread_id=1)
        s1.write_object(r1)
        s2 = src.skyway.new_sender("b", thread_id=2)
        s2.write_object(r2)

        # Both streams carry root + all 20 shared nodes: one clone each.
        assert s1.objects_sent == 21
        assert s2.objects_sent == 21
        # Stream 1 owns every baddr; stream 2 fell back for the 20 shared
        # nodes (its own root was unclaimed and stamped normally).
        assert len(s1._shared_table) == 0
        assert len(s2._shared_table) == 20

    def test_foreign_baddr_not_mistaken_for_backref(self, setup):
        """A root already claimed by stream 1 still serializes fully on
        stream 2 — the thread field of the baddr word keeps the streams'
        backward references apart."""
        src, _ = setup
        head = make_list(src, [7, 8, 9])
        src.skyway.shuffle_start()
        s1 = src.skyway.new_sender("a", thread_id=1)
        s1.write_object(head)
        word = src.heap.read_baddr(head)
        assert baddr_thread(word) == 1 and baddr_sid(word) == src.skyway.sid
        s2 = src.skyway.new_sender("b", thread_id=2)
        s2.write_object(head)
        assert s2.objects_sent == 3
        # Second visit on stream 2 is now a shared-table hit, not a clone.
        again = s2.write_object(head)
        assert again == s2._shared_table[head]
        assert s2.objects_sent == 3


# ---------------------------------------------------------------------------
# compose_baddr: the 5-byte relative-address ceiling
# ---------------------------------------------------------------------------

class TestComposeBaddrOverflow:
    def test_roundtrip_across_the_range(self):
        # Probe the whole 40-bit range including both edges: every field
        # must survive composition unscathed.
        for rel in (0, 1, 0xFF, 0x10000, (1 << 39), (1 << _REL_BITS) - 1):
            for thread in (0, 1, 0xFF):
                for sid in (1, 0x7FFF, 0xFFFF):
                    word = compose_baddr(sid, thread, rel)
                    assert baddr_sid(word) == sid
                    assert baddr_thread(word) == thread
                    assert baddr_relative(word) == rel

    def test_five_byte_overflow_rejected(self):
        for excess in (1 << _REL_BITS, (1 << _REL_BITS) + 8, 1 << 63):
            with pytest.raises(ValueError, match="5 bytes"):
                compose_baddr(1, 1, excess)


# ---------------------------------------------------------------------------
# parallel send over real sockets
# ---------------------------------------------------------------------------

class TestParallelGraphSender:
    def test_clients_must_share_a_runtime(self, classpath):
        from repro.transport.client import WorkerClient

        a = JVM("pa", classpath=classpath)
        b = JVM("pb", classpath=classpath)
        attach_skyway(a, [])
        attach_skyway(b, [])
        with pytest.raises(TransportError, match="one driver runtime"):
            ParallelGraphSender([
                WorkerClient(a.skyway, "127.0.0.1", 1),
                WorkerClient(b.skyway, "127.0.0.1", 1),
            ])
        with pytest.raises(ValueError):
            ParallelGraphSender([])

    def test_parallel_matches_serial_and_interpreted(self, spawned_worker,
                                                     transport_driver):
        """Three streams to one worker: per-stream digests must be stable
        across kernel/interpreted senders, the shared chain is cloned
        once per stream (roots + 3 x chain = total objects), and each
        report carries the streams' wire counters merged into one."""
        from repro.transport.client import WorkerClient

        runtime = transport_driver
        jvm = runtime.jvm
        shared = make_list(jvm, range(50))
        pins = [jvm.pin(shared)]
        roots = []
        for i in range(9):
            node = jvm.new_instance("ListNode")
            jvm.set_field(node, "payload", 1000 + i)
            jvm.set_field(node, "next", shared)
            pin = jvm.pin(node)
            pins.append(pin)
            roots.append(pin.address)

        clients = [
            WorkerClient(runtime, spawned_worker.host,
                         spawned_worker.port).connect()
            for _ in range(3)
        ]
        try:
            fan = ParallelGraphSender(clients)
            kernel_report = fan.send(roots)
            runtime.use_kernels = False
            interp_report = fan.send(roots)
            runtime.use_kernels = True
        finally:
            for client in clients:
                client.close()

        for report in (kernel_report, interp_report):
            # 9 roots + each of 3 streams clones the 50-node chain once.
            assert report.total_objects == 9 + 3 * 50
            assert [s.thread_id for s in report.streams] == [0, 1, 2]
            assert [s.roots for s in report.streams] == [3, 3, 3]
            assert report.transport is not None
            merged = report.transport.as_dict()
            assert merged["bytes_sent"] > 0
            assert report.as_dict()["transport"] == merged
        assert kernel_report.digests == interp_report.digests
        assert len(set(kernel_report.digests)) == 3  # distinct root shards
