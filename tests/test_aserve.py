"""The worker's event loop over real sockets: the per-call ops, the
channel-tagged epoch streams, and per-channel failure isolation (a stale
delta NACKs one channel, the connection survives)."""

import pytest

from repro.transport import (
    LocalAsyncWorker,
    RemoteWorkerError,
    TransportError,
    WorkerClient,
    WorkerHandle,
    WorkerSpec,
    semantic_graph_digest,
)
from repro.delta.channel import DeltaSendChannel
from repro.exchange import ChannelCapabilities, SocketGraphChannel
from repro.transport.testing import SAMPLE_FACTORY

from tests.conftest import make_list, read_list

DELTA_REQUEST = ChannelCapabilities(kernel=True, delta=True)


def _spawn(name: str) -> WorkerHandle:
    return WorkerHandle.spawn(WorkerSpec(
        name=name, classpath_factory=SAMPLE_FACTORY,
    ))


class TestClassicParityOnAsync:
    def test_classic_ops_over_the_event_loop(self, transport_driver):
        """A stock ``WorkerClient`` over the loop: ping, an epoch
        (digest-gated), and a blob round-trip on one connection."""
        handle = _spawn("async-worker")
        client = WorkerClient(
            transport_driver, handle.host, handle.port).connect()
        channel = DeltaSendChannel(
            transport_driver, "async-worker", channel_id=3002)
        try:
            assert client.ping(echo="hi")["echo"] == "hi"
            head = make_list(transport_driver.jvm, range(20))
            result = client.send_epoch(
                channel.send([head]), 3002, channel.epoch)
            assert result["digest"] == semantic_graph_digest(
                transport_driver.jvm, [head])
            blob = client.send_blob(b"x" * 100_000)
            assert blob["bytes"] == 100_000
            stats = client.stats()
            aserve = stats["aserve"]
            assert aserve["conns_accepted"] >= 1
            assert aserve["conns_open"] >= 1
            channel.close()
        finally:
            client.close()
            handle.stop()

    def test_local_async_worker_serves_in_process(self, transport_driver):
        """``LocalAsyncWorker`` runs the same loop on a daemon thread —
        no process spawn — and stops cleanly."""
        spec = WorkerSpec(name="local-async",
                          classpath_factory=SAMPLE_FACTORY)
        with LocalAsyncWorker(spec) as local:
            client = WorkerClient(
                transport_driver, local.host, local.port).connect()
            channel = DeltaSendChannel(
                transport_driver, "local-async", channel_id=3003)
            try:
                head = make_list(transport_driver.jvm, range(8))
                result = client.send_epoch(
                    channel.send([head]), 3003, channel.epoch)
                assert result["digest"] == semantic_graph_digest(
                    transport_driver.jvm, [head])
            finally:
                channel.close()
                client.close()


class TestMuxEpochs:
    def test_concurrent_channels_full_then_delta(self, transport_driver):
        """A dozen channels, then 1,024 (the fan-in the loop must
        sustain), pipelined over one connection: every FULL bootstraps,
        every DELTA applies, every channel is acked, and each channel's
        worker-side digest matches the digest of *that* channel's sender
        graph."""
        for count in (12, 1024):
            self._full_then_delta(transport_driver, count)

    def _full_then_delta(self, driver, count):
        handle = _spawn("mux-worker")
        mux = WorkerClient(driver, handle.host, handle.port).connect()
        # Chains first: every channel's card table is marked on every
        # later heap write.
        pins = [driver.jvm.pin(
                    make_list(driver.jvm, range(i * 100, i * 100 + 24)))
                for i in range(count)]
        heads = [pin.address for pin in pins]
        channels = [DeltaSendChannel(driver, "mux-worker",
                                     channel_id=9000 + i)
                    for i in range(count)]
        try:
            for expected_mode in ("full", "delta"):
                jobs, want = [], {}
                for channel, head in zip(channels, heads):
                    frame = channel.send([head])
                    jobs.append((channel.channel_id, channel.epoch, frame))
                    want[channel.channel_id] = semantic_graph_digest(
                        driver.jvm, [head])
                    assert channel.last_plan.mode == expected_mode
                results = mux.send_epochs(jobs)
                assert set(results) == set(want)
                for channel_id, outcome in results.items():
                    assert outcome["result"]["ok"], outcome
                    assert outcome["result"]["digest"] == want[channel_id]
                    assert outcome["latency_s"] is not None
                for head in heads:
                    value = driver.jvm.get_field(head, "payload")
                    driver.jvm.set_field(head, "payload", value + 1)
        finally:
            mux.close()
            handle.stop()
            for channel in channels:
                channel.close()
            for pin in pins:
                driver.jvm.unpin(pin)

    def test_stale_channel_fails_alone_connection_survives(
            self, transport_driver):
        """Replaying an applied delta NACKs *that channel* as an
        ``ok=false`` RESULT naming ``DeltaStaleError``; unlike a failed
        CALL op, the connection stays up — the same socket keeps serving
        other channels and CALL ops."""
        driver = transport_driver
        handle = _spawn("nack-worker")
        mux = WorkerClient(driver, handle.host, handle.port).connect()
        head = make_list(driver.jvm, range(24))
        pin = driver.jvm.pin(head)
        channel = DeltaSendChannel(driver, "nack-worker", channel_id=4242)
        try:
            mux.send_epoch(channel.send([head]), 4242, channel.epoch)
            driver.jvm.set_field(head, "payload", 777)
            delta = channel.send([head])
            assert channel.last_plan.mode == "delta"
            mux.send_epoch(delta, 4242, channel.epoch)

            with pytest.raises(RemoteWorkerError) as excinfo:
                mux.send_epoch(delta, 4242, channel.epoch)
            assert excinfo.value.kind == "DeltaStaleError"

            # Same connection, next breath: a CALL op and a fresh
            # channel both still work.
            assert mux.call_op("ping")["worker"] == "nack-worker"
            other = DeltaSendChannel(driver, "nack-worker",
                                     channel_id=4243)
            result = mux.send_epoch(other.send([head]), 4243, other.epoch)
            assert result["digest"] == semantic_graph_digest(
                driver.jvm, [head])
            other.close()
        finally:
            mux.close()
            handle.stop()
            channel.close()
            driver.jvm.unpin(pin)

    def test_digest_false_rides_the_trailer_flag(self, transport_driver):
        """``digest=False`` rides the MUX_TRAILER flags byte: the worker
        skips the digest pass and the RESULT carries no ``"digest"``
        key."""
        driver = transport_driver
        handle = _spawn("nodigest-worker")
        mux = WorkerClient(driver, handle.host, handle.port).connect()
        head = make_list(driver.jvm, range(10))
        channel = DeltaSendChannel(driver, "nodigest-worker",
                                   channel_id=6001)
        try:
            skipped = mux.send_epoch(channel.send([head]), 6001,
                                     channel.epoch, digest=False)
            assert skipped["ok"] and "digest" not in skipped
            driver.jvm.set_field(head, "payload", 5)
            computed = mux.send_epoch(channel.send([head]), 6001,
                                      channel.epoch, digest=True)
            assert computed["digest"] == semantic_graph_digest(
                driver.jvm, [head])
        finally:
            mux.close()
            handle.stop()
            channel.close()

    def test_duplicate_channel_in_one_call_is_rejected(
            self, transport_driver):
        """Two epochs for one channel in a single ``send_epochs`` call is
        a caller error (the worker allows one open mux stream per channel
        and results are keyed by channel id) — rejected up front, before
        any frame goes out, so the connection stays usable."""
        driver = transport_driver
        handle = _spawn("dup-worker")
        mux = WorkerClient(driver, handle.host, handle.port).connect()
        head = make_list(driver.jvm, range(6))
        channel = DeltaSendChannel(driver, "dup-worker", channel_id=6002)
        try:
            frame = channel.send([head])
            with pytest.raises(TransportError, match="more than once"):
                mux.send_epochs([(6002, channel.epoch, frame),
                                 (6002, channel.epoch + 1, frame)])
            result = mux.send_epoch(frame, 6002, channel.epoch)
            assert result["ok"]
        finally:
            mux.close()
            handle.stop()
            channel.close()

    def test_poll_drain_leaves_socket_blocking(self, transport_driver):
        """The mid-send result drain polls with ``select``, never by
        zeroing the socket timeout — a non-blocking socket would turn the
        backpressure stall ``sendall`` is expected to ride out into
        ``BlockingIOError``."""
        driver = transport_driver
        handle = _spawn("blocking-worker")
        mux = WorkerClient(driver, handle.host, handle.port).connect()
        head = make_list(driver.jvm, range(6))
        channel = DeltaSendChannel(driver, "blocking-worker",
                                   channel_id=6003)
        try:
            mux.send_epochs([(6003, channel.epoch,
                              channel.send([head]))])
            assert (mux._require_conn().raw_socket.gettimeout()
                    == mux._read_timeout)
        finally:
            mux.close()
            handle.stop()
            channel.close()

    def test_admission_failure_counts_as_epoch_failure(
            self, transport_driver):
        """A strict worker refusing an unadmitted channel at the EPOCH
        header answers ``ok=false`` at the trailer *and* counts it in
        ``stats()["aserve"]["epoch_failures"]``, same as an apply-time
        failure."""
        driver = transport_driver
        handle = WorkerHandle.spawn(WorkerSpec(
            name="strict-mux-worker", classpath_factory=SAMPLE_FACTORY,
            strict_channels=True,
        ))
        mux = WorkerClient(driver, handle.host, handle.port).connect()
        head = make_list(driver.jvm, range(6))
        channel = DeltaSendChannel(driver, "strict-mux-worker",
                                   channel_id=6004)
        try:
            with pytest.raises(RemoteWorkerError) as excinfo:
                mux.send_epoch(channel.send([head]), 6004, channel.epoch)
            assert excinfo.value.kind == "ClusterProtocolError"
            assert mux.stats()["aserve"]["epoch_failures"] == 1
        finally:
            mux.close()
            handle.stop()
            channel.close()

    def test_full_epoch_larger_than_the_high_water_mark_completes(
            self, transport_driver):
        """Every FULL rides an epoch stream, so one bigger than the
        connection's byte mark must get through on the progress guard
        (nothing is ready to apply until its trailer; only more reads
        help) — and land whole."""
        driver = transport_driver
        spec = WorkerSpec(name="small-mark", classpath_factory=SAMPLE_FACTORY)
        head = make_list(driver.jvm, range(6000))
        pin = driver.jvm.pin(head)
        with LocalAsyncWorker(spec, high_water_bytes=16 * 1024) as local:
            client = WorkerClient(driver, local.host, local.port).connect()
            channel = SocketGraphChannel(
                driver, client, requested=DELTA_REQUEST, channel_id=5252,
                destination="small-mark")
            try:
                receipt = channel.send([head], digest=True)
                assert receipt.mode == "full"
                assert receipt.wire_bytes > 8 * local.loop.high_water_bytes
                assert receipt.digest == semantic_graph_digest(
                    driver.jvm, [head])
                assert read_list(
                    local.loop.core.runtime.jvm, receipt.roots[0]
                ) == list(range(6000))
            finally:
                channel.close()
                client.close()
                driver.jvm.unpin(pin)

    def test_exchange_channel_rides_mux_and_recovers_without_reconnect(
            self, transport_driver):
        """``SocketGraphChannel`` over the client: FULL then DELTA
        receipts, and NACK recovery resends forced-full *on the same
        socket* (no reconnect)."""
        driver = transport_driver
        handle = _spawn("xchg-mux-worker")
        mux = WorkerClient(driver, handle.host, handle.port).connect()
        head = make_list(driver.jvm, range(24))
        pin = driver.jvm.pin(head)
        channel = SocketGraphChannel(
            driver, mux, requested=DELTA_REQUEST, channel_id=5151,
            destination="xchg-mux",
        )
        try:
            first = channel.send([head], digest=True)
            assert first.mode == "full"
            assert first.digest == semantic_graph_digest(
                driver.jvm, [head])
            driver.jvm.set_field(head, "payload", 99)
            second = channel.send([head], digest=True)
            assert second.mode == "delta" and not second.nack_recovered

            # Reset the worker's channel state out of band: a fresh FULL
            # at epoch 1 makes the exchange channel's next delta a gap.
            intruder = DeltaSendChannel(driver, "xchg-mux-worker",
                                        channel_id=5151)
            mux.send_epoch(intruder.send([head]), 5151, intruder.epoch)
            intruder.close()

            conn_before = mux._require_conn()
            driver.jvm.set_field(head, "payload", 100)
            recovered = channel.send([head], digest=True)
            assert recovered.nack_recovered
            assert recovered.mode == "full"
            assert recovered.digest == semantic_graph_digest(
                driver.jvm, [head])
            assert mux._require_conn() is conn_before  # no reconnect happened

            driver.jvm.set_field(head, "payload", 101)
            assert channel.send([head]).mode == "delta"
        finally:
            channel.close()
            mux.close()
            handle.stop()
            driver.jvm.unpin(pin)
