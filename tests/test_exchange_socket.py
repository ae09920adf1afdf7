"""The exchange layer on its socket substrate, against live workers:
cross-substrate frame/digest/NACK parity, a refused construction leaving
nothing behind, the worker-restart NACK recovery, and the typed staleness
error on a replayed epoch."""

import pytest

from repro import obs
from repro.exchange import ExchangeConfigError, GraphChannel, Loopback
from repro.core.runtime import SkywayRuntime
from repro.jvm.jvm import JVM
from repro.transport import (
    LocalAsyncWorker,
    WorkerClient,
    WorkerHandle,
    WorkerSpec,
)
from repro.transport.errors import RemoteWorkerError
from repro.transport.testing import SAMPLE_FACTORY, sample_worker_classpath

from tests.conftest import make_list

def _loopback_receiver(driver, tag):
    jvm = JVM(f"parity-recv-{tag}", classpath=sample_worker_classpath())
    return SkywayRuntime(jvm, driver.driver_registry, is_driver=False)


def test_frame_and_digest_parity_across_substrates(transport_driver):
    """With pinned channel ids and one sender heap, the loopback and
    socket channels must frame byte-identical epochs and their receivers
    must agree digest-wise — on a delta pair (FULL then DELTA) and on an
    ``always_full`` pair — the low-mutation DELTA must undercut the FULL, and a
    forced NACK (both receivers compact their old generation) must recover
    the same way on both.  The worker runs in-thread so the test can reach
    its heap; the protocol still crosses a real socket."""
    driver = transport_driver
    head = make_list(driver.jvm, range(30))
    pin = driver.jvm.pin(head)
    local = LocalAsyncWorker(WorkerSpec(
        name="parity-worker", classpath_factory=SAMPLE_FACTORY)).start()
    client = WorkerClient(driver, local.host, local.port).connect()
    receiver = _loopback_receiver(driver, "a")
    pairs = {
        name: tuple(
            GraphChannel(driver, substrate, policy=policy,
                         channel_id=channel_id, destination="parity")
            for substrate in (Loopback(receiver), client))
        for name, channel_id, policy in (
            ("delta", 7101, None), ("full", 7102, "always_full"))
    }

    def epoch(modes):
        receipts = {}
        for name, (loop, sock) in pairs.items():
            on_loop = loop.send([head], digest=True)
            on_sock = sock.send([head], digest=True)
            assert on_loop.mode == on_sock.mode == modes[name]
            assert on_loop.frame == on_sock.frame
            assert on_loop.digest == on_sock.digest is not None
            for field in ("reason", "nack_recovered", "wire_bytes"):
                assert getattr(on_loop, field) == getattr(on_sock, field)
            receipts[name] = on_loop
        assert receipts["delta"].digest == receipts["full"].digest
        return receipts

    try:
        first = epoch({"delta": "full", "full": "full"})
        driver.jvm.set_field(head, "payload", 4242)
        second = epoch({"delta": "delta", "full": "full"})
        assert second["delta"].digest != first["delta"].digest
        assert len(second["delta"].frame) < len(second["full"].frame)

        # Compaction voids what each receiver retained: the next DELTA is
        # stale on both, and one send() recovers with a forced FULL.
        driver.jvm.set_field(head, "payload", 777)
        receiver.jvm.gc.full()
        worker = local.loop
        with worker._state_lock:
            worker.runtime.jvm.gc.full()
        third = epoch({"delta": "full", "full": "full"})
        assert third["delta"].nack_recovered
        assert third["delta"].reason == "forced"
        assert third["delta"].wire_bytes > len(third["delta"].frame)
        assert not third["full"].nack_recovered

        socket_metrics = pairs["delta"][1].metrics()
        assert socket_metrics["substrate"] == "socket"
        assert socket_metrics["transport"] is not None  # wire counters
    finally:
        for loop, sock in pairs.values():
            loop.close()
            sock.close()
        client.close()
        local.stop()
        driver.jvm.unpin(pin)


def test_rejected_construction_registers_no_obs_source(transport_driver):
    """A client speaking for another runtime is refused before the channel
    registers anything: no ``exchange.socket.*`` source (and no half-built
    channel pinned by it) outlives the ``ExchangeConfigError``."""
    other = _loopback_receiver(transport_driver, "mismatch")
    client = WorkerClient(other, "127.0.0.1", 1)  # never connected
    before = obs.registry().source_names()
    with pytest.raises(ExchangeConfigError, match="speaks for runtime"):
        GraphChannel(transport_driver, client, destination="refused")
    assert obs.registry().source_names() == before


def test_worker_restart_converges_through_forced_full(transport_driver):
    """A restarted worker has no epoch state: the next delta draws the
    staleness NACK and one ``send()`` recovers with a forced FULL, after
    which the channel goes back to shipping deltas."""
    driver = transport_driver
    head = make_list(driver.jvm, range(25))
    pin = driver.jvm.pin(head)
    spec = WorkerSpec(name="restart-worker", classpath_factory=SAMPLE_FACTORY)
    handle = WorkerHandle.spawn(spec)
    client = WorkerClient(driver, handle.host, handle.port).connect()
    channel = GraphChannel(driver, client, destination="restart")
    try:
        assert channel.send([head]).mode == "full"
        driver.jvm.set_field(head, "payload", 1)
        assert channel.send([head]).mode == "delta"

        handle.stop()
        handle = WorkerHandle.spawn(spec)
        replacement = WorkerClient(driver, handle.host, handle.port).connect()
        client.close()
        client = replacement
        channel.rebind(replacement)

        driver.jvm.set_field(head, "payload", 2)
        receipt = channel.send([head], digest=True)
        assert receipt.nack_recovered
        assert receipt.mode == "full"
        assert receipt.digest is not None
        assert channel.nack_recoveries == 1

        driver.jvm.set_field(head, "payload", 3)
        after = channel.send([head])
        assert after.mode == "delta" and not after.nack_recovered
    finally:
        channel.close()
        client.close()
        handle.stop()
        driver.jvm.unpin(pin)


def test_replayed_delta_epoch_draws_typed_nack(
    spawned_worker, transport_driver
):
    """Re-shipping an epoch the worker already applied is a staleness
    error with a *named* kind — the NACK the channel's recovery keys on —
    not a generic failure."""
    driver = transport_driver
    head = make_list(driver.jvm, range(10))
    pin = driver.jvm.pin(head)
    client = WorkerClient(
        driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    channel = GraphChannel(driver, client, destination="replay")
    try:
        channel.send([head])
        driver.jvm.set_field(head, "payload", 9)
        receipt = channel.send([head])
        assert receipt.mode == "delta"
        with pytest.raises(RemoteWorkerError) as excinfo:
            client.send_epoch(receipt.frame, channel.channel_id,
                              channel.epoch)
        assert excinfo.value.kind == "DeltaStaleError"
    finally:
        channel.close()
        client.close()
        driver.jvm.unpin(pin)
