"""Adversarial schedules for the async front-end.

Two properties the event loop must hold under hostile interleavings:

* **order independence** — EPOCH/MUX_DATA/MUX_TRAILER frames from many
  channels spliced onto one connection in seeded-random order must
  reassemble to exactly the heaps a sequential, one-channel-at-a-time
  sender produces (per-channel semantic digests agree three
  ways: shuffled receiver, sequential receiver, sender);
* **bounded buffering** — a worker whose applier stalls must stop
  *reading* once the per-connection high-water mark is hit (real
  backpressure, not an unbounded inbound queue), then drain to a fully
  correct state once the applier resumes.
"""

import random
import threading
import time

import pytest

from repro.delta.channel import DeltaSendChannel
from repro.transport import (
    LocalAsyncWorker,
    WorkerClient,
    WorkerHandle,
    WorkerSpec,
    semantic_graph_digest,
)
from repro.transport import client as client_module
from repro.transport.testing import SAMPLE_FACTORY

from tests.conftest import make_list

CHANNELS = 16
NODES = 24


def test_shuffled_interleave_matches_sequential_per_channel(
        transport_driver, monkeypatch):
    """One FULL round then three delta rounds, each spliced with a
    different seed: for every channel and every round, the shuffled
    receiver, a sequential one-epoch-at-a-time receiver, and the sender
    agree on the semantic digest."""
    driver = transport_driver
    shuffled = WorkerHandle.spawn(WorkerSpec(
        name="fuzz-shuffled", classpath_factory=SAMPLE_FACTORY,
    ))
    sequential = WorkerHandle.spawn(WorkerSpec(
        name="fuzz-sequential", classpath_factory=SAMPLE_FACTORY,
    ))
    # Tiny chunks: every channel's stream becomes many MUX_DATA frames,
    # so the shuffle actually interleaves mid-stream.
    monkeypatch.setattr(client_module, "DEFAULT_MUX_CHUNK_BYTES", 96)
    mux = WorkerClient(driver, shuffled.host, shuffled.port).connect()
    one_by_one = WorkerClient(driver, sequential.host,
                              sequential.port).connect()
    heads, pins, channels = [], [], []
    for i in range(CHANNELS):
        head = make_list(driver.jvm, range(i * 1000, i * 1000 + NODES))
        pins.append(driver.jvm.pin(head))
        heads.append(head)
        channels.append(DeltaSendChannel(
            driver, "fuzz", channel_id=100 + i))
    try:
        for round_no, seed in enumerate((None, 7, 23, 1999)):
            jobs, want, modes = [], {}, set()
            for channel, head in zip(channels, heads):
                frame = channel.send([head])
                jobs.append((channel.channel_id, channel.epoch, frame))
                want[channel.channel_id] = semantic_graph_digest(
                    driver.jvm, [head])
                modes.add(channel.last_plan.mode)
            assert modes == ({"full"} if round_no == 0 else {"delta"})

            rng = random.Random(seed) if seed is not None else None
            results = mux.send_epochs(jobs, rng=rng)
            for channel_id, epoch, frame in jobs:
                outcome = results[channel_id]
                assert outcome["result"]["ok"], outcome
                assert outcome["result"]["digest"] == want[channel_id], (
                    f"seed {seed}: shuffled digest diverged on "
                    f"channel {channel_id}"
                )
                seq = one_by_one.send_epoch(frame, channel_id, epoch)
                assert seq["digest"] == want[channel_id], (
                    f"seed {seed}: sequential digest diverged on "
                    f"channel {channel_id}"
                )
            for head in heads:
                value = driver.jvm.get_field(head, "payload")
                driver.jvm.set_field(head, "payload", value + 1)
    finally:
        mux.close()
        one_by_one.close()
        shuffled.stop()
        sequential.stop()
        for channel in channels:
            channel.close()
        for pin in pins:
            driver.jvm.unpin(pin)


def test_stalled_applier_pauses_reads_then_drains(transport_driver,
                                                  monkeypatch):
    """With heap application switched off, inbound mux bytes must stop at
    the connection's high-water mark — the loop deregisters the socket
    from READ instead of buffering without bound — and once application
    resumes, every channel completes with the right digest."""
    driver = transport_driver
    high_water = 64 * 1024
    spec = WorkerSpec(name="slow-reader", classpath_factory=SAMPLE_FACTORY,
                      read_timeout=60.0)
    with LocalAsyncWorker(spec, high_water_bytes=high_water) as local:
        local.loop.processing_enabled = False
        # One chunk per stream: each channel's trailer lands right after
        # its data, so the ready queue fills (and the pause sticks) long
        # before the burst has been read.
        monkeypatch.setattr(client_module, "DEFAULT_MUX_CHUNK_BYTES",
                            128 * 1024)
        mux = WorkerClient(driver, local.host, local.port,
                           read_timeout=60.0).connect()
        heads, pins, channels, jobs = [], [], [], []
        want = {}
        for i in range(32):
            head = make_list(driver.jvm, range(i * 10_000,
                                               i * 10_000 + 1600))
            pins.append(driver.jvm.pin(head))
            heads.append(head)
            channel = DeltaSendChannel(driver, "slow", channel_id=500 + i)
            channels.append(channel)
            frame = channel.send([head])
            jobs.append((channel.channel_id, channel.epoch, frame))
            want[channel.channel_id] = semantic_graph_digest(
                driver.jvm, [head])
        total_bytes = sum(len(frame) for _c, _e, frame in jobs)
        assert total_bytes > 4 * high_water  # the stall must actually bite

        outcome = {}

        def ship():
            outcome["results"] = mux.send_epochs(jobs)

        sender = threading.Thread(target=ship, daemon=True)
        try:
            sender.start()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if local.loop.reads_paused_total >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("loop never paused reads while the applier "
                            "was stalled")

            # Reads are off: what crossed into user space is bounded, far
            # short of the full burst, and nothing touched the heap.
            time.sleep(0.3)
            queued = sum(c.queued_bytes for c in local.loop._conns)
            assert 0 < queued < total_bytes // 2
            assert local.loop.epochs_applied == 0
            assert not outcome  # sender still blocked on its results

            local.loop.processing_enabled = True
            sender.join(timeout=60.0)
            assert not sender.is_alive()
        finally:
            local.loop.processing_enabled = True
            mux.close()

        results = outcome["results"]
        assert set(results) == set(want)
        for channel_id, got in results.items():
            assert got["result"]["ok"], got
            assert got["result"]["digest"] == want[channel_id]
        assert local.loop.epochs_applied == len(jobs)
        assert local.loop.reads_paused_total >= 1

    for channel in channels:
        channel.close()
    for pin in pins:
        driver.jvm.unpin(pin)
