"""Adversarial schedules for the async front-end.

Two properties the event loop must hold under hostile interleavings:

* **order independence** — STREAM/DATA/TRAILER frames from many epoch
  channels and a blob spliced onto one connection in seeded-random order
  must reassemble to exactly the heaps a sequential, one-channel-at-a-time
  sender produces (per-channel semantic digests agree three
  ways: shuffled receiver, sequential receiver, sender), and to the
  blob's bytes;
* **bounded buffering** — a worker whose applier stalls must stop
  *reading* once the per-connection high-water mark is hit (real
  backpressure, not an unbounded inbound queue), then drain to a fully
  correct state once the applier resumes.

The splice mixes one-frame epochs (those within the shrunken chunk size)
with multi-frame ones, and every epoch RESULT is the binary record.  A
third test flips every bit of a one-frame epoch.
"""

import builtins
import random
import threading
import time
import zlib

import pytest

from repro.delta.channel import DeltaSendChannel
from repro.transport import (
    LocalAsyncWorker,
    WorkerClient,
    WorkerHandle,
    WorkerSpec,
    frames,
    semantic_graph_digest,
)
from repro.transport import client as client_module
from repro.transport import worker as worker_module
from repro.transport.testing import SAMPLE_FACTORY

from tests.conftest import make_list

CHANNELS = 16
NODES = 24


def _splice(client, jobs, blob, rng):
    """``send_epochs``' splice with a blob stream in it: the client's
    in-hand writer interleaves the blob's frames with every epoch's, in
    ``rng``'s order.  Returns the epochs' RESULTs by channel id and the
    blob's, the one RESULT no channel id tags."""
    streams = [(frames.StreamHeader(
        channel_id, frames.STREAM_EPOCH, epoch=epoch, frame_kind=frame[0]),
        frame) for channel_id, epoch, frame in jobs]
    streams.append((frames.StreamHeader(frames.BULK_STREAM,
                                        frames.STREAM_BLOB), blob))
    conn = client._require_conn()
    client._sync_registry()
    client_module._write_streams(conn, streams, rng)
    results, blob_result = {}, None
    while len(results) < len(jobs) or blob_result is None:
        result = frames.decode_result(conn.expect_frame(frames.RESULT))
        if "channel_id" in result:
            results[result["channel_id"]] = result
        else:
            blob_result = result
    return results, blob_result


def test_shuffled_interleave_matches_sequential_per_channel(
        transport_driver, monkeypatch):
    """One FULL round then three delta rounds, each spliced with a
    different seed and a blob stream among the epochs: for every channel
    and every round, the shuffled receiver, a sequential
    one-epoch-at-a-time receiver, and the sender agree on the semantic
    digest, and the blob arrives whole."""
    driver = transport_driver
    shuffled = WorkerHandle.spawn(WorkerSpec(
        name="fuzz-shuffled", classpath_factory=SAMPLE_FACTORY,
    ))
    sequential = WorkerHandle.spawn(WorkerSpec(
        name="fuzz-sequential", classpath_factory=SAMPLE_FACTORY,
    ))
    # Tiny chunks: every stream becomes many DATA frames,
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
            blob = random.Random(round_no).randbytes(3000)
            results, blob_result = _splice(mux, jobs, blob, rng)
            assert (blob_result["bytes"], blob_result["crc32"]) == (
                len(blob), zlib.crc32(blob))
            for channel_id, epoch, frame in jobs:
                result = results[channel_id]
                assert result["ok"], result
                assert result["digest"] == want[channel_id], (
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
    monkeypatch.setattr(worker_module, "HIGH_WATER_BYTES", high_water)
    with LocalAsyncWorker(spec) as local:
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


def test_bit_flips_in_a_one_frame_epoch_never_leak_a_bare_exception(
        transport_driver):
    """Every bit of a one-frame DELTA epoch flipped in turn, once under the
    frame CRC and once re-CRCed so the flip reaches the opener's decoder
    and the epoch's apply: each frame ends in a typed ERROR, a typed
    ``ok=false`` RESULT, an epoch that applied, or a frame still waiting
    for bytes — never a builtin exception's name on the wire."""
    driver = transport_driver
    head = make_list(driver.jvm, range(NODES))
    pin = driver.jvm.pin(head)
    channel = DeltaSendChannel(driver, "flips", channel_id=41)
    full = channel.send([head])
    driver.jvm.set_field(head, "payload", 99)
    delta = channel.send([head])
    channel.close()
    header = frames.StreamHeader(41, frames.STREAM_EPOCH, frame_kind=delta[0])
    payload = frames.encode_stream(header._replace(
        epoch=2, inline=delta, traced=True))
    loop = worker_module.WorkerServer(WorkerSpec(
        name="flips", classpath_factory=SAMPLE_FACTORY))
    sent = frames.encode_hello("flip-driver", driver.view.snapshot())
    conn = _loop_conn(loop)
    conn.decoder.feed(frames.encode_frame(frames.HELLO, sent))
    loop._drain_frames(conn)
    builtin = {name for name in dir(builtins) if name.endswith("Error")}
    kinds = set()
    rng = random.Random(5)
    for resealed in (False, True):
        for bit in range(8 * (len(payload) + frames.HEADER_BYTES)):
            if resealed and bit < 8 * frames.HEADER_BYTES:
                continue
            # Each flip against a freshly bootstrapped channel 41.
            conn = _loop_conn(loop)
            _feed_frames(loop, conn, [(frames.STREAM, frames.encode_stream(
                header._replace(epoch=1, frame_kind=full[0], inline=full)))])
            if resealed:
                flipped = bytearray(payload)
                bit -= 8 * frames.HEADER_BYTES
                flipped[bit >> 3] ^= 1 << (bit & 7)
                wire = frames.encode_frame(frames.STREAM, bytes(flipped))
            else:
                wire = bytearray(frames.encode_frame(frames.STREAM, payload))
                wire[bit >> 3] ^= 1 << (bit & 7)
            conn.decoder.feed(bytes(wire))
            loop._drain_frames(conn)
            loop._process_ready()
            for ftype, reply in _loop_replies(conn):
                if ftype == frames.ERROR:
                    kinds.add(frames.decode_error(reply)[0])
                elif ftype == frames.RESULT:
                    result = frames.decode_result(reply)
                    kinds.add(result.get("error_kind", "ok"))
            if rng.random() < 0.5:
                loop._close_conn(conn)
    assert not kinds & builtin, kinds & builtin
    assert {"FrameCorruptionError", "ok"} <= kinds
    driver.jvm.unpin(pin)


def _loop_conn(loop):
    conn = worker_module._AsyncConn(loop, _DeadSocket())
    loop._conns.append(conn)
    return conn


def _feed_frames(loop, conn, sent):
    for ftype, payload in sent:
        conn.decoder.feed(frames.encode_frame(ftype, payload))
    loop._drain_frames(conn)
    loop._process_ready()
    _loop_replies(conn)


def _loop_replies(conn):
    decoder = frames.FrameDecoder()
    decoder.feed(bytes(conn.out))
    conn.out.clear()
    return list(decoder.frames())


class _DeadSocket:
    def recv(self, _size):
        return b""

    def close(self):
        pass
