"""The worker loop's connection state machine, driven without sockets:
encoded frames go straight into a connection's decoder and the replies are
read back out of its outbound buffer (``_update_interest`` no-ops without a
selector).  Covers the stream-trailer cross-checks (total / chunk count /
CRC) on both the per-call DATA/TRAILER stream and the epoch stream's
``MUX_TRAILER``, their happy paths, the mid-stream failures, and what v3
took out of the protocol — each asserting the loop's failure contract: one
ERROR frame naming the exception, the connection marked closing, nothing
tracked on the heap."""

import zlib

import pytest

from repro.delta.channel import DeltaSendChannel
from repro.transport import (
    WorkerServer,
    WorkerSpec,
    frames,
    registry_sync,
    semantic_graph_digest,
)
from repro.transport.worker import _AsyncConn
from repro.transport.testing import SAMPLE_FACTORY

from tests.conftest import make_list

CHANNEL = 7


class _DeadSocket:
    """The loop only touches a connection's socket to read and to close;
    this one reports EOF — the peer that vanished."""

    def recv(self, _size):
        return b""

    def close(self):
        pass


@pytest.fixture
def loop():
    return WorkerServer(WorkerSpec(
        name="sm-worker", classpath_factory=SAMPLE_FACTORY,
    ))


@pytest.fixture
def conn(loop):
    conn = _AsyncConn(loop, _DeadSocket())
    loop._conns.append(conn)
    return conn


def _feed(loop, conn, *sent):
    for ftype, payload in sent:
        conn.decoder.feed(frames.encode_frame(ftype, payload))
    loop._drain_frames(conn)


def _replies(conn):
    decoder = frames.FrameDecoder()
    decoder.feed(bytes(conn.out))
    conn.out.clear()
    out = []
    while True:
        frame = decoder.next_frame()
        if frame is None:
            return out
        out.append(frame)


def _call(op, **params):
    return frames.CALL, frames.encode_json({"op": op, **params})


def _handshake(loop, conn, driver):
    """HELLO / HELLO_ACK, so a real epoch frame's tIDs resolve."""
    snapshot = driver.view.snapshot()
    _feed(loop, conn, (frames.HELLO,
                       frames.encode_hello("test-driver", snapshot)))
    [(ftype, payload)] = _replies(conn)
    assert ftype == frames.HELLO_ACK
    _peer, extras = frames.decode_hello_ack(payload)
    registry_sync.install_merged(
        driver, registry_sync.merge_registries(snapshot, extras))


def _assert_failed(loop, conn, kind, match):
    """The failure contract: one ERROR frame naming ``kind``, connection
    closing, and nothing received, applied, stored, or retained."""
    [(ftype, payload)] = _replies(conn)
    assert ftype == frames.ERROR
    got_kind, message = frames.decode_error(payload)
    assert got_kind == kind
    assert match in message
    assert conn.closing
    _assert_heap_untouched(loop, conn)


def _assert_heap_untouched(loop, conn):
    assert not conn.ready
    assert loop.epochs_applied == 0
    assert loop.graphs_received == 0
    assert loop._blobs == {}
    assert loop.runtime.retained_input_buffers == 0


# (trailer fields as (total, crc, chunks), the message the check must give)
BAD_TRAILERS = pytest.mark.parametrize("trailer,expect", [
    ((5, 0, 1), "promised 5 stream bytes"),
    ((4, 0, 2), "promised 2 chunks"),
    ((4, 0xBADBAD, 1), "CRC mismatch"),
], ids=["total", "chunks", "crc"])


# ---------------------------------------------------------------------------
# per-call stream: CALL, DATA*, TRAILER
# ---------------------------------------------------------------------------

def test_classic_stream_happy_path(loop, conn):
    data = b"payload" * 1000
    _feed(loop, conn,
          _call("put_blob", key="bucket"),
          (frames.DATA, data[:4096]),
          (frames.DATA, data[4096:]),
          (frames.TRAILER,
           frames.encode_trailer(len(data), zlib.crc32(data), 2)))
    [(ftype, payload)] = _replies(conn)
    assert ftype == frames.RESULT
    result = frames.decode_json(payload, what="RESULT")
    assert (result["bytes"], result["crc32"]) == (len(data), zlib.crc32(data))
    assert loop._blobs == {"bucket": data}
    assert conn.stream is None and not conn.closing


@BAD_TRAILERS
def test_classic_stream_rejects_bad_trailers(loop, conn, trailer, expect):
    total, crc, chunks = trailer
    _feed(loop, conn,
          _call("put_blob", key="bucket"),
          (frames.DATA, b"data"),
          (frames.TRAILER, frames.encode_trailer(total, crc, chunks)))
    _assert_failed(loop, conn, "TransportClosed", expect)


def test_epochs_are_not_a_call_op(loop, conn):
    """``recv_epoch`` left the op tables with protocol v3: the CALL answers
    the typed unknown-op error before any EPOCH header is looked at."""
    assert "recv_epoch" not in {**loop._STREAM_OPS, **loop._OPS}
    _feed(loop, conn,
          _call("recv_epoch"),
          (frames.EPOCH, frames.encode_epoch_header(CHANNEL, 1, 0)))
    _assert_failed(loop, conn, "TransportError", "unknown op 'recv_epoch'")


def test_a_v2_peer_fails_at_hello(loop, conn):
    """A mixed pair never gets as far as an op one side no longer has."""
    _feed(loop, conn, (frames.HELLO, frames.encode_hello(
        "old-driver", {}, version=frames.PROTOCOL_VERSION - 1)))
    _assert_failed(loop, conn, "TransportError",
                   "protocol version mismatch: peer 'old-driver' speaks v2")


def test_classic_stream_rejects_a_foreign_frame_mid_stream(loop, conn):
    _feed(loop, conn,
          _call("recv_blob"),
          (frames.DATA, b"data"),
          (frames.ERROR,
           frames.encode_error("SkywayStreamError", "sender blew up")))
    _assert_failed(loop, conn, "TransportError",
                   "expected DATA/TRAILER mid-stream, peer sent ERROR")


def test_classic_stream_peer_death_tracks_nothing(loop, conn):
    _feed(loop, conn, _call("put_blob", key="bucket"),
          (frames.DATA, b"data"))
    loop._on_readable(conn)  # EOF before any TRAILER
    assert conn.closed and conn not in loop._conns
    assert _replies(conn) == []
    _assert_heap_untouched(loop, conn)


class _PeerClient:
    """A cached peer connection whose ``close`` raises ``error``."""

    def __init__(self, error):
        self.error = error

    def close(self):
        raise self.error


def test_dropping_a_peer_absorbs_only_its_socket_close(loop):
    """A peer whose socket close fails is forgotten silently; anything
    else a close raises is a bug, and propagates."""
    loop._peer_clients[("gone", "127.0.0.1", 1)] = _PeerClient(OSError())
    loop._drop_peer("gone")
    assert loop._peer_clients == {}
    loop._peer_clients[("broken", "127.0.0.1", 1)] = _PeerClient(
        RuntimeError("not a socket error"))
    with pytest.raises(RuntimeError, match="not a socket error"):
        loop._drop_peer("broken")


def test_stream_stalled_mid_op_times_out(loop, conn):
    _feed(loop, conn, _call("recv_blob"), (frames.DATA, b"data"))
    conn.last_activity -= loop.spec.read_timeout + 1.0
    loop._reap_stalled()
    _assert_failed(loop, conn, "TransportTimeout", "stalled")


# ---------------------------------------------------------------------------
# epoch stream: EPOCH, MUX_DATA*, MUX_TRAILER
# ---------------------------------------------------------------------------

def _mux_stream(data, total, crc, chunks, chunk_bytes=4096):
    sent = [(frames.EPOCH, frames.encode_epoch_header(
        CHANNEL, 1, data[0] if data else 0))]
    for off in range(0, len(data), chunk_bytes):
        sent.append((frames.MUX_DATA, frames.encode_mux_data(
            CHANNEL, data[off:off + chunk_bytes])))
    sent.append((frames.MUX_TRAILER, frames.encode_mux_trailer(
        CHANNEL, total, crc, chunks, digest=True)))
    return sent


def test_mux_stream_happy_path(loop, conn, transport_driver):
    driver = transport_driver
    head = make_list(driver.jvm, range(40))
    channel = DeltaSendChannel(driver, "sm-worker", channel_id=CHANNEL)
    data = channel.send([head])
    _handshake(loop, conn, driver)  # after the send registered its classes
    chunks = -(-len(data) // 64)
    _feed(loop, conn, *_mux_stream(data, len(data), zlib.crc32(data),
                                   chunks, chunk_bytes=64))
    assert chunks > 1 and len(conn.ready) == 1 and not conn.mux_open
    assert _replies(conn) == []  # answered at apply time, not arrival
    loop._process_ready()
    [(ftype, payload)] = _replies(conn)
    assert ftype == frames.RESULT
    result = frames.decode_json(payload, what="RESULT")
    assert result["ok"] and result["channel_id"] == CHANNEL
    assert result["stream_bytes"] == len(data)
    assert result["digest"] == semantic_graph_digest(driver.jvm, [head])
    assert loop.epochs_applied == 1
    assert not conn.closing
    channel.close()


@BAD_TRAILERS
def test_mux_stream_rejects_bad_trailers(loop, conn, trailer, expect):
    total, crc, chunks = trailer
    _feed(loop, conn, *_mux_stream(b"data", total, crc, chunks))
    _assert_failed(loop, conn, "TransportClosed", expect)
    loop._process_ready()
    _assert_heap_untouched(loop, conn)


@pytest.mark.parametrize("ftype,payload", [
    (frames.MUX_DATA, frames.encode_mux_data(CHANNEL + 1, b"data")),
    (frames.MUX_TRAILER,
     frames.encode_mux_trailer(CHANNEL + 1, 4, 0, 1, digest=True)),
    (frames.EPOCH, frames.encode_epoch_header(CHANNEL, 2, 0)),
], ids=["data-unopened", "trailer-unopened", "epoch-reopened"])
def test_mux_stream_rejects_out_of_protocol_frames(loop, conn, ftype,
                                                   payload):
    _feed(loop, conn,
          (frames.EPOCH, frames.encode_epoch_header(CHANNEL, 1, 0)),
          (frames.MUX_DATA, frames.encode_mux_data(CHANNEL, b"data")),
          (ftype, payload))
    _assert_failed(loop, conn, "TransportError", "protocol violation")


def test_mux_trailer_without_its_flags_byte_is_corrupt(loop, conn):
    """The flags byte is part of the trailer: a payload that stops short
    of it is a short payload like any other."""
    whole = frames.encode_mux_trailer(CHANNEL, 4, zlib.crc32(b"data"), 1)
    _feed(loop, conn,
          (frames.EPOCH, frames.encode_epoch_header(CHANNEL, 1, 0)),
          (frames.MUX_DATA, frames.encode_mux_data(CHANNEL, b"data")),
          (frames.MUX_TRAILER, whole[:-1]))
    _assert_failed(loop, conn, "FrameCorruptionError",
                   "malformed MUX_TRAILER payload")


def test_mux_stream_peer_death_applies_nothing(loop, conn):
    _feed(loop, conn,
          (frames.EPOCH, frames.encode_epoch_header(CHANNEL, 1, 0)),
          (frames.MUX_DATA, frames.encode_mux_data(CHANNEL, b"data")))
    loop._on_readable(conn)  # EOF with the channel's stream still open
    assert conn.closed
    loop._process_ready()
    assert _replies(conn) == []
    _assert_heap_untouched(loop, conn)
