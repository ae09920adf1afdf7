"""The worker loop's connection state machine, driven without sockets:
encoded frames go straight into a connection's decoder and the replies are
read back out of its outbound buffer (``_update_interest`` no-ops without a
selector).  Every stream kind — graph and blob on the bulk stream, epoch on
its channel's — runs the same STREAM/DATA/TRAILER machine, so each check
below is one kind-generic body: the ``classic_stream`` tests run it for the
bulk kinds, the ``mux_stream`` tests for the epoch kind.  Covers the
trailer cross-checks (total / chunk count / CRC), the happy paths, the
mid-stream failures, what v4 took out of the protocol and what v5 added
(the one-frame epoch and the binary epoch RESULT) — each failure
asserting the loop's contract: one ERROR frame naming the exception, the
connection marked closing, nothing tracked on the heap."""

import zlib

import pytest

from repro import obs
from repro.core.streams import SkywayObjectOutputStream
from repro.delta.channel import DeltaSendChannel
from repro.net.streams import ByteOutputStream
from repro.transport import (
    WorkerServer,
    WorkerSpec,
    frames,
    registry_sync,
    semantic_graph_digest,
)
from repro.transport.errors import FrameCorruptionError
from repro.transport.worker import _AsyncConn
from repro.transport.testing import SAMPLE_FACTORY

from tests.conftest import make_list

CHANNEL = 7
BULK_KINDS = ("graph", "blob")
HEADERS = {
    "graph": frames.StreamHeader(frames.BULK_STREAM, frames.STREAM_GRAPH),
    "blob": frames.StreamHeader(frames.BULK_STREAM, frames.STREAM_BLOB,
                                key="bucket"),
    "epoch": frames.StreamHeader(CHANNEL, frames.STREAM_EPOCH, epoch=1),
}


class _DeadSocket:
    """The loop only touches a connection's socket to read and to close;
    this one reports EOF — the peer that vanished."""

    def recv(self, _size):
        return b""

    def close(self):
        pass


def _served(driver=None):
    """A fresh worker loop with one connection, handshaken with
    ``driver`` when given (so a real stream's tIDs resolve)."""
    loop = WorkerServer(WorkerSpec(
        name="sm-worker", classpath_factory=SAMPLE_FACTORY,
    ))
    conn = _AsyncConn(loop, _DeadSocket())
    loop._conns.append(conn)
    if driver is not None:
        _handshake(loop, conn, driver)
    return loop, conn


@pytest.fixture
def loop():
    return _served()[0]


@pytest.fixture
def conn(loop):
    return loop._conns[0]


@pytest.fixture
def payloads(transport_driver):
    """A real stream's bytes per kind: a graph a worker can decode chunk by
    chunk, an epoch frame it can apply, an opaque blob."""
    driver = transport_driver
    head = make_list(driver.jvm, range(40))
    driver.shuffle_start()
    out = SkywayObjectOutputStream(driver, destination="socket:sm-worker")
    out.write_object(head)
    graph = out.close()
    channel = DeltaSendChannel(driver, "sm-worker", channel_id=CHANNEL)
    epoch = channel.send([head])
    channel.close()
    return {"graph": graph, "blob": b"payload" * 1000, "epoch": epoch,
            "head": head}


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


def _opener(header, data=b""):
    return frames.STREAM, frames.encode_stream(
        header._replace(frame_kind=data[0] if data else 0))


def _data(sid, chunk):
    out = ByteOutputStream()
    out.write_varint(sid)
    out.write_bytes(chunk)
    return frames.DATA, out.getvalue()


def _trailer(sid, total, crc, chunks):
    return frames.TRAILER, frames.encode_trailer(sid, total, crc, chunks)


def _stream(header, data, chunk_bytes=4096, spoil=None):
    """One whole stream's frames; ``spoil`` rewrites the trailer's
    ``(total, crc, chunks)``."""
    sid = header.stream_id
    sent = [_opener(header, data)]
    for off in range(0, len(data), chunk_bytes):
        sent.append(_data(sid, data[off:off + chunk_bytes]))
    promised = (len(data), zlib.crc32(data), len(sent) - 1)
    sent.append(_trailer(sid, *(spoil(*promised) if spoil else promised)))
    return sent


def _handshake(loop, conn, driver):
    """HELLO / HELLO_ACK, so a real stream's tIDs resolve."""
    snapshot = driver.view.snapshot()
    _feed(loop, conn, (frames.HELLO,
                       frames.encode_hello("test-driver", snapshot)))
    [(ftype, payload)] = _replies(conn)
    assert ftype == frames.HELLO_ACK
    _peer, extras = frames.decode_hello_ack(payload)
    registry_sync.install_merged(
        driver, registry_sync.merge_registries(snapshot, extras))


def _result(conn):
    [(ftype, payload)] = _replies(conn)
    assert ftype == frames.RESULT
    return frames.decode_result(payload)


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


# ---------------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------------

def _completes(kind, payloads, driver):
    """One whole stream of ``kind``, cut into several chunks, answers one
    RESULT (an epoch at apply time, not at arrival) and leaves the
    connection open with no stream."""
    loop, conn = _served(driver)
    data = payloads[kind]
    sent = _stream(HEADERS[kind], data, chunk_bytes=64)
    assert len(sent) > 3
    _feed(loop, conn, *sent)
    if kind == "epoch":
        assert len(conn.ready) == 1 and _replies(conn) == []
        loop._process_ready()
    result = _result(conn)
    assert not conn.streams and not conn.closing
    return loop, result


def test_classic_stream_happy_path(payloads, transport_driver):
    loop, result = _completes("graph", payloads, transport_driver)
    assert result["op"] == "recv_graph"
    assert (result["roots"], result["stream_bytes"]) == (
        1, len(payloads["graph"]))
    assert loop.graphs_received == 1
    assert loop.runtime.retained_input_buffers == 0  # retain defaults off

    loop, result = _completes("blob", payloads, transport_driver)
    data = payloads["blob"]
    assert (result["op"], result["key"]) == ("put_blob", "bucket")
    assert (result["bytes"], result["crc32"]) == (len(data), zlib.crc32(data))
    assert loop._blobs == {"bucket": data}


def test_mux_stream_happy_path(payloads, transport_driver):
    loop, result = _completes("epoch", payloads, transport_driver)
    assert result["ok"] and result["channel_id"] == CHANNEL
    assert result["stream_bytes"] == len(payloads["epoch"])
    assert result["digest"] == semantic_graph_digest(
        transport_driver.jvm, [payloads["head"]])
    assert loop.epochs_applied == 1


# ---------------------------------------------------------------------------
# bad trailers
# ---------------------------------------------------------------------------

BAD_TRAILERS = pytest.mark.parametrize("spoil,expect", [
    (lambda total, crc, chunks: (total + 1, crc, chunks), "stream bytes"),
    (lambda total, crc, chunks: (total, crc, chunks + 1), "chunks"),
    (lambda total, crc, chunks: (total, crc ^ 0xBADBAD, chunks),
     "CRC mismatch"),
], ids=["total", "chunks", "crc"])


def _rejects_bad_trailer(kind, payloads, driver, spoil, expect):
    loop, conn = _served(driver)
    _feed(loop, conn, *_stream(HEADERS[kind], payloads[kind], spoil=spoil))
    _assert_failed(loop, conn, "TransportClosed", expect)
    loop._process_ready()
    _assert_heap_untouched(loop, conn)


@BAD_TRAILERS
def test_classic_stream_rejects_bad_trailers(payloads, transport_driver,
                                             spoil, expect):
    for kind in BULK_KINDS:
        _rejects_bad_trailer(kind, payloads, transport_driver, spoil, expect)


@BAD_TRAILERS
def test_mux_stream_rejects_bad_trailers(payloads, transport_driver, spoil,
                                         expect):
    _rejects_bad_trailer("epoch", payloads, transport_driver, spoil, expect)


def test_a_refused_epoch_streams_trailer_is_still_checked(loop, conn):
    """Channel 0 is refused at the opener and its bytes discarded — but
    counted, so its trailer is checked like any other: a bad one is
    protocol-fatal, a good one answers ``ok=false`` on a live
    connection."""
    refused = HEADERS["epoch"]._replace(stream_id=0)
    _feed(loop, conn, *_stream(refused, b"data"))
    result = _result(conn)
    assert (result["ok"], result["channel_id"]) == (False, 0)
    assert result["error_kind"] == "ClusterProtocolError"
    assert not conn.closing and not conn.streams

    _feed(loop, conn, *_stream(refused, b"data", spoil=lambda t, c, n: (
        t, c ^ 1, n)))
    _assert_failed(loop, conn, "TransportClosed", "CRC mismatch")


# ---------------------------------------------------------------------------
# frames outside the protocol
# ---------------------------------------------------------------------------

#: What arrives after an open stream's first chunk, per case.
OUT_OF_PROTOCOL = {
    "foreign": lambda header: (frames.ERROR, frames.encode_error(
        "SkywayStreamError", "sender blew up")),
    "data-unopened": lambda header: _data(header.stream_id + 1, b"data"),
    "trailer-unopened": lambda header: _trailer(
        header.stream_id + 1, 4, 0, 1),
    "reopened": lambda header: _opener(header),
}


def _rejects_out_of_protocol(kind, payloads, driver, case):
    loop, conn = _served(driver)
    header = HEADERS[kind]
    _feed(loop, conn, _opener(header, payloads[kind]),
          _data(header.stream_id, payloads[kind][:64]),
          OUT_OF_PROTOCOL[case](header))
    _assert_failed(loop, conn, "TransportError", "protocol violation")


def test_classic_stream_rejects_a_foreign_frame_mid_stream(
        payloads, transport_driver):
    for kind in BULK_KINDS:
        for case in OUT_OF_PROTOCOL:
            _rejects_out_of_protocol(kind, payloads, transport_driver, case)
        # A second bulk stream cannot dodge the one-at-a-time rule by
        # taking a channel's id.
        loop, conn = _served()
        _feed(loop, conn, _opener(HEADERS[kind]),
              _opener(HEADERS[kind]._replace(stream_id=CHANNEL)))
        _assert_failed(loop, conn, "TransportError",
                       f"must use id {frames.BULK_STREAM}, not {CHANNEL}")


@pytest.mark.parametrize("case", [
    "data-unopened", "trailer-unopened", "epoch-reopened", "foreign",
])
def test_mux_stream_rejects_out_of_protocol_frames(payloads,
                                                   transport_driver, case):
    _rejects_out_of_protocol("epoch", payloads, transport_driver,
                             "reopened" if case == "epoch-reopened" else case)


def test_epoch_opener_without_its_digest_flag_is_corrupt(loop, conn):
    """The digest flag is part of an epoch's opener: a payload that stops
    short of it is a short payload like any other."""
    _ftype, whole = _opener(HEADERS["epoch"])
    _feed(loop, conn, (frames.STREAM, whole[:-1]))
    _assert_failed(loop, conn, "FrameCorruptionError",
                   "malformed STREAM payload")


def test_epochs_are_not_a_call_op(loop, conn):
    """Since v3 no epoch, and since v4 no graph or blob, is a CALL op: the
    CALL answers the typed unknown-op error."""
    assert not {"recv_epoch", "recv_graph", "recv_blob",
                "put_blob"} & set(loop._OPS)
    _feed(loop, conn, _call("recv_epoch"))
    _assert_failed(loop, conn, "TransportError", "unknown op 'recv_epoch'")


def test_a_v4_peer_fails_at_hello(loop, conn):
    """A mixed pair never gets as far as a frame one side no longer has:
    a v4 driver would send an epoch as three frames and read a JSON
    RESULT."""
    _feed(loop, conn, (frames.HELLO, frames.encode_hello(
        "old-driver", {}, version=frames.PROTOCOL_VERSION - 1)))
    _assert_failed(loop, conn, "TransportError",
                   "protocol version mismatch: peer 'old-driver' speaks v4")


# ---------------------------------------------------------------------------
# interleaving, peer death, stalls
# ---------------------------------------------------------------------------

def test_a_blob_stream_and_epoch_streams_interleave(transport_driver):
    """While the bulk stream carries a blob, two epoch streams interleave
    their chunks with its chunks and with each other's; all three
    complete and answer."""
    driver = transport_driver
    heads, channels, sent = [], [], []
    for channel_id in (CHANNEL, CHANNEL + 1):
        head = make_list(driver.jvm, range(channel_id * 100,
                                           channel_id * 100 + 30))
        channel = DeltaSendChannel(driver, "sm-worker", channel_id=channel_id)
        heads.append(head)
        channels.append(channel)
        sent.append(_stream(HEADERS["epoch"]._replace(stream_id=channel_id),
                            channel.send([head]), chunk_bytes=48))
    blob = b"interleaved blob" * 100
    sent.append(_stream(HEADERS["blob"], blob, chunk_bytes=300))
    loop, conn = _served(driver)
    order = []
    while any(sent):  # round-robin, one frame per stream per turn
        for frames_left in sent:
            if frames_left:
                order.append(frames_left.pop(0))
    _feed(loop, conn, *order)
    blob_result = _result(conn)  # answered at its trailer
    assert (blob_result["op"], blob_result["bytes"]) == ("put_blob",
                                                          len(blob))
    assert loop._blobs == {"bucket": blob}
    loop._process_ready()
    results = {}
    for ftype, payload in _replies(conn):
        assert ftype == frames.RESULT
        result = frames.decode_result(payload)
        results[result["channel_id"]] = result
    for channel, head in zip(channels, heads):
        result = results[channel.channel_id]
        assert result["ok"], result
        assert result["digest"] == semantic_graph_digest(driver.jvm, [head])
        channel.close()
    assert not conn.streams and not conn.closing


def _dies_mid_stream(kind, payloads, driver):
    loop, conn = _served(driver)
    header = HEADERS[kind]
    _feed(loop, conn, _opener(header, payloads[kind]),
          _data(header.stream_id, payloads[kind][:64]))
    loop._on_readable(conn)  # EOF before any TRAILER
    assert conn.closed and conn not in loop._conns
    loop._process_ready()
    assert _replies(conn) == []
    _assert_heap_untouched(loop, conn)


def test_classic_stream_peer_death_tracks_nothing(payloads,
                                                  transport_driver):
    for kind in BULK_KINDS:
        _dies_mid_stream(kind, payloads, transport_driver)


def test_mux_stream_peer_death_applies_nothing(payloads, transport_driver):
    _dies_mid_stream("epoch", payloads, transport_driver)


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


def test_stream_stalled_mid_op_times_out(payloads, transport_driver):
    for kind in HEADERS:
        loop, conn = _served(transport_driver)
        header = HEADERS[kind]
        _feed(loop, conn, _opener(header, payloads[kind]),
              _data(header.stream_id, payloads[kind][:64]))
        conn.last_activity -= loop.spec.read_timeout + 1.0
        loop._reap_stalled()
        _assert_failed(loop, conn, "TransportTimeout", "stalled")


# ---------------------------------------------------------------------------
# v5: one-frame epochs and the binary epoch RESULT
# ---------------------------------------------------------------------------

def _inline(header, data):
    """A whole epoch in its opener: the one frame a small epoch is."""
    return frames.STREAM, frames.encode_stream(
        header._replace(frame_kind=data[0] if data else 0, inline=data))


def test_a_one_frame_epoch_is_queued_and_answered_in_binary(
        payloads, transport_driver):
    loop, conn = _served(transport_driver)
    _feed(loop, conn, _inline(HEADERS["epoch"], payloads["epoch"]))
    assert len(conn.ready) == 1 and not conn.streams
    assert _replies(conn) == []
    loop._process_ready()
    [(ftype, payload)] = _replies(conn)
    assert ftype == frames.RESULT and payload[:1] != b"{"
    result = frames.decode_epoch_result(payload)
    assert result["ok"] and result["channel_id"] == CHANNEL
    assert (result["kind"], result["roots"]) == ("full", 1)
    assert result["stream_bytes"] == len(payloads["epoch"])
    assert result["digest"] == semantic_graph_digest(
        transport_driver.jvm, [payloads["head"]])
    assert frames.decode_epoch_result(
        frames.encode_epoch_result(result)) == result
    assert loop.epochs_applied == 1 and conn.queued_bytes == 0


def test_a_one_frame_epoch_on_an_open_stream_id_is_a_violation(payloads,
                                                               transport_driver):
    loop, conn = _served(transport_driver)
    header, data = HEADERS["epoch"], payloads["epoch"]
    _feed(loop, conn, _opener(header, data), _data(CHANNEL, data[:64]),
          _inline(header, data))
    _assert_failed(loop, conn, "TransportError",
                   f"protocol violation: stream {CHANNEL} opened again")


def test_a_refused_channels_one_frame_epoch_answers_ok_false(loop, conn):
    _feed(loop, conn, _inline(HEADERS["epoch"]._replace(stream_id=0),
                              b"\x01data"))
    result = _result(conn)
    assert (result["ok"], result["channel_id"]) == (False, 0)
    assert result["error_kind"] == "ClusterProtocolError"
    assert not conn.closing and not conn.ready and conn.queued_bytes == 0


def test_a_traced_one_frame_epoch_ships_its_spans(payloads, transport_driver):
    """The opener's ``traced`` flag runs the epoch under the connection's
    TRACE, its spans parented to the driver's span; an epoch opened
    without the flag runs untraced although the TRACE is still there."""
    loop, conn = _served(transport_driver)
    _feed(loop, conn, (frames.TRACE, frames.encode_trace("t-42", "s-7")),
          _inline(HEADERS["epoch"]._replace(traced=True), payloads["epoch"]))
    try:
        loop._process_ready()
    finally:
        obs.disable()
    result = _result(conn)
    assert result["ok"]
    spans = {span["name"]: span for span in result["trace"]["spans"]}
    assert spans["worker.recv_epoch"]["parent_id"] == "s-7"
    assert spans["worker.recv_epoch"]["trace_id"] == "t-42"
    assert "recv.digest" in spans

    driver = transport_driver
    channel = DeltaSendChannel(driver, "sm-worker", channel_id=CHANNEL + 1)
    head = make_list(driver.jvm, range(3))
    _feed(loop, conn, _inline(
        HEADERS["epoch"]._replace(stream_id=CHANNEL + 1),
        channel.send([head])))
    loop._process_ready()
    channel.close()
    result = _result(conn)
    assert result["ok"] and "trace" not in result


@pytest.mark.parametrize("cut", [1, 8, 33], ids=["flags", "fixed", "digest"])
def test_a_truncated_epoch_result_is_a_typed_error(payloads,
                                                   transport_driver, cut):
    loop, conn = _served(transport_driver)
    _feed(loop, conn, _inline(HEADERS["epoch"], payloads["epoch"]))
    loop._process_ready()
    [(_ftype, payload)] = _replies(conn)
    with pytest.raises(FrameCorruptionError, match="malformed epoch RESULT"):
        frames.decode_result(payload[:-cut])


def test_an_epoch_result_with_trailing_bytes_is_a_typed_error():
    record = frames.encode_epoch_result({
        "ok": False, "channel_id": 3, "epoch": 2,
        "error_kind": "DeltaStaleError", "error": "retained epoch is 0"})
    assert frames.decode_result(record)["error_kind"] == "DeltaStaleError"
    with pytest.raises(FrameCorruptionError, match="1 trailing bytes"):
        frames.decode_result(record + b"\x00")
