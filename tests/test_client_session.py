"""``WorkerClient`` against a scripted server.

The server replays fixed transcripts — one scripted reply per frame the
client sends — and each transcript pins what the client does with it:
succeed, or raise one typed error, message included.  Plain CALL ops
first, then epoch streams (``ok=false``, an untagged RESULT, an ERROR in
place of a RESULT, an ERROR and hang-up mid-write).  Also here: the
client's obs-source lifecycle, and ``FrameConnection.pending_remote_error``
leaving the connection's read timeout as it found it."""

import socket
import threading

import pytest

from repro import obs
from repro.transport import client as client_module
from repro.transport import (
    FrameConnection,
    RemoteWorkerError,
    TransportClosed,
    TransportTimeout,
    WorkerClient,
    connect_with_retry,
    frames,
)

READ_TIMEOUT = 0.3

HELLO_ACK = frames.encode_frame(
    frames.HELLO_ACK, frames.encode_hello_ack("scripted-worker", []))
RESULT = frames.encode_frame(
    frames.RESULT, frames.encode_json({"op": "ping", "echo": 7}))
ERROR = frames.encode_frame(
    frames.ERROR, frames.encode_error("Boom", "it broke"))
WRONG = frames.encode_frame(frames.DATA, b"stray chunk")
SILENCE = b""
NACK = frames.encode_frame(frames.RESULT, frames.encode_json({
    "op": "recv_epoch", "ok": False, "channel_id": 7, "epoch": 2,
    "error_kind": "DeltaStaleError", "error": "retained epoch is 0"}))


class ScriptedServer:
    """Accepts one connection and answers the client's n-th frame with the
    n-th scripted reply (raw bytes, so a reply can be half a frame);
    ``hang_up`` closes right after the last reply instead of waiting for
    the client to."""

    def __init__(self, replies, hang_up=False):
        self._replies = list(replies)
        self._hang_up = hang_up
        self._listener = socket.create_server(("127.0.0.1", 0))
        # Inherited by the accepted socket: a client that writes on after
        # the script has gone quiet fills the window and blocks, instead
        # of parking megabytes in kernel buffers.
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                  64 * 1024)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        sock, _addr = self._listener.accept()
        decoder = frames.FrameDecoder()
        with sock:
            pending = list(self._replies)
            while pending or not self._hang_up:
                data = sock.recv(65536)
                if not data:
                    return
                decoder.feed(data)
                while pending and decoder.next_frame() is not None:
                    sock.sendall(pending.pop(0))

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


@pytest.fixture
def scripted(transport_driver):
    """``scripted(replies, hang_up)`` -> a client (not yet connected) facing
    a server that plays ``replies``; both are torn down after the test."""
    opened = []

    def make(replies, hang_up=False):
        server = ScriptedServer(replies, hang_up)
        client = WorkerClient(transport_driver, "127.0.0.1", server.port,
                              read_timeout=READ_TIMEOUT)
        opened.extend((client, server))
        return client

    yield make
    for endpoint in opened:
        endpoint.close()


TRANSCRIPTS = {
    # name: (replies, hang_up, expected outcome)
    "hello-ack-then-result": (
        [HELLO_ACK, RESULT], False,
        ("ok", {"op": "ping", "echo": 7}, "scripted-worker")),
    "error-in-place-of-result": (
        [HELLO_ACK, ERROR], False,
        ("raised", RemoteWorkerError,
         "remote worker error [Boom]: it broke")),
    "error-in-place-of-hello-ack": (
        [ERROR], False,
        ("raised", RemoteWorkerError,
         "remote worker error [Boom]: it broke")),
    "wrong-frame-in-place-of-result": (
        [HELLO_ACK, WRONG], False,
        ("raised", TransportClosed,
         "protocol violation: expected RESULT, peer sent DATA")),
    "wrong-frame-in-place-of-hello-ack": (
        [RESULT], False,
        ("raised", TransportClosed,
         "protocol violation: expected HELLO_ACK, peer sent RESULT")),
    "eof-mid-frame": (
        [HELLO_ACK, RESULT[:6]], True,
        ("raised", TransportClosed,
         "peer closed the connection mid-conversation (6 bytes of a "
         "partial frame buffered)")),
    "read-timeout": (
        [HELLO_ACK, SILENCE], False,
        ("raised", TransportTimeout, "timed out waiting for a frame")),
}


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_client_reads_a_transcript(name, scripted):
    """``connect()`` then one ``ping`` CALL against the transcript."""
    replies, hang_up, expected = TRANSCRIPTS[name]
    client = scripted(replies, hang_up)
    try:
        outcome = ("ok", client.connect().call_op("ping", echo=7),
                   client.peer_name)
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        outcome = "raised", type(exc), str(exc)
    assert outcome == expected


# The handshake, then the two of a single-chunk epoch's three frames (EPOCH,
# MUX_DATA, MUX_TRAILER) that draw no reply.
EPOCH_SENT = [HELLO_ACK, SILENCE, SILENCE]


def test_epoch_nack_is_typed_and_the_connection_lives(scripted):
    """``ok=false`` raises the remote kind; the next op on the same
    connection is answered."""
    client = scripted([*EPOCH_SENT, NACK, RESULT]).connect()
    conn = client._require_conn()
    with pytest.raises(RemoteWorkerError) as excinfo:
        client.send_epoch(b"\x02delta", 7, 2)
    assert (excinfo.value.kind, excinfo.value.message) == (
        "DeltaStaleError", "retained epoch is 0")
    assert client.call_op("ping", echo=7) == {"op": "ping", "echo": 7}
    assert client._require_conn() is conn


def test_epoch_result_without_a_channel_id_cannot_be_demultiplexed(scripted):
    client = scripted([*EPOCH_SENT, RESULT]).connect()
    with pytest.raises(TransportClosed, match="carries no channel_id"):
        client.send_epoch(b"\x01full", 7, 1)


def test_error_in_place_of_an_epoch_result_is_raised_not_hung(scripted):
    client = scripted([*EPOCH_SENT, ERROR]).connect()
    with pytest.raises(RemoteWorkerError, match=r"\[Boom\]: it broke"):
        client.send_epoch(b"\x01full", 7, 1)


def test_error_then_hang_up_mid_write_raises_the_remote_error(
        scripted, monkeypatch):
    """The worker rejects the stream at its first chunk (bad CRC, say),
    answers ERROR and closes while megabytes are still going out: the
    write fails locally, and the worker's explanation wins over the
    symptom."""
    # One write for the whole stream, so the hang-up lands inside it and
    # no between-writes poll can find the ERROR first.
    monkeypatch.setattr(client_module, "MUX_FLUSH_BYTES", 1 << 30)
    client = scripted([HELLO_ACK, SILENCE, ERROR], hang_up=True).connect()
    with pytest.raises(RemoteWorkerError,
                       match=r"\[Boom\]: it broke") as excinfo:
        client.send_epoch(b"\x01" + bytes(8 * 1024 * 1024), 7, 1)
    assert isinstance(excinfo.value.__cause__, TransportClosed)


def test_session_registers_its_obs_source_until_close(transport_driver):
    """The client's wall-clock ledger shows up in ``python -m repro.obs``
    snapshots while connected, and nothing outlives the connection."""
    server = ScriptedServer([HELLO_ACK])

    def sources():
        return [name for name in obs.registry().snapshot()["sources"]
                if name.startswith(
                    f"transport.src-probe->127.0.0.1:{server.port}#")]

    client = WorkerClient(transport_driver, "127.0.0.1", server.port,
                          node_name="src-probe")
    try:
        assert sources() == []
        client.connect()
        [source] = sources()
        assert (obs.registry().snapshot()["sources"][source]
                == client.metrics.as_dict())
    finally:
        client.close()
        server.close()
    assert sources() == []


def test_peek_for_a_remote_error_restores_the_read_timeout():
    """``pending_remote_error`` waits only briefly — and then hands the
    connection back at its configured timeout, still usable."""
    server = ScriptedServer([SILENCE, RESULT])
    conn = FrameConnection(connect_with_retry("127.0.0.1", server.port),
                           read_timeout=7.5)
    try:
        conn.send_frame(frames.CALL, frames.encode_json({"op": "ping"}))
        assert conn.pending_remote_error(wait=0.05) is None
        assert conn.raw_socket.gettimeout() == 7.5
        conn.send_frame(frames.CALL, frames.encode_json({"op": "ping"}))
        assert frames.decode_json(conn.expect_frame(frames.RESULT),
                                  what="RESULT")["echo"] == 7
    finally:
        conn.close()
        server.close()


def test_peek_for_a_remote_error_finds_one_and_restores_the_timeout():
    server = ScriptedServer([ERROR])
    conn = FrameConnection(connect_with_retry("127.0.0.1", server.port),
                           read_timeout=7.5)
    try:
        conn.send_frame(frames.CALL, frames.encode_json({"op": "ping"}))
        remote = conn.pending_remote_error(wait=2.0)
        assert (remote.kind, remote.message) == ("Boom", "it broke")
        assert conn.raw_socket.gettimeout() == 7.5
    finally:
        conn.close()
        server.close()
