"""The one client session under ``WorkerClient`` and ``MuxEpochClient``.

A scripted server replays fixed transcripts — one scripted reply per frame
the client sends — against both clients; whatever the session does with a
transcript (succeed, or raise a typed error) must be identical for the two,
message included.  Also here: the session's obs-source lifecycle, and
``FrameConnection.pending_remote_error`` leaving the connection's read
timeout as it found it."""

import socket
import threading

import pytest

from repro import obs
from repro.transport import (
    FrameConnection,
    MuxEpochClient,
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


class ScriptedServer:
    """Accepts one connection and answers the client's n-th frame with the
    n-th scripted reply (raw bytes, so a reply can be half a frame);
    ``hang_up`` closes right after the last reply instead of waiting for
    the client to."""

    def __init__(self, replies, hang_up=False):
        self._replies = list(replies)
        self._hang_up = hang_up
        self._listener = socket.create_server(("127.0.0.1", 0))
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


def _run(client_cls, transport_driver, replies, hang_up=False):
    """``connect()`` then one ``ping`` CALL against the transcript; returns
    ``("ok", result, peer)`` or ``("raised", type, message)``."""
    server = ScriptedServer(replies, hang_up)
    client = client_cls(transport_driver, "127.0.0.1", server.port,
                        read_timeout=READ_TIMEOUT)
    try:
        client.connect()
        return "ok", client.call_op("ping", echo=7), client.peer_name
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return "raised", type(exc), str(exc)
    finally:
        client.close()
        server.close()


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
def test_both_clients_read_a_transcript_identically(name, transport_driver):
    replies, hang_up, expected = TRANSCRIPTS[name]
    classic = _run(WorkerClient, transport_driver, replies, hang_up)
    mux = _run(MuxEpochClient, transport_driver, replies, hang_up)
    assert classic == mux == expected


@pytest.mark.parametrize("client_cls", [WorkerClient, MuxEpochClient])
def test_session_registers_its_obs_source_until_close(client_cls,
                                                      transport_driver):
    """Both clients' wall-clock ledgers show up in ``python -m repro.obs``
    snapshots while connected, and nothing outlives the connection."""
    server = ScriptedServer([HELLO_ACK])

    def sources():
        return [name for name in obs.registry().snapshot()["sources"]
                if name.startswith(
                    f"transport.src-probe->127.0.0.1:{server.port}#")]

    client = client_cls(transport_driver, "127.0.0.1", server.port,
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
