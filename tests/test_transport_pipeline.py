"""Chunk pipeline mechanics: exact chunking, mode equivalence, stall
accounting, and writer-thread error propagation — all without a worker
process (a recording fake keeps these deterministic and fast).  The
receive side's trailer cross-checks live in ``test_aserve_protocol.py``;
the end-to-end "pipelining actually overlaps" measurement lives in the
transport benchmark."""

import zlib

import pytest

from repro.transport import frames
from repro.transport.errors import TransportClosed, TransportError
from repro.transport.metrics import TransportMetrics
from repro.transport.pipeline import ChunkPipeline


class RecordingConnection:
    """A ChunkPipeline-shaped sink that records frames instead of sending.

    ``delay_per_frame`` simulates a slow wire (for stall tests);
    ``fail_after`` raises on the Nth send (for writer-error tests).
    """

    def __init__(self, delay_per_frame=0.0, fail_after=None, error=None):
        self.metrics = TransportMetrics()
        self.frames = []
        self.delay_per_frame = delay_per_frame
        self.fail_after = fail_after
        self.error = error or TransportClosed("injected send failure")

    def send_frame(self, ftype, payload=b""):
        if self.fail_after is not None and len(self.frames) >= self.fail_after:
            raise self.error
        if self.delay_per_frame:
            import time
            time.sleep(self.delay_per_frame)
        self.frames.append((ftype, bytes(payload)))

    def send_encoded(self, data, what="frames"):
        decoder = frames.FrameDecoder()
        decoder.feed(data)
        for ftype, payload in decoder.frames():
            self.send_frame(ftype, payload)


def _run(conn, payload_pieces, total, chunk_bytes=4096, **kwargs):
    pipeline = ChunkPipeline(conn, chunk_bytes=chunk_bytes, **kwargs)
    crc = 0
    for piece in payload_pieces:
        pipeline.feed(piece)
        crc = zlib.crc32(piece, crc)
    pipeline.finish(total, crc)
    return pipeline


@pytest.mark.parametrize("store", [False, True],
                         ids=["pipelined", "store_and_forward"])
def test_exact_chunking_and_trailer(store):
    conn = RecordingConnection()
    data = bytes(range(256)) * 40  # 10240 bytes; odd-sized feeds
    pieces = [data[:3000], data[3000:3001], data[3001:9000], data[9000:]]
    pipeline = _run(conn, pieces, len(data), chunk_bytes=4096,
                    store_and_forward=store)
    types = [t for t, _ in conn.frames]
    assert types == [frames.DATA, frames.DATA, frames.DATA, frames.TRAILER]
    chunks = [frames.decode_data(p) for t, p in conn.frames
              if t == frames.DATA]
    assert {sid for sid, _chunk in chunks} == {frames.BULK_STREAM}
    assert [len(chunk) for _sid, chunk in chunks] == [4096, 4096, 2048]
    assert b"".join(chunk for _sid, chunk in chunks) == data
    assert frames.decode_trailer(conn.frames[-1][1]) == \
        (frames.BULK_STREAM, len(data), zlib.crc32(data), 3)
    assert pipeline.chunks == 3


def test_modes_emit_identical_frame_sequences():
    data = b"skyway" * 5000
    results = []
    for store in (False, True):
        conn = RecordingConnection()
        _run(conn, [data[:7777], data[7777:]], len(data), chunk_bytes=1024,
             store_and_forward=store)
        results.append(conn.frames)
    assert results[0] == results[1]


def test_queue_full_stalls_are_counted():
    """A slow wire with a 1-deep queue must block the feeding thread and
    count every blocked enqueue as a stall."""
    conn = RecordingConnection(delay_per_frame=0.005)
    _run(conn, [b"x" * 640], 640, chunk_bytes=64, queue_chunks=1)
    assert conn.metrics.queue_full_stalls > 0
    assert conn.metrics.stall_seconds > 0.0
    assert conn.metrics.chunks_sent == 10


def test_writer_error_surfaces_on_finish():
    conn = RecordingConnection(fail_after=0)
    pipeline = ChunkPipeline(conn, chunk_bytes=8)
    pipeline.feed(b"abcdefgh")  # dispatched; the writer thread will fail
    with pytest.raises(TransportClosed, match="injected"):
        pipeline.finish(8, zlib.crc32(b"abcdefgh"))


def test_writer_error_surfaces_while_feeding():
    conn = RecordingConnection(fail_after=0)
    pipeline = ChunkPipeline(conn, chunk_bytes=8, queue_chunks=1)
    with pytest.raises(TransportClosed, match="injected"):
        # The bounded queue forces feed() to interleave with the (failing)
        # writer, so the error surfaces here rather than at finish().
        for _ in range(1000):
            pipeline.feed(b"abcdefgh")
    pipeline.abort()


def test_non_transport_writer_error_is_wrapped():
    conn = RecordingConnection(fail_after=0, error=ValueError("boom"))
    pipeline = ChunkPipeline(conn, chunk_bytes=8)
    pipeline.feed(b"abcdefgh")
    with pytest.raises(TransportClosed, match="chunk writer failed"):
        pipeline.finish(8, zlib.crc32(b"abcdefgh"))


def test_feed_after_finish_is_refused():
    conn = RecordingConnection()
    pipeline = _run(conn, [b"data"], 4)
    with pytest.raises(TransportError, match="feed\\(\\) after finish"):
        pipeline.feed(b"more")
    with pytest.raises(TransportError, match="finish\\(\\) called twice"):
        pipeline.finish(4, 0)
