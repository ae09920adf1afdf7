"""Skyway's developer-facing stream API (paper §3.3).

``SkywayObjectOutputStream`` / ``SkywayObjectInputStream`` are the
Java-serializer-compatible entry points: ``write_object(o)`` on one side,
``read_object()`` on the other, with file and socket variants.  Switching a
program to Skyway is "instantiate stream to be a SkywayFileOutputStream
object instead of any other type of ObjectOutputStream" — the call sites do
not change.

Wire framing (this reproduction's equivalent of the paper's stream
protocol): a sequence of varint-length-prefixed segments (each a flush of
the output buffer, containing whole objects), a zero terminator, then a
trailer carrying the top marks — the sender-side root index that saves the
receiver a graph traversal (§4.2 "Root Object Recognition") — and the total
logical size.

The output stream takes an optional ``transport=`` seam.  The default
(``None``) is the in-process path: ``close()`` returns the framed bytes,
``accept()`` takes them.  A transport object routes the same byte stream
over a real boundary instead: the output stream *feeds* bytes to it as
segments flush (so a pipelined sender overlaps traversal with socket I/O,
§4.2); the receiving worker feeds arriving chunks straight to an
:class:`IncrementalStreamDecoder`.  See :mod:`repro.transport` for the
socket implementation.

Malformed input — truncated frames, bit-flipped varints, corrupt type IDs
— always surfaces as one typed :class:`SkywayStreamError`; the decoder
never leaks a bare ``struct.error``/``KeyError`` and never exposes a
partially-placed graph (roots only come from a completed trailer whose
logical-size check passed).
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional

from repro import obs
from repro.core.compact import CompactCodecError, CompactSegmentCodec
from repro.core.input_buffer import InputBufferError
from repro.core.receiver import ObjectGraphReceiver, ReceiveError
from repro.core.runtime import SkywayRuntime
from repro.core.sender import ObjectGraphSender
from repro.core.type_registry import TypeRegistryError
from repro.heap.handles import Handle
from repro.heap.layout import HeapLayout
from repro.net.cluster import Cluster, Node
from repro.net.disk import Disk
from repro.net.streams import ByteInputStream, ByteOutputStream, StreamError


class SkywayStreamError(RuntimeError):
    pass


#: Upper bound on one flushed segment / trailer field.  Real segments are
#: bounded by the output-buffer capacity (or one oversized object); a
#: corrupt length varint can claim up to 2^70 bytes, and this cap turns
#: that into a typed error instead of an allocation attempt.
_MAX_SEGMENT_BYTES = 1 << 30
#: Exceptions the decoder converts into SkywayStreamError.  KeyError covers
#: ClassNotFoundError, ValueError/OverflowError cover int conversions on
#: corrupt words, MemoryError covers absurd corrupt allocation sizes.
_DECODE_FAILURES = (
    StreamError,
    ReceiveError,
    InputBufferError,
    CompactCodecError,
    TypeRegistryError,
    KeyError,
    ValueError,
    OverflowError,
    MemoryError,
    struct.error,
    UnicodeDecodeError,
)


class SkywayObjectOutputStream:
    """Object-writing side, framing flushed segments into a byte stream.

    ``compress_headers`` enables the compact transfer encoding (the §5.2
    future-work option): headers/padding are deflated per segment at extra
    per-field CPU cost.  The frame's first byte carries the codec id so
    receivers self-configure.

    ``transport`` (optional) receives the framed bytes *incrementally*:
    ``transport.feed(data)`` after every flush, then
    ``transport.finish(total_bytes, crc32)`` at close — the hook a
    pipelined socket sender uses to overlap traversal with the wire.
    """

    def __init__(
        self,
        runtime: SkywayRuntime,
        destination: str,
        thread_id: int = 0,
        target_layout: Optional[HeapLayout] = None,
        compress_headers: bool = False,
        transport=None,
        use_kernels: Optional[bool] = None,
    ) -> None:
        self.runtime = runtime
        self._frame = ByteOutputStream()
        self.sender: ObjectGraphSender = runtime.new_sender(
            destination, thread_id=thread_id, target_layout=target_layout,
            fresh_buffer=True, use_kernels=use_kernels,
        )
        self._codec: Optional[CompactSegmentCodec] = None
        if compress_headers:
            self._codec = CompactSegmentCodec(
                runtime.jvm, runtime.view, self.sender.target_layout
            )
        self._transport = transport
        self._pumped = 0
        self._frame.write_u8(1 if compress_headers else 0)
        self.sender.buffer.set_sink(self._on_flush)
        self._closed = False

    def _on_flush(self, segment: bytes) -> None:
        if self._codec is not None:
            segment = self._codec.compress(segment)
        self._frame.write_varint(len(segment))
        self._frame.write_bytes(segment)
        self._pump()

    def _pump(self) -> None:
        """Forward newly framed bytes to the transport, if any."""
        if self._transport is None:
            return
        tail = self._frame.tail(self._pumped)
        if tail:
            self._pumped += len(tail)
            self._transport.feed(tail)

    def write_object(self, root: int) -> int:
        """Paper-compatible ``stream.writeObject(o)``."""
        if self._closed:
            raise SkywayStreamError("stream is closed")
        with obs.span("send.traverse", clock=self.runtime.jvm.clock) as sp:
            offset = self.sender.write_object(root)
            sp.set(objects=self.sender.objects_sent)
        return offset

    def close(self) -> bytes:
        """Flush, append the trailer, and return the framed bytes."""
        if self._closed:
            raise SkywayStreamError("stream already closed")
        self._closed = True
        with obs.span("send.flush", clock=self.runtime.jvm.clock) as sp:
            self.sender.buffer.flush()
            self._frame.write_varint(0)  # segment terminator
            self._frame.write_varint(len(self.sender.top_marks))
            for mark in self.sender.top_marks:
                self._frame.write_varint(mark)
            self._frame.write_varint(self.sender.buffer.logical_size)
            data = self._frame.getvalue()
            sp.set(stream_bytes=len(data))
            if self._transport is not None:
                self._pump()
                self._transport.finish(len(data), zlib.crc32(data))
        return data

    @property
    def bytes_written(self) -> int:
        return len(self._frame)


class IncrementalStreamDecoder:
    """Chunk-at-a-time parser for the framed Skyway stream.

    Bytes arrive in arbitrary slices (socket chunks need not align with
    segment boundaries); whole segments are handed to the receiver as soon
    as they complete, so placement overlaps the sender's traversal — the
    receive half of the §4.2 pipeline.  ``finish()`` is only legal once
    the trailer parsed and its logical-size check passed.
    """

    _CODEC, _SEGMENTS, _MARK_COUNT, _MARKS, _SIZE, _DONE = range(6)

    def __init__(
        self,
        runtime: SkywayRuntime,
        receiver: Optional[ObjectGraphReceiver] = None,
    ) -> None:
        self.runtime = runtime
        self.receiver = receiver if receiver is not None else runtime.new_receiver()
        self._codec: Optional[CompactSegmentCodec] = None
        self._buf = bytearray()
        self._pos = 0
        self._state = self._CODEC
        self._marks: List[int] = []
        self._mark_count = 0
        self._expected_size: Optional[int] = None
        self.bytes_fed = 0
        self.segments_decoded = 0

    # -- incremental varint ------------------------------------------------

    def _try_varint(self) -> Optional[int]:
        """Parse one varint at the cursor; None if more bytes are needed."""
        result = 0
        shift = 0
        i = self._pos
        while i < len(self._buf):
            b = self._buf[i]
            i += 1
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                self._pos = i
                return result
            shift += 7
            if shift > 70:
                raise SkywayStreamError("corrupt stream: varint too long")
        return None

    def _bounded_varint(self, what: str) -> Optional[int]:
        value = self._try_varint()
        if value is not None and value > _MAX_SEGMENT_BYTES:
            raise SkywayStreamError(
                f"corrupt stream: {what} of {value} bytes exceeds the "
                f"{_MAX_SEGMENT_BYTES}-byte bound"
            )
        return value

    # -- feeding -----------------------------------------------------------

    def feed(self, chunk: bytes) -> None:
        """Consume one arbitrary slice of the framed stream."""
        if self._state == self._DONE and chunk:
            raise SkywayStreamError(
                f"{len(chunk)} trailing bytes after the stream trailer"
            )
        self._buf.extend(chunk)
        self.bytes_fed += len(chunk)
        try:
            self._advance()
        except SkywayStreamError:
            raise
        except _DECODE_FAILURES as exc:
            raise SkywayStreamError(
                f"corrupt stream at byte {self.bytes_fed - len(self._buf) + self._pos}: "
                f"{exc.__class__.__name__}: {exc}"
            ) from exc
        # Drop consumed prefix so long streams stay O(chunk) resident.
        if self._pos > 64 * 1024:
            del self._buf[: self._pos]
            self._pos = 0

    def _advance(self) -> None:
        while True:
            saved = self._pos
            if self._state == self._CODEC:
                if self._pos >= len(self._buf):
                    return
                flag = self._buf[self._pos]
                self._pos += 1
                if flag not in (0, 1):
                    raise SkywayStreamError(f"unknown stream codec id {flag}")
                if flag:
                    self._codec = CompactSegmentCodec(
                        self.runtime.jvm, self.runtime.view,
                        self.runtime.jvm.layout,
                    )
                self._state = self._SEGMENTS
            elif self._state == self._SEGMENTS:
                seg_len = self._bounded_varint("segment")
                if seg_len is None:
                    return
                if seg_len == 0:
                    self._state = self._MARK_COUNT
                    continue
                if self._pos + seg_len > len(self._buf):
                    self._pos = saved  # wait for the whole segment
                    return
                # The receiver copies it: a view, released before a trim.
                start = self._pos
                self._pos += seg_len
                with memoryview(self._buf)[start : self._pos] as segment:
                    self.receiver.feed(segment if self._codec is None else
                                       self._codec.decompress(bytes(segment)))
                self.segments_decoded += 1
            elif self._state == self._MARK_COUNT:
                count = self._bounded_varint("top-mark count")
                if count is None:
                    return
                self._mark_count = count
                self._state = self._MARKS
            elif self._state == self._MARKS:
                if len(self._marks) >= self._mark_count:
                    self._state = self._SIZE
                    continue
                mark = self._try_varint()
                if mark is None:
                    return
                self._marks.append(mark)
            elif self._state == self._SIZE:
                size = self._try_varint()
                if size is None:
                    return
                self._expected_size = size
                self._state = self._DONE
                if self._pos < len(self._buf):
                    raise SkywayStreamError(
                        f"{len(self._buf) - self._pos} trailing bytes after "
                        f"the stream trailer"
                    )
            else:  # _DONE
                return

    @property
    def complete(self) -> bool:
        return self._state == self._DONE

    def finish(self) -> List[Handle]:
        """Run absolutization and return the pinned top objects."""
        if self._state != self._DONE:
            raise SkywayStreamError(
                "stream truncated: ended before the trailer completed "
                f"(decoder state {self._state}, {self.bytes_fed} bytes fed)"
            )
        if self.receiver.buffer.logical_size != self._expected_size:
            raise SkywayStreamError(
                f"stream carried {self.receiver.buffer.logical_size} logical "
                f"bytes, trailer promised {self._expected_size}"
            )
        try:
            with obs.span("recv.absolutize",
                          clock=self.runtime.jvm.clock) as sp:
                roots = self.receiver.finish(self._marks)
                sp.set(roots=len(roots),
                       objects=self.receiver.objects_received)
            return roots
        except _DECODE_FAILURES as exc:
            raise SkywayStreamError(
                f"absolutization failed: {exc.__class__.__name__}: {exc}"
            ) from exc

    @property
    def top_marks(self) -> List[int]:
        return list(self._marks)


class SkywayObjectInputStream:
    """Object-reading side: feed framed bytes, then pop root objects."""

    def __init__(self, runtime: SkywayRuntime) -> None:
        self.runtime = runtime
        self.receiver: ObjectGraphReceiver = runtime.new_receiver()
        self._roots: List[Handle] = []
        self._cursor = 0
        self._finished = False
        self._buffer_token: Optional[int] = None

    def accept(self, data: bytes) -> None:
        """Consume a complete framed byte stream (segments + trailer)."""
        if self._finished:
            raise SkywayStreamError("stream already finished")
        decoder = IncrementalStreamDecoder(self.runtime, receiver=self.receiver)
        with obs.span("recv.accept", clock=self.runtime.jvm.clock):
            decoder.feed(data)
            self._roots = decoder.finish()
        self._buffer_token = self.runtime.track_input_buffer(
            self.receiver, self._roots
        )
        self._finished = True

    def read_object(self) -> int:
        """Paper-compatible ``stream.readObject()``: next top object."""
        if not self._finished:
            raise SkywayStreamError(
                "read_object before the stream finished (absolutization "
                "must complete first, paper §4.3)"
            )
        if self._cursor >= len(self._roots):
            raise SkywayStreamError("no more top objects in this stream")
        root = self._roots[self._cursor]
        self._cursor += 1
        return root.address

    def has_next(self) -> bool:
        return self._finished and self._cursor < len(self._roots)

    @property
    def root_count(self) -> int:
        return len(self._roots)

    @property
    def buffer_token(self) -> Optional[int]:
        """The runtime retention token for this stream's input buffer
        (delta channels keep the buffer alive across epochs)."""
        return self._buffer_token

    def close(self) -> None:
        """Free this stream's input buffer (the explicit API of §3.2)."""
        if self._buffer_token is not None:
            self.runtime.free_input_buffer(self._buffer_token)
            self._buffer_token = None
        self._roots = []


# ---------------------------------------------------------------------------
# file variants
# ---------------------------------------------------------------------------

class SkywayFileOutputStream(SkywayObjectOutputStream):
    """Writes the framed stream to a simulated disk file on close."""

    def __init__(
        self,
        runtime: SkywayRuntime,
        disk: Disk,
        filename: str,
        thread_id: int = 0,
        target_layout: Optional[HeapLayout] = None,
    ) -> None:
        super().__init__(
            runtime, destination=f"file:{filename}", thread_id=thread_id,
            target_layout=target_layout,
        )
        self._disk = disk
        self._filename = filename

    def close(self) -> bytes:
        data = super().close()
        self._disk.write_file(self._filename, data)
        return data


class SkywayFileInputStream(SkywayObjectInputStream):
    """Reads a framed stream from a simulated disk file."""

    def __init__(self, runtime: SkywayRuntime, disk: Disk, filename: str) -> None:
        super().__init__(runtime)
        self.accept(disk.read_file(filename))


# ---------------------------------------------------------------------------
# socket variants
# ---------------------------------------------------------------------------

class SkywaySocketOutputStream(SkywayObjectOutputStream):
    """Streams over the cluster network to a peer node on close."""

    def __init__(
        self,
        runtime: SkywayRuntime,
        cluster: Cluster,
        src: Node,
        dst: Node,
        thread_id: int = 0,
        target_layout: Optional[HeapLayout] = None,
        transport=None,
    ) -> None:
        if target_layout is None:
            # Consult the cluster format config (paper §3.1) so senders
            # re-format clones for destinations with different layouts.
            target_layout = runtime.layout_for_destination(dst.name)
        super().__init__(
            runtime, destination=f"node:{dst.name}", thread_id=thread_id,
            target_layout=target_layout, transport=transport,
        )
        self._cluster = cluster
        self._src = src
        self._dst = dst
        self.sent_bytes: Optional[bytes] = None

    def close(self) -> bytes:
        data = super().close()
        if self._transport is None:
            # Simulated wire: byte-account and charge the receiver's clock.
            self._cluster.transfer(self._src, self._dst, len(data))
        self.sent_bytes = data
        return data


class SkywaySocketInputStream(SkywayObjectInputStream):
    """Receiving end of a socket transfer."""

    def __init__(self, runtime: SkywayRuntime, data: bytes) -> None:
        super().__init__(runtime)
        self.accept(data)
