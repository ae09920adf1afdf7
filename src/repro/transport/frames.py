"""The chunked wire protocol: length-prefixed, CRC-checked frames.

Layout of one frame (little-endian)::

    +----------------+--------+----------------------+----------...--+
    | u32 length     | u8 typ | u32 crc32(payload)   | payload       |
    +----------------+--------+----------------------+----------...--+

``length`` counts payload bytes only.  The CRC covers the payload, so a
bit flip anywhere in a DATA chunk is caught by the receiver before any of
it reaches the stream decoder (the in-stream trailer checks catch only
*structural* corruption; payload integrity is this layer's job).

Frame conversation (driver = client, worker = server)::

    HELLO      -> driver's registry snapshot {class name -> tID}
    HELLO_ACK  <- worker's extra class names (present there, absent here);
                  both sides then install the same merged mapping
    TRACE      -> optional: trace id + parent span id, so worker spans
                  stitch under the driver's trace; worker spans return
                  inside the RESULT under "trace"
    CALL       -> JSON control op ("ping", "stats", ...)
    RESULT     <- JSON op result   |   ERROR <- typed remote failure
    STREAM     -> stream id + kind + the kind's fields: opens a stream; an
                  epoch that fits one chunk rides in it, DATA and TRAILER
                  implied
    DATA*      -> stream id + one chunk of that stream's bytes
    TRAILER    -> stream id + total bytes + whole-stream CRC + chunk count
    RESULT     <- one per completed stream; an epoch's is a binary record
                  (:func:`encode_epoch_result`), and "ok" false confines
                  a failure (the DeltaStaleError NACK) to that channel
    BYE        -> end of connection

Every data-bearing transfer is a stream, and any number interleave on one
socket; stream ids are unique among a connection's open streams.  An
epoch stream's id is its channel id; a graph or a blob uses
``BULK_STREAM`` (0, which no channel may take), so one bulk transfer at a
time per connection follows from the uniqueness rule.

DATA chunks carry the *same bytes* ``SkywayObjectOutputStream`` produces
in-process — the wire format stays byte-identical to the heap image (cf.
the Arrow cluster-shared-memory argument: keep the wire format the heap
format and the receiver pass stays linear).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.net.streams import ByteInputStream, ByteOutputStream, StreamError
from repro.transport.errors import FrameCorruptionError

#: v5: one-frame epochs and the binary epoch RESULT; a mixed pair fails at
#: HELLO with the typed mismatch.
PROTOCOL_VERSION = 5

#: Hard cap on one frame's payload; a corrupt length field beyond this is
#: reported instead of allocated.
MAX_FRAME_BYTES = 64 * 1024 * 1024

HEADER = struct.Struct("<IBI")
HEADER_BYTES = HEADER.size

# -- frame types -----------------------------------------------------------

HELLO = 1
HELLO_ACK = 2
DATA = 3
TRAILER = 4
ERROR = 5
CALL = 6
RESULT = 7
BYE = 8
#: Opens a stream: its id, its kind and the kind's fields
#: (:class:`StreamHeader`).
STREAM = 9
#: Optional trace-context announcement: carries the driver's trace id and
#: current span id so worker-side spans stitch under the sender's trace.
#: Sent immediately before a CALL or a bulk stream (which consumes it), or
#: once before a batch of epoch streams, each of whose openers is flagged
#: ``traced``; a worker that never sees one simply doesn't trace.  Worker
#: spans travel back inside each RESULT under ``"trace"``.
TRACE = 10

FRAME_NAMES = {
    HELLO: "HELLO", HELLO_ACK: "HELLO_ACK", DATA: "DATA",
    TRAILER: "TRAILER", ERROR: "ERROR", CALL: "CALL",
    RESULT: "RESULT", BYE: "BYE", STREAM: "STREAM", TRACE: "TRACE",
}

#: Stream kinds.  A graph's chunks feed the worker's stream decoder as
#: they land; a blob's and an epoch's reassemble.
STREAM_GRAPH = 1
STREAM_EPOCH = 2
STREAM_BLOB = 3

#: The stream id of a graph or a blob.  Channel id 0 is reserved
#: fabric-wide, so a bulk stream never collides with an epoch's.
BULK_STREAM = 0


def frame_name(ftype: int) -> str:
    return FRAME_NAMES.get(ftype, f"type-{ftype}")


def encode_frame(ftype: int, payload: bytes) -> bytes:
    return _frame(ftype, b"", payload)


def data_frame(stream_id: int, chunk) -> bytes:
    """One whole encoded DATA frame; ``chunk`` (bytes or a memoryview) is
    copied once, as :func:`encode_frame` copies a payload."""
    out = ByteOutputStream()
    out.write_varint(stream_id)
    return _frame(DATA, out.getvalue(), chunk)


def _frame(ftype: int, head: bytes, body) -> bytes:
    """Header + ``head`` + ``body`` in one join; the payload is the two."""
    length = len(head) + len(body)
    if length > MAX_FRAME_BYTES:
        raise FrameCorruptionError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    crc = zlib.crc32(body, zlib.crc32(head))
    return b"".join((HEADER.pack(length, ftype, crc), head, body))


class FrameDecoder:
    """Incremental frame parser (socket reads need not align to frames)."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def frames(self) -> Iterator[Tuple[int, bytes]]:
        """Yield every complete ``(type, payload)`` frame buffered so far,
        verifying each CRC."""
        while True:
            frame = self.next_frame()
            if frame is None:
                return
            yield frame

    def next_frame(self) -> Optional[Tuple[int, bytes]]:
        if len(self._buf) < HEADER_BYTES:
            return None
        length, ftype, crc = HEADER.unpack_from(self._buf)
        if length > MAX_FRAME_BYTES:
            raise FrameCorruptionError(
                f"frame header claims {length} bytes "
                f"(> {MAX_FRAME_BYTES}); stream corrupt"
            )
        if ftype not in FRAME_NAMES:
            raise FrameCorruptionError(f"unknown frame type {ftype}")
        end = HEADER_BYTES + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[HEADER_BYTES:end])
        del self._buf[:end]
        actual = zlib.crc32(payload)
        if actual != crc:
            raise FrameCorruptionError(
                f"{frame_name(ftype)} frame CRC mismatch: "
                f"header {crc:#010x}, payload {actual:#010x}"
            )
        return ftype, payload

    @property
    def buffered(self) -> int:
        return len(self._buf)


# -- payload codecs --------------------------------------------------------

def _wrap_decode(fn, payload: bytes, what: str):
    try:
        return fn(ByteInputStream(payload))
    except (StreamError, UnicodeDecodeError, ValueError) as exc:
        raise FrameCorruptionError(f"malformed {what} payload: {exc}") from exc


def encode_hello(node_name: str, mapping: Dict[str, int],
                 version: int = PROTOCOL_VERSION) -> bytes:
    out = ByteOutputStream()
    out.write_varint(version)
    out.write_utf(node_name)
    out.write_varint(len(mapping))
    for name in sorted(mapping):
        out.write_utf(name)
        out.write_varint(mapping[name])
    return out.getvalue()


def decode_hello(payload: bytes) -> Tuple[int, str, Dict[str, int]]:
    def parse(inp: ByteInputStream):
        version = inp.read_varint()
        name = inp.read_utf()
        mapping = {inp.read_utf(): inp.read_varint()
                   for _ in range(inp.read_varint())}
        return version, name, mapping
    return _wrap_decode(parse, payload, "HELLO")


def encode_hello_ack(node_name: str, extra_names: List[str]) -> bytes:
    out = ByteOutputStream()
    out.write_utf(node_name)
    out.write_varint(len(extra_names))
    for name in sorted(extra_names):
        out.write_utf(name)
    return out.getvalue()


def decode_hello_ack(payload: bytes) -> Tuple[str, List[str]]:
    def parse(inp: ByteInputStream):
        name = inp.read_utf()
        return name, [inp.read_utf() for _ in range(inp.read_varint())]
    return _wrap_decode(parse, payload, "HELLO_ACK")


class StreamHeader(NamedTuple):
    """A STREAM frame's fields.  Each kind reads only its own: a graph its
    ``retain`` flag; an epoch its number, its FULL/DELTA frame kind, its
    ``digest`` and ``traced`` flags and, when it fits a chunk, the whole
    epoch ``inline``; a blob its ``key`` (empty: acknowledged, not
    stored)."""

    stream_id: int
    kind: int
    retain: bool = False
    epoch: int = 0
    frame_kind: int = 0
    digest: bool = True
    key: str = ""
    traced: bool = False
    inline: Optional[bytes] = None


#: Flag bits of an epoch opener (digest, inline, traced) and RESULT (ok,
#: digest, traced).
_DIGEST, _INLINE, _TRACED, _OK = 1, 2, 4, 8


def encode_stream(header: StreamHeader) -> bytes:
    out = ByteOutputStream()
    out.write_varint(header.stream_id)
    out.write_u8(header.kind)
    if header.kind == STREAM_GRAPH:
        out.write_u8(int(header.retain))
    elif header.kind == STREAM_EPOCH:
        out.write_varint(header.epoch)
        out.write_u8(header.frame_kind)
        out.write_u8(header.digest * _DIGEST + header.traced * _TRACED
                     + (header.inline is not None) * _INLINE)
        if header.inline is not None:
            out.write_bytes(header.inline)
    else:
        out.write_utf(header.key)
    return out.getvalue()


def decode_stream(payload: bytes) -> StreamHeader:
    def parse(inp: ByteInputStream):
        stream_id, kind = inp.read_varint(), inp.read_u8()
        if kind == STREAM_GRAPH:
            header = StreamHeader(stream_id, kind, retain=bool(inp.read_u8()))
        elif kind == STREAM_EPOCH:
            epoch, frame_kind, flags = (inp.read_varint(), inp.read_u8(),
                                        inp.read_u8())
            if flags >= _OK:
                raise ValueError(f"unknown epoch opener flags {flags:#x}")
            inline = (inp.read_bytes(inp.remaining) if flags & _INLINE
                      else None)
            header = StreamHeader(stream_id, kind, epoch=epoch,
                                  frame_kind=frame_kind,
                                  digest=bool(flags & _DIGEST),
                                  traced=bool(flags & _TRACED), inline=inline)
        elif kind == STREAM_BLOB:
            header = StreamHeader(stream_id, kind, key=inp.read_utf())
        else:
            raise ValueError(f"unknown stream kind {kind}")
        if not inp.at_end():
            raise ValueError(f"{inp.remaining} bytes after the opener")
        return header
    return _wrap_decode(parse, payload, "STREAM")


def decode_data(payload: bytes) -> Tuple[int, memoryview]:
    """A DATA payload as ``(stream id, chunk)``; the chunk is a view of
    ``payload``, not a copy."""
    def parse(inp: ByteInputStream):
        return inp.read_varint(), memoryview(payload)[inp.position:]
    return _wrap_decode(parse, payload, "DATA")


def encode_trailer(stream_id: int, total_bytes: int, stream_crc: int,
                   chunks: int) -> bytes:
    out = ByteOutputStream()
    out.write_varint(stream_id)
    out.write_varint(total_bytes)
    out.write_u32(stream_crc)
    out.write_varint(chunks)
    return out.getvalue()


def decode_trailer(payload: bytes) -> Tuple[int, int, int, int]:
    def parse(inp: ByteInputStream):
        return (inp.read_varint(), inp.read_varint(), inp.read_u32(),
                inp.read_varint())
    return _wrap_decode(parse, payload, "TRAILER")


def encode_trace(trace_id: str, span_id: str) -> bytes:
    out = ByteOutputStream()
    out.write_utf(trace_id)
    out.write_utf(span_id)
    return out.getvalue()


def decode_trace(payload: bytes) -> Tuple[str, str]:
    def parse(inp: ByteInputStream):
        return inp.read_utf(), inp.read_utf()
    return _wrap_decode(parse, payload, "TRACE")


def encode_error(kind: str, message: str) -> bytes:
    out = ByteOutputStream()
    out.write_utf(kind)
    out.write_utf(message)
    return out.getvalue()


def decode_error(payload: bytes) -> Tuple[str, str]:
    def parse(inp: ByteInputStream):
        return inp.read_utf(), inp.read_utf()
    return _wrap_decode(parse, payload, "ERROR")


#: An epoch RESULT: flags, kind, channel id, epoch, stream bytes, queue
#: wait, root count; then the roots, and as flagged the 32-byte digest, a
#: failure's kind and message, and a traced epoch's spans (JSON, to the end).
EPOCH_RESULT = struct.Struct("<BBQQQdI")
_EPOCH_KINDS = ("", "full", "delta")


def encode_epoch_result(result: dict) -> bytes:
    """An epoch's RESULT dict as its binary record."""
    ok = result.get("ok", False)
    digest, trace = result.get("digest"), result.get("trace")
    roots = result.get("root_addresses", ())
    flags = (ok * _OK + (digest is not None) * _DIGEST
             + (trace is not None) * _TRACED)
    parts = [EPOCH_RESULT.pack(
        flags, _EPOCH_KINDS.index(result.get("kind", "")),
        result["channel_id"], result["epoch"],
        result.get("stream_bytes", 0), result.get("queue_wait_s", 0.0),
        len(roots)), struct.pack(f"<{len(roots)}Q", *roots)]
    if digest is not None:
        parts.append(bytes.fromhex(digest))
    if not ok:
        parts.append(encode_error(result["error_kind"], result["error"]))
    if trace is not None:
        parts.append(encode_json(trace))
    return b"".join(parts)


def decode_epoch_result(payload: bytes) -> dict:
    """An epoch RESULT record as the dict the worker answered."""
    try:
        flags, kind, channel_id, epoch, stream_bytes, wait, count = \
            EPOCH_RESULT.unpack_from(payload)
        if flags >= 2 * _OK or kind >= len(_EPOCH_KINDS):
            raise ValueError(f"flags {flags:#x}, kind {kind}")
        inp = ByteInputStream(payload)
        inp.read_bytes(EPOCH_RESULT.size)
        result = {"op": "recv_epoch", "ok": bool(flags & _OK),
                  "channel_id": channel_id, "epoch": epoch}
        roots = list(struct.unpack(f"<{count}Q", inp.read_bytes(8 * count)))
        if flags & _OK:
            result.update(kind=_EPOCH_KINDS[kind], roots=count,
                          root_addresses=roots, stream_bytes=stream_bytes,
                          queue_wait_s=wait)
        if flags & _DIGEST:
            result["digest"] = inp.read_bytes(32).hex()
        if not flags & _OK:
            result["error_kind"], result["error"] = (inp.read_utf(),
                                                     inp.read_utf())
        if flags & _TRACED:
            result["trace"] = json.loads(inp.read_bytes(inp.remaining))
        if not inp.at_end():
            raise ValueError(f"{inp.remaining} trailing bytes")
    except (struct.error, StreamError, UnicodeDecodeError, ValueError) as exc:
        raise FrameCorruptionError(
            f"malformed epoch RESULT payload: {exc}") from exc
    return result


def decode_result(payload: bytes) -> dict:
    """A RESULT payload: JSON, or an epoch's binary record."""
    if payload[:1] == b"{":
        return decode_json(payload, what="RESULT")
    return decode_epoch_result(payload)


def encode_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes, what: str = "CALL"):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorruptionError(f"malformed {what} payload: {exc}") from exc
