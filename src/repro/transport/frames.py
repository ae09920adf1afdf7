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
                  inside the RESULT JSON under "trace"
    CALL       -> JSON op request ("recv_graph", "recv_blob", ...)
    DATA*      -> fixed-size chunks of the Skyway framed stream
    TRAILER    -> total bytes + whole-stream CRC + chunk count
    RESULT     <- JSON op result   |   ERROR <- typed remote failure
    BYE        -> end of connection

Between calls, any number of epoch streams, interleaved by channel::

    EPOCH        -> channel id, epoch, FULL/DELTA kind: opens the stream
    MUX_DATA*    -> channel id + a chunk of the delta-wire frame
    MUX_TRAILER  -> channel id + totals + flags: completes the stream
    RESULT       <- tagged "channel_id"; "ok": false confines a failure
                    (the DeltaStaleError NACK) to that channel

DATA chunks carry the *same bytes* ``SkywayObjectOutputStream`` produces
in-process — the wire format stays byte-identical to the heap image (cf.
the Arrow cluster-shared-memory argument: keep the wire format the heap
format and the receiver pass stays linear).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.streams import ByteInputStream, ByteOutputStream, StreamError
from repro.transport.errors import FrameCorruptionError

#: v3: the ``recv_epoch`` CALL op left the protocol (every epoch is an
#: EPOCH/MUX_DATA/MUX_TRAILER stream) and MUX_TRAILER's flags byte became
#: mandatory; a mixed pair fails at HELLO with the typed mismatch.
PROTOCOL_VERSION = 3

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
#: Epoch announcement for a delta-capable graph channel: names the channel
#: id, epoch number, and the delta-wire frame kind of the MUX_DATA stream
#: that follows (FULL or DELTA); the worker routes the reassembled frame to
#: its per-runtime :class:`~repro.delta.channel.DeltaReceiveEndpoint`.
EPOCH = 9
#: Optional trace-context announcement: carries the driver's trace id and
#: current span id so worker-side spans stitch under the sender's trace.
#: Sent at most once per CALL, immediately before it (the CALL consumes
#: it), or once before a batch of epoch streams (every EPOCH opened under
#: it); a worker that never sees one simply doesn't trace.  Worker spans
#: travel back inside each RESULT JSON under the ``"trace"`` key.
TRACE = 10
#: Multiplexed stream chunk (async front-end): a varint channel id
#: followed by raw stream bytes.  Unlike DATA, which belongs to *the*
#: op in flight on the connection, MUX_DATA frames are self-describing —
#: chunks from many channels interleave freely on one socket and the
#: worker's per-channel state machine reassembles each stream.
MUX_DATA = 11
#: Completes one multiplexed stream: channel id + the same totals a
#: TRAILER carries (total bytes, whole-stream CRC, chunk count).  The
#: worker answers each completed channel with its own RESULT (tagged
#: ``channel_id``), possibly out of order with other channels.
MUX_TRAILER = 12

FRAME_NAMES = {
    HELLO: "HELLO", HELLO_ACK: "HELLO_ACK", DATA: "DATA",
    TRAILER: "TRAILER", ERROR: "ERROR", CALL: "CALL",
    RESULT: "RESULT", BYE: "BYE", EPOCH: "EPOCH", TRACE: "TRACE",
    MUX_DATA: "MUX_DATA", MUX_TRAILER: "MUX_TRAILER",
}


def frame_name(ftype: int) -> str:
    return FRAME_NAMES.get(ftype, f"type-{ftype}")


def encode_frame(ftype: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameCorruptionError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return HEADER.pack(len(payload), ftype, zlib.crc32(payload)) + payload


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


def encode_trailer(total_bytes: int, stream_crc: int, chunks: int) -> bytes:
    out = ByteOutputStream()
    out.write_varint(total_bytes)
    out.write_u32(stream_crc)
    out.write_varint(chunks)
    return out.getvalue()


def decode_trailer(payload: bytes) -> Tuple[int, int, int]:
    def parse(inp: ByteInputStream):
        return inp.read_varint(), inp.read_u32(), inp.read_varint()
    return _wrap_decode(parse, payload, "TRAILER")


def encode_epoch_header(channel_id: int, epoch: int, kind: int) -> bytes:
    out = ByteOutputStream()
    out.write_varint(channel_id)
    out.write_varint(epoch)
    out.write_u8(kind)
    return out.getvalue()


def decode_epoch_header(payload: bytes) -> Tuple[int, int, int]:
    def parse(inp: ByteInputStream):
        return inp.read_varint(), inp.read_varint(), inp.read_u8()
    return _wrap_decode(parse, payload, "EPOCH")


def encode_mux_data(channel_id: int, chunk: bytes) -> bytes:
    out = ByteOutputStream()
    out.write_varint(channel_id)
    out.write_bytes(chunk)
    return out.getvalue()


def decode_mux_data(payload: bytes) -> Tuple[int, bytes]:
    def parse(inp: ByteInputStream):
        channel_id = inp.read_varint()
        return channel_id, inp.read_bytes(inp.remaining)
    return _wrap_decode(parse, payload, "MUX_DATA")


#: MUX_TRAILER flags bit: the worker computes (and returns) the semantic
#: digest of the applied epoch's roots.  Epoch streams have no CALL, so
#: the trailer is the carrier.
MUX_FLAG_DIGEST = 0x01


def encode_mux_trailer(channel_id: int, total_bytes: int,
                       stream_crc: int, chunks: int,
                       digest: bool = True) -> bytes:
    out = ByteOutputStream()
    out.write_varint(channel_id)
    out.write_varint(total_bytes)
    out.write_u32(stream_crc)
    out.write_varint(chunks)
    out.write_u8(MUX_FLAG_DIGEST if digest else 0)
    return out.getvalue()


def decode_mux_trailer(payload: bytes) -> Tuple[int, int, int, int, bool]:
    def parse(inp: ByteInputStream):
        channel_id = inp.read_varint()
        total_bytes = inp.read_varint()
        stream_crc = inp.read_u32()
        chunks = inp.read_varint()
        return (channel_id, total_bytes, stream_crc, chunks,
                bool(inp.read_u8() & MUX_FLAG_DIGEST))
    return _wrap_decode(parse, payload, "MUX_TRAILER")


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


def encode_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes, what: str = "CALL"):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorruptionError(f"malformed {what} payload: {exc}") from exc
