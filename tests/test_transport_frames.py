"""Wire-protocol unit tests: frames, CRCs, payload codecs, registry merge."""

import struct

import pytest

from repro.transport import frames
from repro.transport.errors import FrameCorruptionError, HandshakeError
from repro.transport.registry_sync import extra_names, merge_registries


def test_frame_roundtrip():
    raw = frames.encode_frame(frames.DATA, b"payload bytes")
    decoder = frames.FrameDecoder()
    decoder.feed(raw)
    assert decoder.next_frame() == (frames.DATA, b"payload bytes")
    assert decoder.next_frame() is None


def test_frame_decoder_handles_arbitrary_split_points():
    raw = b"".join(
        frames.encode_frame(t, p)
        for t, p in [(frames.HELLO, b"a" * 300), (frames.DATA, b""),
                     (frames.TRAILER, b"xyz")]
    )
    for step in (1, 2, 7, 64):
        decoder = frames.FrameDecoder()
        seen = []
        for i in range(0, len(raw), step):
            decoder.feed(raw[i:i + step])
            seen.extend(decoder.frames())
        assert [t for t, _ in seen] == [frames.HELLO, frames.DATA,
                                        frames.TRAILER]
        assert seen[0][1] == b"a" * 300
        assert decoder.buffered == 0


def test_crc_mismatch_is_typed():
    raw = bytearray(frames.encode_frame(frames.DATA, b"hello world"))
    raw[frames.HEADER_BYTES + 4] ^= 0x01  # flip a payload bit
    decoder = frames.FrameDecoder()
    decoder.feed(bytes(raw))
    with pytest.raises(FrameCorruptionError, match="CRC mismatch"):
        decoder.next_frame()


def test_unknown_frame_type_is_typed():
    raw = struct.pack("<IBI", 0, 99, 0)
    decoder = frames.FrameDecoder()
    decoder.feed(raw)
    with pytest.raises(FrameCorruptionError, match="unknown frame type"):
        decoder.next_frame()


def test_absurd_length_is_typed_not_allocated():
    raw = struct.pack("<IBI", 0xFFFFFFF0, frames.DATA, 0)
    decoder = frames.FrameDecoder()
    decoder.feed(raw)
    with pytest.raises(FrameCorruptionError, match="claims"):
        decoder.next_frame()


def test_oversized_payload_refused_at_encode():
    with pytest.raises(FrameCorruptionError, match="exceeds"):
        frames.encode_frame(frames.DATA, b"\0" * (frames.MAX_FRAME_BYTES + 1))


def test_hello_payload_roundtrip():
    mapping = {"java.lang.Object": 0, "Date": 7, "ListNode": 3}
    payload = frames.encode_hello("driver-0", mapping)
    version, name, decoded = frames.decode_hello(payload)
    assert version == frames.PROTOCOL_VERSION
    assert name == "driver-0"
    assert decoded == mapping


def test_hello_ack_payload_roundtrip():
    payload = frames.encode_hello_ack("worker-3", ["Zed", "Alpha"])
    name, extras = frames.decode_hello_ack(payload)
    assert name == "worker-3"
    assert extras == ["Alpha", "Zed"]  # canonicalized sorted


def test_trailer_payload_roundtrip():
    payload = frames.encode_trailer(300, 123456, 0xDEADBEEF, 42)
    assert frames.decode_trailer(payload) == (300, 123456, 0xDEADBEEF, 42)


@pytest.mark.parametrize("header", [
    frames.StreamHeader(frames.BULK_STREAM, frames.STREAM_GRAPH, retain=True),
    frames.StreamHeader(300, frames.STREAM_EPOCH, epoch=7, frame_kind=0x11,
                        digest=False),
    frames.StreamHeader(frames.BULK_STREAM, frames.STREAM_BLOB, key="bucket"),
], ids=["graph", "epoch", "blob"])
def test_stream_header_roundtrip(header):
    assert frames.decode_stream(frames.encode_stream(header)) == header


def test_data_frame_carries_its_stream_id_before_the_chunk():
    decoder = frames.FrameDecoder()
    decoder.feed(frames.data_frame(300, memoryview(b"chunk bytes")))
    ftype, payload = decoder.next_frame()
    assert ftype == frames.DATA
    sid, chunk = frames.decode_data(payload)
    assert (sid, bytes(chunk)) == (300, b"chunk bytes")


def test_error_payload_roundtrip():
    payload = frames.encode_error("SkywayStreamError", "no tID 99")
    assert frames.decode_error(payload) == ("SkywayStreamError", "no tID 99")


@pytest.mark.parametrize("decode,what", [
    (frames.decode_hello, "HELLO"),
    (frames.decode_hello_ack, "HELLO_ACK"),
    (frames.decode_trailer, "TRAILER"),
    (frames.decode_stream, "STREAM"),
    (frames.decode_data, "DATA"),
    (frames.decode_error, "ERROR"),
])
def test_malformed_payloads_are_typed(decode, what):
    with pytest.raises(FrameCorruptionError, match=f"malformed {what}"):
        decode(b"\xff\xff\xff")


def test_malformed_json_call_is_typed():
    with pytest.raises(FrameCorruptionError, match="malformed CALL"):
        frames.decode_json(b"{not json", what="CALL")


# ---------------------------------------------------------------------------
# registry merge (the HELLO convergence function)
# ---------------------------------------------------------------------------

def test_merge_is_deterministic_and_driver_wins():
    driver = {"A": 0, "B": 1, "C": 5}
    merged = merge_registries(driver, ["D", "B", "E"])
    assert merged["A"] == 0 and merged["B"] == 1 and merged["C"] == 5
    # extras get sequential IDs from max+1, in sorted order, skipping
    # names the driver already owns
    assert merged["D"] == 6 and merged["E"] == 7
    assert merge_registries(driver, ["E", "D", "B"]) == merged


def test_merge_computed_identically_on_both_sides():
    driver = {"A": 0, "B": 1}
    worker = {"B": 9, "Z": 0, "M": 4}  # conflicting local numbering
    extras = extra_names(worker, driver)
    assert extras == ["M", "Z"]
    driver_side = merge_registries(driver, extras)
    worker_side = merge_registries(driver, extra_names(worker, driver))
    assert driver_side == worker_side == {"A": 0, "B": 1, "M": 2, "Z": 3}


def test_merge_rejects_duplicate_driver_ids():
    with pytest.raises(HandshakeError, match="multiple classes"):
        merge_registries({"A": 0, "B": 0}, [])


def test_merge_empty_driver_map_reserves_null_tid():
    # tID 0 is the "never stamped" sentinel; even a fresh driver learning
    # every class from the worker must not hand it to a real class.
    assert merge_registries({}, ["B", "A"]) == {"A": 1, "B": 2}
