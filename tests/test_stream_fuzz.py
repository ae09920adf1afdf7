"""Corruption/truncation fuzzing of the framed Skyway stream (satellite of
the socket transport: whatever the wire delivers, the decoder must answer
with one typed SkywayStreamError or a fully-consistent graph — never a
bare struct.error/KeyError, never a silently partial graph).

Bit flips in primitive payload bytes are *allowed* to decode successfully
(they are application data; the transport layer's frame CRC is what
catches them in flight) — but then the graph must be complete: right root
count, trailer checks passed.
"""

import pytest

from repro.core.runtime import attach_skyway
from repro.core.streams import (
    IncrementalStreamDecoder,
    SkywayObjectInputStream,
    SkywayObjectOutputStream,
    SkywayStreamError,
)
from repro.exchange import Loopback
from repro.exchange.errors import ExchangeProtocolError
from repro.delta.channel import DeltaSendChannel, DeltaStaleError
from repro.jvm.jvm import JVM

from tests.conftest import make_date, make_list, sample_classpath


def _framed_stream(compress_headers: bool):
    """A small two-root stream (Date graph + linked list) plus the sending
    runtime's registry, for building fresh receivers."""
    classpath = sample_classpath()
    src = JVM("fuzz-src", classpath=classpath)
    attach_skyway(src, [])
    out = SkywayObjectOutputStream(src.skyway, "peer",
                                   compress_headers=compress_headers)
    date = make_date(src, 2018, 3, 28)
    head = make_list(src, range(40))
    out.write_object(date)
    out.write_object(head)
    data = out.close()
    return src, data


def _fresh_receiver_runtime(src):
    # Tiny heaps: the fuzz loops build thousands of throwaway receivers
    # (one per mangled stream), and the graph is under 2KB.
    dst = JVM("fuzz-dst", classpath=sample_classpath(),
              young_bytes=32 * 1024, old_bytes=256 * 1024)
    from repro.core.runtime import SkywayRuntime
    return SkywayRuntime(dst, src.skyway.driver_registry, is_driver=False)


def _try_accept(src, data):
    """Feed a (possibly mangled) stream; returns root count on success.

    Any exception other than SkywayStreamError escapes and fails the test.
    """
    runtime = _fresh_receiver_runtime(src)
    stream = SkywayObjectInputStream(runtime)
    stream.accept(data)
    return stream.root_count


@pytest.mark.parametrize("compress_headers", [False, True],
                         ids=["raw", "compact"])
def test_truncation_at_every_boundary_is_typed(compress_headers):
    src, data = _framed_stream(compress_headers)
    # Every strict prefix must raise the one typed error.  Stride 1 over
    # the whole stream: cheap at this size and leaves no gap untested.
    for cut in range(len(data)):
        with pytest.raises(SkywayStreamError):
            _try_accept(src, data[:cut])


@pytest.mark.parametrize("compress_headers", [False, True],
                         ids=["raw", "compact"])
def test_bit_flips_never_leak_bare_errors(compress_headers):
    src, data = _framed_stream(compress_headers)
    flips_survived = 0
    for pos in range(len(data)):
        for bit in (0x01, 0x80):
            mangled = bytearray(data)
            mangled[pos] ^= bit
            try:
                roots = _try_accept(src, bytes(mangled))
            except SkywayStreamError:
                continue  # the typed verdict — exactly what we demand
            # Silent acceptance is only legal for a fully-parsed stream
            # (payload-byte damage); the structure must still be whole.
            assert roots == 2
            flips_survived += 1
    # Sanity: some payload flips must survive (primitive field bytes),
    # otherwise the harness isn't exercising the silent-acceptance arm.
    assert flips_survived > 0


def test_trailing_garbage_is_typed():
    src, data = _framed_stream(False)
    with pytest.raises(SkywayStreamError, match="trailing bytes"):
        _try_accept(src, data + b"\x00")
    with pytest.raises(SkywayStreamError, match="trailing bytes"):
        _try_accept(src, data + data)


def test_chunked_feeding_matches_single_shot():
    src, data = _framed_stream(False)
    whole = _fresh_receiver_runtime(src)
    whole_decoder = IncrementalStreamDecoder(whole)
    whole_decoder.feed(data)
    whole_roots = whole_decoder.finish()

    for step in (1, 3, 7, 64, 1024):
        runtime = _fresh_receiver_runtime(src)
        decoder = IncrementalStreamDecoder(runtime)
        for i in range(0, len(data), step):
            decoder.feed(data[i:i + step])
        assert decoder.complete
        roots = decoder.finish()
        assert len(roots) == len(whole_roots) == 2
        assert decoder.top_marks == whole_decoder.top_marks
        assert (decoder.receiver.buffer.logical_size
                == whole_decoder.receiver.buffer.logical_size)


def test_error_reports_byte_offset():
    src, data = _framed_stream(False)
    mangled = bytearray(data)
    mangled[0] = 0xEE  # impossible codec id, detected at offset 0
    with pytest.raises(SkywayStreamError, match="codec id"):
        _try_accept(src, bytes(mangled))


# ---------------------------------------------------------------------------
# epoch-frame fuzzing (the exchange layer's FULL/DELTA wire shapes)
# ---------------------------------------------------------------------------

#: The only exceptions an epoch receive may surface: protocol damage is
#: wrapped, and staleness is the epoch protocol's NACK (a bit flip landing
#: in the channel-id or epoch varint legitimately looks stale).
EPOCH_ERRORS = (ExchangeProtocolError, DeltaStaleError)
EPOCH_CHANNEL = 7321


@pytest.fixture(scope="module")
def epoch_frames():
    """One FULL frame and the DELTA frame that follows it on the same
    channel (a PATCH, a NEW object, and a SAME-REF root), plus the sender
    for building receivers."""
    src = JVM("fuzz-epoch-src", classpath=sample_classpath())
    attach_skyway(src, [])
    channel = DeltaSendChannel(src.skyway, "fuzz-epoch",
                               channel_id=EPOCH_CHANNEL)
    date = make_date(src, 2018, 3, 28)
    head = make_list(src, range(30))
    full = channel.send([date, head])
    assert channel.last_plan.mode == "full"
    # One field patched, one fresh node spliced in: PATCH + NEW records.
    src.set_field(head, "payload", 777)
    node = src.new_instance("ListNode")
    src.set_field(node, "payload", 888)
    src.set_field(node, "next", src.get_field(head, "next"))
    src.set_field(head, "next", node)
    delta = channel.send([date, head])
    assert channel.last_plan.mode == "delta"
    return src, full, delta


def _apply_epoch(src, data, prime=None):
    """Apply an epoch frame on a fresh receiver (optionally primed with an
    earlier frame to hold channel state); returns the root count."""
    receiver = Loopback(_fresh_receiver_runtime(src))
    if prime is not None:
        receiver.deliver_epoch(prime, EPOCH_CHANNEL, 1, digest=False)
    return len(receiver.deliver_epoch(
        data, EPOCH_CHANNEL, 2 if prime is not None else 1,
        digest=False)["root_addresses"])


def test_epoch_frames_apply_cleanly(epoch_frames):
    src, full, delta = epoch_frames
    assert _apply_epoch(src, full) == 2
    assert _apply_epoch(src, delta, prime=full) == 2
    # A DELTA with no channel state is the NACK, not a decode error.
    with pytest.raises(DeltaStaleError):
        _apply_epoch(src, delta)


def test_full_frame_truncation_is_typed(epoch_frames):
    src, full, _ = epoch_frames
    for cut in range(len(full)):
        with pytest.raises(EPOCH_ERRORS):
            _apply_epoch(src, full[:cut])


def test_delta_frame_truncation_is_typed(epoch_frames):
    src, full, delta = epoch_frames
    for cut in range(len(delta)):
        with pytest.raises(EPOCH_ERRORS):
            _apply_epoch(src, delta[:cut], prime=full)


def test_full_frame_bit_flips_never_leak_bare_errors(epoch_frames):
    src, full, _ = epoch_frames
    flips_survived = 0
    for pos in range(len(full)):
        for bit in (0x01, 0x80):
            mangled = bytearray(full)
            mangled[pos] ^= bit
            try:
                roots = _apply_epoch(src, bytes(mangled))
            except EPOCH_ERRORS:
                continue
            assert roots == 2  # payload damage must still parse whole
            flips_survived += 1
    assert flips_survived > 0


def test_delta_frame_bit_flips_never_leak_bare_errors(epoch_frames):
    src, full, delta = epoch_frames
    flips_survived = 0
    for pos in range(len(delta)):
        for bit in (0x01, 0x80):
            mangled = bytearray(delta)
            mangled[pos] ^= bit
            try:
                roots = _apply_epoch(src, bytes(mangled), prime=full)
            except EPOCH_ERRORS:
                continue
            assert roots == 2
            flips_survived += 1
    assert flips_survived > 0
