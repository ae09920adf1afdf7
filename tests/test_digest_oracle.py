"""The digest kernel against its per-object oracles.

``graph_digest`` / ``semantic_graph_digest`` must return exactly the hex
strings the reference implementations in ``tests/digest_oracle.py`` return
for the same heap state, over every object shape and chunk geometry the
receive path produces.
"""

import pytest

from repro.apps.incremental import build_vertex_graph
from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.delta import DeltaReceiveEndpoint, DeltaSendChannel
from repro.jvm.jvm import JVM
from repro.transport.digest import graph_digest, semantic_graph_digest
from repro.transport.testing import ring_edges, sample_worker_classpath

from tests.conftest import make_date, make_list
from tests.digest_oracle import (
    reference_graph_digest,
    reference_semantic_graph_digest,
)


def make_pair(classpath, **runtime_kwargs):
    src = JVM("dg-src", classpath=classpath)
    dst = JVM("dg-dst", classpath=classpath)
    attach_skyway(src, [dst], **runtime_kwargs)
    return src, dst


def transfer(src, dst, roots):
    """Send ``roots`` src -> dst; returns (input stream, received roots)."""
    src.skyway.shuffle_start()
    out = SkywayObjectOutputStream(src.skyway, destination="digest-test")
    for root in roots:
        out.write_object(root)
    inp = SkywayObjectInputStream(dst.skyway)
    inp.accept(out.close())
    return inp, [inp.read_object() for _ in roots]


def assert_digests_match(src, dst, roots):
    """Both digests, new vs oracle, on the received heap; the semantic one
    also on the sender's heap (it must agree across the transfer)."""
    inp, received = transfer(src, dst, roots)
    assert graph_digest(dst, inp.receiver) == reference_graph_digest(
        dst, inp.receiver
    )
    semantic = semantic_graph_digest(dst, received)
    assert semantic == reference_semantic_graph_digest(dst, received)
    assert semantic == semantic_graph_digest(src, roots)
    assert semantic == reference_semantic_graph_digest(src, roots)
    return inp


class TestOracleEquality:
    def test_vertex_graph(self):
        src, dst = make_pair(sample_worker_classpath())
        root = src.pin(build_vertex_graph(src, ring_edges(300, 300)))
        assert_digests_match(src, dst, [root.address])

    def test_reference_array_with_nulls(self, classpath):
        src, dst = make_pair(classpath)
        arr = src.pin(src.new_array("Ljava.lang.Object;", 9))
        for i in (0, 2, 3, 7):  # the other slots stay null
            src.heap.write_element(arr.address, i, make_date(src, i, 1, 1))
        # One referent twice: a backward pointer inside the run.
        src.heap.write_element(
            arr.address, 8, src.heap.read_element(arr.address, 2)
        )
        assert_digests_match(src, dst, [arr.address])

    def test_empty_reference_array(self, classpath):
        src, dst = make_pair(classpath)
        assert_digests_match(src, dst, [src.new_array("Ljava.lang.Object;", 0)])

    def test_primitive_arrays(self, classpath):
        src, dst = make_pair(classpath)
        roots = []
        for desc, values in (("J", [1, -1, 2**40]), ("I", [3, -4]),
                             ("B", [7] * 13), ("D", [0.5, -2.25]), ("C", [])):
            arr = src.pin(src.new_array(desc, len(values)))
            for i, v in enumerate(values):
                src.heap.write_element(arr.address, i, v)
            roots.append(arr)
        assert_digests_match(src, dst, [pin.address for pin in roots])

    def test_mixed_subword_fields(self, classpath):
        src, dst = make_pair(classpath)
        mixed = src.pin(src.new_instance("Mixed"))
        for name, value in (("b", -5), ("z", True), ("c", 70), ("s", -12),
                            ("i", 9), ("f", 1.5), ("j", 1 << 40), ("d", 2.5)):
            src.set_field(mixed.address, name, value)
        src.set_field(mixed.address, "ref", make_date(src, 2018, 3, 24))
        src.identity_hash(mixed.address)  # a hashcode in the mark word
        assert_digests_match(src, dst, [mixed.address])

    def test_oversized_object_gets_its_own_chunk(self, classpath):
        src, dst = make_pair(classpath, input_chunk_size=1024)
        big = src.pin(src.new_array("J", 600))  # 4.8 KB > chunk size
        for i in range(600):
            src.heap.write_element(big.address, i, i * i)
        holder = src.pin(src.new_array("Ljava.lang.Object;", 3))
        src.heap.write_element(holder.address, 0, make_list(src, range(5)))
        src.heap.write_element(holder.address, 1, big.address)
        src.heap.write_element(holder.address, 2, make_list(src, range(5)))
        inp = assert_digests_match(src, dst, [holder.address])
        assert any(c.capacity > 1024 for c in inp.receiver.buffer.chunks)

    def test_cross_chunk_pointers(self, classpath):
        src, dst = make_pair(classpath, input_chunk_size=256)
        head = src.pin(make_list(src, range(200)))
        inp = assert_digests_match(src, dst, [head.address])
        assert len(inp.receiver.buffer.chunks) > 10

    def test_multiple_roots_with_null_and_repeat(self, classpath):
        src, dst = make_pair(classpath)
        date = src.pin(make_date(src, 1, 2, 3))
        roots = [date.address, 0, date.address]
        assert semantic_graph_digest(src, roots) == (
            reference_semantic_graph_digest(src, roots)
        )

    def test_buffer_extended_by_delta_append(self, classpath):
        src, dst = make_pair(classpath)
        channel = DeltaSendChannel(src.skyway, "dst")
        endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
        head = src.pin(make_list(src, range(50)))
        endpoint.receive(channel.send([head.address]))
        receiver = endpoint.state_of(channel.channel_id).stream.receiver
        before = len(receiver.buffer.placed_objects)

        fresh = src.pin(src.new_instance("ListNode"))
        src.set_field(fresh.address, "payload", -1)
        src.set_field(fresh.address, "next", head.address)
        src.set_field(head.address, "payload", 777)
        roots = endpoint.receive(channel.send([fresh.address]))

        assert len(receiver.buffer.placed_objects) == before + 1
        assert graph_digest(dst, receiver) == reference_graph_digest(dst, receiver)
        assert semantic_graph_digest(dst, roots) == (
            reference_semantic_graph_digest(dst, roots)
        )
        assert semantic_graph_digest(dst, roots) == semantic_graph_digest(
            src, [fresh.address]
        )


class TestPointerOutsideBuffer:
    def test_graph_digest_rejects_a_pointer_outside_the_input_buffer(
        self, classpath
    ):
        """The digest verifies absolutization: a reference leading out of
        the receiving buffer's chunks is an error, not a hashed value."""
        src, dst = make_pair(classpath)
        inp, received = transfer(src, dst, [make_list(src, range(4))])
        outsider = dst.pin(dst.new_instance("ListNode"))  # young gen
        dst.set_field(received[0], "next", outsider.address)
        with pytest.raises(ValueError, match="outside the input buffer"):
            graph_digest(dst, inp.receiver)
        with pytest.raises(ValueError, match="outside the input buffer"):
            reference_graph_digest(dst, inp.receiver)

    def test_pointer_below_every_chunk(self, classpath):
        src, dst = make_pair(classpath)
        inp, received = transfer(src, dst, [make_list(src, range(4))])
        # Raw write: an address below the first chunk (the bisect miss).
        field = dst.loader.load("ListNode").field("next")
        dst.heap.write_word(received[0] + field.offset, dst.heap.base + 8)
        with pytest.raises(ValueError, match="outside the input buffer"):
            graph_digest(dst, inp.receiver)
