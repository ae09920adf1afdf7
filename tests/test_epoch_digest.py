"""The epoch digest against the full semantic digest.

``epoch_digest`` keeps, per channel, the string ``semantic_graph_digest``
hashed, each placed object's offset in it and a raw copy of the retained
buffer's chunks; a PATCH-only DELTA epoch then re-normalizes only the
PATCHed objects and checks every other byte of the buffer against the
copy.  The contract: after every epoch its hex is
``semantic_graph_digest`` of the receiving heap — through PATCH-only
epochs, reference-changing PATCHes, NEW appends, changed roots and a
receiver full GC (the NACK) — and a corrupted heap or a stale copy gets
the full digest of what the heap holds, never the cached one.
"""

import random
import sys

import pytest

from repro.core.runtime import attach_skyway
from repro.delta import DeltaReceiveEndpoint, DeltaSendChannel
from repro.exchange.loopback import Loopback
from repro.jvm.jvm import JVM
from repro.transport import digest as digest_module
from repro.transport.digest import semantic_graph_digest

from tests.conftest import make_list
from tests.test_kernels import random_graph

SEEDS = range(6)


def pair(classpath):
    src = JVM("ed-src", classpath=classpath)
    dst = JVM("ed-dst", classpath=classpath)
    attach_skyway(src, [dst])
    return src, dst


class Link:
    """One channel from ``src`` into ``dst`` through the in-process
    substrate; ``ship`` sends an epoch (recovering a NACK) and checks its
    digest against the receiving heap's full digest."""

    def __init__(self, src, dst, channel_id=5):
        self.src, self.dst = src, dst
        self.channel = DeltaSendChannel(src.skyway, "ed-dst",
                                        channel_id=channel_id)
        self.loopback = Loopback(dst.skyway)

    def ship(self, roots):
        channel = self.channel
        result, shipped = channel.ship(
            roots, lambda frame: self.loopback.deliver_epoch(
                frame, channel.channel_id, channel.epoch))
        received = result["root_addresses"]
        assert result["digest"] == semantic_graph_digest(self.dst, received)
        return result, received, shipped

    def cache(self):
        state = DeltaReceiveEndpoint.for_runtime(
            self.dst.skyway).state_of(self.channel.channel_id)
        return digest_module._EPOCH_CACHES.get(state)


def _chain(src, rng, n):
    head = make_list(src, [rng.getrandbits(62) for _ in range(n)])
    nodes, node = [], head
    while node:
        nodes.append(node)
        node = src.get_field(node, "next")
    return nodes


def _mutate(src, rng, objs):
    """One primitive write into a random object that has a field to
    write: what a PATCH-only epoch carries."""
    while True:
        obj = rng.choice(objs)
        klass = src.heap.klass_of(obj)
        if klass.name == "ListNode":
            src.set_field(obj, "payload", rng.getrandbits(62))
            return
        if klass.name == "Mixed":
            src.set_field(obj, "j", rng.getrandbits(62))
            return
        if klass.is_array and not klass.has_reference_elements \
                and src.heap.array_length(obj):
            src.heap.write_element(obj, 0, rng.randrange(100))
            return


@pytest.mark.parametrize("seed", SEEDS)
def test_every_epoch_digest_is_the_full_digest(classpath, seed):
    rng = random.Random(seed)
    src, dst = pair(classpath)
    objs = random_graph(src, rng, 4096) + _chain(src, rng, rng.randrange(2, 60))
    pins = [src.pin(obj) for obj in objs]
    roots = [objs[0], objs[-1]]
    link = Link(src, dst)
    link.ship(roots)  # FULL: hashed in full, no cache
    assert link.cache() is None
    nodes = [o for o in objs if src.heap.klass_of(o).name == "ListNode"]
    for step in range(40):
        kind = rng.choice(("patch", "patch", "patch", "reference", "new",
                           "roots", "gc"))
        if kind == "patch":
            for _ in range(rng.randrange(1, 4)):
                _mutate(src, rng, objs)
        elif kind == "reference":
            src.set_field(rng.choice(nodes), "next", rng.choice(nodes))
        elif kind == "new":
            fresh = src.new_instance("ListNode")
            objs.append(fresh)
            pins.append(src.pin(fresh))
            src.set_field(fresh, "next", rng.choice(nodes))
            src.set_field(rng.choice(nodes), "next", fresh)
            nodes.append(fresh)
        elif kind == "roots":
            roots = [rng.choice(objs) for _ in range(rng.randrange(1, 4))]
        else:
            _mutate(src, rng, objs)
            dst.gc.full()
        result, _received, shipped = link.ship(roots)
        assert result["digest"] == semantic_graph_digest(src, roots), step
        if kind == "gc":
            assert len(shipped) == 2 and link.cache() is None
    for pin in pins:
        src.unpin(pin)


def _warm_chain(classpath, n, seed=0):
    """A chain shipped FULL and then twice by PATCH-only DELTA, so its
    channel holds a cache built by the first DELTA and advanced by the
    second."""
    rng = random.Random(seed)
    src, dst = pair(classpath)
    nodes = _chain(src, rng, n)
    pin = src.pin(nodes[0])
    link = Link(src, dst)
    link.ship([nodes[0]])
    for _ in range(2):
        _mutate(src, rng, nodes)
        link.ship([nodes[0]])
    assert link.cache() is not None
    return src, dst, nodes, link, pin, rng


def _unpatched(dst, received, skip):
    """Addresses of the received chain's nodes, minus the first ``skip``."""
    out, node = [], received[0]
    while node:
        out.append(node)
        node = dst.get_field(node, "next")
    return out[skip:]


def test_a_patched_pointer_is_hashed_in_full(classpath):
    """A PATCH that re-points a reference changes BFS numbers the cache
    cannot re-derive from one object: the epoch hashes in full."""
    src, dst, nodes, link, _pin, _rng = _warm_chain(classpath, 30)
    src.set_field(nodes[5], "next", nodes[12])
    result, received, _ = link.ship([nodes[0]])
    assert result["digest"] == semantic_graph_digest(src, [nodes[0]])


def test_a_flipped_byte_in_an_unpatched_object_is_hashed_in_full(classpath):
    src, dst, nodes, link, _pin, _rng = _warm_chain(classpath, 30)
    src.set_field(nodes[0], "payload", 7)  # the next epoch patches the head
    victim = _unpatched(dst, [link.ship([nodes[0]])[1][0]], 10)[0]
    dst.set_field(victim, "payload", dst.get_field(victim, "payload") ^ 1)
    src.set_field(nodes[0], "payload", 8)
    result, received, _ = link.ship([nodes[0]])
    # The corrupted heap's own full digest, not the sender's.
    assert result["digest"] == semantic_graph_digest(dst, received)
    assert result["digest"] != semantic_graph_digest(src, [nodes[0]])


def test_a_flipped_pointer_is_hashed_in_full(classpath):
    src, dst, nodes, link, _pin, _rng = _warm_chain(classpath, 30)
    received = link.ship([nodes[0]])[1]
    chain = _unpatched(dst, received, 0)
    dst.set_field(chain[12], "next", chain[20])  # skips seven nodes
    src.set_field(nodes[0], "payload", 9)
    result, received, _ = link.ship([nodes[0]])
    assert result["digest"] == semantic_graph_digest(dst, received)
    assert result["digest"] != semantic_graph_digest(src, [nodes[0]])


def test_a_stale_raw_copy_falls_back(classpath, monkeypatch):
    """A copy that no longer matches the heap outside the PATCHed objects
    rebuilds from the heap, and the rebuilt digest is right."""
    src, dst, nodes, link, _pin, _rng = _warm_chain(classpath, 30)
    cache = link.cache()
    copy = cache.raw[0]
    copy[-1] ^= 0x40  # a byte of the last-placed node, which no PATCH touches
    builds = []
    real_build = digest_module._EpochCache.build.__func__
    monkeypatch.setattr(digest_module._EpochCache, "build", classmethod(
        lambda cls, *args: builds.append(args) or real_build(cls, *args)))
    src.set_field(nodes[0], "payload", 10)
    result, received, _ = link.ship([nodes[0]])
    assert len(builds) == 1
    assert result["digest"] == semantic_graph_digest(src, [nodes[0]])
    # The rebuilt cache advances again on the next epoch.
    src.set_field(nodes[1], "payload", 11)
    link.ship([nodes[0]])
    assert len(builds) == 1


def test_a_patch_only_epoch_reuses_the_cache(classpath, monkeypatch):
    src, dst, nodes, link, _pin, rng = _warm_chain(classpath, 30)
    monkeypatch.setattr(digest_module._EpochCache, "build", None)
    for _ in range(5):
        _mutate(src, rng, nodes)
        link.ship([nodes[0]])


def _calls_for_one_record_epoch(classpath, n):
    src, dst, nodes, link, _pin, _rng = _warm_chain(classpath, n)
    src.set_field(nodes[n // 2], "payload", 12345)
    channel = link.channel
    frame = channel.send([nodes[0]])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = link.loopback.deliver_epoch(frame, channel.channel_id,
                                             channel.epoch)
    finally:
        sys.setprofile(None)
    assert result["digest"] == semantic_graph_digest(src, [nodes[0]])
    return calls


def test_a_one_record_epoch_costs_the_same_calls_at_any_size(classpath):
    """Receive plus digest of a one-PATCH epoch, counted with
    ``sys.setprofile``: a 2,400-node chain makes exactly the Python calls a
    24-node chain makes — the digest re-walks nothing it did not patch."""
    small = _calls_for_one_record_epoch(classpath, 24)
    large = _calls_for_one_record_epoch(classpath, 2400)
    assert small == large, (small, large)
