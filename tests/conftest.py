"""Shared fixtures: JVMs, sample class definitions, graph builders, plus a
per-test wall-clock ceiling (socket-transport tests talk to real worker
processes; a hung worker must fail the test, not the CI job)."""

import signal

import pytest

from repro.jvm.jvm import JVM
from repro.types.classdef import ClassPath
from repro.types.corelib import install_core_classes

try:
    import pytest_timeout  # noqa: F401  (CI installs it; containers may not)
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

#: Per-test ceiling, seconds.  Generous: the slowest legitimate test is a
#: multi-process transport round trip; only a genuine hang exceeds this.
TEST_TIMEOUT_SECONDS = 120


def pytest_collection_modifyitems(config, items):
    if not _HAVE_PYTEST_TIMEOUT:
        return
    for item in items:
        if item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(TEST_TIMEOUT_SECONDS))


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):
    # Fallback when the plugin is unavailable: SIGALRM aborts the test
    # body.  Covers the call phase only, which is where transport tests
    # can block on sockets/processes.
    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        seconds = int(marker.args[0]) if marker and marker.args \
            else TEST_TIMEOUT_SECONDS

        def _expired(signum, frame):
            raise TimeoutError(
                f"test exceeded the {seconds}s wall-clock ceiling"
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(seconds)
        try:
            return (yield)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# observability isolation
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _obs_isolation():
    """Every test starts and ends with no global tracer and an empty
    metrics registry: JVMs, channels and SparkContexts register snapshot
    sources as a side effect of construction, and a test that enables
    tracing must not leak spans into the next one."""
    from repro import obs

    obs.reset()
    yield
    obs.reset()


# ---------------------------------------------------------------------------
# socket-transport fixtures (worker processes are always reaped)
# ---------------------------------------------------------------------------

@pytest.fixture
def spawned_worker():
    """A live worker process on an ephemeral loopback port."""
    from repro.transport import WorkerHandle, WorkerSpec
    from repro.transport.testing import SAMPLE_FACTORY

    handle = WorkerHandle.spawn(
        WorkerSpec(name="test-worker", classpath_factory=SAMPLE_FACTORY)
    )
    yield handle
    handle.stop()


@pytest.fixture
def make_fleet():
    """Factory for live fleets (coordinator + N worker processes).  Every
    harness spawned through it is reaped at teardown — no coordinator or
    worker outlives the test, even when the test body raises."""
    from repro.cluster.harness import FleetHarness

    harnesses = []

    def _make(size, **kwargs):
        kwargs.setdefault("name", f"tfleet{len(harnesses)}")
        harness = FleetHarness(size, **kwargs)
        harnesses.append(harness)
        return harness

    yield _make
    for harness in harnesses:
        harness.stop()


@pytest.fixture
def transport_driver():
    """A driver-side runtime built from the same recipe workers use."""
    from repro.transport.bootstrap import build_runtime
    from repro.transport.testing import SAMPLE_FACTORY

    return build_runtime("test-driver", SAMPLE_FACTORY)


def sample_classpath() -> ClassPath:
    """A class path with the paper's running example (Figure 2's Date
    parsing classes) plus a linked-list node for graph tests."""
    cp = install_core_classes(ClassPath())
    cp.define("Year4D", [("year", "I")])
    cp.define("Month2D", [("month", "I")])
    cp.define("Day2D", [("day", "I")])
    cp.define(
        "Date",
        [("year", "LYear4D;"), ("month", "LMonth2D;"), ("day", "LDay2D;")],
    )
    cp.define("DateParser", [("parsed", "J")])
    cp.define(
        "ListNode",
        [("payload", "J"), ("next", "LListNode;")],
    )
    cp.define(
        "Mixed",
        [
            ("b", "B"), ("z", "Z"), ("c", "C"), ("s", "S"),
            ("i", "I"), ("f", "F"), ("j", "J"), ("d", "D"),
            ("ref", "Ljava.lang.Object;"),
        ],
    )
    return cp


@pytest.fixture
def classpath() -> ClassPath:
    return sample_classpath()


@pytest.fixture
def jvm(classpath) -> JVM:
    return JVM("test-jvm", classpath=classpath)


@pytest.fixture
def small_jvm(classpath) -> JVM:
    """A JVM with a tiny heap, for exercising GC paths."""
    return JVM("small-jvm", classpath=classpath, young_bytes=48 * 1024, old_bytes=256 * 1024)


def make_date(jvm: JVM, year: int, month: int, day: int) -> int:
    """Build a Date object graph (root + three leaves), returning its addr."""
    date = jvm.new_instance("Date")
    pin = jvm.pin(date)
    try:
        for field, cls, inner, value in (
            ("year", "Year4D", "year", year),
            ("month", "Month2D", "month", month),
            ("day", "Day2D", "day", day),
        ):
            leaf = jvm.new_instance(cls)
            jvm.set_field(leaf, inner, value)
            jvm.set_field(pin.address, field, leaf)
        return pin.address
    finally:
        jvm.unpin(pin)


def read_date(jvm: JVM, date: int) -> tuple:
    out = []
    for field, inner in (("year", "year"), ("month", "month"), ("day", "day")):
        leaf = jvm.get_field(date, field)
        out.append(jvm.get_field(leaf, inner))
    return tuple(out)


def make_list(jvm: JVM, payloads) -> int:
    """Build a singly linked ListNode chain, returning the head address."""
    head = 0
    head_pin = jvm.pin(0)
    try:
        for payload in reversed(list(payloads)):
            node = jvm.new_instance("ListNode")
            jvm.set_field(node, "payload", payload)
            jvm.set_field(node, "next", head_pin.address)
            head_pin.address = node
            head = node
        return head
    finally:
        jvm.unpin(head_pin)


def read_list(jvm: JVM, head: int):
    out = []
    node = head
    while node:
        out.append(jvm.get_field(node, "payload"))
        node = jvm.get_field(node, "next")
    return out


def recording_connection():
    """``(decoder, FrameConnection subclass)``: the decoder sees every frame
    a client built with ``connection_cls=`` that class sends."""
    from repro.transport import FrameConnection, frames

    sent = frames.FrameDecoder()

    class Recording(FrameConnection):
        def send_encoded(self, data, what="frames"):
            sent.feed(data)
            super().send_encoded(data, what)

    return sent, Recording


def sent_segments(src: JVM, roots):
    """One fresh-phase send of ``roots`` straight off the sender: returns
    (flushed segments, top marks), no stream framing."""
    src.skyway.shuffle_start()
    sender = src.skyway.new_sender("p", fresh_buffer=True)
    for root in roots:
        sender.write_object(root)
    sender.buffer.flush()
    return sender.buffer.drain_segments(), sender.top_marks
