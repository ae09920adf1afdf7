"""Cross-process trace propagation: worker spans ship back in RESULT
payloads and stitch under the driver's trace (TRACE wire frame)."""

import pytest

from repro import obs
from repro.core.runtime import SkywayRuntime
from repro.delta.channel import DeltaSendChannel
from repro.exchange import GraphChannel, Loopback
from repro.jvm.jvm import JVM
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.transport import (
    FrameConnection,
    LocalAsyncWorker,
    RemoteWorkerError,
    WorkerClient,
    WorkerSpec,
    frames,
)
from repro.transport.testing import SAMPLE_FACTORY, sample_worker_classpath

from tests.conftest import make_list, recording_connection


def test_graph_send_stitches_worker_spans(spawned_worker, transport_driver):
    tracer = obs.enable("driver")
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    try:
        head = make_list(transport_driver.jvm, range(12))
        result, _ = client.send_graph([head])
    finally:
        client.close()
    assert "trace" not in result  # absorbed, not leaked to the caller
    spans = tracer.spans()
    assert all(s.closed for s in spans)
    assert {s.trace_id for s in spans} == {tracer.trace_id}
    worker_spans = [s for s in spans if s.process.startswith("worker:")]
    assert any(s.name == "worker.recv_graph" for s in worker_spans)
    ids = {s.span_id for s in spans}
    assert all(s.parent_id in ids for s in worker_spans)
    wire = next(s for s in spans if s.name == "wire.send_graph")
    root_remote = [s for s in worker_spans if s.parent_id == wire.span_id]
    assert root_remote, "worker op span must parent under the wire span"
    for s in root_remote:
        assert s.start_us >= wire.start_us - 2.0
        assert s.end_us <= wire.end_us + 2.0


class _SpoiledTrailer(FrameConnection):
    """Flips one bit of every TRAILER's whole-stream CRC before sending."""

    def send_frame(self, ftype, payload=b""):
        if ftype == frames.TRAILER:
            *head, crc, chunks = frames.decode_trailer(payload)
            payload = frames.encode_trailer(*head, crc ^ 1, chunks)
        super().send_frame(ftype, payload)


def test_failed_graph_send_ends_its_wire_span(transport_driver):
    """The worker refuses a graph whose trailer lies, and ``send_graph``
    raises its ERROR — with the ``wire.send_graph`` span ended, not left
    open to parent the next span on this thread."""
    tracer = obs.enable("driver")
    spec = WorkerSpec(name="spoiled", classpath_factory=SAMPLE_FACTORY)
    with LocalAsyncWorker(spec) as local:
        client = WorkerClient(transport_driver, local.host, local.port,
                              connection_cls=_SpoiledTrailer).connect()
        try:
            head = make_list(transport_driver.jvm, range(12))
            with pytest.raises(RemoteWorkerError, match="CRC mismatch"):
                client.send_graph([head])
        finally:
            client.close()
    assert not tracer.open_spans()
    with obs.span("after.failure"):
        pass
    [wire] = [s for s in tracer.spans() if s.name == "wire.send_graph"]
    [after] = [s for s in tracer.spans() if s.name == "after.failure"]
    assert wire.attrs["error"] == "RemoteWorkerError"
    assert after.parent_id != wire.span_id


def test_blob_send_traced_and_valid(spawned_worker, transport_driver):
    tracer = obs.enable("driver")
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    try:
        result = client.send_blob(b"x" * 20_000)
    finally:
        client.close()
    assert "trace" not in result
    names = {s.name for s in tracer.spans()}
    assert {"wire.send_blob", "worker.recv_blob", "recv.receive"} <= names
    doc = to_chrome_trace(tracer.spans(), trace_id=tracer.trace_id)
    assert validate_chrome_trace(doc) == []


def test_epoch_send_traced_end_to_end(spawned_worker, transport_driver):
    """FULL then a mutated DELTA on a loopback and a socket channel under
    one trace: both sides' delta spans appear, worker spans parent under
    driver spans, and each channel's ``exchange.*`` registry source reports
    the wire bytes its receipts add up to.  Then two channels in one
    ``send_epochs`` batch: one TRACE frame, and each channel's worker spans
    graft under the batch's wire span."""
    tracer = obs.enable("driver")
    jvm = transport_driver.jvm
    sent_frames, recording = recording_connection()
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
        connection_cls=recording,
    ).connect()
    receiver = SkywayRuntime(
        JVM("obs-recv", classpath=sample_worker_classpath()),
        transport_driver.driver_registry, is_driver=False)
    channels = [GraphChannel(transport_driver, substrate,
                             destination="obs-prop")
                for substrate in (Loopback(receiver), client)]
    try:
        head = jvm.pin(make_list(jvm, range(200))).address
        receipts = [[ch.send([head], digest=True)] for ch in channels]
        jvm.set_field(head, "payload", 99)
        for ch, sent in zip(channels, receipts):
            sent.append(ch.send([head], digest=True))
        # While the channels are open their sources publish the ledger.
        sources = obs.snapshot()["metrics"]["sources"]
        pair = [DeltaSendChannel(transport_driver, "obs-prop",
                                 channel_id=8800 + i) for i in range(2)]
        channels += pair
        batch_frames = [ch.send([head]) for ch in pair]
        batch_mark = len(tracer.spans())
        list(sent_frames.frames())
        results = client.send_epochs(
            [(ch.channel_id, ch.epoch, frame)
             for ch, frame in zip(pair, batch_frames)])
        batch_sent = [ftype for ftype, _payload in sent_frames.frames()]
    finally:
        for ch in channels:
            ch.close()
        client.close()
    assert all([r.mode for r in sent] == ["full", "delta"]
               for sent in receipts)
    ledger = {src["substrate"]: src["wire_bytes"]
              for name, src in sources.items() if name.startswith("exchange.")}
    assert ledger == {ch.kind: sum(r.wire_bytes for r in sent)
                      for ch, sent in zip(channels, receipts)}
    assert all("trace" not in out["result"] and out["result"]["ok"]
               for out in results.values())

    spans = tracer.spans()
    assert {"exchange.send", "send.epoch", "send.traverse", "delta.diff",
            "delta.encode", "wire.send_epoch", "worker.recv_epoch",
            "recv.apply"} <= {s.name for s in spans}
    assert not tracer.open_spans()
    assert {s.trace_id for s in spans} == {tracer.trace_id}
    ids = {s.span_id for s in spans}
    worker_spans = [s for s in spans if s.process.startswith("worker:")]
    assert "recv.apply" in {s.name for s in worker_spans}
    assert all(s.parent_id in ids for s in worker_spans)
    doc = to_chrome_trace(spans, trace_id=tracer.trace_id)
    assert validate_chrome_trace(doc) == []

    assert batch_sent.count(frames.TRACE) == 1
    assert batch_sent.count(frames.STREAM) == 2
    batch = [s for s in spans[batch_mark:] if s.name == "wire.send_epoch"]
    assert [s.attrs["channels"] for s in batch] == [2]
    applied = [s for s in spans[batch_mark:] if s.name == "worker.recv_epoch"]
    assert sorted(s.attrs["channel"] for s in applied) == [8800, 8801]
    assert {s.parent_id for s in applied} == {batch[0].span_id}


class _RecordingReplies(FrameConnection):
    """Keeps every frame the client reads, before ``absorb_remote`` pops
    the worker's ``"trace"`` payload off a RESULT."""

    def recv_frame(self, block=True):
        frame = super().recv_frame(block)
        if frame is not None:
            self.replies.append(frame)
        return frame


def test_trace_covers_only_the_batch_it_precedes(transport_driver):
    """A traced epoch, then an untraced one, on one connection to an
    in-thread worker: the untraced epoch runs untraced on the worker (the
    process-global tracer stays off) and its RESULT carries no trace."""
    _RecordingReplies.replies = replies = []
    spec = WorkerSpec(name="trace-batch", classpath_factory=SAMPLE_FACTORY)
    channel = DeltaSendChannel(transport_driver, "trace-batch",
                               channel_id=8820)
    head = make_list(transport_driver.jvm, range(5))
    with LocalAsyncWorker(spec) as local:
        client = WorkerClient(transport_driver, local.host, local.port,
                              connection_cls=_RecordingReplies).connect()
        try:
            obs.enable("driver")
            client.send_epoch(channel.send([head]), 8820, channel.epoch)
            obs.disable()
            del replies[:]
            untraced = client.send_epoch(channel.send([head]), 8820,
                                         channel.epoch)
        finally:
            channel.close()
            client.close()
    assert not obs.enabled()
    [(ftype, payload)] = replies
    assert ftype == frames.RESULT
    assert "trace" not in frames.decode_json(payload)
    assert "trace" not in untraced and untraced["ok"]


def test_disabled_tracing_ships_no_trace_frame(spawned_worker,
                                               transport_driver):
    """With no tracer enabled the client sends no TRACE frame, the worker
    adds no payload, and the RESULT is exactly the untraced dict — for a
    CALL op and an epoch stream alike."""
    assert not obs.enabled()
    sent, recording = recording_connection()
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
        connection_cls=recording,
    ).connect()
    channel = DeltaSendChannel(transport_driver, "obs-off", channel_id=8810)
    try:
        result = client.send_blob(b"y" * 1000)
        head = make_list(transport_driver.jvm, range(5))
        epoch = client.send_epoch(channel.send([head]), 8810, channel.epoch)
    finally:
        channel.close()
        client.close()
    assert "trace" not in result and "trace" not in epoch
    assert frames.TRACE not in {ftype for ftype, _payload in sent.frames()}
    assert not obs.enabled()


def test_client_connect_registers_transport_source(spawned_worker,
                                                   transport_driver):
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    names = [n for n in obs.registry().source_names()
             if n.startswith("transport.")]
    assert len(names) == 1
    src = obs.registry().snapshot()["sources"][names[0]]
    assert src["frames_sent"] > 0  # the HELLO at least
    client.close()
    assert not [n for n in obs.registry().source_names()
                if n.startswith("transport.")]
    client.close()  # idempotent
