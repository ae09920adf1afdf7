"""Cross-process trace propagation: worker spans ship back in RESULT
payloads and stitch under the driver's trace (TRACE wire frame, v2)."""

from repro import obs
from repro.core.runtime import SkywayRuntime
from repro.exchange.capabilities import ChannelCapabilities
from repro.exchange.loopback import LoopbackGraphChannel
from repro.exchange.socket import SocketGraphChannel
from repro.jvm.jvm import JVM
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.transport import WorkerClient
from repro.transport.testing import sample_worker_classpath

from tests.conftest import make_list


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
    the wire bytes its receipts add up to."""
    tracer = obs.enable("driver")
    jvm = transport_driver.jvm
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    request = ChannelCapabilities(kernel=True, delta=True)
    receiver = SkywayRuntime(
        JVM("obs-recv", classpath=sample_worker_classpath()),
        transport_driver.driver_registry, is_driver=False)
    channels = [
        LoopbackGraphChannel(transport_driver, destination="obs-prop",
                             requested=request, receiver_runtime=receiver),
        SocketGraphChannel(transport_driver, client, requested=request,
                           destination="obs-prop"),
    ]
    try:
        head = jvm.pin(make_list(jvm, range(200))).address
        receipts = [[ch.send([head], digest=True)] for ch in channels]
        jvm.set_field(head, "payload", 99)
        for ch, sent in zip(channels, receipts):
            sent.append(ch.send([head], digest=True))
        # While the channels are open their sources publish the ledger.
        sources = obs.snapshot()["metrics"]["sources"]
    finally:
        for ch in channels:
            ch.close()
        client.close()
    assert all([r.mode for r in sent] == ["full", "delta"]
               for sent in receipts)
    ledger = {src["substrate"]: src["wire_bytes"]
              for name, src in sources.items() if name.startswith("exchange.")}
    assert ledger == {ch.substrate: sum(r.wire_bytes for r in sent)
                      for ch, sent in zip(channels, receipts)}

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


def test_disabled_tracing_ships_no_trace_frame(spawned_worker,
                                               transport_driver):
    """With no tracer enabled the client sends no TRACE frame, the worker
    adds no payload, and the RESULT is exactly the v1-shaped dict."""
    assert not obs.enabled()
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    try:
        result = client.send_blob(b"y" * 1000)
    finally:
        client.close()
    assert "trace" not in result
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
