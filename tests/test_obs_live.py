"""Fleet telemetry plane: sampler deltas, bounded windows, straggler
detection, payload fuzz hardening, and the kill-a-worker postmortem drill
against a real coordinator + worker fleet."""

import time

import pytest

from repro import obs
from repro.obs import live, recorder
from repro.obs.live import (
    FleetTelemetry,
    MAX_RECORDER_ENTRIES,
    TELEMETRY_VERSION,
    TelemetryError,
    TelemetrySampler,
    render_top,
    validate_telemetry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import (
    DEFAULT_BUCKET_BOUNDS,
    MetricsRegistry,
    quantile_from_buckets,
)


def _payload(seq, t=None, **parts):
    p = {"v": TELEMETRY_VERSION, "seq": seq,
         "t": time.time() if t is None else t}
    p.update(parts)
    return p


def _latency_payload(seq, value, count=1):
    """One epoch-latency observation as a registry-shaped hist delta."""
    reg = MetricsRegistry()
    for _ in range(count):
        reg.observe("worker.epoch_receive_seconds", value)
    hist = reg.snapshot()["histograms"]["worker.epoch_receive_seconds"]
    return _payload(seq, h={"worker.epoch_receive_seconds": {
        "count": hist["count"], "sum": hist["sum"],
        "min": hist["min"], "max": hist["max"],
        "buckets": hist["buckets"],
    }}, c={"worker.epochs": float(count),
           "worker.epoch_bytes": 1000.0 * count})


# ---------------------------------------------------------------------------
# streaming quantiles
# ---------------------------------------------------------------------------

class TestStreamingQuantiles:
    def test_quantiles_land_in_snapshot_and_bound_the_data(self):
        reg = MetricsRegistry()
        values = [0.001 * (i + 1) for i in range(100)]
        for v in values:
            reg.observe("lat", v)
        h = reg.snapshot()["histograms"]["lat"]
        assert min(values) <= h["p50"] <= h["p95"] <= h["p99"] <= max(values)
        # The geometric ladder is coarse (factor 2), so only sanity-band
        # the estimates: p50 within its covering bucket of the true 0.05.
        assert 0.02 <= h["p50"] <= 0.075
        assert h["p99"] >= 0.064  # inside the top occupied bucket

    def test_single_bucket_interpolates_between_min_and_max(self):
        reg = MetricsRegistry()
        for v in (0.010, 0.011, 0.012):  # all in one bucket
            reg.observe("lat", v)
        h = reg.snapshot()["histograms"]["lat"]
        assert 0.010 <= h["p50"] <= 0.012

    def test_legacy_histogram_without_buckets_falls_back(self):
        hist = {"count": 10, "sum": 5.0, "min": 1.0, "max": 2.0}
        assert quantile_from_buckets(hist, 0.5) == pytest.approx(1.5)
        assert quantile_from_buckets(hist, 1.0) == pytest.approx(2.0)

    def test_bucket_counts_are_deltable(self):
        # Two registries' buckets summed == one registry observing both
        # streams: the property fleet aggregation relies on.
        a, b, both = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for v in (0.001, 0.004, 0.1):
            a.observe("lat", v)
            both.observe("lat", v)
        for v in (0.002, 0.25):
            b.observe("lat", v)
            both.observe("lat", v)
        ha = a.snapshot()["histograms"]["lat"]
        hb = b.snapshot()["histograms"]["lat"]
        hc = both.snapshot()["histograms"]["lat"]
        summed = [x + y for x, y in zip(ha["buckets"], hb["buckets"])]
        assert summed == hc["buckets"]


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded_and_seq_monotonic(self, monkeypatch):
        monkeypatch.setattr(recorder, "CAPACITY", 4)
        rec = FlightRecorder()
        for i in range(10):
            rec.record("tick", i=i)
        dump = rec.dump()
        assert len(dump) == 4
        assert [e["i"] for e in dump] == [6, 7, 8, 9]
        assert [e["seq"] for e in dump] == [7, 8, 9, 10]

    def test_drain_since_is_incremental_and_non_destructive(self):
        rec = FlightRecorder()
        rec.record("a")
        rec.record("b")
        first = rec.drain_since(0)
        assert [e["kind"] for e in first] == ["a", "b"]
        rec.record("c")
        assert [e["kind"] for e in rec.drain_since(first[-1]["seq"])] == ["c"]
        assert len(rec.dump()) == 3  # nothing was consumed

    def test_reserved_keys_cannot_be_shadowed(self):
        rec = FlightRecorder()
        rec.record("error", detail="x", t_s=-1.0, seq=-1)
        entry = rec.dump()[0]
        assert entry["seq"] == 1 and entry["t_s"] > 0
        assert entry["kind"] == "error" and entry["detail"] == "x"

    def test_tracer_tap_records_closed_spans(self):
        rec = obs.enable_recorder()
        obs.enable(process="test")
        # A span attr named "kind" must not collide with the entry kind.
        with obs.span("exchange.send", kind="full", bytes=10):
            pass
        kinds = [e for e in rec.dump() if e["kind"] == "span"]
        assert kinds and kinds[-1]["name"] == "exchange.send"

    def test_disabled_record_is_a_noop(self):
        assert obs.get_recorder() is None
        obs.record("never")  # must not raise, must not allocate a ring
        assert obs.get_recorder() is None


# ---------------------------------------------------------------------------
# sampler deltas
# ---------------------------------------------------------------------------

class TestTelemetrySampler:
    def test_only_changed_series_ship(self):
        reg = MetricsRegistry()
        reg.counter("sends", 2)
        s = TelemetrySampler(reg)
        p1 = s.sample()
        s.ack(p1["seq"])
        assert p1["c"] == {"sends": 2.0}
        p2 = s.sample()
        s.ack(p2["seq"])
        assert "c" not in p2  # nothing changed
        reg.counter("sends", 3)
        p3 = s.sample()
        assert p3["c"] == {"sends": 3.0}  # the delta, not the total

    def test_unacked_sample_merges_into_the_next(self):
        reg = MetricsRegistry()
        reg.counter("sends", 1)
        reg.observe("lat", 0.01)
        s = TelemetrySampler(reg)
        s.sample()  # never acked: the heartbeat carrying it failed
        reg.counter("sends", 4)
        reg.observe("lat", 0.03)
        merged = s.sample()
        assert merged["c"]["sends"] == 5.0
        assert merged["h"]["lat"]["count"] == 2.0
        assert merged["h"]["lat"]["min"] == pytest.approx(0.01)
        assert merged["h"]["lat"]["max"] == pytest.approx(0.03)
        # seq still advances per sample; the coordinator sees one gap.
        assert merged["seq"] == 2

    def test_ack_clears_pending(self):
        reg = MetricsRegistry()
        reg.counter("sends", 1)
        s = TelemetrySampler(reg)
        p = s.sample()
        s.ack(p["seq"])
        reg.counter("sends", 1)
        p2 = s.sample()
        assert p2["c"]["sends"] == 1.0  # no re-merge of the acked delta

    def test_recorder_entries_ride_once(self):
        reg = MetricsRegistry()
        rec = FlightRecorder()
        rec.record("error", detail="boom")
        s = TelemetrySampler(reg, recorder=rec)
        p1 = s.sample()
        s.ack(p1["seq"])
        assert [e["kind"] for e in p1["rec"]] == ["error"]
        p2 = s.sample()
        s.ack(p2["seq"])
        assert "rec" not in p2  # drained incrementally, not re-shipped


# ---------------------------------------------------------------------------
# payload fuzz hardening (unit level)
# ---------------------------------------------------------------------------

MALFORMED = [
    "not a mapping",
    {},
    {"v": 999, "seq": 1, "t": 0.0},
    {"v": TELEMETRY_VERSION, "seq": 0, "t": 0.0},
    {"v": TELEMETRY_VERSION, "seq": True, "t": 0.0},
    {"v": TELEMETRY_VERSION, "seq": "1", "t": 0.0},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": float("nan")},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0, "c": ["boom"]},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0, "c": {"x": float("inf")}},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0, "g": {"": 1.0}},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0, "h": {"x": {}}},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0,
     "h": {"x": {"count": 1, "sum": "y", "min": 0, "max": 0}}},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0,
     "h": {"x": {"count": 1, "sum": 0.0, "min": 0.0, "max": 0.0,
                 "buckets": [1] * (len(DEFAULT_BUCKET_BOUNDS) + 50)}}},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0,
     "rec": [{"kind": "x"}]},  # entry without a seq
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0,
     "rec": [{"seq": 1}] * (MAX_RECORDER_ENTRIES + 1)},
    # Fewer bucket counts than the ladder has rungs: ingest would replace
    # a worker's accumulated buckets with this one.
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0,
     "h": {"x": {"count": 1, "sum": 0.0, "min": 0.0, "max": 0.0,
                 "buckets": [1]}}},
    {"v": TELEMETRY_VERSION, "seq": 1, "t": 0.0,
     "h": {"x": {"count": 1, "sum": 0.0, "min": 0.0, "max": 0.0,
                 "buckets": [-500.0] * (len(DEFAULT_BUCKET_BOUNDS) + 1)}}},
]


class TestPayloadFuzz:
    @pytest.mark.parametrize("payload", MALFORMED)
    def test_malformed_payloads_raise_typed_error(self, payload):
        with pytest.raises(TelemetryError):
            validate_telemetry(payload)

    def test_rejections_are_counted_and_state_untouched(self):
        ft = FleetTelemetry()
        ft.ingest("w0", 1, _payload(1, c={"sends": 1.0}))
        with pytest.raises(TelemetryError):
            ft.ingest("w0", 1, {"v": 999})
        assert ft.document()["stats"]["payloads_rejected"] == 1
        assert ft.worker("w0").counters["sends"] == 1.0


# ---------------------------------------------------------------------------
# coordinator-side accumulation
# ---------------------------------------------------------------------------

class TestWorkerTelemetry:
    def test_window_is_bounded_and_slides(self, monkeypatch):
        monkeypatch.setattr(live, "WINDOW", 5)
        ft = FleetTelemetry()
        for seq in range(1, 9):
            ft.ingest("w0", 1, _payload(seq, c={"n": 1.0}))
        w = ft.worker("w0")
        assert len(w.window) == 5
        assert w.window[0]["seq"] == 4  # oldest three slid out
        assert w.counters["n"] == 8.0  # totals keep the full history

    def test_duplicate_seq_is_dropped(self):
        ft = FleetTelemetry()
        p = _payload(1, c={"n": 1.0})
        ft.ingest("w0", 1, p)
        ft.ingest("w0", 1, p)  # a retried heartbeat
        assert ft.worker("w0").counters["n"] == 1.0

    def test_generation_bump_resets_sequence_not_totals(self):
        ft = FleetTelemetry()
        ft.ingest("w0", 1, _payload(5, c={"n": 2.0}))
        ft.ingest("w0", 2, _payload(1, c={"n": 3.0}))  # restarted worker
        w = ft.worker("w0")
        assert w.generation == 2 and w.last_seq == 1
        assert w.counters["n"] == 5.0

    def test_gaps_are_counted(self):
        ft = FleetTelemetry()
        ft.ingest("w0", 1, _payload(1))
        ft.ingest("w0", 1, _payload(4))
        assert ft.worker("w0").gaps == 1


# ---------------------------------------------------------------------------
# straggler detection (unit level)
# ---------------------------------------------------------------------------

class TestStragglerDetection:
    def _feed(self, ft, latencies, epochs=4):
        for worker, value in latencies.items():
            for seq in range(1, epochs + 1):
                ft.ingest(worker, 1, _latency_payload(seq, value))

    def test_exactly_the_slow_worker_is_flagged(self):
        ft = FleetTelemetry()
        self._feed(ft, {"w0": 0.010, "w1": 0.012, "w2": 0.011, "w3": 0.200})
        events = ft.detect()
        assert [e["worker"] for e in events] == ["w3"]
        assert events[0]["event"] == "straggler"
        assert ft.fleet_rollup()["stragglers"] == ["w3"]
        # Edge-triggered: a second pass emits nothing new.
        assert ft.detect() == []

    def test_recovery_emits_once(self, monkeypatch):
        monkeypatch.setattr(live, "WINDOW", 10)
        ft = FleetTelemetry()
        self._feed(ft, {"w0": 0.010, "w1": 0.011, "w2": 0.300})
        assert [e["event"] for e in ft.detect()] == ["straggler"]
        # The slow worker speeds up: fast samples fill the bounded window
        # and the slow ones slide out, pulling the mean under threshold.
        for seq in range(5, 20):
            ft.ingest("w2", 1, _latency_payload(seq, 0.010))
        events = ft.detect()
        assert [e["event"] for e in events] == ["recovered"]
        assert ft.worker("w2").straggler_since is None

    def test_a_fleet_of_one_has_no_median_to_be_slower_than(self):
        ft = FleetTelemetry()
        self._feed(ft, {"w0": 0.5})
        assert ft.detect() == []

    def test_min_samples_gate(self, monkeypatch):
        monkeypatch.setattr(live, "STRAGGLER_MIN_SAMPLES", 10)
        ft = FleetTelemetry()
        self._feed(ft, {"w0": 0.01, "w1": 0.5}, epochs=4)
        assert ft.detect() == []  # nobody has 10 epochs in window yet

    def test_absolute_floor_spares_microsecond_jitter(self, monkeypatch):
        monkeypatch.setattr(live, "STRAGGLER_MIN_SECONDS", 1e-3)
        ft = FleetTelemetry()
        self._feed(ft, {"w0": 1e-6, "w1": 1e-6, "w2": 2e-4})
        assert ft.detect() == []  # 200µs > 3×median but under the floor

    def test_events_since_cursor(self):
        ft = FleetTelemetry()
        self._feed(ft, {"w0": 0.01, "w1": 0.011, "w2": 0.3})
        ft.detect()
        events = ft.events_since(0)
        assert len(events) == 1
        assert ft.events_since(events[-1]["seq"]) == []


# ---------------------------------------------------------------------------
# front-end surfaces over synthetic documents
# ---------------------------------------------------------------------------

class TestFrontEnds:
    def _doc(self):
        ft = FleetTelemetry()
        for worker, value in (("w0", 0.01), ("w1", 0.012), ("w2", 0.4)):
            for seq in range(1, 5):
                ft.ingest(worker, 1, _latency_payload(seq, value))
        ft.detect()
        return ft.document()

    def test_render_top_shows_workers_and_flags(self):
        text = render_top(self._doc(), alive={"w0": True, "w1": True,
                                              "w2": False})
        assert "w0" in text and "w2" in text
        assert "STRAGGLER" in text and "DOWN" in text


# ---------------------------------------------------------------------------
# end to end: a real fleet, heartbeat piggyback, kill drill
# ---------------------------------------------------------------------------

def _wait(predicate, timeout=15.0, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


@pytest.mark.timeout(120)
def test_fleet_telemetry_end_to_end(make_fleet, transport_driver):
    from tests.conftest import make_list

    from repro.cluster.fleet import Fleet

    harness = make_fleet(2, heartbeat_interval=0.1)
    fleet = Fleet.connect(transport_driver, harness.coordinator.host,
                          harness.coordinator.port)
    try:
        head = make_list(transport_driver.jvm, range(30))
        pin = transport_driver.jvm.pin(head)
        try:
            for _ in range(3):
                result = fleet.broadcast([head])
                assert result.delivered == 2

            # Heartbeats carry the epoch series to the coordinator.
            names = harness.worker_names

            def all_reported():
                doc = fleet.telemetry()
                return all(
                    doc["workers"].get(n, {}).get("counters", {})
                    .get("worker.epochs", 0) >= 3 for n in names
                )

            assert _wait(all_reported), "telemetry never converged"
            doc = fleet.telemetry()
            for name in names:
                w = doc["workers"][name]
                assert w["samples"] > 0
                assert w["counters"]["worker.epochs"] == 3.0
                assert w["counters"]["worker.epoch_bytes"] > 0
                assert w["rollup"]["epoch_receive_mean_s"] > 0
                assert w["window_len"] <= doc["stats"]["window"]
            assert doc["rollups"]["workers_reporting"] == 2
            assert doc["alive"] == {n: True for n in names}

            # -- the kill drill: telemetry must outlive the worker ------
            victim = names[0]
            harness.kill_worker(victim)
            assert _wait(lambda: not fleet.lookup(victim)["alive"]), \
                "coordinator never declared the victim dead"

            postmortem = fleet.postmortem(victim)
            assert postmortem is not None
            assert postmortem["samples"] > 0
            assert postmortem["counters"]["worker.epochs"] == 3.0
            assert len(postmortem["window"]) > 0
            # The flight-recorder dump its heartbeats carried: per-epoch
            # entries at minimum (the worker records one per apply).
            kinds = {e["kind"] for e in postmortem["recorder"]}
            assert "epoch" in kinds

            # The survivor still streams; the dead worker's series stay.
            survivor = names[1]
            result = fleet.broadcast([head])
            assert result.delivered == 1
            doc = fleet.telemetry()
            assert doc["alive"][victim] is False
            assert doc["workers"][victim]["counters"]["worker.epochs"] == 3.0
            # The front ends render the live document, dead worker included.
            rows = {line.split()[0]: line.split()[1] for line
                    in render_top(doc, alive=doc["alive"]).splitlines()
                    if line.startswith(tuple(names))}
            assert rows == {victim: "DOWN", survivor: "up"}
            assert _wait(lambda: fleet.telemetry()["workers"][survivor]
                         ["counters"]["worker.epochs"] >= 4)
        finally:
            transport_driver.jvm.unpin(pin)
    finally:
        fleet.close()


def test_a_worker_without_a_coordinator_records_nothing(transport_driver):
    """Telemetry runs only where a coordinator reads it: epochs through an
    in-process worker with no coordinator write no ``worker.*`` or
    ``aserve.*`` series into the process registry and enable no flight
    recorder."""
    from tests.conftest import make_list

    from repro.delta.channel import DeltaSendChannel
    from repro.transport import LocalAsyncWorker, WorkerClient, WorkerSpec
    from repro.transport.testing import SAMPLE_FACTORY

    spec = WorkerSpec(name="no-coordinator", classpath_factory=SAMPLE_FACTORY)
    jvm = transport_driver.jvm
    pin = jvm.pin(make_list(jvm, range(16)))
    channel = DeltaSendChannel(transport_driver, spec.name, channel_id=4001)
    with LocalAsyncWorker(spec) as local:
        client = WorkerClient(transport_driver, local.host,
                              local.port).connect()
        try:
            for payload in range(3):
                jvm.set_field(pin.address, "payload", payload)
                frame = channel.send([pin.address])
                results = client.send_epochs([(4001, channel.epoch, frame)])
                assert results[4001]["result"]["ok"]
        finally:
            client.close()
            channel.close()
            jvm.unpin(pin)
    assert local.loop.epochs_applied == 3
    snap = obs.registry().snapshot()
    series = [key for part in ("counters", "gauges", "histograms")
              for key in snap[part]]
    assert [key for key in series
            if key.startswith(("worker.", "aserve."))] == []
    assert obs.get_recorder() is None


def test_malformed_telemetry_answers_typed_error_and_survives():
    """A fuzzer bit-flip in the piggybacked payload must come back as a
    typed ClusterProtocolError on the same connection — never a hang, a
    closed coordinator socket, or an un-beat worker."""
    from repro.cluster.coordinator import CoordinatorSpec, LocalCoordinator
    from repro.cluster.membership import CoordinatorClient
    from repro.transport.errors import ClusterProtocolError

    # A 10 s heartbeat: the liveness sweep cannot fire mid-test.
    with LocalCoordinator(CoordinatorSpec(
            name="fuzz-coordinator", heartbeat_interval=10.0)) as coordinator, \
            CoordinatorClient(coordinator.host, coordinator.port) as client:
        worker = "w0"
        generation = client.call("register", name=worker,
                                 port=7)["generation"]
        for bad in ({"v": 999}, {"v": 1, "seq": -3, "t": 0.0},
                    {"v": 1, "seq": 1, "t": 0.0, "c": {"x": float("nan")}}):
            with pytest.raises(ClusterProtocolError):
                client.call("heartbeat", name=worker,
                            generation=generation, telemetry=bad)
        # Same connection still serves RPCs, and the worker is still
        # alive: malformed telemetry must not kill either.
        record = client.call("lookup", name=worker)
        assert record["alive"] is True
        result = client.call("heartbeat", name=worker,
                             generation=generation)
        assert result["known"] is True
        assert client.call("telemetry")["telemetry"][
            "stats"]["payloads_rejected"] == 3
