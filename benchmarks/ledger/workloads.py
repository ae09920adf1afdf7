"""The four ledger workloads.

Load shape, all of them: a closed loop with one caller (a Spark stage or
an iterative driver waits for the receiver's ack before its next send),
one driver process, at most one spawned worker on ``WorkerSpec`` defaults,
one connection, no threads beyond the program's own chunk-pipeline writer.
The box has 2 cores; more than this measures the scheduler.

A run measures for ``--seconds``: ops repeat until the budget is spent,
never fewer than a fixed *prefix* of ops and never more than the
receiving heap can hold.  Byte, object and simulated-clock counts are
taken over that prefix, so they repeat exactly for a seed whatever the
machine's speed.  Each layer is timed from outside, by bench-owned spans
around the calls into its public functions.
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
import random
import resource
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.apps.incremental import build_vertex_graph
from repro.core.runtime import SkywayRuntime
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.delta.channel import DeltaReceiveEndpoint, DeltaSendChannel
from repro.delta.wire import FRAME_DELTA
from repro.exchange import SOCKET_OFFER, ChannelCapabilities, SocketGraphChannel
from repro.jvm.jvm import JVM
from repro.transport import (
    MuxEpochClient,
    WorkerClient,
    WorkerHandle,
    WorkerSpec,
    TransportError,
    frames,
    graph_digest,
    semantic_graph_digest,
)
from repro.transport.bootstrap import MB, build_runtime
from repro.transport.testing import SAMPLE_FACTORY, sample_worker_classpath

import inputs
from spans import NoTrace, SpanRecorder, durations_by_name, median, \
    percentile, self_time_by_name, supports

NO_TRACE = NoTrace()
#: Socket reads give up after this long; a stall becomes a failed op.
READ_TIMEOUT_S = 60.0
DELTA_REQUEST = ChannelCapabilities(kernel=True, delta=True)


@dataclasses.dataclass(frozen=True)
class Sizes:
    vertices: int          # vertex graph of the bulk and delta workloads
    mutations: int         # vertices re-ranked per delta epoch (1%)
    channels: int          # mux_fanin channels
    chain_nodes: int       # ListNode chain per channel
    bulk_heap_mb: int      # receiving old generation, bulk workloads
    warm_ops: int          # untimed ops after set-up
    prefix_bulk: int       # fixed op prefix: bulk ops
    prefix_epochs: int     # ... delta epochs
    prefix_rounds: int     # ... mux rounds
    setup_reps: int        # full set-ups per untraced run (median taken)
    micro_reps: int        # repetitions of each micro-measurement


FULL = Sizes(vertices=20_000, mutations=200, channels=256, chain_nodes=24,
             bulk_heap_mb=160, warm_ops=2, prefix_bulk=4, prefix_epochs=100,
             prefix_rounds=4, setup_reps=3, micro_reps=3)
SMOKE = Sizes(vertices=1_500, mutations=15, channels=32, chain_nodes=24,
              bulk_heap_mb=32, warm_ops=1, prefix_bulk=2, prefix_epochs=10,
              prefix_rounds=2, setup_reps=1, micro_reps=1)


class DeadlineExceeded(Exception):
    """The per-workload deadline fired (raised from the SIGALRM handler)."""


class CheckFailed(Exception):
    """An op completed but its output was wrong: ``count`` ops fail the
    named correctness check."""

    def __init__(self, check: str, message: str, count: int = 1) -> None:
        super().__init__(f"{check}: {message}")
        self.check = check
        self.count = count


def peak_rss_mb(worker_pid: Optional[int]) -> float:
    """Driver ``ru_maxrss`` plus the worker's ``VmHWM``, in MiB."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if worker_pid is not None:
        with open(f"/proc/{worker_pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += float(line.split()[1])
                    break
    return total_kb / 1024.0


def _sim_seconds(clock, snap) -> float:
    return sum(clock.since(snap).values())


def _all_equal(sim_seconds: Sequence[float]) -> bool:
    """Every op charged the simulated clock the same (the totals are
    float sums, so equal to rounding)."""
    return bool(sim_seconds) and all(
        abs(s - sim_seconds[0]) <= 1e-9 * abs(sim_seconds[0])
        for s in sim_seconds)


class Workload:
    """Set-up, the op loop, correctness checks and teardown of one
    workload.  ``setup()``/``close()`` may be called repeatedly."""

    name = "abstract"
    #: Ops one loop iteration attempts (mux_fanin: one epoch per channel).
    ops_per_call = 1
    #: Correctness checks made on every op; one bad op turns one False.
    OP_CHECKS: Tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.checks: Dict[str, bool] = dict.fromkeys(self.OP_CHECKS, True)
        self.fingerprint: Dict[str, object] = {}
        self.samples: Dict[str, int] = {}
        #: Intermediate numbers worth keeping beside the metrics.
        self.notes: Dict[str, float] = {}
        self.build_us_per_object = 0.0
        #: Per-op wire bytes and simulated seconds, in op order.
        self.op_bytes: List[int] = []
        self.op_sim: List[float] = []
        #: Memory high-water mark when the op prefix completed; read there
        #: because the heaps are touched lazily, so the final mark grows
        #: with however many ops the machine's speed fits in the budget.
        self.prefix_rss_mb: Optional[float] = None
        self.driver: Optional[SkywayRuntime] = None
        self.handle: Optional[WorkerHandle] = None
        self.client = None
        atexit.register(self._kill_worker)

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Reap the worker and drop every heap this set-up built."""
        client, self.client = self.client, None
        if client is not None:
            try:
                client.close()
            except (TransportError, OSError):
                pass  # a dead connection must not stop the reap below
        self._kill_worker()
        self.driver = None
        self._drop()
        gc.collect()

    def _drop(self) -> None:
        """Release subclass state (heaps, channels)."""

    def _kill_worker(self) -> None:
        handle, self.handle = self.handle, None
        if handle is not None:
            handle.stop()

    def _spawn(self, old_mb: Optional[int] = None) -> WorkerHandle:
        spec = WorkerSpec(name=f"ledger-{self.name}",
                          classpath_factory=SAMPLE_FACTORY,
                          read_timeout=READ_TIMEOUT_S)
        if old_mb is not None:
            spec = dataclasses.replace(spec, old_bytes=old_mb * MB)
        self.handle = WorkerHandle.spawn(spec)
        return self.handle

    def _build_graph(self, vertices: int):
        """Driver runtime + the seeded vertex graph, pinned."""
        self.driver = build_runtime("ledger-driver", SAMPLE_FACTORY)
        edges = inputs.ring_chord_edges(vertices, self.seed)
        started = time.perf_counter()
        self.root = self.driver.jvm.pin(
            build_vertex_graph(self.driver.jvm, edges))
        self.objects = 2 * vertices + 2
        self.build_us_per_object = (
            (time.perf_counter() - started) * 1e6 / self.objects)

    def worker_pid(self) -> Optional[int]:
        return self.handle.process.pid if self.handle is not None else None

    def _bulk_room(self, reserved: int) -> int:
        """Bulk ops the receiving heap still holds, keeping ``reserved``
        back.  Freed input buffers are reclaimed only by a GC the receive
        path never triggers, so the heap bounds the op count."""
        room = self.sizes.bulk_heap_mb * MB * 0.9 / self.stream_bytes
        return max(0, int(room) - self._ops_done - reserved)

    # -- the closed loop ---------------------------------------------------

    def fail(self, exc: BaseException, count: int = 1) -> None:
        self.failed += count
        self.failures.append(
            "".join(traceback.format_exception_only(type(exc), exc)).strip())

    def run_ops(self, op: Callable[[int], float], budget_s: float,
                min_ops: int, max_ops: int) -> List[float]:
        """Call ``op(index)`` until ``budget_s`` of wall-clock is spent
        (at least ``min_ops``, at most ``max_ops`` calls).  ``op`` returns
        its timed seconds.  A wrong output fails that op; any other error
        also ends the loop, because connection state is then unknown.
        The measuring passes give the fixed op prefix as ``min_ops``; the
        memory high-water mark is read the moment it completes."""
        timed: List[float] = []
        started = time.perf_counter()
        index = 0
        while index < max_ops and (
                index < min_ops
                or time.perf_counter() - started < budget_s):
            self.attempted += self.ops_per_call
            try:
                timed.append(op(index))
            except DeadlineExceeded:
                raise
            except CheckFailed as exc:
                self.checks[exc.check] = False
                self.fail(exc, exc.count)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.fail(exc, self.ops_per_call)
                break
            index += 1
            if index == min_ops and self.prefix_rss_mb is None:
                self.prefix_rss_mb = peak_rss_mb(self.worker_pid())
        return timed

    def end_to_end(self, timed: Sequence[float], latencies: Sequence[float],
                   prefix: int) -> Dict[str, float]:
        """The untraced metrics every workload reports the same way."""
        verified = self.attempted - self.failed
        self.samples["op"] = len(latencies)
        return {
            "ops_per_s": verified / sum(timed) if timed else 0.0,
            "op_p50_ms": median(latencies) * 1e3 if latencies else 0.0,
            "wire_bytes_per_op": (
                median(self.op_bytes[:prefix]) if self.op_bytes else 0.0),
            "peak_rss_mb": (self.prefix_rss_mb if self.prefix_rss_mb
                            else peak_rss_mb(self.worker_pid())),
        }

    def common_layers(self, prefix: int, untraced_p50: float,
                      traced_p50: float) -> Dict[str, float]:
        self.notes["untraced_op_p50_ms"] = untraced_p50 * 1e3
        self.notes["traced_op_p50_ms"] = traced_p50 * 1e3
        return {
            "heap.build_us_per_object": self.build_us_per_object,
            "simtime.seconds_per_op": (
                median(self.op_sim[:prefix]) if self.op_sim else 0.0),
            "bench.failed_op_share": (
                self.failed / self.attempted if self.attempted else 0.0),
            "bench.trace_overhead_pct": (
                (traced_p50 - untraced_p50) / untraced_p50 * 100.0
                if untraced_p50 else 0.0),
        }

    # -- entry points ------------------------------------------------------

    def run_untraced(self, seconds: float) -> Dict[str, float]:
        raise NotImplementedError

    def run_traced(self, seconds: float,
                   recorder: SpanRecorder) -> Dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# bulk: inproc_full and socket_full
# ---------------------------------------------------------------------------


def _reference_runtime(driver: SkywayRuntime, name: str,
                       old_mb: int) -> SkywayRuntime:
    """An in-process receiving runtime, classpath-identical to a worker."""
    jvm = JVM(name, classpath=sample_worker_classpath(),
              old_bytes=old_mb * MB)
    return SkywayRuntime(jvm, driver.driver_registry, is_driver=False)


def _serialize(driver: SkywayRuntime, root: int,
               use_kernels: Optional[bool] = None):
    """One in-process send; returns (framed bytes, objects sent)."""
    driver.shuffle_start()
    out = SkywayObjectOutputStream(driver, destination="ledger-inproc",
                                   use_kernels=use_kernels)
    out.write_object(root)
    data = out.close()
    return data, out.sender.objects_sent


class InprocFull(Workload):
    """Sender -> receiver -> digest -> free, no sockets."""

    name = "inproc_full"
    OP_CHECKS = ("object_count_matches", "digest_matches_reference")

    def setup(self) -> None:
        self._build_graph(self.sizes.vertices)
        self.receiver = _reference_runtime(
            self.driver, "ledger-receiver", self.sizes.bulk_heap_mb)
        self.reference_digest = None
        for _ in range(self.sizes.warm_ops):
            data, digest = self._transfer(NO_TRACE, None)
            self.reference_digest = digest
        self.stream_bytes = len(data)
        self.fingerprint = inputs.fingerprint(
            self.objects, len(data), [data])
        self._ops_done = self.sizes.warm_ops

    def _drop(self) -> None:
        self.receiver = None
        self.root = None

    def _transfer(self, rec, index: Optional[int]):
        with rec.span("op", op=index):
            with rec.span("core.sender"):
                data, sent = _serialize(self.driver, self.root.address)
            with rec.span("core.receiver"):
                stream = SkywayObjectInputStream(self.receiver)
                stream.accept(data)
            with rec.span("transport.digest"):
                digest = graph_digest(self.receiver.jvm, stream.receiver)
            with rec.span("core.receiver.free"):
                stream.close()
        if sent != self.objects:
            raise CheckFailed("object_count_matches",
                              f"sent {sent} objects, built {self.objects}")
        return data, digest

    def _max_ops(self) -> int:
        return self._bulk_room(reserved=2)

    def _op(self, rec) -> Callable[[int], float]:
        clocks = (self.driver.jvm.clock, self.receiver.jvm.clock)

        def op(index: int) -> float:
            snaps = [clock.snapshot() for clock in clocks]
            started = time.perf_counter()
            data, digest = self._transfer(rec, index)
            elapsed = time.perf_counter() - started
            self._ops_done += 1
            self.op_bytes.append(len(data))
            self.op_sim.append(sum(
                _sim_seconds(c, s) for c, s in zip(clocks, snaps)))
            if digest != self.reference_digest:
                raise CheckFailed("digest_matches_reference",
                                  "receiver digest drifted")
            return elapsed

        return op

    def _parity(self) -> Tuple[float, bool]:
        """Interpreted-path seconds (median) and whether its bytes equal
        the kernel path's."""
        kernel, _ = _serialize(self.driver, self.root.address, True)
        timed = []
        for _ in range(self.sizes.micro_reps):
            started = time.perf_counter()
            interp, _ = _serialize(self.driver, self.root.address, False)
            timed.append(time.perf_counter() - started)
        return median(timed), kernel == interp

    def _finish_checks(self) -> None:
        self.checks["sim_clock_identical_per_op"] = _all_equal(self.op_sim)

    def run_untraced(self, seconds: float) -> Dict[str, float]:
        timed = self.run_ops(self._op(NO_TRACE), seconds,
                             self.sizes.prefix_bulk, self._max_ops())
        metrics = self.end_to_end(timed, timed, self.sizes.prefix_bulk)
        _, self.checks["kernel_bytes_equal_interpreted"] = self._parity()
        self._finish_checks()
        return metrics

    def run_traced(self, seconds: float,
                   recorder: SpanRecorder) -> Dict[str, float]:
        prefix = self.sizes.prefix_bulk
        untraced = self.run_ops(self._op(NO_TRACE), seconds * 0.45,
                                prefix, self._max_ops() // 2)
        traced = self.run_ops(self._op(recorder), seconds * 0.45,
                              prefix, self._max_ops())
        interp_s, parity = self._parity()
        self.checks["kernel_bytes_equal_interpreted"] = parity
        self._finish_checks()
        spans = durations_by_name(recorder.spans)
        self.samples["op"] = len(traced)
        # Layer spans must account for the op: what is left is the op
        # span's own self time (span bookkeeping and the size check).
        self_time = self_time_by_name(recorder.spans)
        op_wall = sum(spans.get("op", ()))
        layer_self = sum(v for k, v in self_time.items() if k != "op")
        self.checks["layer_self_times_cover_op"] = bool(op_wall) and (
            abs(op_wall - layer_self) <= 0.05 * op_wall)

        def us_per_object(name: str) -> float:
            return median(spans[name]) * 1e6 / self.objects

        layers = self.common_layers(
            prefix, median(untraced) if untraced else 0.0,
            median(traced) if traced else 0.0)
        layers.update({
            "core.sender.us_per_object": us_per_object("core.sender"),
            "core.sender_interp.us_per_object":
                interp_s * 1e6 / self.objects,
            "core.receiver.us_per_object": us_per_object("core.receiver"),
            "transport.digest.us_per_object":
                us_per_object("transport.digest"),
            "core.stream.bytes_per_object": self.stream_bytes / self.objects,
        })
        return layers


class SocketFull(Workload):
    """The same graph to one spawned worker over loopback TCP, pipelined,
    ``retain=False``."""

    name = "socket_full"
    OP_CHECKS = ("object_count_matches", "digest_matches_reference")

    def setup(self) -> None:
        self._build_graph(self.sizes.vertices)
        handle = self._spawn(self.sizes.bulk_heap_mb)
        self.client = WorkerClient(
            self.driver, handle.host, handle.port,
            read_timeout=READ_TIMEOUT_S).connect()
        for _ in range(self.sizes.warm_ops):
            result, data = self.client.send_graph([self.root.address])
        self.stream_bytes = len(data)
        self.worker_digest = result["digest"]
        self.fingerprint = inputs.fingerprint(
            self.objects, len(data), [data])
        self._ops_done = self.sizes.warm_ops
        self._first_data = data

    def _drop(self) -> None:
        self.root = None
        self._first_data = None

    def _max_ops(self) -> int:
        # store-and-forward and obs-on micro ops also land in the heap
        return self._bulk_room(reserved=2 * self.sizes.micro_reps + 2)

    def _verify(self, result: dict, data: bytes) -> None:
        self._ops_done += 1
        self.op_bytes.append(len(data))
        if result.get("objects") != self.objects:
            raise CheckFailed(
                "object_count_matches",
                f"worker placed {result.get('objects')} objects, "
                f"sent {self.objects}")
        if result.get("digest") != self.worker_digest:
            raise CheckFailed("digest_matches_reference",
                              "worker digest drifted")

    def _op(self, rec, **send_opts) -> Callable[[int], float]:
        client = self.client
        clock = self.driver.jvm.clock
        roots = [self.root.address]

        def op(index: int) -> float:
            snap = clock.snapshot()
            started = time.perf_counter()
            if rec.enabled:
                # send_graph, taken apart at its public seams.
                with rec.span("op", op=index):
                    with rec.span("transport.client.begin"):
                        stream = client.begin_graph(**send_opts)
                    with rec.span("transport.client.write"):
                        for root in roots:
                            stream.write_object(root)
                    with rec.span("transport.client.finish_wait"):
                        result, data = stream.finish()
            else:
                result, data = client.send_graph(roots, **send_opts)
            elapsed = time.perf_counter() - started
            self.op_sim.append(_sim_seconds(clock, snap))
            self._verify(result, data)
            return elapsed

        return op

    def _cross_check(self) -> None:
        """The worker's digest must equal an in-process receive of the
        identical framed bytes (what inproc_full digests)."""
        reference = _reference_runtime(self.driver, "ledger-reference", 16
                                       + 2 * self.stream_bytes // MB)
        stream = SkywayObjectInputStream(reference)
        stream.accept(self._first_data)
        self.checks["worker_digest_equals_inproc_digest"] = (
            graph_digest(reference.jvm, stream.receiver)
            == self.worker_digest)
        self.checks["sim_clock_identical_per_op"] = _all_equal(self.op_sim)

    def run_untraced(self, seconds: float) -> Dict[str, float]:
        timed = self.run_ops(self._op(NO_TRACE), seconds,
                             self.sizes.prefix_bulk, self._max_ops())
        metrics = self.end_to_end(timed, timed, self.sizes.prefix_bulk)
        self._cross_check()
        return metrics

    def run_traced(self, seconds: float,
                   recorder: SpanRecorder) -> Dict[str, float]:
        prefix = self.sizes.prefix_bulk
        reps = self.sizes.micro_reps
        client = self.client
        # Each pass may use at most its share of the worker heap's room.
        untraced = self.run_ops(self._op(NO_TRACE), seconds * 0.4,
                                prefix, self._max_ops() // 3)
        worker_before = client.stats()["transport"]["phases"]
        before = client.metrics.as_dict()
        traced = self.run_ops(self._op(recorder), seconds * 0.4,
                              prefix, self._max_ops() // 2)
        after = client.metrics.as_dict()
        worker_after = client.stats()["transport"]["phases"]
        self.samples["op"] = len(traced)
        count = max(1, len(traced))
        spans = durations_by_name(recorder.spans)
        self._cross_check()
        pipelined_p50 = median(untraced) if untraced else 0.0
        sims = len(self.op_sim)

        store_and_forward = self.run_ops(
            self._op(NO_TRACE, store_and_forward=True), 0.0, reps, reps)
        blob = random.Random(self.seed).randbytes(self.stream_bytes)
        blob_s = []
        for _ in range(reps):
            started = time.perf_counter()
            client.send_blob(blob)
            blob_s.append(time.perf_counter() - started)
        encode_s, decode_s, self.checks["frame_codec_round_trip"] = (
            _frame_codec_seconds(blob, reps))
        # Last: a worker that has seen a TRACE frame keeps tracing.
        obs.enable(process="ledger-driver")
        try:
            obs_on = self.run_ops(self._op(NO_TRACE), 0.0, reps, reps)
        finally:
            obs.disable()
        del self.op_sim[sims:]  # micro ops are not ledger ops

        def per_op(key: str) -> float:
            return (after[key] - before[key]) / count

        def worker_phase(name: str) -> float:
            return (worker_after.get(name, 0.0)
                    - worker_before.get(name, 0.0)) / count

        mb = self.stream_bytes / 1e6
        layers = self.common_layers(
            prefix, pipelined_p50, median(traced) if traced else 0.0)
        layers.update({
            "transport.client.begin_ms":
                median(spans["transport.client.begin"]) * 1e3,
            "transport.client.write_s":
                median(spans["transport.client.write"]),
            "transport.client.finish_wait_s":
                median(spans["transport.client.finish_wait"]),
            "transport.pipeline.stall_s": per_op("stall_seconds"),
            "transport.pipeline.stalls": per_op("queue_full_stalls"),
            "transport.pipeline.chunks_per_op": per_op("chunks_sent"),
            "transport.frames_per_op": per_op("frames_sent"),
            "transport.worker.receive_s": worker_phase("receive"),
            "transport.worker.digest_s": worker_phase("digest"),
            "transport.pipeline.overlap_gain_s": (
                median(store_and_forward) - pipelined_p50
                if store_and_forward else 0.0),
            "transport.blob.mb_per_s": mb / median(blob_s),
            "transport.frames.encode_mb_per_s": mb / encode_s,
            "transport.frames.decode_mb_per_s": mb / decode_s,
            "obs.tracer.tax_pct": (
                (median(obs_on) - pipelined_p50) / pipelined_p50 * 100.0
                if obs_on and pipelined_p50 else 0.0),
        })
        return layers


def _frame_codec_seconds(blob: bytes,
                         reps: int) -> Tuple[float, float, bool]:
    """Median seconds to frame ``blob`` as 64 KiB DATA frames and to
    decode those frames back, and whether every byte came back."""
    chunk = 64 * 1024
    encode_s, decode_s = [], []
    intact = True
    for _ in range(reps):
        started = time.perf_counter()
        framed = [frames.encode_frame(frames.DATA, blob[off:off + chunk])
                  for off in range(0, len(blob), chunk)]
        encode_s.append(time.perf_counter() - started)
        decoder = frames.FrameDecoder()
        started = time.perf_counter()
        decoded = 0
        for frame in framed:
            decoder.feed(frame)
            for _ftype, payload in decoder.frames():
                decoded += len(payload)
        decode_s.append(time.perf_counter() - started)
        intact = intact and decoded == len(blob)
    return median(encode_s), median(decode_s), intact


# ---------------------------------------------------------------------------
# delta_epochs
# ---------------------------------------------------------------------------


class DeltaEpochs(Workload):
    """Small incremental writes on one ``SocketGraphChannel``: an untimed
    FULL bootstrap, then epochs that each re-rank 1% of the vertices."""

    name = "delta_epochs"
    OP_CHECKS = ("every_epoch_rode_delta",)
    CHANNEL_ID = 7_001
    LAYER_CHANNEL_ID = 7_002

    def setup(self) -> None:
        self._build_graph(self.sizes.vertices)
        handle = self._spawn()
        self.client = WorkerClient(
            self.driver, handle.host, handle.port,
            read_timeout=READ_TIMEOUT_S).connect()
        self.channel = SocketGraphChannel(
            self.driver, self.client, requested=DELTA_REQUEST,
            channel_id=self.CHANNEL_ID, destination="ledger-worker")
        self.roots = [self.root.address]
        self.epoch = 0
        self.mutated = 0
        bootstrap = self.channel.send(self.roots)
        first = None
        for _ in range(self.sizes.warm_ops):
            self._mutate()
            first = self.channel.send(self.roots)
        self.fingerprint = inputs.fingerprint(
            self.objects, bootstrap.wire_bytes,
            [bootstrap.frame] + ([first.frame] if first else []))
        self.checks["bootstrap_is_full"] = bootstrap.mode == "full"

    def _drop(self) -> None:
        channel = getattr(self, "channel", None)
        if channel is not None:
            channel.close()
        self.channel = None
        self.root = None

    def _mutate(self) -> float:
        """Re-rank this epoch's seeded picks; returns the seconds spent
        (workload cost, outside the op)."""
        jvm = self.driver.jvm
        picks = inputs.mutation_picks(
            self.sizes.vertices, self.sizes.mutations, self.seed, self.epoch)
        self.epoch += 1
        started = time.perf_counter()
        vertices = jvm.get_field(self.root.address, "vertices")
        for vertex, rank in picks:
            jvm.set_field(jvm.heap.read_element(vertices, vertex),
                          "rank", rank)
        self.mutated += len(picks)
        return time.perf_counter() - started

    def _channel_op(self, mutate_s: List[float]) -> Callable[[int], float]:
        channel = self.channel
        clock = self.driver.jvm.clock

        def op(index: int) -> float:
            mutate_s.append(self._mutate())
            snap = clock.snapshot()
            started = time.perf_counter()
            receipt = channel.send(self.roots)
            elapsed = time.perf_counter() - started
            self.op_sim.append(_sim_seconds(clock, snap))
            self.op_bytes.append(receipt.wire_bytes)
            if receipt.mode != "delta" or receipt.nack_recovered:
                raise CheckFailed(
                    "every_epoch_rode_delta",
                    f"epoch {receipt.epoch} went {receipt.mode} "
                    f"({receipt.reason})")
            return elapsed

        return op

    def _final_digest(self) -> None:
        """One more epoch, digest on, against the sender's own heap."""
        self._mutate()
        receipt = self.channel.send(self.roots, digest=True)
        self.checks["final_digest_matches_sender"] = (
            receipt.digest is not None and receipt.digest
            == semantic_graph_digest(self.driver.jvm, self.roots))

    def run_untraced(self, seconds: float) -> Dict[str, float]:
        timed = self.run_ops(self._channel_op([]), seconds,
                             self.sizes.prefix_epochs, 1 << 30)
        metrics = self.end_to_end(timed, timed, self.sizes.prefix_epochs)
        self._final_digest()
        return metrics

    def run_traced(self, seconds: float,
                   recorder: SpanRecorder) -> Dict[str, float]:
        prefix = self.sizes.prefix_epochs
        mutate_s: List[float] = []
        mutated_before = self.mutated
        stats = self.channel.stats
        patched_before = stats.objects_patched
        bytes_before = stats.bytes_delta
        epochs_before = stats.epochs
        untraced = self.run_ops(self._channel_op(mutate_s), seconds * 0.45,
                                prefix, 1 << 30)
        patched = stats.objects_patched - patched_before
        layers = {
            "delta.mutate_ms": median(mutate_s) * 1e3,
            "delta.patch_amplification":
                patched / max(1, self.mutated - mutated_before),
            "delta.bytes_per_patched_object":
                (stats.bytes_delta - bytes_before) / max(1, patched),
            "delta.fallback_share":
                sum(stats.fallbacks.values())
                / max(1, stats.epochs - epochs_before),
            "exchange.op_p90_ms": (
                percentile(untraced, 90) * 1e3
                if supports(len(untraced), 90) else 0.0),
        }
        self._final_digest()
        layers.update(self._layer_pass(seconds * 0.35, recorder))
        spans = durations_by_name(recorder.spans)
        self.samples["op"] = len(spans.get("op", ()))
        layered_p50 = median(spans["op"]) if spans.get("op") else 0.0
        untraced_p50 = median(untraced) if untraced else 0.0
        layers.update(self.common_layers(prefix, untraced_p50, layered_p50))
        layers["exchange.overhead_ms"] = (untraced_p50 - layered_p50) * 1e3
        return layers

    def _layer_pass(self, budget_s: float,
                    recorder: SpanRecorder) -> Dict[str, float]:
        """The same epochs driven layer by layer on a second channel:
        plan -> encode -> ship, each under its own span; then the captured
        frames replayed into an in-process endpoint to time the apply."""
        client = self.client
        channel = DeltaSendChannel(
            self.driver, "ledger-worker", channel_id=self.LAYER_CHANNEL_ID,
            delta_enabled=True, use_kernels=True,
            capabilities=DELTA_REQUEST.intersect(SOCKET_OFFER))
        captured: List[bytes] = []
        last: Dict[str, dict] = {}  # the most recent epoch's RESULT
        reps = self.sizes.micro_reps

        def epoch_op(rec, digest: Optional[bool] = None):
            def op(index: int) -> float:
                self._mutate()
                started = time.perf_counter()
                with rec.span("op", op=index):
                    with rec.span("policy.plan"):
                        plan = channel.plan_next(self.roots)
                    with rec.span("delta.encode"):
                        frame = channel.send(self.roots, plan=plan)
                    with rec.span("transport.epoch.ship"):
                        result = client.send_epoch(
                            frame, channel.channel_id, channel.epoch,
                            digest=(bool(plan.digest) if digest is None
                                    else digest))
                elapsed = time.perf_counter() - started
                if len(captured) < 1 + 4 * self.sizes.prefix_epochs:
                    captured.append(frame)
                if channel.epoch > 1 and frame[0] != FRAME_DELTA:
                    raise CheckFailed(
                        "every_epoch_rode_delta",
                        f"layer epoch {channel.epoch} went full")
                last["result"] = result
                return elapsed
            return op

        try:
            self.run_ops(epoch_op(NO_TRACE), 0.0, 1, 1)  # FULL bootstrap
            worker_before = client.stats()["transport"]["phases"]
            traced = self.run_ops(epoch_op(recorder), budget_s,
                                  self.sizes.prefix_epochs, 1 << 30)
            worker_after = client.stats()["transport"]["phases"]
            self.run_ops(epoch_op(NO_TRACE, digest=True), 0.0, 1, 1)
            self.checks["layer_channel_digest_matches_sender"] = (
                last.get("result", {}).get("digest")
                == semantic_graph_digest(self.driver.jvm, self.roots))
            apply_s = self._replay(captured[:-1])
            # Last: a worker that has seen a TRACE frame keeps tracing.
            obs.enable(process="ledger-driver")
            try:
                obs_on = self.run_ops(epoch_op(NO_TRACE), 0.0,
                                      10 * reps, 10 * reps)
            finally:
                obs.disable()
        finally:
            channel.close()
        spans = durations_by_name(recorder.spans)
        count = max(1, len(traced))
        traced_p50 = median(traced) if traced else 0.0
        return {
            "policy.plan_us": median(spans["policy.plan"]) * 1e6,
            "delta.encode_ms": median(spans["delta.encode"]) * 1e3,
            "transport.epoch.ship_ms":
                median(spans["transport.epoch.ship"]) * 1e3,
            "delta.apply_ms": median(apply_s) * 1e3 if apply_s else 0.0,
            "transport.worker.receive_s": (
                worker_after.get("receive", 0.0)
                - worker_before.get("receive", 0.0)) / count,
            "transport.worker.digest_s": (
                worker_after.get("digest", 0.0)
                - worker_before.get("digest", 0.0)) / count,
            "obs.tracer.tax_pct": (
                (median(obs_on) - traced_p50) / traced_p50 * 100.0
                if obs_on and traced_p50 else 0.0),
        }

    def _replay(self, captured: Sequence[bytes]) -> List[float]:
        """Apply seconds per DELTA frame, replayed in order after their
        FULL bootstrap into a fresh in-process endpoint."""
        if not captured:
            return []
        endpoint = DeltaReceiveEndpoint(_reference_runtime(
            self.driver, "ledger-apply", 64))
        endpoint.receive(captured[0])
        apply_s = []
        for frame in captured[1:]:
            started = time.perf_counter()
            endpoint.receive(frame)
            apply_s.append(time.perf_counter() - started)
        return apply_s


# ---------------------------------------------------------------------------
# mux_fanin
# ---------------------------------------------------------------------------


class MuxFanin(Workload):
    """Many tiny channels over one ``MuxEpochClient`` connection.  One
    round = mutate one field per chain, encode every channel's delta,
    ship them all with ``send_epochs``; an op is one channel's epoch."""

    name = "mux_fanin"
    OP_CHECKS = ("every_channel_acked_digest_ok_delta",)

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.ops_per_call = sizes.channels

    def setup(self) -> None:
        sizes = self.sizes
        self.driver = build_runtime("ledger-driver", SAMPLE_FACTORY)
        jvm = self.driver.jvm
        payloads = inputs.chain_payloads(
            sizes.channels, sizes.chain_nodes, self.seed)
        started = time.perf_counter()
        self.pins = [jvm.pin(_make_chain(jvm, chain)) for chain in payloads]
        self.objects = sizes.channels * sizes.chain_nodes
        self.build_us_per_object = (
            (time.perf_counter() - started) * 1e6 / self.objects)
        self.channels = [
            DeltaSendChannel(self.driver, "ledger-fanin", channel_id=i + 1)
            for i in range(sizes.channels)
        ]
        handle = self._spawn()
        self.client = MuxEpochClient(
            self.driver, handle.host, handle.port,
            node_name="ledger-driver",
            read_timeout=READ_TIMEOUT_S).connect()
        self.round = 0
        self.latencies: List[float] = []
        frames_full = self._round(NO_TRACE, expect_delta=False)
        for _ in range(sizes.warm_ops):
            self._round(NO_TRACE)
        self.fingerprint = inputs.fingerprint(
            self.objects, sum(len(f) for f in frames_full), frames_full)
        self.latencies.clear()
        self.op_bytes.clear()
        self.op_sim.clear()

    def _drop(self) -> None:
        for channel in getattr(self, "channels", ()):
            channel.close()
        self.channels = []
        self.pins = []

    def _round(self, rec, expect_delta: bool = True) -> List[bytes]:
        """Mutate (untimed), encode, ship, verify; returns the frames and
        leaves the (encode, ship) seconds in ``self.last_round_s``."""
        jvm = self.driver.jvm
        clock = jvm.clock
        heads = [pin.address for pin in self.pins]
        if expect_delta:
            picks = inputs.chain_mutations(
                self.sizes.channels, self.sizes.chain_nodes, self.seed,
                self.round)
            for head, (hops, payload) in zip(heads, picks):
                node = head
                for _ in range(hops):
                    node = jvm.get_field(node, "next")
                jvm.set_field(node, "payload", payload)
        self.round += 1
        expected = [semantic_graph_digest(jvm, [head]) for head in heads]
        snap = clock.snapshot()
        with rec.span("op", op=self.round):
            started = time.perf_counter()
            with rec.span("delta.encode"):
                jobs = [
                    (channel.channel_id, channel.epoch, frame)
                    for channel, frame in (
                        (channel, channel.send([head]))
                        for channel, head in zip(self.channels, heads))
                ]
            encoded = time.perf_counter()
            with rec.span("transport.mux.ship"):
                results = self.client.send_epochs(jobs)
            shipped = time.perf_counter()
        self.last_round_s = (encoded - started, shipped - encoded)
        self.op_sim.append(
            _sim_seconds(clock, snap) / self.sizes.channels)
        self.op_bytes.append(
            sum(len(job[2]) for job in jobs) / self.sizes.channels)
        bad = 0
        for (channel_id, _epoch, frame), want in zip(jobs, expected):
            outcome = results.get(channel_id)
            if (outcome is None
                    or not outcome["result"].get("ok", False)
                    or outcome["result"].get("digest") != want
                    or (expect_delta and frame[0] != FRAME_DELTA)):
                bad += 1
            elif outcome["latency_s"] is not None:
                self.latencies.append(outcome["latency_s"])
        if bad:
            raise CheckFailed(
                "every_channel_acked_digest_ok_delta",
                f"round {self.round}: {bad} channel epoch(s) un-acked, "
                f"mis-digested or not delta", bad)
        return [job[2] for job in jobs]

    def _op(self, rec, encode_s: List[float],
            ship_s: List[float]) -> Callable[[int], float]:
        def op(index: int) -> float:
            self._round(rec)
            encode, ship = self.last_round_s
            encode_s.append(encode)
            ship_s.append(ship)
            return encode + ship

        return op

    def run_untraced(self, seconds: float) -> Dict[str, float]:
        timed = self.run_ops(self._op(NO_TRACE, [], []), seconds,
                             self.sizes.prefix_rounds, 1 << 30)
        metrics = self.end_to_end(timed, self.latencies,
                                  self.sizes.prefix_rounds)
        self.samples["round"] = len(timed)
        return metrics

    def run_traced(self, seconds: float,
                   recorder: SpanRecorder) -> Dict[str, float]:
        prefix = self.sizes.prefix_rounds
        untraced = self.run_ops(self._op(NO_TRACE, [], []), seconds * 0.45,
                                prefix, 1 << 30)
        untraced_latencies = list(self.latencies)
        encode_s: List[float] = []
        ship_s: List[float] = []
        traced = self.run_ops(self._op(recorder, encode_s, ship_s),
                              seconds * 0.45, prefix, 1 << 30)
        aserve = self.client.stats().get("aserve", {})
        self.samples["op"] = len(self.latencies)
        self.samples["round"] = len(traced)
        layers = self.common_layers(
            prefix, median(untraced) if untraced else 0.0,
            median(traced) if traced else 0.0)
        layers.update({
            "delta.encode_us_per_epoch":
                median(encode_s) * 1e6 / self.sizes.channels,
            "transport.mux.ship_ms_per_round": median(ship_s) * 1e3,
            "transport.mux.bytes_per_epoch": (
                median(self.op_bytes[:prefix]) if self.op_bytes else 0.0),
            "transport.mux.op_p90_ms": (
                percentile(untraced_latencies, 90) * 1e3
                if supports(len(untraced_latencies), 90) else 0.0),
            "transport.aserve.queue_wait_p50_ms":
                aserve.get("queue_wait_p50_s", 0.0) * 1e3,
            "transport.aserve.queue_wait_p99_ms":
                aserve.get("queue_wait_p99_s", 0.0) * 1e3,
            "transport.aserve.reads_paused":
                aserve.get("reads_paused_total", 0),
            "transport.aserve.epochs_applied":
                aserve.get("epochs_applied", 0),
            "transport.aserve.epoch_failures":
                aserve.get("epoch_failures", 0),
        })
        return layers


def _make_chain(jvm, payloads: Sequence[int]) -> int:
    """One ``ListNode`` chain holding ``payloads`` head to tail."""
    pin = jvm.pin(0)
    try:
        for payload in reversed(payloads):
            node = jvm.new_instance("ListNode")
            jvm.set_field(node, "payload", payload)
            jvm.set_field(node, "next", pin.address)
            pin.address = node
        return pin.address
    finally:
        jvm.unpin(pin)


WORKLOADS = {cls.name: cls for cls in
             (InprocFull, SocketFull, DeltaEpochs, MuxFanin)}
