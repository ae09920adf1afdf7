"""A-STREAM — ablation: streaming flush vs buffer-everything (paper §3.2).

"for an output buffer, it is both time-inefficient and space-consuming if
we do not send data until all objects are in."  The ablation sends the same
graph through a small streaming buffer and through one large enough to hold
everything, comparing peak native-memory residency and when bytes first
leave the sender.
"""

from repro.core.output_buffer import OutputBuffer
from repro.core.runtime import attach_skyway
from repro.core.sender import ObjectGraphSender
from repro.jvm.jvm import JVM
from repro.bench.report import format_kv_section

from conftest import bench_scale, publish

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.conftest import make_list, sample_classpath  # noqa: E402


class _PeakTrackingBuffer(OutputBuffer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak_resident = 0
        self.first_flush_at_objects = None
        self._objects_written = 0

    def write_object(self, logical_addr, payload):
        super().write_object(logical_addr, payload)
        self._objects_written += 1
        self.peak_resident = max(self.peak_resident, self.resident_bytes)

    def flush(self):
        if self.resident_bytes and self.first_flush_at_objects is None:
            self.first_flush_at_objects = self._objects_written
        super().flush()


def run_ablation(nodes: int):
    classpath = sample_classpath()
    src = JVM("stream-src", classpath=classpath)
    dst = JVM("stream-dst", classpath=classpath)
    attach_skyway(src, [dst])
    head = make_list(src, range(nodes))
    stats = {}
    for label, capacity in (("streaming (16KB buffer)", 16 * 1024),
                            ("buffer-everything", 64 * 1024 * 1024)):
        src.skyway.shuffle_start()
        buffer = _PeakTrackingBuffer("peer", capacity=capacity,
                                     sink=lambda seg: None)
        # The interpreted sender calls write_object once per clone, which
        # is what the tracking buffer counts.
        sender = ObjectGraphSender(src, buffer, sid=src.skyway.sid,
                                   use_kernels=False)
        sender.write_object(head)
        buffer.flush()
        stats[label] = {
            "peak native bytes": buffer.peak_resident,
            "flushes": buffer.flush_count,
            "objects before first byte left": buffer.first_flush_at_objects,
            "total bytes": sender.bytes_sent,
        }
    return stats


def test_ablation_streaming(benchmark):
    nodes = max(200, int(2000 * bench_scale()))
    stats = benchmark.pedantic(lambda: run_ablation(nodes),
                               rounds=1, iterations=1)
    sections = [
        format_kv_section(f"A-STREAM — {label}", values)
        for label, values in stats.items()
    ]
    publish("ablation_streaming", "\n\n".join(sections))

    streaming = stats["streaming (16KB buffer)"]
    monolithic = stats["buffer-everything"]
    assert streaming["peak native bytes"] < monolithic["peak native bytes"] / 4
    assert streaming["flushes"] > monolithic["flushes"]
    assert monolithic["objects before first byte left"] == nodes
    assert streaming["objects before first byte left"] < nodes / 4
