"""SkywaySerializer: the drop-in serializer adapter (paper §5.2).

"To use Skyway, we created a Skyway serializer that wraps the existing
Input/OutputStream with our SkywayInput/OutputStream objects... The entire
SkywaySerializer class contains less than 100 lines of code."  This module
is exactly that shim: it implements the generic
:class:`~repro.serial.base.Serializer` interface over the exchange layer,
so the Spark and Flink engines (and JSBS) can swap serializers by
configuration, unchanged.

The adapter holds no protocol logic of its own: writers are plain Skyway
output streams, readers plain Skyway input streams.  Epoch-based
incremental transfer is not a serializer mode: it goes through
``SparkContext.send(root, policy=...)`` or an exchange
:class:`~repro.exchange.channel.GraphChannel`, its frames are applied
with :func:`repro.exchange.dispatch.receive_epoch`, and one handed to a
serializer is a typed ``SkywayStreamError`` (unknown stream codec id).

Both JVMs involved must have a :class:`~repro.core.runtime.SkywayRuntime`
attached (sharing one driver registry) — the same cluster-wide setup the
paper requires.
"""

from __future__ import annotations

from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.jvm.jvm import JVM
from repro.serial.base import (
    DeserializationStream,
    SerializationError,
    SerializationStream,
    Serializer,
)


def _runtime_of(jvm: JVM):
    runtime = jvm.skyway
    if runtime is None:
        raise SerializationError(
            f"JVM {jvm.name} has no Skyway runtime attached; call "
            f"repro.core.attach_skyway(driver, workers) first"
        )
    return runtime


class SkywaySerializer(Serializer):
    """The drop-in serializer; ``compress_headers`` enables the §5.2
    future-work compact transfer encoding for every stream."""

    name = "skyway"

    def __init__(self, thread_id: int = 0,
                 compress_headers: bool = False) -> None:
        self.thread_id = thread_id
        self.compress_headers = compress_headers

    def new_stream(self, jvm: JVM, thread_id: int = None):
        tid = self.thread_id if thread_id is None else thread_id
        return SkywaySerializationStream(jvm, tid, self.compress_headers)

    def new_reader(self, jvm: JVM, data: bytes) -> DeserializationStream:
        return SkywayDeserializationStream(jvm, data)


class SkywaySerializationStream(SerializationStream):
    def __init__(self, jvm: JVM, thread_id: int,
                 compress_headers: bool = False) -> None:
        runtime = _runtime_of(jvm)
        # Each serializer stream is its own destination/phase: real shuffle
        # code calls shuffle_start per phase; the generic Serializer API has
        # no phase notion, so a fresh phase per stream keeps baddr state
        # from aliasing across streams.
        runtime.shuffle_start()
        self._stream = SkywayObjectOutputStream(
            runtime,
            destination=f"stream-{id(self)}",
            thread_id=thread_id,
            compress_headers=compress_headers,
        )

    def write_object(self, root: int) -> None:
        self._stream.write_object(root)

    def close(self) -> bytes:
        return self._stream.close()

    @property
    def bytes_written(self) -> int:
        return self._stream.bytes_written


class SkywayDeserializationStream(DeserializationStream):
    """Stateless reader over one plain Skyway stream frame."""

    def __init__(self, jvm: JVM, data: bytes) -> None:
        self._stream = SkywayObjectInputStream(_runtime_of(jvm))
        self._stream.accept(data)

    def read_object(self) -> int:
        return self._stream.read_object()

    def has_next(self) -> bool:
        return self._stream.has_next()

    def close(self) -> None:
        self._stream.close()
