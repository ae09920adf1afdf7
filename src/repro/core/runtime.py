"""The per-JVM Skyway runtime: registries, buffers, phases, update hooks.

One :class:`SkywayRuntime` attaches to each JVM in the cluster (the paper's
"Skyway Runtime (JVM)" box in Figure 4).  The driver JVM owns the
:class:`~repro.core.type_registry.DriverRegistry`; every runtime (driver
included) holds a :class:`~repro.core.type_registry.RegistryView`, hooks the
class loader so loading obtains a tID, and manages:

* output buffers segregated by destination *and* sending thread — "objects
  with the same destination are put into the same output buffer. Only one
  such output buffer exists for each destination [per thread]";
* the shuffle-phase counter behind the ``shuffle_start`` API;
* ``register_update`` hooks applied on the receive side.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.output_buffer import OutputBuffer
from repro.core.receiver import ObjectGraphReceiver, UpdateFunction
from repro.core.sender import ObjectGraphSender
from repro.core.type_registry import DriverRegistry, RegistryView
from repro.heap.layout import HeapLayout
from repro.jvm.jvm import JVM


class SkywayRuntime:
    """Skyway, attached to one JVM."""

    def __init__(
        self,
        jvm: JVM,
        driver_registry: DriverRegistry,
        is_driver: bool,
        cluster=None,
        node=None,
        driver_node=None,
        output_buffer_capacity: int = 256 * 1024,
        input_chunk_size: int = 64 * 1024,
        format_config=None,
    ) -> None:
        self.jvm = jvm
        self.is_driver = is_driver
        self.driver_registry = driver_registry
        self.view = RegistryView(
            driver_registry, cluster=cluster, node=node, driver_node=driver_node
        )
        self.output_buffer_capacity = output_buffer_capacity
        self.input_chunk_size = input_chunk_size
        #: The §3.1 "user-provided configuration file" naming each node's
        #: object format; None means a homogeneous cluster.
        self.format_config = format_config
        #: Current shuffling-phase ID (bumped by shuffle_start).
        self.sid = 1
        self._buffers: Dict[Tuple[str, int], OutputBuffer] = {}
        self._update_functions: Dict[str, List[Tuple[str, UpdateFunction]]] = {}
        #: Retained input buffers: paper §3.2 — "Skyway does not reuse an
        #: old input buffer unless the developer explicitly frees the
        #: buffer using an API - frameworks such as Spark cache all RDDs in
        #: memory and thus Skyway keeps all input buffers."
        self._input_buffers: Dict[int, Tuple[object, list]] = {}
        self._input_buffer_ids = 0

        if is_driver:
            # Algorithm 1 part 1: the driver scans its own loaded classes
            # right after startup, then serves lookups.
            driver_registry.bootstrap_from(jvm.loader.loaded_classes())
            self.view.request_view()
        else:
            # Worker startup: batch-fetch the registry, then register
            # anything this worker already loaded that the driver missed.
            self.view.request_view()
            for klass in jvm.loader.loaded_classes():
                self.view.on_class_load(klass)
        # From now on, every class load obtains its tID.
        jvm.loader.add_load_hook(self.view.on_class_load)
        jvm.skyway = self

    # ------------------------------------------------------------------
    # phases & buffers
    # ------------------------------------------------------------------

    def shuffle_start(self) -> int:
        """Mark the beginning of a shuffling phase (paper §3.3): bump the
        sID (invalidating every baddr from earlier phases) and clear the
        output buffers."""
        self.sid += 1
        for buffer in self._buffers.values():
            buffer.clear()
        return self.sid

    def output_buffer(self, destination: str, thread_id: int = 0) -> OutputBuffer:
        key = (destination, thread_id)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = OutputBuffer(destination, capacity=self.output_buffer_capacity)
            self._buffers[key] = buffer
        return buffer

    def layout_for_destination(self, node_name: str) -> Optional[HeapLayout]:
        """The destination's object format per the cluster config."""
        if self.format_config is None:
            return None
        return self.format_config.layout_for(node_name)

    def new_sender(
        self,
        destination: str,
        thread_id: int = 0,
        target_layout: Optional[HeapLayout] = None,
        fresh_buffer: bool = False,
        use_kernels: Optional[bool] = None,
    ) -> ObjectGraphSender:
        buffer = self.output_buffer(destination, thread_id)
        if fresh_buffer:
            buffer.clear()
        return ObjectGraphSender(
            self.jvm, buffer, sid=self.sid, thread_id=thread_id,
            target_layout=target_layout,
            use_kernels=True if use_kernels is None else use_kernels,
        )

    def new_receiver(self) -> ObjectGraphReceiver:
        return ObjectGraphReceiver(
            self.jvm,
            self.view,
            chunk_size=self.input_chunk_size,
            update_functions=self._update_functions,
        )

    # ------------------------------------------------------------------
    # input-buffer lifetime (paper §3.2)
    # ------------------------------------------------------------------

    def track_input_buffer(self, receiver, root_handles: list) -> int:
        """Retain a received buffer: its roots stay GC-pinned until the
        developer frees the buffer explicitly."""
        self._input_buffer_ids += 1
        token = self._input_buffer_ids
        self._input_buffers[token] = (receiver, list(root_handles))
        return token

    def free_input_buffer(self, token: int) -> None:
        """The explicit free API: drop the buffer's GC roots so the next
        collection can reclaim its objects (if the application holds no
        other references).

        Raises :class:`KeyError` on an unknown or already-freed token: once
        delta transfer retains buffers across epochs, a silent double free
        would unpin roots some later epoch still relies on.
        """
        try:
            receiver, handles = self._input_buffers.pop(token)
        except KeyError:
            raise KeyError(
                f"input-buffer token {token} is unknown or already freed"
            ) from None
        for handle in handles:
            self.jvm.unpin(handle)

    def extend_input_buffer_roots(self, token: int, root_handles: list) -> None:
        """Add GC roots to a retained buffer (delta epochs can introduce
        new top objects into a buffer shipped in an earlier epoch)."""
        try:
            receiver, handles = self._input_buffers[token]
        except KeyError:
            raise KeyError(
                f"input-buffer token {token} is unknown or already freed"
            ) from None
        self._input_buffers[token] = (receiver, handles + list(root_handles))

    @property
    def retained_input_buffers(self) -> int:
        return len(self._input_buffers)

    def retained_input_bytes(self) -> int:
        return sum(
            receiver.buffer.total_bytes
            for receiver, _ in self._input_buffers.values()
        )

    # ------------------------------------------------------------------
    # update hooks (paper §3.3 registerUpdate)
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Runtime introspection: registry, buffers, and phase state."""
        return {
            "jvm": self.jvm.name,
            "is_driver": self.is_driver,
            "shuffle_phase": self.sid,
            "registry_view_classes": len(self.view),
            "remote_registry_lookups": self.view.remote_lookups,
            "output_buffers": len(self._buffers),
            "output_buffer_resident_bytes": sum(
                b.resident_bytes for b in self._buffers.values()
            ),
            "retained_input_buffers": self.retained_input_buffers,
            "retained_input_bytes": self.retained_input_bytes(),
        }

    def register_update(
        self, class_name: str, field_name: str, fn: UpdateFunction
    ) -> None:
        """After-transfer field update, e.g. re-initializing a timestamp:
        ``register_update("Record", "timeStamp", lambda jvm, addr: 0)``."""
        klass = self.jvm.loader.load(class_name)
        klass.field(field_name)  # validate eagerly
        self._update_functions.setdefault(class_name, []).append((field_name, fn))


def attach_skyway(
    driver_jvm: JVM,
    worker_jvms: List[JVM],
    cluster=None,
    **runtime_kwargs,
) -> List[SkywayRuntime]:
    """Attach Skyway runtimes to a driver and its workers.

    The driver selection is the user's API call in the paper ("for Spark,
    one can naturally specify the JVM running the Spark driver as the
    Skyway driver").  Returns the runtimes, driver first.
    """
    registry = DriverRegistry()
    driver_node = None
    nodes_by_jvm = {}
    if cluster is not None:
        for node in cluster.nodes():
            nodes_by_jvm[id(node.jvm)] = node
        driver_node = nodes_by_jvm.get(id(driver_jvm))
    runtimes = [
        SkywayRuntime(
            driver_jvm, registry, is_driver=True,
            cluster=cluster, node=driver_node, driver_node=driver_node,
            **runtime_kwargs,
        )
    ]
    for jvm in worker_jvms:
        runtimes.append(
            SkywayRuntime(
                jvm, registry, is_driver=False,
                cluster=cluster,
                node=nodes_by_jvm.get(id(jvm)),
                driver_node=driver_node,
                **runtime_kwargs,
            )
        )
    return runtimes
