"""Delta channels: the subsystem's sending/receiving endpoints.

A :class:`DeltaSendChannel` is the per-destination stateful sender: it owns
an epoch record (what the receiver holds), a delta card table (what changed
since), and the fallback policy (whether a delta is still worth it).  Its
``send(roots)`` returns one framed epoch — FULL on the first call and
whenever the policy reverts, DELTA otherwise.

A :class:`DeltaReceiveEndpoint` is the per-runtime receiving side: it
routes frames by channel id, retains each channel's input buffer across
epochs (the §3.2 retention API is exactly what makes patch-in-place legal),
and applies DELTA frames through :class:`~repro.delta.apply.DeltaApplier`.

Staleness is fail-stop: a receiver whose old generation was compacted (full
GC) since the last epoch raises :class:`DeltaStaleError` and drops the
channel state; the integration layer reacts by forcing the next send full —
the moral equivalent of a NACK on a real wire.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.core.runtime import SkywayRuntime
from repro.delta.apply import ApplyResult, DeltaApplier
from repro.delta.dirty import DELTA_CARD_SIZE, DeltaTracker
from repro.delta.epoch_cache import EpochRecord
from repro.policy import ChannelSignals, SendPlan, resolve_engine
from repro.policy.plan import NON_FALLBACK_REASONS
from repro.delta.wire import (
    DeltaEncoder,
    DeltaFrame,
    FullFrame,
    frame_full,
    parse_frame,
)
from repro.heap.layout import HeapLayout


class DeltaChannelError(RuntimeError):
    pass


class DeltaStaleError(DeltaChannelError):
    """Receiver-side state no longer matches the sender's epoch record."""


@dataclasses.dataclass
class ChannelStats:
    """Per-channel transfer accounting across epochs."""

    epochs: int = 0
    full_sends: int = 0
    delta_sends: int = 0
    bytes_full: int = 0
    bytes_delta: int = 0
    objects_patched: int = 0
    objects_new: int = 0
    sameref_roots: int = 0
    wasted_encode_bytes: int = 0
    fallbacks: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def bytes_total(self) -> int:
        return self.bytes_full + self.bytes_delta

    def note_fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1


_channel_ids = itertools.count(1)


class DeltaSendChannel:
    """One sending endpoint: epoch-aware transfer to one destination."""

    def __init__(
        self,
        runtime: SkywayRuntime,
        destination: str,
        policy=None,
        target_layout: Optional[HeapLayout] = None,
        card_size: int = DELTA_CARD_SIZE,
        channel_id: Optional[int] = None,
        delta_enabled: bool = True,
        use_kernels: Optional[bool] = None,
        capabilities=None,
    ) -> None:
        self.runtime = runtime
        self.destination = destination
        #: Channel ids are process-global by default; a caller may pin one
        #: explicitly so that two substrates (in-process loopback and a
        #: socket worker) frame byte-identical epochs for the same sends —
        #: the cross-substrate parity gate.  Receiver endpoints route by
        #: this id, so pinned ids must be unique per receiving runtime.
        self.channel_id = (next(_channel_ids) if channel_id is None
                           else channel_id)
        #: Every ``policy=`` spelling (None, a name, a decision table, a
        #: shared PolicyEngine) normalizes onto one engine — the only
        #: place a send mode is chosen.
        self.policy = policy
        self.engine = resolve_engine(policy)
        #: Negotiated capability bounds (the exchange layer passes its
        #: :class:`~repro.exchange.capabilities.ChannelCapabilities`);
        #: every plan is clamped by them before execution.
        self.capabilities = capabilities
        #: A channel with delta disabled frames every epoch FULL and skips
        #: the write barrier entirely (no card table attached) — the plain
        #: full-send mode of the exchange layer, on the same wire format.
        self.delta_enabled = delta_enabled
        #: None inherits the runtime's clone engine; the exchange layer
        #: passes the negotiated capability explicitly.
        self.use_kernels = use_kernels
        #: PATCH overwrites clones in place, so the destination must share
        #: this JVM's object layout; heterogeneous destinations always
        #: take the full-send path.
        self.heterogeneous = (
            target_layout is not None and target_layout != runtime.jvm.layout
        )
        #: What the receiver holds: rebuilt by every FULL epoch, merged
        #: into by every DELTA.  None until the first FULL (and on a
        #: full-only channel, always).
        self.record: Optional[EpochRecord] = None
        self.tracker = None
        self.table = None
        if delta_enabled:
            self.tracker = DeltaTracker.attach(runtime.jvm.heap, card_size)
            self.table = self.tracker.new_table()
        self.stats = ChannelStats()
        self.epoch = 0
        #: The plan the last epoch executed (after any post-encode
        #: reversion): its mode/reason are why that epoch went full or delta.
        self.last_plan: Optional[SendPlan] = None
        self._force_full = False
        self._pending: Optional[Tuple[SendPlan, ChannelSignals]] = None

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, roots: List[int],
             plan: Optional[SendPlan] = None) -> bytes:
        """Frame one epoch carrying ``roots``; mode per the engine's plan.

        Callers normally pass no plan and let the engine decide; a caller
        that already called :meth:`plan_next` may hand that plan back to
        execute it without re-deciding (the dispatch layer does this to
        route ``parallel-N`` plans around the channel)."""
        with obs.span("send.epoch", clock=self.runtime.jvm.clock,
                      channel=self.channel_id,
                      destination=self.destination) as sp:
            frame = self._send_inner(roots, plan)
            sp.set(epoch=self.epoch, wire_bytes=len(frame),
                   mode=self.last_plan.mode, reason=self.last_plan.reason)
        return frame

    def plan_next(self, roots: List[int]) -> SendPlan:
        """Decide the upcoming epoch without executing it.

        The plan (with its card-table scan) is cached and consumed by the
        next :meth:`send`; a caller that routes the epoch elsewhere
        (parallel streams) must call :meth:`discard_plan` instead."""
        gc = self.runtime.jvm.gc.stats
        plan, signals = self._plan(roots, self.record, gc, self.epoch + 1)
        self._pending = (plan, signals)
        return plan

    def discard_plan(self) -> None:
        """Drop a cached :meth:`plan_next` decision without executing it."""
        self._pending = None

    def ship(self, roots: List[int], deliver: Callable[[bytes], Any],
             plan: Optional[SendPlan] = None) -> Tuple[Any, List[bytes]]:
        """Frame one epoch and hand it to ``deliver`` — the NACK protocol,
        once, for every path an epoch can take.  A ``deliver`` that raises
        :class:`DeltaStaleError` (the receiver retains nothing this frame
        can patch) is answered by a forced-FULL reframe and one redelivery
        on the same path; a second NACK, or any other failure, propagates.
        Returns what ``deliver`` returned for the frame that landed, and
        every frame shipped (two means a NACK was recovered)."""
        frames = [self.send(roots, plan=plan)]
        try:
            return deliver(frames[0]), frames
        except DeltaStaleError:
            self.force_full_next()
        frames.append(self.send(roots))
        return deliver(frames[1]), frames

    def _send_inner(self, roots: List[int],
                    plan: Optional[SendPlan]) -> bytes:
        self.epoch += 1
        self.stats.epochs += 1
        gc = self.runtime.jvm.gc.stats
        record = self.record

        pending, self._pending = self._pending, None
        if plan is None:
            if pending is not None:
                plan, signals = pending
            else:
                plan, signals = self._plan(roots, record, gc, self.epoch)
        elif pending is not None and pending[0] is plan:
            signals = pending[1]
        else:
            signals = self._signals(roots, record, gc, self.epoch)

        if plan.reason == "forced":
            # The NACK latch is consumed by the plan that honors it.
            self._force_full = False

        if plan.mode == "delta":
            frame, plan = self._try_delta(roots, record, gc, plan, signals)
            if frame is not None:
                self.last_plan = plan
                return frame

        if plan.reason not in NON_FALLBACK_REASONS:
            # delta_disabled / static_full are the channel's configured
            # mode, not a reversion worth counting against the policy.
            self.stats.note_fallback(plan.reason)
        self.last_plan = plan
        return self._send_full(roots, gc, plan)

    def force_full_next(self) -> None:
        """React to a receiver NACK (:class:`DeltaStaleError`)."""
        self._force_full = True
        self._pending = None

    def reassign(self, channel_id: int) -> None:
        """Adopt a fresh channel id (a coordinator re-assignment after the
        receiving worker restarted).  The epoch counter keeps counting —
        receivers accept a FULL at any epoch — but the next epoch is
        forced FULL: no receiver retains state under the new id."""
        self.channel_id = channel_id
        self._force_full = True
        self._pending = None

    def _plan(self, roots: List[int], record: Optional[EpochRecord],
              gc, epoch: int) -> Tuple[SendPlan, ChannelSignals]:
        signals = self._signals(roots, record, gc, epoch)
        plan = self.engine.plan(signals, self.capabilities)
        return plan, signals

    def _signals(self, roots: List[int], record: Optional[EpochRecord],
                 gc, epoch: int) -> ChannelSignals:
        signals = ChannelSignals(
            channel_id=self.channel_id,
            destination=self.destination,
            epoch=epoch,
            root_count=len(roots),
            forced_full=self._force_full,
            heterogeneous=self.heterogeneous,
            delta_capable=self.delta_enabled,
        )
        if record is None or len(record) == 0:
            signals.first_epoch = True
            return signals
        signals.resident_objects = len(record)
        signals.resident_bytes = record.total_bytes
        signals.gc_moved = (
            (gc.minor_collections, gc.full_collections)
            != (record.minor_gcs, record.full_gcs)
        )
        if (self.delta_enabled and not self._force_full
                and not self.heterogeneous):
            dirty = self._dirty_members(record)
            signals.dirty_members = dirty
            signals.dirty_count = len(dirty)
            signals.dirty_bytes = sum(record.sizes[a] for a in dirty)
        return signals

    def _dirty_members(self, record: EpochRecord) -> List[int]:
        cost = self.runtime.jvm.cost_model
        with obs.span("delta.diff", clock=self.runtime.jvm.clock) as sp:
            members = list(
                record.members_overlapping(self.table.dirty_ranges())
            )
            # Card intersection cost: one traversal word per candidate found.
            self.runtime.jvm.clock.charge(
                cost.traverse_word * max(1, len(members))
            )
            sp.set(dirty=len(members))
        return members

    def _try_delta(self, roots, record, gc, plan: SendPlan,
                   signals: ChannelSignals):
        dirty = signals.dirty_members or []
        encoder = DeltaEncoder(self.runtime.jvm, record)
        with obs.span("delta.encode", clock=self.runtime.jvm.clock):
            frame, summary = encoder.encode(
                roots, dirty, self.channel_id, self.epoch
            )
        if plan.byte_budget is not None and len(frame) > plan.byte_budget:
            # The post-encode gate: the actual frame blew the plan's
            # budget (references dragged in undirtied objects).
            self.stats.wasted_encode_bytes += len(frame)
            return None, dataclasses.replace(
                plan, mode="full", reason="encoded_overrun",
                estimated_bytes=len(frame), streams=1, byte_budget=None,
            )
        record.merge_epoch(
            summary.new_members, summary.new_sizes, summary.logical_end,
            gc.minor_collections, gc.full_collections,
        )
        self.table.clear()
        self.stats.delta_sends += 1
        self.stats.bytes_delta += len(frame)
        self.stats.objects_patched += summary.patched_objects
        self.stats.objects_new += summary.new_objects
        self.stats.sameref_roots += summary.sameref_roots
        return frame, plan

    def _send_full(self, roots: List[int], gc, plan: SendPlan) -> bytes:
        with obs.span("send.full", clock=self.runtime.jvm.clock):
            return self._send_full_inner(roots, gc, plan)

    def _send_full_inner(self, roots: List[int], gc,
                         plan: SendPlan) -> bytes:
        # A fresh shuffling phase invalidates stale baddrs (paper §3.3);
        # the epoch record, unlike baddrs, survives into later phases.
        self.runtime.shuffle_start()
        stream = SkywayObjectOutputStream(
            self.runtime,
            destination=f"delta:{self.channel_id}:{self.destination}",
            use_kernels=(self.use_kernels if plan.kernel is None
                         else plan.kernel),
        )
        for root in roots:
            stream.write_object(root)
        embedded = stream.close()
        if self.delta_enabled:
            # The epoch record only feeds delta decisions; a full-only
            # channel stays stateless.
            self.record = EpochRecord.from_full_send(
                self.destination, stream.sender.cloned,
                gc.minor_collections, gc.full_collections,
                epoch=self.epoch,
            )
        if self.table is not None:
            self.table.clear()
        frame = frame_full(self.channel_id, self.epoch, embedded)
        self.stats.full_sends += 1
        self.stats.bytes_full += len(frame)
        return frame

    def close(self) -> None:
        """Detach this channel's table from the write barrier."""
        if self.tracker is not None and self.table is not None:
            self.tracker.release_table(self.table)
            self.table = None
        self.record = None


class _ReceiverState:
    """One channel's retained state on the receiving runtime."""

    def __init__(self, channel_id, epoch, stream, token, full_gcs, applier):
        self.channel_id = channel_id
        self.epoch = epoch
        self.stream = stream
        self.token = token
        self.full_gcs = full_gcs
        self.applier = applier
        self.pinned_roots: Set[int] = set()
        self.last_apply: Optional[ApplyResult] = None


class DeltaReceiveEndpoint:
    """The per-runtime receiving side: frames in, heap roots out."""

    def __init__(self, runtime: SkywayRuntime) -> None:
        self.runtime = runtime
        self._states: Dict[int, _ReceiverState] = {}

    @classmethod
    def for_runtime(cls, runtime: SkywayRuntime) -> "DeltaReceiveEndpoint":
        """The one endpoint for ``runtime``, created on first use (any
        serializer instance must route to the same channel states)."""
        endpoint = getattr(runtime, "delta_endpoint", None)
        if endpoint is None:
            endpoint = cls(runtime)
            runtime.delta_endpoint = endpoint
        return endpoint

    def receive(self, data: bytes) -> List[int]:
        """Apply one framed epoch; returns the epoch's root addresses."""
        frame = parse_frame(data)
        with obs.span("recv.epoch", clock=self.runtime.jvm.clock,
                      channel=frame.channel_id, epoch=frame.epoch,
                      kind=("full" if isinstance(frame, FullFrame)
                            else "delta")):
            if isinstance(frame, FullFrame):
                return self._receive_full(frame)
            return self._receive_delta(frame)

    def state_of(self, channel_id: int) -> Optional[_ReceiverState]:
        return self._states.get(channel_id)

    def _receive_full(self, frame: FullFrame) -> List[int]:
        old = self._states.pop(frame.channel_id, None)
        if old is not None:
            # The superseded buffer becomes reclaimable garbage; delta kept
            # it pinned across epochs, a full send ends its retention.
            self.runtime.free_input_buffer(old.token)
        stream = SkywayObjectInputStream(self.runtime)
        stream.accept(frame.embedded)
        roots = []
        while stream.has_next():
            roots.append(stream.read_object())
        state = _ReceiverState(
            channel_id=frame.channel_id,
            epoch=frame.epoch,
            stream=stream,
            token=stream.buffer_token,
            full_gcs=self.runtime.jvm.gc.stats.full_collections,
            applier=DeltaApplier(self.runtime.jvm, stream.receiver),
        )
        state.pinned_roots.update(r for r in roots if r)
        self._states[frame.channel_id] = state
        return roots

    def _receive_delta(self, frame: DeltaFrame) -> List[int]:
        state = self._states.get(frame.channel_id)
        if state is None:
            raise DeltaStaleError(
                f"delta frame for unknown channel {frame.channel_id} "
                f"(receiver has no retained epoch)"
            )
        if frame.epoch != state.epoch + 1:
            self._states.pop(frame.channel_id, None)
            raise DeltaStaleError(
                f"channel {frame.channel_id}: got epoch {frame.epoch}, "
                f"retained epoch is {state.epoch}"
            )
        full_gcs = self.runtime.jvm.gc.stats.full_collections
        if full_gcs != state.full_gcs:
            self._states.pop(frame.channel_id, None)
            raise DeltaStaleError(
                f"channel {frame.channel_id}: receiver old generation was "
                f"compacted since epoch {state.epoch}; retained chunk "
                f"addresses are void"
            )
        with obs.span("recv.apply", clock=self.runtime.jvm.clock):
            result = state.applier.apply(frame)
        # New roots must be GC-pinned like the first epoch's were.
        fresh = [
            self.runtime.jvm.pin(addr)
            for addr in result.root_addresses
            if addr and addr not in state.pinned_roots
        ]
        if fresh:
            self.runtime.extend_input_buffer_roots(state.token, fresh)
            state.pinned_roots.update(h.address for h in fresh)
        state.epoch = frame.epoch
        state.last_apply = result
        return result.root_addresses
