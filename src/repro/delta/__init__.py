"""Skyway-Delta: epoch-based incremental object-graph transfer.

Skyway (the paper) reships the *entire* reachable graph on every transfer.
Iterative workloads (PageRank, ConnectedComponents) mutate only a small
slice of a cached graph between supersteps, so most of those bytes are
identical to the previous epoch.  This subsystem makes repeated sends of a
previously-shipped graph incremental:

* :mod:`repro.delta.epoch_cache` — the **send-epoch record**: per
  channel, the last shipped graph's source-address → receiver-buffer
  offset map (built from the sender's baddr/clone records);
* :mod:`repro.delta.dirty` — **dirty-object discovery**: a write-barrier
  hook on heap field writes marks a dedicated delta card table (a second
  :class:`~repro.heap.cardtable.CardTable` instance), so the sender visits
  only mutated and new objects instead of traversing the whole graph;
* :mod:`repro.delta.wire` — the **delta wire format**: framed
  NEW / PATCH / SAME-REF records layered on the stream conventions of
  :mod:`repro.core.streams`;
* :mod:`repro.delta.apply` — the receiver-side apply pass: patches the
  retained input buffer in place and re-marks the GC card table exactly as
  §4.3 requires for pointers introduced by a transfer;
* :mod:`repro.delta.channel` — the channel API tying the above together
  (``DeltaSendChannel.send(roots)`` / ``DeltaReceiveEndpoint.receive``);
  the **fallback policy** — revert to a full Skyway send past the
  crossover where a delta would cost as much as resending everything —
  is :class:`repro.policy.CrossoverPolicy`, the channel's default engine.

Constraints: delta channels require a homogeneous cluster (PATCH records
overwrite clones in place, so both sides must share one object layout) and
mutations must go through the typed field/element API (raw ``write_word``
bypasses the barrier, exactly as JIT-compiled stores bypass nothing — the
simulator's typed API *is* its compiled store).
"""

from repro.delta.channel import (
    ChannelStats,
    DeltaChannelError,
    DeltaReceiveEndpoint,
    DeltaSendChannel,
    DeltaStaleError,
)
from repro.delta.dirty import DeltaTracker
from repro.delta.epoch_cache import EpochRecord
from repro.delta.wire import FRAME_DELTA, FRAME_FULL, DeltaWireError

__all__ = [
    "ChannelStats",
    "DeltaChannelError",
    "DeltaReceiveEndpoint",
    "DeltaSendChannel",
    "DeltaStaleError",
    "DeltaTracker",
    "DeltaWireError",
    "EpochRecord",
    "FRAME_DELTA",
    "FRAME_FULL",
]
