"""Channel signals: everything a policy may look at, in one record.

The engine assembles one :class:`ChannelSignals` per epoch from ledgers
that already exist — the delta card table's dirty set (via
``CardTable.snapshot()``/``dirty_ranges()`` intersected with the epoch
record), the epoch cache (resident size, GC generation), and the
engine's own per-channel history (byte-fraction EWMA, last mode).
Policies are pure functions of this record; nothing else flows into a
decision.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional


@dataclasses.dataclass
class ChannelSignals:
    """One epoch's decision inputs for one channel."""

    channel_id: int = 0
    destination: str = ""
    #: The epoch being planned (1-based; the channel's counter after the
    #: frame ships).
    epoch: int = 0

    # -- epoch-record state (what the receiver holds) ----------------------
    resident_objects: int = 0
    resident_bytes: int = 0
    first_epoch: bool = False
    gc_moved: bool = False

    # -- card-table dirty set ----------------------------------------------
    dirty_count: int = 0
    dirty_bytes: int = 0
    record_overhead: int = 8
    #: The dirty member addresses (carried to the encoder so the diff is
    #: computed once); None when no mutation observation was possible
    #: (first epoch, GC moved the record, delta disabled, forced full).
    dirty_members: Optional[List[int]] = None

    # -- channel configuration ---------------------------------------------
    forced_full: bool = False
    heterogeneous: bool = False
    delta_capable: bool = True

    # -- engine history ----------------------------------------------------
    #: EWMA of the byte fraction (estimated delta bytes / resident bytes).
    byte_fraction_ewma: Optional[float] = None
    #: The mode the policy last chose on its own (hysteresis anchor);
    #: None until a crossover-style rule has fired once.
    last_mode: Optional[str] = None

    # -- derived -----------------------------------------------------------

    @property
    def dirty_fraction(self) -> float:
        if not self.resident_objects:
            return 0.0
        return self.dirty_count / self.resident_objects

    @property
    def estimated_delta_bytes(self) -> int:
        return self.dirty_bytes + self.record_overhead * self.dirty_count

    @property
    def byte_fraction(self) -> float:
        """Estimated delta bytes as a fraction of the resident graph."""
        if not self.resident_bytes:
            return 1.0
        return self.estimated_delta_bytes / self.resident_bytes

    @property
    def has_mutation_observation(self) -> bool:
        """True when this epoch carries a meaningful dirty-set reading."""
        return self.dirty_members is not None and self.resident_objects > 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "channel_id": self.channel_id,
            "destination": self.destination,
            "epoch": self.epoch,
            "resident_objects": self.resident_objects,
            "resident_bytes": self.resident_bytes,
            "dirty_count": self.dirty_count,
            "dirty_bytes": self.dirty_bytes,
            "dirty_fraction": self.dirty_fraction,
            "first_epoch": self.first_epoch,
            "gc_moved": self.gc_moved,
            "forced_full": self.forced_full,
            "heterogeneous": self.heterogeneous,
            "delta_capable": self.delta_capable,
            "byte_fraction_ewma": self.byte_fraction_ewma,
            "last_mode": self.last_mode,
        }
