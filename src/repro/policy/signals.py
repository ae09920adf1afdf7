"""Channel signals: everything a policy may look at, in one record.

A channel assembles one :class:`ChannelSignals` per epoch from ledgers
that already exist — the delta card table's dirty set (each dirty card
bisected into the epoch record's members), the epoch cache (resident size, GC generation), and the
channel's own history (byte-fraction EWMA, last regime).  Policies are
pure functions of this record; nothing else flows into a decision.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

#: Estimated per-record framing cost of a dirty object in a delta frame.
RECORD_OVERHEAD = 8


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
    #: The dirty member addresses (carried to the encoder so the diff is
    #: computed once); None when no mutation observation was possible
    #: (first epoch, GC moved the record, delta disabled, forced full).
    dirty_members: Optional[List[int]] = None

    # -- channel configuration ---------------------------------------------
    forced_full: bool = False
    heterogeneous: bool = False
    delta_capable: bool = True

    # -- channel history ---------------------------------------------------
    #: EWMA of the byte fraction (estimated delta bytes / resident bytes).
    byte_fraction_ewma: Optional[float] = None
    #: The mode the policy last chose on its own (hysteresis anchor);
    #: None until the policy has made a steady-state choice.
    last_mode: Optional[str] = None

    # -- derived -----------------------------------------------------------

    @property
    def dirty_fraction(self) -> float:
        if not self.resident_objects:
            return 0.0
        return self.dirty_count / self.resident_objects

    @property
    def estimated_delta_bytes(self) -> int:
        return self.dirty_bytes + RECORD_OVERHEAD * self.dirty_count

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
