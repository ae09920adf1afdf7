"""The send-epoch record: what the receiver already holds, per channel.

After a full Skyway send, the sender knows — from the same baddr/clone
bookkeeping Algorithm 2 already performs — exactly where every source
object's clone landed in the destination's input buffer.  An
:class:`EpochRecord` preserves that mapping across shuffle phases (baddrs
are invalidated by the next ``shuffle_start``; the record is not), so a
later epoch can refer to a receiver-resident clone by offset instead of
reshipping it.

The record is also the dirty-discovery index: each dirty delta card is
bisected into its address-sorted members to find the mutated subset
without touching the graph (see :meth:`EpochRecord.members_written`).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, Iterable, List, Tuple

from repro.core.output_buffer import LOGICAL_BASE
from repro.heap.layout import OBJECT_ALIGNMENT, align_up


@dataclasses.dataclass
class EpochRecord:
    """The last shipped graph for one destination channel."""

    destination: str
    #: Epoch counter: 1 on the first (full) send, +1 per send since.
    epoch: int
    #: Source heap address -> logical offset in the receiver's buffer.
    addr_to_offset: Dict[int, int]
    #: Source heap address -> aligned clone size in the receiver's buffer.
    sizes: Dict[int, int]
    #: Next free logical offset in the receiver's buffer (appends go here).
    logical_end: int
    #: Total aligned payload bytes resident on the receiver — the fallback
    #: policy's proxy for the cost of a full resend.
    total_bytes: int
    #: Sender GC counts at record time; any collection since may have moved
    #: cached source objects, so the record must be rebuilt via a full send.
    minor_gcs: int
    full_gcs: int
    #: Address-sorted object starts (the dirty-discovery index).
    _sorted_addrs: List[int] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if not self._sorted_addrs:
            self._sorted_addrs = sorted(self.addr_to_offset)

    @classmethod
    def from_full_send(
        cls,
        destination: str,
        cloned: List[Tuple[int, int, int]],
        minor_gcs: int,
        full_gcs: int,
        epoch: int = 1,
    ) -> "EpochRecord":
        """Build a fresh record from a sender's ``cloned`` list
        (``(source_address, buffer_offset, payload_bytes)`` triples)."""
        addr_to_offset: Dict[int, int] = {}
        sizes: Dict[int, int] = {}
        logical_end = LOGICAL_BASE
        for source, offset, nbytes in cloned:
            aligned = align_up(nbytes, OBJECT_ALIGNMENT)
            addr_to_offset[source] = offset
            sizes[source] = aligned
            logical_end = max(logical_end, offset + aligned)
        return cls(
            destination=destination,
            epoch=epoch,
            addr_to_offset=addr_to_offset,
            sizes=sizes,
            logical_end=logical_end,
            total_bytes=sum(sizes.values()),
            minor_gcs=minor_gcs,
            full_gcs=full_gcs,
        )

    def __len__(self) -> int:
        return len(self.addr_to_offset)

    def __contains__(self, address: int) -> bool:
        return address in self.addr_to_offset

    def offset_of(self, address: int) -> int:
        return self.addr_to_offset[address]

    @property
    def span(self) -> Tuple[int, int]:
        """``[first member, last member end)``: the heap range a write
        must land in to dirty a member (empty for an empty record)."""
        addrs = self._sorted_addrs
        if not addrs:
            return (0, 0)
        return (addrs[0], addrs[-1] + self.sizes[addrs[-1]])

    def members_written(self, cards: Iterable[int]) -> Tuple[List[int], int]:
        """The members the given dirty cards lie in, and their total bytes.

        This is the sender's whole dirty-discovery pass — no graph
        traversal.  ``cards`` are the ascending start addresses of the
        delta card table's dirty cards.  A delta card is one word and
        members are word-aligned, so each card lies inside at most one
        member: one bisect per card finds it, and a card still inside the
        member just found needs none.
        """
        addrs = self._sorted_addrs
        sizes = self.sizes
        members: List[int] = []
        total = 0
        member_end = -1  # end of the last member found
        for card in cards:
            if card < member_end:
                continue  # another word of the member just found
            i = bisect.bisect_right(addrs, card) - 1
            if i < 0:
                continue
            address = addrs[i]
            size = sizes[address]
            if card < address + size:
                members.append(address)
                total += size
                member_end = address + size
        return members, total

    def merge_epoch(
        self,
        new_members: Dict[int, int],
        new_sizes: Dict[int, int],
        logical_end: int,
        minor_gcs: int,
        full_gcs: int,
    ) -> None:
        """Fold one delta epoch's NEW objects into the record."""
        self.epoch += 1
        self.addr_to_offset.update(new_members)
        self.sizes.update(new_sizes)
        self.logical_end = logical_end
        self.total_bytes += sum(new_sizes.values())
        self.minor_gcs = minor_gcs
        self.full_gcs = full_gcs
        if new_members:
            # The epoch's NEW addresses are a second ascending run behind
            # the index; sorting two runs is one merge pass, not a
            # comparison sort over every member.
            self._sorted_addrs.extend(sorted(new_members))
            self._sorted_addrs.sort()
