"""Reference oracle for delta dirty discovery.

The range-intersection form :meth:`EpochRecord.members_written` replaced:
the delta card table's coalesced dirty ranges, each bisected into the
record's address-sorted members and walked forward over every member it
overlaps.  It handles any card size, so it is the specification the
one-bisect-per-card rule is checked against
(``tests/test_delta_epoch_cache.py``).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Tuple

from repro.delta.epoch_cache import EpochRecord


def members_overlapping(
    record: EpochRecord, ranges: Iterable[Tuple[int, int]]
) -> Iterator[int]:
    """Cached objects whose span overlaps any ``[start, end)`` range, in
    address order, each once."""
    addrs = record._sorted_addrs
    seen_upto = -1  # avoid double-yield when ranges touch one object
    for start, end in ranges:
        # The object covering ``start`` may begin before it.
        i = bisect.bisect_right(addrs, start) - 1
        if i >= 0 and addrs[i] + record.sizes[addrs[i]] <= start:
            i += 1
        i = max(i, 0)
        while i < len(addrs) and addrs[i] < end:
            if i > seen_upto:
                yield addrs[i]
                seen_upto = i
            i += 1
