"""Mark-word encoding: lock bits, identity hashcode, GC age, forwarding.

Follows the 64-bit HotSpot mark word that the paper's Figure 6 describes
("mark contains object locks, hash code of the object, and GC bits"):

.. code-block:: text

    bits  63..39   38..8          7..3      2       1..0
          unused   hash (31 bit)  age (5)   biased  lock

The Skyway sender *resets GC and lock bits while preserving the hashcode*
(paper §4.2 "Header Update") so that hash-based structures keep their layout
on the receiver.  During GC, a mark word whose lock bits are ``0b11`` holds
a forwarding pointer instead (HotSpot's "marked" state).
"""

from __future__ import annotations

MARK_WORD_BITS = 64

_LOCK_SHIFT = 0
_LOCK_BITS = 0b11
_BIASED_SHIFT = 2
_AGE_SHIFT = 3
_AGE_BITS = 0b11111
_HASH_SHIFT = 8
_HASH_BITS = (1 << 31) - 1

#: Lock-bit patterns (HotSpot values).
LOCK_UNLOCKED = 0b01
LOCK_THIN = 0b00
LOCK_INFLATED = 0b10
LOCK_MARKED = 0b11  # forwarding pointer installed during GC

#: Maximum tenuring age representable (5 bits).
MAX_AGE = _AGE_BITS

#: A fresh object's mark word: unlocked, no hash, age 0.
FRESH_MARK = LOCK_UNLOCKED

#: The hashcode bits: a transfer keeps exactly these of the source mark,
#: ``reset_for_transfer(mark) == FRESH_MARK | (mark & HASH_MASK)``.
HASH_MASK = _HASH_BITS << _HASH_SHIFT


def get_lock_bits(mark: int) -> int:
    return (mark >> _LOCK_SHIFT) & _LOCK_BITS


def set_lock_bits(mark: int, bits: int) -> int:
    if bits & ~_LOCK_BITS:
        raise ValueError(f"lock bits out of range: {bits:#x}")
    return (mark & ~_LOCK_BITS) | bits


def get_hash(mark: int) -> int:
    """The cached identity hashcode, or 0 if never computed."""
    return (mark >> _HASH_SHIFT) & _HASH_BITS


def set_hash(mark: int, hashcode: int) -> int:
    if hashcode & ~_HASH_BITS:
        raise ValueError(f"hashcode exceeds 31 bits: {hashcode:#x}")
    return (mark & ~(_HASH_BITS << _HASH_SHIFT)) | (hashcode << _HASH_SHIFT)


def has_hash(mark: int) -> bool:
    return get_hash(mark) != 0


def get_age(mark: int) -> int:
    return (mark >> _AGE_SHIFT) & _AGE_BITS


def set_age(mark: int, age: int) -> int:
    if not 0 <= age <= MAX_AGE:
        raise ValueError(f"age out of range: {age}")
    return (mark & ~(_AGE_BITS << _AGE_SHIFT)) | (age << _AGE_SHIFT)


def is_biased(mark: int) -> bool:
    return bool((mark >> _BIASED_SHIFT) & 1)


def set_biased(mark: int, biased: bool) -> int:
    if biased:
        return mark | (1 << _BIASED_SHIFT)
    return mark & ~(1 << _BIASED_SHIFT)


def reset_for_transfer(mark: int) -> int:
    """Skyway's header update: clear GC bits (age) and lock/bias state while
    preserving the cached hashcode (paper §4.2)."""
    hashcode = get_hash(mark)
    return set_hash(FRESH_MARK, hashcode)


# -- forwarding (GC) -------------------------------------------------------


def make_forwarding(target_address: int) -> int:
    """Encode a forwarding pointer in a mark word (lock bits = 0b11).

    Addresses are 8-byte aligned so the low 2 bits are free for the marker.
    """
    if target_address & 0b111:
        raise ValueError(f"forwarding target not aligned: {target_address:#x}")
    return target_address | LOCK_MARKED


def is_forwarded(mark: int) -> bool:
    return get_lock_bits(mark) == LOCK_MARKED


def forwarding_target(mark: int) -> int:
    if not is_forwarded(mark):
        raise ValueError("mark word does not hold a forwarding pointer")
    return mark & ~0b111
