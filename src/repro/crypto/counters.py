"""Encryption counters: split counter blocks and the Horus drain counter.

Split counters (Section II-B): one 64 B counter block carries a 64-bit major
counter shared by 64 lines plus a 7-bit minor counter per line; a line's
encryption counter is the concatenation ``major || minor``.  Minor overflow
bumps the major and forces re-encryption of the whole 4 KiB page.

The drain counter (Section IV-C): a persistent, strictly monotonic on-chip
counter ``DC`` incremented per flushed block, plus the ephemeral drain counter
``eDC`` counting blocks drained in the current episode.  Together they let
recovery re-derive the counter value used for any CHV position without
persisting per-block counters.
"""

from repro.common.constants import (
    CACHE_LINE_SIZE,
    MAJOR_COUNTER_BITS,
    MINOR_COUNTER_BITS,
    MINOR_COUNTERS_PER_BLOCK,
)
from repro.common.errors import CounterOverflowError

_MINOR_LIMIT = 1 << MINOR_COUNTER_BITS
_MAJOR_LIMIT = 1 << MAJOR_COUNTER_BITS
MINOR_MASK = _MINOR_LIMIT - 1
MAJOR_MASK = _MAJOR_LIMIT - 1
MINORS_SHIFT = 64
"""Bit offset of minor 0 in the wire word: the major fills the first 8 B."""


class SplitCounterBlock:
    """A 64 B split-counter block: 1 major + 64 minor counters.

    The block is held as its 512-bit little-endian wire word: bits 0..63
    are the major counter and minor ``i`` sits at bit ``64 + 7*i`` (the
    scheme's arithmetic is exactly why a counter block covers 4 KiB with
    zero padding).  Serialization is then a single int <-> bytes
    conversion, and every counter operation is a shift and a mask.
    :attr:`major` and :attr:`minors` are read-only views derived from it.
    """

    __slots__ = ("word",)

    def __init__(self, major: int = 0,
                 minors: "list[int] | tuple[int, ...] | None" = None) -> None:
        if not 0 <= major < _MAJOR_LIMIT:
            raise CounterOverflowError(f"major counter {major} out of range")
        word = major
        if minors is not None:
            if len(minors) != MINOR_COUNTERS_PER_BLOCK:
                raise ValueError(
                    f"need exactly {MINOR_COUNTERS_PER_BLOCK} minor counters")
            shift = MINORS_SHIFT
            for minor in minors:
                if not 0 <= minor < _MINOR_LIMIT:
                    raise CounterOverflowError(
                        f"minor counter {minor} out of range")
                word |= minor << shift
                shift += MINOR_COUNTER_BITS
        self.word = word

    @property
    def major(self) -> int:
        return self.word & MAJOR_MASK

    @property
    def minors(self) -> tuple[int, ...]:
        word = self.word
        return tuple((word >> (MINORS_SHIFT + MINOR_COUNTER_BITS * slot))
                     & MINOR_MASK
                     for slot in range(MINOR_COUNTERS_PER_BLOCK))

    def counter_for(self, slot: int) -> int:
        """Full encryption counter of line ``slot``: ``major || minor``."""
        word = self.word
        return ((word & MAJOR_MASK) << MINOR_COUNTER_BITS) | (
            (word >> (MINORS_SHIFT + MINOR_COUNTER_BITS * slot)) & MINOR_MASK)

    def will_overflow(self, slot: int) -> bool:
        """True when the next :meth:`increment` of ``slot`` wraps the minor."""
        return (self.word >> (MINORS_SHIFT + MINOR_COUNTER_BITS * slot)) \
            & MINOR_MASK == MINOR_MASK

    def increment(self, slot: int) -> bool:
        """Advance the counter of line ``slot`` before a write.

        Returns True when the minor overflowed: the major was incremented,
        all minors reset, and the caller must re-encrypt the whole page
        (the split-counter contract).
        """
        word = self.word
        shift = MINORS_SHIFT + MINOR_COUNTER_BITS * slot
        if (word >> shift) & MINOR_MASK != MINOR_MASK:
            self.word = word + (1 << shift)
            return False
        major = word & MAJOR_MASK
        if major + 1 >= _MAJOR_LIMIT:
            raise CounterOverflowError("major counter exhausted")
        self.word = major + 1
        return True

    # -- 64 B wire format -----------------------------------------------------

    def to_bytes(self) -> bytes:
        return self.word.to_bytes(CACHE_LINE_SIZE, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SplitCounterBlock":
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError(f"counter block must be {CACHE_LINE_SIZE} B")
        # Every 512-bit word is a valid block (masked fields cannot be out
        # of range), so skip the constructor's validation pass — this runs
        # once per counter-block fetch.
        block = cls.__new__(cls)
        block.word = int.from_bytes(data, "little")
        return block

    def copy(self) -> "SplitCounterBlock":
        block = SplitCounterBlock.__new__(SplitCounterBlock)
        block.word = self.word
        return block

    def is_zero(self) -> bool:
        return self.word == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplitCounterBlock):
            return NotImplemented
        return self.word == other.word

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass

    def __repr__(self) -> str:
        return (f"SplitCounterBlock(major={self.major}, "
                f"minors={list(self.minors)})")


class DrainCounter:
    """The Horus DC/eDC register pair (both in the persistent TCB).

    ``DC`` never repeats across the lifetime of the system — that property is
    what makes CHV pads unique without any persisted per-block counters.
    """

    def __init__(self, initial: int = 0) -> None:
        if initial < 0:
            raise CounterOverflowError("drain counter cannot be negative")
        self._dc = initial
        self._edc = 0

    @property
    def value(self) -> int:
        """Current DC (the next flush will consume this value)."""
        return self._dc

    @property
    def ephemeral(self) -> int:
        """Blocks drained in the current episode (eDC)."""
        return self._edc

    def begin_episode(self) -> None:
        """Start a new drain episode (eDC starts counting from zero)."""
        self._edc = 0

    def next(self) -> int:
        """Consume and return the counter value for the next flushed block."""
        if self._dc + 1 >= 1 << 64:
            raise CounterOverflowError("drain counter exhausted")
        value = self._dc
        self._dc += 1
        self._edc += 1
        return value

    def take(self, count: int) -> int:
        """Consume ``count`` consecutive counter values; return the first.

        Equivalent to ``count`` calls of :meth:`next` (positions get values
        ``start .. start+count-1``) — the batched drain path reserves a whole
        episode's counters in one register update, exactly as hardware
        would add a constant to DC.
        """
        if count < 0:
            raise CounterOverflowError("cannot take a negative count")
        if self._dc + count >= 1 << 64:
            raise CounterOverflowError("drain counter exhausted")
        start = self._dc
        self._dc += count
        self._edc += count
        return start

    def value_at(self, position: int) -> int:
        """DC value that was used for episode position ``position``.

        ``position`` counts from the start of the most recent episode; the
        paper derives this as ``DC - eDC + position`` from the persistent
        registers, which is exactly what recovery needs.
        """
        if not 0 <= position < self._edc:
            raise CounterOverflowError(
                f"position {position} outside episode of {self._edc} blocks")
        return self._dc - self._edc + position

    def clear_ephemeral(self) -> None:
        """Called after a successful recovery (the paper clears eDC)."""
        self._edc = 0
