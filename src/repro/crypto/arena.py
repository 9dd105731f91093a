"""Contiguous buffer arena for the epoch hot paths.

The batched engines in :mod:`repro.crypto.batch` removed the per-block
*crypto* overhead, but the surrounding plumbing still marshalled every
episode through lists of 64 B ``bytes`` objects: counter frames were built
one ``to_bytes`` concatenation at a time, address/MAC payload blocks were
``b"".join``-ed group by group, and ciphertext was split back into N
fresh objects just to be re-joined by the memory layer.  This module is
the shared substrate that removes those round-trips:

* a :class:`BlockArena` holds a whole epoch's blocks in one
  ``bytearray``/``memoryview`` and hands out zero-copy per-block views;
* ``pack_u64``/``unpack_u64``/``tile_u64`` convert between integer lanes
  and little-endian byte buffers in bulk (numpy u64 lanes where
  available, pure Python otherwise);
* ``frame_buffer`` assembles all 24 B (address, counter) hash frames of a
  batch as one contiguous buffer;
* ``xor_bytes`` is the counter-mode XOR kernel over whole buffers.

Every kernel is *value-transparent*: the numpy path and the pure-Python
path produce byte-identical output (property-tested against the scalar
primitives in ``tests/test_prop_arena.py``), and ``REPRO_ARENA=0`` forces
the pure path so CI can hold both to the same oracle.  Inputs that the
u64 lanes cannot represent (counters at or above 2**64) transparently
fall back to the arbitrary-precision path.
"""

import os
import struct
from collections.abc import Iterator, Sequence
from typing import Any

from repro.common.constants import CACHE_LINE_SIZE

_np: Any
try:
    import numpy
except ImportError:  # pragma: no cover - numpy is an optional extra
    _np = None
else:
    _np = numpy

FRAME_SIZE = 24
"""One (address, counter) hash frame: 8 B address + 16 B counter."""

_U64_MAX = (1 << 64) - 1


def arena_accelerated(override: bool | None = None) -> bool:
    """Whether the numpy u64 lanes are in use.

    ``REPRO_ARENA=0`` forces the pure-Python kernels (the CI leg that
    mirrors a numpy-less install); anything else uses numpy whenever it
    is importable.  An explicit ``override`` always wins, but can only
    enable acceleration if numpy is actually present.
    """
    if _np is None:
        return False
    if override is not None:
        return override
    return os.environ.get("REPRO_ARENA", "1") != "0"


def pack_u64(values: Sequence[int]) -> bytes:
    """``values`` as consecutive little-endian u64 lanes.

    Equals ``b"".join(v.to_bytes(8, "little") for v in values)``; values
    outside the u64 range fall back to the arbitrary-precision path
    (where they raise ``OverflowError`` exactly as ``to_bytes`` would).
    """
    if arena_accelerated() and len(values) > 1:
        try:
            return bytes(_np.asarray(values, dtype="<u8").tobytes())
        except (OverflowError, TypeError, ValueError):
            pass  # value outside u64 — the scalar path raises precisely
    return b"".join(value.to_bytes(8, "little") for value in values)


def unpack_u64(buffer: bytes | bytearray | memoryview) -> list[int]:
    """Little-endian u64 lanes back to a list of ints (pack_u64 inverse)."""
    if len(buffer) % 8:
        raise ValueError(f"buffer length {len(buffer)} not a multiple of 8")
    if arena_accelerated() and len(buffer) > 8:
        lanes: list[int] = _np.frombuffer(buffer, dtype="<u8").tolist()
        return lanes
    return [int.from_bytes(buffer[i:i + 8], "little")
            for i in range(0, len(buffer), 8)]


def tile_u64(values: Sequence[int], lanes: int) -> bytes:
    """Each value's 8 B little-endian form repeated ``lanes`` times.

    ``tile_u64([a], 8)`` is one 64 B pattern block; over a whole fill's
    address list it assembles every pattern payload in one pass.
    """
    if arena_accelerated() and len(values) > 1:
        try:
            return bytes(_np.repeat(
                _np.asarray(values, dtype="<u8"), lanes).tobytes())
        except (OverflowError, TypeError, ValueError):
            pass
    return b"".join(value.to_bytes(8, "little") * lanes for value in values)


def frame_buffer(addresses: Sequence[int], counters: Sequence[int]) -> bytes:
    """All 24 B (address, counter) frames of a batch, contiguously.

    Byte ``24*i .. 24*i+23`` equals ``addresses[i].to_bytes(8, "little")
    + counters[i].to_bytes(16, "little")`` — i.e. the buffer is exactly
    ``b"".join(counter_frames(addresses, counters))``.  Counters at or
    above 2**64 (or any non-u64 input) take the arbitrary-precision
    path, so the output never depends on which kernel ran.
    """
    count = len(addresses)
    if count != len(counters):
        raise ValueError("addresses and counters must have equal length")
    if arena_accelerated() and count > 1:
        try:
            frames = _np.zeros((count, 3), dtype="<u8")
            frames[:, 0] = _np.asarray(addresses, dtype="<u8")
            if isinstance(counters, range):
                if not (0 <= counters.start
                        and counters[-1] <= _U64_MAX
                        and counters[0] <= _U64_MAX):
                    raise OverflowError
                frames[:, 1] = _np.arange(
                    counters.start, counters.stop, counters.step,
                    dtype="<u8")
            else:
                frames[:, 1] = _np.asarray(counters, dtype="<u8")
            return bytes(frames.tobytes())
        except (OverflowError, TypeError, ValueError):
            pass  # counter/address outside u64 lanes
    return b"".join(
        address.to_bytes(8, "little") + counter.to_bytes(16, "little")
        for address, counter in zip(addresses, counters))


def split_records(buffer: bytes | bytearray | memoryview, size: int,
                  count: int) -> tuple[bytes, ...]:
    """``buffer`` cut into ``count`` consecutive ``size``-byte records.

    One C-level ``struct`` pass: the batch kernels iterate the result
    instead of slicing the buffer once per block in Python.  The format is
    compiled per call rather than through ``struct.unpack``'s module-level
    cache, which would keep up to 100 batch-sized formats alive.
    """
    if len(buffer) != size * count:
        raise ValueError(
            f"buffer must be {size} B per record, got {len(buffer)} B for "
            f"{count} records")
    return struct.Struct(f"{size}s" * count).unpack(buffer)

def xor_bytes(a: bytes | bytearray | memoryview,
              b: bytes | bytearray | memoryview) -> bytes:
    """XOR two equal-length buffers (u64 lanes, or one big-int op).

    The counter-mode kernel: over a whole episode's concatenated blocks
    this is one vectorized pass instead of N per-block conversions.
    """
    if len(a) != len(b):
        raise ValueError(f"buffer lengths differ: {len(a)} != {len(b)}")
    if arena_accelerated() and len(a) > 8 and len(a) % 8 == 0:
        return bytes((_np.frombuffer(a, dtype="<u8")
                      ^ _np.frombuffer(b, dtype="<u8")).tobytes())
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


class BlockArena:
    """A batch of 64 B blocks stored in one contiguous buffer.

    The arena is the common currency of the batched hot paths: crypto
    kernels produce/consume its backing buffer whole, the memory layer
    slices it per block exactly once at the storage boundary, and
    everything in between hands around zero-copy ``memoryview`` windows
    instead of per-block ``bytes`` objects.
    """

    __slots__ = ("count", "_buffer", "_view")

    def __init__(self, count: int,
                 buffer: bytearray | bytes | None = None) -> None:
        if count < 0:
            raise ValueError(f"negative block count: {count}")
        size = count * CACHE_LINE_SIZE
        if buffer is None:
            buffer = bytearray(size)
        elif len(buffer) != size:
            raise ValueError(
                f"buffer length {len(buffer)} does not hold {count} "
                f"blocks of {CACHE_LINE_SIZE} B")
        self.count = count
        self._buffer = buffer
        self._view = memoryview(buffer)

    @classmethod
    def from_buffer(cls, buffer: bytearray | bytes) -> "BlockArena":
        """Wrap an existing contiguous buffer; length must be 64 B-aligned."""
        if len(buffer) % CACHE_LINE_SIZE:
            raise ValueError(
                f"buffer length {len(buffer)} not a multiple of "
                f"{CACHE_LINE_SIZE}")
        return cls(len(buffer) // CACHE_LINE_SIZE, buffer)

    @classmethod
    def from_block(cls, block: bytes) -> "BlockArena":
        """A one-block arena (the scalar form of :meth:`from_blocks`)."""
        return cls(1, block)

    @classmethod
    def from_blocks(cls, blocks: Sequence[bytes]) -> "BlockArena":
        """Copy a list of 64 B blocks into one contiguous arena."""
        return cls(len(blocks), b"".join(blocks))

    def __len__(self) -> int:
        return self.count

    def _bounds(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise IndexError(
                f"block {index} out of range for {self.count}-block arena")
        return index * CACHE_LINE_SIZE

    def view(self, index: int) -> memoryview:
        """Zero-copy window onto block ``index``."""
        offset = self._bounds(index)
        return self._view[offset:offset + CACHE_LINE_SIZE]

    def block(self, index: int) -> bytes:
        """Block ``index`` as an owned ``bytes`` copy."""
        offset = self._bounds(index)
        return bytes(self._view[offset:offset + CACHE_LINE_SIZE])

    def store(self, index: int, data: bytes | bytearray | memoryview) -> None:
        """Copy one 64 B block into slot ``index`` (buffer must be mutable)."""
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError(
                f"block must be {CACHE_LINE_SIZE} B, got {len(data)} B")
        offset = self._bounds(index)
        self._view[offset:offset + CACHE_LINE_SIZE] = data

    def views(self) -> Iterator[memoryview]:
        """Zero-copy windows onto every block, in order."""
        return (self._view[offset:offset + CACHE_LINE_SIZE]
                for offset in range(0, self.count * CACHE_LINE_SIZE,
                                    CACHE_LINE_SIZE))

    def blocks(self) -> list[bytes]:
        """All blocks as owned ``bytes`` copies (the list-of-blocks form)."""
        return [bytes(self._view[offset:offset + CACHE_LINE_SIZE])
                for offset in range(0, self.count * CACHE_LINE_SIZE,
                                    CACHE_LINE_SIZE)]

    def buffer(self) -> memoryview:
        """The whole arena as one zero-copy view."""
        return self._view

    def tobytes(self) -> bytes:
        """The whole arena as one owned ``bytes`` buffer."""
        return bytes(self._buffer)
