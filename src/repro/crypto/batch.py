"""Batched cryptographic primitives for the drain/verify hot paths.

The scalar primitives in :mod:`repro.crypto.primitives` pay their cost in
Python call overhead, not in hashing: one drain episode walks hundreds of
thousands of blocks through ``generate_pad``/``xor_block``/``compute_mac``,
and each call re-runs the BLAKE2b key schedule and converts 64 B blocks
through arbitrary-precision integers one at a time.  The batch forms below
are *provably equivalent* — they produce byte-identical output for every
input (property-tested in ``tests/test_prop_batch.py``) — but amortize the
fixed costs across the whole work list:

* the keyed hash state (key block + domain tag) is absorbed once — by
  :func:`pad_state` / :func:`mac_state`, which the timed engines call once
  per key and share with their scalar methods — and ``copy()``-ed per item
  instead of being recomputed;
* the counter-mode XOR runs once over the episode's contiguous buffer as a
  single arbitrary-precision operation instead of per block;
* per-item framing (address/counter fields) is assembled in one pass.

Nothing here changes any value the simulator produces: the scalar
primitives remain the specification, and the differential oracle
(:mod:`repro.core.oracle`) holds the batched engines to it end to end.
"""

import hashlib
import os
from collections.abc import Iterable, Sequence

from repro.common.constants import CACHE_LINE_SIZE, MAC_SIZE
from repro.crypto.arena import (
    FRAME_SIZE,
    frame_buffer,
    split_records,
    xor_bytes,
)
from repro.crypto.primitives import MAC_DOMAIN, PAD_DOMAIN, MacDomain

KeyedState = hashlib.blake2b
"""A keyed BLAKE2b state with its domain prefix already absorbed (from
:func:`pad_state` or :func:`mac_state`); kernels only ever ``copy()`` it."""

Frames = Sequence[bytes] | bytes | bytearray | memoryview | None
"""A batch's (address, counter) hash frames: either the list form from
:func:`counter_frames` or the contiguous form from
:func:`repro.crypto.arena.frame_buffer` (24 B per block)."""


def batching_enabled(override: bool | None = None) -> bool:
    """Resolve the batched-execution default.

    ``REPRO_BATCH=0`` forces every engine onto the scalar reference path
    (the differential oracle's other half); anything else — including the
    variable being unset — selects the batched hot path.  An explicit
    ``batched=`` argument on a system or engine always wins.
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_BATCH", "1") != "0"


def pad_state(key: bytes) -> KeyedState:
    """The counter-mode pad prefix: ``key`` and the pad domain absorbed.

    ``state.copy()`` followed by the (address, counter) frame yields exactly
    :func:`~repro.crypto.primitives.generate_pad`'s hash.
    """
    state = hashlib.blake2b(key=key, digest_size=CACHE_LINE_SIZE)
    state.update(PAD_DOMAIN)
    return state


def mac_state(key: bytes, domain: MacDomain) -> KeyedState:
    """The MAC prefix: ``key`` and both domain tags absorbed.

    ``state.copy()`` followed by the parts yields exactly
    :func:`~repro.crypto.primitives.compute_mac` under ``domain``.
    """
    state = hashlib.blake2b(key=key, digest_size=MAC_SIZE)
    state.update(MAC_DOMAIN)
    state.update(domain.value)
    return state


def counter_frames(addresses: Sequence[int],
                   counters: Sequence[int]) -> list[bytes]:
    """The per-block (address, counter) hash frame, batch-assembled.

    Element ``i`` is ``int_field(addresses[i]) + int_field(counters[i], 16)``
    — the exact bytes both the pad and the block-MAC absorb after their
    domain tags.  Pad generation and MAC computation over the same work list
    share one frame pass.
    """
    if len(addresses) != len(counters):
        raise ValueError("addresses and counters must have equal length")
    return [address.to_bytes(8, "little") + counter.to_bytes(16, "little")
            for address, counter in zip(addresses, counters)]


def _resolve_frames(frames: Frames, addresses: Sequence[int],
                    counters: Sequence[int]) -> Iterable[bytes | memoryview]:
    """Iterate a batch's frames regardless of representation.

    ``None`` assembles them (contiguously, via the arena kernel); a
    ``bytes``/``bytearray``/``memoryview`` buffer is cut into 24 B frames
    in one pass; a pre-built list is returned as is.  Every form yields
    the exact bytes :func:`counter_frames` would produce.
    """
    if frames is None:
        frames = frame_buffer(addresses, counters)
    if isinstance(frames, (bytes, bytearray, memoryview)):
        return split_records(frames, FRAME_SIZE, len(addresses))
    return frames


def generate_pads(state: KeyedState, addresses: Sequence[int],
                  counters: Sequence[int],
                  frames: Frames = None) -> bytes:
    """Counter-mode pads for a batch of blocks, as one contiguous buffer.

    Byte ``64*i .. 64*i+63`` equals ``generate_pad(key, addresses[i],
    counters[i])`` for ``state = pad_state(key)``; each block only pays for
    its own (address, counter) frame.  ``frames`` lets a caller that also
    MACs the same batch reuse one frame-assembly pass — either the
    :func:`counter_frames` list or the contiguous
    :func:`repro.crypto.arena.frame_buffer` form.
    """
    frame_iter = _resolve_frames(frames, addresses, counters)
    fork = state.copy
    pads: list[bytes] = []
    append = pads.append
    for frame in frame_iter:
        h = fork()
        h.update(frame)
        append(h.digest())
    return b"".join(pads)


def xor_buffers(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length buffers in one bulk operation.

    With 64 B inputs this is exactly ``xor_block``; over a whole episode's
    concatenated blocks it replaces N int conversions with one pass (u64
    lanes when the arena is accelerated, one big-int op otherwise).
    """
    return xor_bytes(a, b)


def encrypt_blocks(state: KeyedState, addresses: Sequence[int],
                   counters: Sequence[int],
                   plaintext: bytes | bytearray | memoryview,
                   frames: Frames = None) -> bytes:
    """Counter-mode encrypt a contiguous buffer of 64 B blocks.

    ``plaintext`` is the concatenation of ``len(addresses)`` blocks; the
    result is the concatenation of ``encrypt_block(key, a, c, block)`` for
    each, with ``state = pad_state(key)``.  Encryption and decryption are
    the same operation, as in the scalar form.
    """
    if len(plaintext) != CACHE_LINE_SIZE * len(addresses):
        raise ValueError(
            f"plaintext must be {CACHE_LINE_SIZE} B per address, got "
            f"{len(plaintext)} B for {len(addresses)} addresses")
    if not addresses:
        return b""
    return xor_buffers(plaintext,
                       generate_pads(state, addresses, counters, frames))


decrypt_blocks = encrypt_blocks
"""Counter-mode decryption is identical to encryption by construction."""


def compute_macs(state: KeyedState,
                 items: Iterable[tuple[bytes | memoryview, ...]]
                 ) -> list[bytes]:
    """Keyed MACs over a batch of pre-framed inputs.

    ``items[i]`` is the ``parts`` tuple the scalar ``compute_mac`` would
    receive; with ``state = mac_state(key, domain)`` the result matches it
    byte for byte under the same ``domain``.
    """
    fork = state.copy
    macs: list[bytes] = []
    append = macs.append
    for parts in items:
        h = fork()
        for part in parts:
            h.update(part)
        append(h.digest())
    return macs


def compute_block_macs(state: KeyedState,
                       buffer: bytes | bytearray | memoryview,
                       addresses: Sequence[int], counters: Sequence[int],
                       frames: Frames = None) -> list[bytes]:
    """Batched (ciphertext, address, counter) MACs — the CHV/data-MAC shape.

    ``buffer`` is the concatenation of ``len(addresses)`` 64 B blocks;
    element ``i`` equals ``compute_mac(key, block_i, int_field(addr),
    int_field(ctr, 16), domain=domain)`` for ``state = mac_state(key,
    domain)``.  ``frames`` reuses a frame pass shared with pad generation
    (list or contiguous form).
    """
    if len(buffer) != CACHE_LINE_SIZE * len(addresses):
        raise ValueError(
            f"buffer must be {CACHE_LINE_SIZE} B per address, got "
            f"{len(buffer)} B for {len(addresses)} addresses")
    blocks = split_records(buffer, CACHE_LINE_SIZE, len(addresses))
    fork = state.copy
    macs: list[bytes] = []
    append = macs.append
    for block, frame in zip(blocks,
                            _resolve_frames(frames, addresses, counters)):
        h = fork()
        h.update(block)
        h.update(frame)
        append(h.digest())
    return macs


def split_blocks(buffer: bytes | bytearray | memoryview,
                 size: int = CACHE_LINE_SIZE) -> list[bytes]:
    """Cut a contiguous buffer back into ``size``-byte ``bytes`` blocks."""
    if len(buffer) % size:
        raise ValueError(f"buffer length {len(buffer)} not a multiple "
                         f"of {size}")
    return list(split_records(buffer, size, len(buffer) // size))
