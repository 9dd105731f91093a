"""Property-based equivalence: arena kernels vs the scalar primitives.

The arena substrate (:mod:`repro.crypto.arena`) promises *value
transparency*: whether the numpy u64 lanes or the pure-Python fallback
ran, every kernel's output is byte-identical to the scalar spelling it
replaces.  This suite holds each kernel to that promise — over empty,
singleton and N-element inputs, duplicate addresses, counters past the
u64 range (which must transparently fall back), and both kernel flavors
(``REPRO_ARENA=0`` forces the pure path) — and pins the arena-backed
``generate_pads`` / ``encrypt_blocks`` / ``compute_block_macs`` forms to
the scalar primitives across every MacDomain.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# The 'kernel' fixture only sets REPRO_ARENA for the duration of the test,
# identically for every generated example — not resetting it between
# examples is exactly the intent.
_KERNEL_SETTINGS = {
    "suppress_health_check": [HealthCheck.function_scoped_fixture]}

from repro.common.constants import CACHE_LINE_SIZE, MAC_SIZE
from repro.crypto import arena, batch
from repro.crypto.arena import (
    FRAME_SIZE,
    BlockArena,
    arena_accelerated,
    frame_buffer,
    pack_u64,
    split_records,
    tile_u64,
    unpack_u64,
    xor_bytes,
)
from repro.crypto.primitives import (
    MacDomain,
    compute_mac,
    encrypt_block,
    generate_pad,
    int_field,
)
from tests.conftest import examples

u64s = st.integers(0, 2**64 - 1)
wide = st.integers(0, 2**128 - 1)
blocks = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)
keys = st.binary(min_size=1, max_size=64)
domains = st.sampled_from(MacDomain)


@st.composite
def work_lists(draw, min_size=0, max_size=12, counter_strategy=wide):
    """(addresses, counters) with duplicate-heavy addresses (cf.
    test_prop_batch.work_lists)."""
    pool = draw(st.lists(u64s, min_size=1, max_size=3))
    size = draw(st.integers(min_size, max_size))
    addr_list = draw(st.lists(st.sampled_from(pool), min_size=size,
                              max_size=size))
    ctr_list = draw(st.lists(counter_strategy, min_size=size,
                             max_size=size))
    return addr_list, ctr_list


@pytest.fixture(params=["lanes", "pure"])
def kernel(request, monkeypatch):
    """Run the test under both kernel flavors (numpy lanes, pure Python).

    The pure leg always runs; the lanes leg is exercised when numpy is
    importable, otherwise it degenerates to the pure path (matching a
    numpy-less install).
    """
    monkeypatch.setenv("REPRO_ARENA",
                       "1" if request.param == "lanes" else "0")
    return request.param


class TestPackU64:
    @given(values=st.lists(u64s, max_size=12))
    @settings(max_examples=examples(100))
    def test_matches_scalar_to_bytes(self, values):
        assert pack_u64(values) == b"".join(
            v.to_bytes(8, "little") for v in values)

    @given(values=st.lists(u64s, min_size=2, max_size=12))
    @settings(max_examples=examples(100))
    def test_round_trips_through_unpack(self, values):
        assert unpack_u64(pack_u64(values)) == values

    @given(values=st.lists(u64s, max_size=6),
           oversize=st.integers(2**64, 2**128))
    @settings(max_examples=examples(50))
    def test_oversize_value_raises_like_to_bytes(self, values, oversize):
        with pytest.raises(OverflowError):
            pack_u64(values + [oversize])

    @given(extra=st.integers(1, 7))
    @settings(max_examples=examples(20))
    def test_unpack_rejects_unaligned_buffers(self, extra):
        with pytest.raises(ValueError):
            unpack_u64(b"\x00" * (8 + extra))

    def test_empty(self):
        assert pack_u64([]) == b""
        assert unpack_u64(b"") == []


class TestTileU64:
    @given(values=st.lists(u64s, max_size=8), lanes=st.integers(1, 8))
    @settings(max_examples=examples(100))
    def test_matches_scalar_repeat(self, values, lanes):
        assert tile_u64(values, lanes) == b"".join(
            v.to_bytes(8, "little") * lanes for v in values)

    @given(values=st.lists(u64s, min_size=1, max_size=8))
    @settings(max_examples=examples(50))
    def test_eight_lanes_is_the_pattern_block(self, values):
        tiled = tile_u64(values, 8)
        assert len(tiled) == CACHE_LINE_SIZE * len(values)


class TestFrameBuffer:
    @given(work=work_lists())
    @settings(max_examples=examples(100))
    def test_matches_counter_frames(self, work):
        addrs, ctrs = work
        assert frame_buffer(addrs, ctrs) == b"".join(
            batch.counter_frames(addrs, ctrs))

    @given(start=st.integers(0, 2**128 - 13), count=st.integers(0, 12),
           pool=st.lists(u64s, min_size=1, max_size=3))
    @settings(max_examples=examples(100))
    def test_range_counters_match_list_counters(self, start, count, pool):
        """Range counters (the drain's shape) — including ranges that
        cross 2**64 and must take the fallback — equal explicit lists."""
        addrs = (pool * count)[:count]
        ctrs = range(start, start + count)
        assert frame_buffer(addrs, ctrs) == \
            frame_buffer(addrs, list(ctrs))

    @given(work=work_lists(min_size=1))
    @settings(max_examples=examples(50))
    def test_views_slice_the_buffer(self, work):
        addrs, ctrs = work
        frames = frame_buffer(addrs, ctrs)
        views = split_records(frames, FRAME_SIZE, len(addrs))
        assert [bytes(v) for v in views] == batch.counter_frames(addrs, ctrs)
        assert all(len(v) == FRAME_SIZE for v in views)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            frame_buffer([1, 2], [3])

    @given(count=st.integers(0, 4), extra=st.integers(1, 23))
    @settings(max_examples=examples(20))
    def test_views_reject_unaligned_buffers(self, count, extra):
        with pytest.raises(ValueError):
            split_records(b"\x00" * (FRAME_SIZE * count + extra),
                          FRAME_SIZE, count)


class TestXorBytes:
    @given(pair=st.integers(0, 256).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                            st.binary(min_size=n, max_size=n))))
    @settings(max_examples=examples(100))
    def test_matches_bigint_xor(self, pair):
        a, b = pair
        expected = (int.from_bytes(a, "little")
                    ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
        assert xor_bytes(a, b) == expected

    @given(pair=st.integers(0, 64).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                            st.binary(min_size=n, max_size=n))))
    @settings(max_examples=examples(100))
    def test_involution(self, pair):
        a, b = pair
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00" * 8, b"\x00" * 9)


class TestBlockArena:
    @given(payload=st.lists(blocks, max_size=8))
    @settings(max_examples=examples(100))
    def test_from_blocks_round_trips(self, payload):
        built = BlockArena.from_blocks(payload)
        assert len(built) == len(payload)
        assert built.blocks() == payload
        assert [bytes(v) for v in built.views()] == payload
        assert built.tobytes() == b"".join(payload)

    @given(payload=blocks)
    @settings(max_examples=examples(50))
    def test_from_block_is_the_scalar_twin(self, payload):
        assert BlockArena.from_block(payload).blocks() == \
            BlockArena.from_blocks([payload]).blocks()

    @given(payload=st.lists(blocks, min_size=1, max_size=8),
           data=st.data())
    @settings(max_examples=examples(100))
    def test_block_view_store(self, payload, data):
        built = BlockArena.from_blocks(payload)
        index = data.draw(st.integers(0, len(payload) - 1))
        assert built.block(index) == payload[index]
        assert bytes(built.view(index)) == payload[index]
        replacement = data.draw(blocks)
        writable = BlockArena.from_buffer(bytearray(built.tobytes()))
        writable.store(index, replacement)
        assert writable.block(index) == replacement
        untouched = [i for i in range(len(payload)) if i != index]
        for i in untouched:
            assert writable.block(i) == payload[i]

    @given(extra=st.integers(1, CACHE_LINE_SIZE - 1),
           count=st.integers(0, 4))
    @settings(max_examples=examples(30))
    def test_unaligned_buffers_raise(self, extra, count):
        ragged = b"\x00" * (count * CACHE_LINE_SIZE + extra)
        with pytest.raises(ValueError):
            BlockArena.from_buffer(ragged)
        with pytest.raises(ValueError):
            BlockArena(count, ragged)

    @given(count=st.integers(0, 4), delta=st.integers(1, 8))
    @settings(max_examples=examples(30))
    def test_out_of_range_index_raises(self, count, delta):
        built = BlockArena(count)
        with pytest.raises(IndexError):
            built.view(count + delta - 1)
        with pytest.raises(IndexError):
            built.block(-1)

    def test_zero_block_arena(self):
        empty = BlockArena(0)
        assert len(empty) == 0
        assert empty.blocks() == []
        assert empty.tobytes() == b""

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            BlockArena(-1)


class TestArenaBackedBatchParity:
    """The arena-fed batch forms equal the scalar primitives byte for
    byte, under both kernel flavors."""

    @given(key=keys, work=work_lists())
    @settings(max_examples=examples(60), **_KERNEL_SETTINGS)
    def test_generate_pads_with_frame_buffer(self, kernel, key, work):
        addrs, ctrs = work
        frames = frame_buffer(addrs, ctrs)
        pads = batch.generate_pads(batch.pad_state(key), addrs, ctrs, frames)
        for i, (address, counter) in enumerate(zip(addrs, ctrs)):
            assert pads[i * 64:(i + 1) * 64] == \
                generate_pad(key, address, counter)

    @given(key=keys, work=work_lists(), data=st.data())
    @settings(max_examples=examples(60), **_KERNEL_SETTINGS)
    def test_encrypt_blocks_from_arena(self, kernel, key, work, data):
        addrs, ctrs = work
        payload = [data.draw(blocks) for _ in addrs]
        built = BlockArena.from_blocks(payload)
        ciphertext = batch.encrypt_blocks(
            batch.pad_state(key), addrs, ctrs, built.buffer(),
            frame_buffer(addrs, ctrs))
        assert len(ciphertext) == CACHE_LINE_SIZE * len(addrs)
        for i, (address, counter) in enumerate(zip(addrs, ctrs)):
            assert ciphertext[i * 64:(i + 1) * 64] == encrypt_block(
                key, address, counter, payload[i])

    @given(key=keys, work=work_lists(), domain=domains, data=st.data())
    @settings(max_examples=examples(60), **_KERNEL_SETTINGS)
    def test_compute_block_macs_from_arena(self, kernel, key, work,
                                           domain, data):
        addrs, ctrs = work
        payload = [data.draw(blocks) for _ in addrs]
        built = BlockArena.from_blocks(payload)
        macs = batch.compute_block_macs(
            batch.mac_state(key, domain), built.buffer(), addrs, ctrs,
            frames=frame_buffer(addrs, ctrs))
        assert len(macs) == len(addrs)
        for mac, address, counter, block in zip(macs, addrs, ctrs, payload):
            assert len(mac) == MAC_SIZE
            assert mac == compute_mac(
                key, block + int_field(address, 8) + int_field(counter, 16),
                domain=domain)

    @given(work=work_lists())
    @settings(max_examples=examples(40), **_KERNEL_SETTINGS)
    def test_kernels_are_value_transparent(self, monkeypatch, work):
        """Pure vs lanes output is identical for every kernel (the
        REPRO_ARENA=0 CI leg holds the same oracle)."""
        addrs, ctrs = work
        outputs = {}
        for flavor, env in (("lanes", "1"), ("pure", "0")):
            monkeypatch.setenv("REPRO_ARENA", env)
            outputs[flavor] = (
                pack_u64(addrs),
                tile_u64(addrs, 8),
                frame_buffer(addrs, ctrs),
                xor_bytes(pack_u64(addrs), pack_u64(addrs[::-1])),
            )
        assert outputs["lanes"] == outputs["pure"]

    def test_accelerated_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARENA", "0")
        assert arena_accelerated() is False
        monkeypatch.delenv("REPRO_ARENA", raising=False)
        assert arena_accelerated() is (arena._np is not None)
        assert arena_accelerated(override=False) is False
