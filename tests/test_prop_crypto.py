"""Property-based tests: crypto primitives and split counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CounterOverflowError
from repro.crypto.counters import SplitCounterBlock
from repro.crypto.primitives import (
    decrypt_block,
    encrypt_block,
    generate_pad,
    xor_block,
)
from tests.conftest import examples

KEY = b"prop-test-key"

blocks64 = st.binary(min_size=64, max_size=64)
addresses = st.integers(min_value=0, max_value=(1 << 48) - 1).map(
    lambda a: a * 64)
counters = st.integers(min_value=0, max_value=(1 << 71) - 1)


class TestEncryptionProperties:
    @given(blocks64, addresses, counters)
    def test_roundtrip(self, plaintext, address, counter):
        ciphertext = encrypt_block(KEY, address, counter, plaintext)
        assert decrypt_block(KEY, address, counter, ciphertext) == plaintext

    @given(blocks64, addresses, counters)
    def test_encryption_changes_content(self, plaintext, address, counter):
        assert encrypt_block(KEY, address, counter, plaintext) != plaintext

    @given(addresses, counters, counters)
    def test_distinct_counters_distinct_pads(self, address, c1, c2):
        if c1 != c2:
            assert generate_pad(KEY, address, c1) != \
                generate_pad(KEY, address, c2)

    @given(addresses, addresses, counters)
    def test_distinct_addresses_distinct_pads(self, a1, a2, counter):
        if a1 != a2:
            assert generate_pad(KEY, a1, counter) != \
                generate_pad(KEY, a2, counter)

    @given(blocks64, blocks64)
    def test_xor_is_an_involution(self, a, b):
        assert xor_block(xor_block(a, b), b) == a

    @given(blocks64)
    def test_xor_identity(self, a):
        assert xor_block(a, bytes(64)) == a


class TestSplitCounterProperties:
    @given(st.integers(0, (1 << 64) - 1),
           st.lists(st.integers(0, 127), min_size=64, max_size=64))
    def test_wire_format_roundtrip(self, major, minors):
        block = SplitCounterBlock(major, minors)
        decoded = SplitCounterBlock.from_bytes(block.to_bytes())
        assert decoded.major == major
        assert decoded.minors == tuple(minors)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_counter_stream_never_repeats_per_slot(self, slots):
        """Interleaved increments across slots: each slot's counter sequence
        is strictly increasing (no pad reuse, the CME invariant)."""
        block = SplitCounterBlock()
        last = {slot: block.counter_for(slot) for slot in range(64)}
        for slot in slots:
            block.increment(slot)
            value = block.counter_for(slot)
            assert value > last[slot]
            last[slot] = value

    @given(st.integers(0, 63))
    def test_overflow_resets_all_minors(self, slot):
        block = SplitCounterBlock(minors=[127] * 64)
        assert block.increment(slot)
        assert block.minors == (0,) * 64
        assert block.major == 1


class _ListCounterBlock:
    """Reference model of the counter block: a major plus a list of 64
    minors, serialized with the 7-byte chunked codec (8 B of major, then
    eight groups of eight 7-bit minors)."""

    def __init__(self, major: int, minors: list[int]):
        self.major = major
        self.minors = minors

    @classmethod
    def from_bytes(cls, data: bytes) -> "_ListCounterBlock":
        minors: list[int] = []
        for base in range(8, 64, 7):
            chunk = int.from_bytes(data[base:base + 7], "little")
            minors.extend((chunk >> (7 * i)) & 127 for i in range(8))
        return cls(int.from_bytes(data[:8], "little"), minors)

    def to_bytes(self) -> bytes:
        out = bytearray(self.major.to_bytes(8, "little"))
        for group in range(0, 64, 8):
            chunk = 0
            for i, minor in enumerate(self.minors[group:group + 8]):
                chunk |= minor << (7 * i)
            out += chunk.to_bytes(7, "little")
        return bytes(out)

    def counter_for(self, slot: int) -> int:
        return (self.major << 7) | self.minors[slot]

    def increment(self, slot: int) -> bool:
        if self.minors[slot] < 127:
            self.minors[slot] += 1
            return False
        if self.major + 1 >= 1 << 64:
            raise CounterOverflowError("major counter exhausted")
        self.major += 1
        self.minors = [0] * 64
        return True


# Minors bunched at the wrap point and majors at the exhaustion point, so
# short increment runs cross both edges often.
edge_minors = st.lists(st.sampled_from([0, 1, 63, 125, 126, 127]),
                       min_size=64, max_size=64)
edge_majors = st.sampled_from([0, 1, (1 << 63), (1 << 64) - 2,
                               (1 << 64) - 1])


class TestCounterWordMatchesListModel:
    @given(blocks64)
    def test_any_64_bytes_round_trip(self, data):
        block = SplitCounterBlock.from_bytes(data)
        model = _ListCounterBlock.from_bytes(data)
        assert block.to_bytes() == data == model.to_bytes()
        assert block.major == model.major
        assert block.minors == tuple(model.minors)
        assert [block.counter_for(slot) for slot in range(64)] == \
            [model.counter_for(slot) for slot in range(64)]

    @given(st.one_of(blocks64, st.tuples(edge_majors, edge_minors).map(
        lambda start: _ListCounterBlock(*start).to_bytes())),
        st.lists(st.integers(0, 63), max_size=40))
    @settings(max_examples=examples(200))
    def test_increments_match_including_overflow(self, data, slots):
        block = SplitCounterBlock.from_bytes(data)
        model = _ListCounterBlock.from_bytes(data)
        for slot in slots:
            assert block.will_overflow(slot) == (model.minors[slot] == 127)
            try:
                expected = model.increment(slot)
            except CounterOverflowError:
                with pytest.raises(CounterOverflowError):
                    block.increment(slot)
                break
            assert block.increment(slot) is expected
            assert block.counter_for(slot) == model.counter_for(slot)
            assert block.to_bytes() == model.to_bytes()
