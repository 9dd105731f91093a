"""Fault classes, FaultPlan mechanics, and NvmDevice integration."""

import pytest

from collections import Counter

from repro.common.errors import ConfigError
from repro.faults import (BitFlip, DroppedWrite, FaultPlan, PowerCut,
                          TornWrite)
from repro.mem.nvm import NvmDevice
from repro.stats.events import WriteKind


class _WearRecorder:
    """Duck-typed stand-in for WearTracker (a device with a fault plan
    issues every write singly, so it only calls record_write)."""

    def __init__(self):
        self.counts = Counter()

    def record_write(self, address: int) -> None:
        self.counts[address] += 1

BLOCK = 64
DATA = bytes(range(BLOCK))
OTHER = bytes(BLOCK - 1 - i for i in range(BLOCK))


def device(size_blocks: int = 64) -> NvmDevice:
    return NvmDevice(size_blocks * BLOCK)


class TestFaultValidation:
    def test_negative_indices_rejected(self):
        with pytest.raises(ConfigError):
            PowerCut(after_writes=-1)
        with pytest.raises(ConfigError):
            DroppedWrite(at_write=-1)
        with pytest.raises(ConfigError):
            TornWrite(at_write=-1)

    def test_torn_prefix_bounds(self):
        with pytest.raises(ConfigError):
            TornWrite(at_write=0, persisted_bytes=BLOCK + 1)
        with pytest.raises(ConfigError):
            TornWrite(at_write=0, persisted_bytes=-1)

    def test_bit_flip_needs_exactly_one_trigger(self):
        with pytest.raises(ConfigError):
            BitFlip()
        with pytest.raises(ConfigError):
            BitFlip(address=0, at_write=0)
        with pytest.raises(ConfigError):
            BitFlip(at_write=0, xor_mask=0)

    def test_plan_rejects_non_faults(self):
        with pytest.raises(ConfigError):
            FaultPlan(["power-cut"])


class TestPowerCut:
    def test_writes_from_budget_on_are_lost(self):
        nvm = device()
        nvm.fault_plan = FaultPlan([PowerCut(after_writes=2)])
        for i in range(4):
            nvm.write(i * BLOCK, DATA, WriteKind.DATA)
        assert nvm.peek(0) == DATA
        assert nvm.peek(BLOCK) == DATA
        assert nvm.peek(2 * BLOCK) == bytes(BLOCK)
        assert nvm.peek(3 * BLOCK) == bytes(BLOCK)
        assert [a for a, _ in nvm.lost_writes] == [2 * BLOCK, 3 * BLOCK]

    def test_write_budget_property_is_a_power_cut(self):
        nvm = device()
        nvm.write_budget = 3
        assert isinstance(nvm.fault_plan.faults[0], PowerCut)
        nvm.write(0, DATA, WriteKind.DATA)
        assert nvm.write_budget == 2
        nvm.write_budget = None
        assert nvm.fault_plan is None

    def test_events_record_every_lost_write(self):
        nvm = device()
        nvm.fault_plan = FaultPlan([PowerCut(after_writes=1)])
        nvm.write(0, DATA, WriteKind.DATA)
        nvm.write(BLOCK, DATA, WriteKind.DATA)
        plan = nvm.restore_power()
        assert len(plan.events) == 1
        assert plan.events[0].write_index == 1
        assert plan.events[0].effect == "lost"


class TestTornDroppedFlip:
    def test_torn_write_persists_prefix_over_old_tail(self):
        nvm = device()
        nvm.poke(0, OTHER)
        nvm.fault_plan = FaultPlan([TornWrite(at_write=0,
                                              persisted_bytes=16)])
        nvm.write(0, DATA, WriteKind.DATA)
        assert nvm.peek(0) == DATA[:16] + OTHER[16:]

    def test_dropped_write_keeps_old_content(self):
        nvm = device()
        nvm.poke(0, OTHER)
        nvm.fault_plan = FaultPlan([DroppedWrite(at_write=1)])
        nvm.write(BLOCK, DATA, WriteKind.DATA)  # index 0: persists
        nvm.write(0, DATA, WriteKind.DATA)      # index 1: dropped
        assert nvm.peek(BLOCK) == DATA
        assert nvm.peek(0) == OTHER
        assert [a for a, _ in nvm.lost_writes] == [0]

    def test_bit_flip_on_write_index(self):
        nvm = device()
        nvm.fault_plan = FaultPlan([BitFlip(at_write=0, byte_offset=5,
                                            xor_mask=0x80)])
        nvm.write(0, DATA, WriteKind.DATA)
        persisted = nvm.peek(0)
        assert persisted[5] == DATA[5] ^ 0x80
        assert persisted[:5] == DATA[:5]
        assert persisted[6:] == DATA[6:]

    def test_bit_flip_on_address_fires_once(self):
        nvm = device()
        nvm.fault_plan = FaultPlan([BitFlip(address=BLOCK, byte_offset=0,
                                            xor_mask=0x01)])
        nvm.write(0, DATA, WriteKind.DATA)
        nvm.write(BLOCK, DATA, WriteKind.DATA)
        nvm.write(BLOCK, DATA, WriteKind.DATA)  # second write: no re-flip
        assert nvm.peek(0) == DATA
        assert nvm.peek(BLOCK) == DATA

    def test_unfired_address_flip_applies_at_power_restore(self):
        """Bit rot while the system is off: the flip lands on the medium
        even though the episode never wrote the target."""
        nvm = device()
        nvm.poke(0, DATA)
        nvm.fault_plan = FaultPlan([BitFlip(address=0, byte_offset=3,
                                            xor_mask=0xFF)])
        nvm.write(BLOCK, DATA, WriteKind.DATA)
        plan = nvm.restore_power()
        assert nvm.peek(0)[3] == DATA[3] ^ 0xFF
        assert plan.events[-1].fault == "bit-flip"
        assert plan.events[-1].effect == "corrupted"


class TestAccountingConsistency:
    """Regression: a lost write must appear in *all three* accounting
    channels (stats, wear, trace) exactly like a persisted one — the
    scheduler/banking ablations replay the trace and must agree with the
    counters even for a dying-power episode."""

    def _run_lossy_episode(self):
        nvm = device()
        nvm.wear = _WearRecorder()
        nvm.trace = []
        nvm.write_budget = 1
        nvm.write(0, DATA, WriteKind.DATA)        # persists
        nvm.write(BLOCK, DATA, WriteKind.DATA)    # lost in flight
        return nvm

    def test_stats_wear_and_trace_all_record_the_lost_write(self):
        nvm = self._run_lossy_episode()
        assert nvm.stats.writes[WriteKind.DATA] == 2
        assert nvm.wear.counts[0] == 1
        assert nvm.wear.counts[BLOCK] == 1
        assert nvm.trace == [(0, True), (BLOCK, True)]

    def test_lost_channel_flags_exactly_the_lost_write(self):
        nvm = self._run_lossy_episode()
        assert nvm.lost_writes == [(BLOCK, WriteKind.DATA)]
        assert nvm.peek(0) == DATA
        assert nvm.peek(BLOCK) == bytes(BLOCK)

    def test_trace_entries_stay_two_tuples(self):
        """Trace consumers unpack (address, is_write); the lost flag lives
        in the separate lost_writes channel, never in the trace shape."""
        nvm = self._run_lossy_episode()
        for entry in nvm.trace:
            address, is_write = entry
            assert isinstance(address, int) and isinstance(is_write, bool)


class TestPlanComposition:
    def test_faults_apply_in_order(self):
        nvm = device()
        nvm.fault_plan = FaultPlan([
            BitFlip(at_write=0, byte_offset=0, xor_mask=0xFF),
            DroppedWrite(at_write=1),
        ])
        nvm.write(0, DATA, WriteKind.DATA)
        nvm.write(BLOCK, DATA, WriteKind.DATA)
        assert nvm.peek(0)[0] == DATA[0] ^ 0xFF
        assert nvm.peek(BLOCK) == bytes(BLOCK)

    def test_remaining_budget_without_power_cut_is_none(self):
        plan = FaultPlan([DroppedWrite(at_write=0)])
        assert plan.remaining_budget() is None
