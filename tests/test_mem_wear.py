"""NVM wear tracking."""

import pytest

from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.mem.wear import WearTracker
from repro.stats.events import WriteKind


@pytest.fixture
def tracked(tiny_config):
    layout = MemoryLayout(tiny_config)
    nvm = NvmDevice(layout.total_size)
    nvm.wear = WearTracker(layout)
    return nvm, layout


class TestWearTracker:
    def test_counts_repeated_writes_per_block(self, tracked):
        nvm, _ = tracked
        for _ in range(5):
            nvm.write(0, bytes(64), WriteKind.DATA)
        nvm.write(64, bytes(64), WriteKind.DATA)
        assert nvm.wear.writes_at(0) == 5
        assert nvm.wear.writes_at(64) == 1
        assert nvm.wear.total_writes == 6

    def test_hottest_block(self, tracked):
        nvm, _ = tracked
        nvm.write(64, bytes(64), WriteKind.DATA)
        for _ in range(3):
            nvm.write(128, bytes(64), WriteKind.DATA)
        assert nvm.wear.hottest_block() == (128, 3)

    def test_reports_do_not_depend_on_recording_order(self, tiny_config):
        """Bulk recording changes the order blocks first appear in; every
        report, ties in ``hottest_block`` included, must not see it."""
        layout = MemoryLayout(tiny_config)
        writes = [layout.chv.base, 128, layout.counters.base, 64, 128, 64]
        forward, backward = WearTracker(layout), WearTracker(layout)
        for address in writes:
            forward.record_write(address)
        for address in reversed(writes):
            backward.record_write(address)
        assert forward.hottest_block() == backward.hottest_block() == (64, 2)
        bulk = WearTracker(layout)
        bulk.record_writes(writes)
        for tracker in (backward, bulk):
            assert tracker.hottest_block() == forward.hottest_block()
            assert tracker.region_wear() == forward.region_wear()
            assert tracker.total_writes == forward.total_writes == 6
            assert all(tracker.writes_at(address)
                       == forward.writes_at(address) for address in writes)

    def test_hottest_block_when_empty(self, tracked):
        nvm, _ = tracked
        assert nvm.wear.hottest_block() == (0, 0)

    def test_unaccounted_pokes_do_not_wear(self, tracked):
        nvm, _ = tracked
        nvm.poke(0, bytes(64))
        assert nvm.wear.total_writes == 0

    def test_region_wear_classifies_addresses(self, tracked):
        nvm, layout = tracked
        nvm.write(0, bytes(64), WriteKind.DATA)
        nvm.write(layout.counters.base, bytes(64), WriteKind.COUNTER)
        nvm.write(layout.chv.base, bytes(64), WriteKind.CHV_DATA)
        wear = {w.region: w for w in nvm.wear.region_wear()}
        assert wear["data"].total_writes == 1
        assert wear["counters"].total_writes == 1
        assert wear["chv"].total_writes == 1
        assert wear["tree"].total_writes == 0

    def test_region_wear_statistics(self, tracked):
        nvm, _ = tracked
        for _ in range(4):
            nvm.write(0, bytes(64), WriteKind.DATA)
        nvm.write(64, bytes(64), WriteKind.DATA)
        data = nvm.wear.wear_of("data")
        assert data.blocks_written == 2
        assert data.total_writes == 5
        assert data.max_writes_per_block == 4
        assert data.mean_writes_per_block == pytest.approx(2.5)

    def test_wear_of_unknown_region(self, tracked):
        nvm, _ = tracked
        with pytest.raises(KeyError):
            nvm.wear.wear_of("bogus")

    def test_reset(self, tracked):
        nvm, _ = tracked
        nvm.write(0, bytes(64), WriteKind.DATA)
        nvm.wear.reset()
        assert nvm.wear.total_writes == 0

    @pytest.mark.parametrize("grouped", ["write_arena", "write_batch"])
    def test_grouped_writes_count_wear_in_bulk(self, tracked, monkeypatch,
                                               grouped):
        """A tracker keeps grouped writes grouped: no per-request
        ``NvmDevice.write``, and the same per-block counts scalar issue
        would record (duplicates included)."""
        nvm, layout = tracked
        addresses = [layout.chv.base, 0, 64, 0, layout.chv.base + 64]
        buffer = b"".join(bytes([i]) * 64 for i in range(len(addresses)))

        def per_request(*args, **kwargs):
            raise AssertionError("grouped write degraded to per-request")

        monkeypatch.setattr(NvmDevice, "write", per_request)
        if grouped == "write_arena":
            nvm.write_arena(addresses, buffer, WriteKind.CHV_DATA)
        else:
            nvm.write_batch([(address, buffer[64 * i:64 * i + 64],
                              WriteKind.CHV_DATA)
                             for i, address in enumerate(addresses)])
        assert nvm.wear.writes_at(0) == 2
        assert nvm.wear.writes_at(64) == 1
        assert nvm.wear.writes_at(layout.chv.base) == 1
        assert nvm.wear.total_writes == len(addresses)
        assert nvm.stats.writes[WriteKind.CHV_DATA] == len(addresses)
        assert nvm.peek(0) == bytes([3]) * 64

    def test_untracked_device_has_no_overhead_path(self, tiny_config):
        layout = MemoryLayout(tiny_config)
        nvm = NvmDevice(layout.total_size)
        nvm.write(0, bytes(64), WriteKind.DATA)   # wear is None: no error
        assert nvm.wear is None


class TestWearExperimentShape:
    def test_wear_ablation_passes(self):
        from repro.experiments.suite import DrainSuite
        from repro.experiments.wear import run
        result = run(DrainSuite(scale=256))
        assert result.all_checks_pass, [c for c in result.checks
                                        if not c.passed]
