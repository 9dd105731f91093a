"""Three-level inclusive cache hierarchy."""

from dataclasses import replace

import pytest

from repro.cache.fill import page_of
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import CacheLine
from repro.common.config import CacheConfig
from repro.common.errors import AlignmentError, ConfigError


@pytest.fixture
def hierarchy(tiny_config) -> CacheHierarchy:
    return CacheHierarchy(tiny_config)


class _MemoryStub:
    """Minimal memory side for run-time tests."""

    def __init__(self):
        self.store: dict[int, bytes] = {}
        self.fetches = 0
        self.writebacks = 0

    def fetch(self, address: int) -> bytes:
        self.fetches += 1
        return self.store.get(address, bytes(64))

    def writeback(self, address: int, data: bytes) -> None:
        self.writebacks += 1
        self.store[address] = data


@pytest.fixture
def attached(hierarchy):
    stub = _MemoryStub()
    hierarchy.attach(stub.fetch, stub.writeback)
    return hierarchy, stub


class TestWorstCaseFill:
    def test_fill_count_is_sum_of_levels(self, hierarchy, tiny_config):
        filled = hierarchy.fill_worst_case(seed=1)
        assert filled == tiny_config.total_cache_lines
        assert len(hierarchy.l1) == tiny_config.l1.num_lines
        assert len(hierarchy.l2) == tiny_config.l2.num_lines
        assert len(hierarchy.llc) == tiny_config.llc.num_lines

    def test_everything_is_dirty(self, hierarchy, tiny_config):
        hierarchy.fill_worst_case(seed=1)
        assert hierarchy.dirty_line_count() == tiny_config.total_cache_lines

    def test_inclusion_holds(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        for upper in (hierarchy.l1, hierarchy.l2):
            for line in upper.lines():
                assert hierarchy.llc.contains(line.address)

    def test_llc_lines_have_unique_counter_pages(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        pages = [page_of(line.address) for line in hierarchy.llc.lines()]
        assert len(set(pages)) == len(pages)

    def test_fill_is_deterministic_per_seed(self, tiny_config):
        a = CacheHierarchy(tiny_config)
        b = CacheHierarchy(tiny_config)
        a.fill_worst_case(seed=7)
        b.fill_worst_case(seed=7)
        assert ([line.address for line in a.llc.lines()]
                == [line.address for line in b.llc.lines()])


class TestDrainStream:
    def test_drain_covers_every_dirty_line(self, hierarchy, tiny_config):
        hierarchy.fill_worst_case(seed=1)
        drained = list(hierarchy.drain_lines(seed=2))
        assert len(drained) == tiny_config.total_cache_lines

    def test_drain_order_is_shuffled_but_deterministic(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        order_a = [line.address for line in hierarchy.drain_lines(seed=3)]
        order_b = [line.address for line in hierarchy.drain_lines(seed=3)]
        order_c = [line.address for line in hierarchy.drain_lines(seed=4)]
        assert order_a == order_b
        assert order_a != order_c

    def test_duplicates_match_upper_level_content(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        from collections import Counter
        counts = Counter(line.address
                         for line in hierarchy.drain_lines(seed=2))
        extra_flushes = sum(c - 1 for c in counts.values())
        upper_lines = len(hierarchy.l1) + len(hierarchy.l2)
        assert extra_flushes == upper_lines


class TestRuntimePath:
    def test_read_miss_fetches_and_fills_all_levels(self, attached):
        hierarchy, stub = attached
        stub.store[0] = b"\x2a" * 64
        assert hierarchy.read(0) == b"\x2a" * 64
        assert stub.fetches == 1
        assert hierarchy.l1.contains(0)
        assert hierarchy.l2.contains(0)
        assert hierarchy.llc.contains(0)

    def test_read_hit_does_not_fetch_again(self, attached):
        hierarchy, stub = attached
        hierarchy.read(0)
        hierarchy.read(0)
        assert stub.fetches == 1

    def test_write_marks_l1_dirty(self, attached):
        hierarchy, _ = attached
        hierarchy.write(64, b"\x01" * 64)
        line = hierarchy.l1.lookup(64, touch=False)
        assert line.dirty and line.data == b"\x01" * 64

    def test_write_visible_through_read(self, attached):
        hierarchy, _ = attached
        hierarchy.write(128, b"\x07" * 64)
        assert hierarchy.read(128) == b"\x07" * 64

    def test_capacity_pressure_writes_back_dirty_data(self, attached,
                                                      tiny_config):
        hierarchy, stub = attached
        lines = tiny_config.llc.num_lines + tiny_config.llc.num_sets
        for i in range(lines):
            hierarchy.write(i * 64, i.to_bytes(8, "little") * 8)
        assert stub.writebacks > 0
        # Every written-back block must carry the exact data written.
        for address, data in stub.store.items():
            assert data == (address // 64).to_bytes(8, "little") * 8

    def test_detached_hierarchy_raises(self, hierarchy):
        with pytest.raises(ConfigError):
            hierarchy.read(0)


class TestRestore:
    def test_restore_dirty_places_line_in_llc(self, hierarchy):
        hierarchy.restore_dirty([(4096, b"\x11" * 64)])
        line = hierarchy.llc.lookup(4096, touch=False)
        assert line.dirty and line.data == b"\x11" * 64

    def test_restore_dirty_matches_per_line_inserts(self, tiny_config):
        """One call over many blocks leaves the LLC (LRU order included)
        and the ordered writeback stream exactly as one ``insert`` per
        block would: overflowing one set evicts in order, a re-restored
        address replaces in place, and a clean victim is not written."""
        llc = tiny_config.llc
        stride = llc.num_sets * llc.line_size
        addresses = [i * stride for i in range(llc.ways + 3)]
        blocks = [(address, bytes([i + 1]) * 64)
                  for i, address in enumerate(addresses)]
        blocks.insert(2, (addresses[0], b"\x7f" * 64))
        blocks.append((llc.line_size, b"\x01" * 64))

        def prepared():
            hierarchy = CacheHierarchy(tiny_config)
            memory = _OrderedMemory()
            hierarchy.attach(memory.fetch, memory.writeback)
            hierarchy.llc.insert(CacheLine(addresses[-1] + stride))
            return hierarchy, memory

        bulk, bulk_memory = prepared()
        bulk.restore_dirty(iter(blocks))
        reference, reference_memory = prepared()
        for address, data in blocks:
            victim = reference.llc.insert(CacheLine(address, data, True))
            if victim is not None and victim.dirty:
                reference_memory.writeback(victim.address, victim.data)
        assert bulk_memory.calls == reference_memory.calls
        assert [address for _, address, _ in bulk_memory.calls] == [
            addresses[1], addresses[0], addresses[2]]
        assert ([(line.address, line.data, line.dirty)
                 for line in bulk.llc.lines()]
                == [(line.address, line.data, line.dirty)
                    for line in reference.llc.lines()])

    def test_restore_dirty_checks_alignment_and_payload(self, hierarchy):
        with pytest.raises(AlignmentError):
            hierarchy.restore_dirty([(4096 + 8, bytes(64))])
        with pytest.raises(ValueError, match="64 B"):
            hierarchy.restore_dirty([(4096, bytes(63))])
        assert len(hierarchy) == 0

    def test_invalidate_all(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        hierarchy.invalidate_all()
        assert len(hierarchy) == 0


class _OrderedMemory:
    """Memory stub that records the exact ordered op stream it sees."""

    def __init__(self):
        self.store: dict[int, bytes] = {}
        self.calls: list[tuple[str, int, bytes | None]] = []

    def fetch(self, address: int) -> bytes:
        self.calls.append(("r", address, None))
        return self.store.get(address, bytes(64))

    def writeback(self, address: int, data: bytes) -> None:
        self.calls.append(("w", address, data))
        self.store[address] = data


def _mixed_ops(seed: int, num_ops: int, pool_blocks: int):
    import random
    rng = random.Random(seed)
    ops = []
    for i in range(num_ops):
        address = rng.randrange(pool_blocks) * 64
        if rng.random() < 0.4:
            ops.append(("w", address, (i + 1).to_bytes(8, "little") * 8))
        else:
            ops.append(("r", address, None))
    return ops


class TestReplayEpochEquivalence:
    """The fused ``replay_epoch`` path must be indistinguishable from the
    scalar read/write loop — same memory-side op stream (in order), same
    memory contents, same hit/miss counters and resident lines."""

    @staticmethod
    def _observe(hierarchy):
        return {
            "counts": dict(hierarchy.access_counts),
            "levels": [(level.name, level.hits, level.misses)
                       for level in hierarchy.levels],
            "lines": [sorted((line.address, line.data, line.dirty)
                             for line in level.lines())
                      for level in hierarchy.levels],
        }

    def _run_both(self, tiny_config, ops, epoch_ops):
        scalar = CacheHierarchy(tiny_config)
        scalar_mem = _OrderedMemory()
        scalar.attach(scalar_mem.fetch, scalar_mem.writeback)
        for kind, address, data in ops:
            if kind == "w":
                scalar.write(address, data)
            else:
                scalar.read(address)

        batched = CacheHierarchy(tiny_config)
        batched_mem = _OrderedMemory()
        for start in range(0, len(ops), epoch_ops):
            mem_ops, fills = batched.replay_epoch(ops[start:start + epoch_ops])
            fetched = []
            for kind, address, data in mem_ops:
                if kind == "r":
                    fetched.append(batched_mem.fetch(address))
                else:
                    batched_mem.writeback(address, data)
            batched.resolve_pending(fills, fetched)

        assert scalar_mem.calls == batched_mem.calls
        assert scalar_mem.store == batched_mem.store
        assert self._observe(scalar) == self._observe(batched)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_workload_matches_scalar(self, tiny_config, seed):
        self._run_both(tiny_config, _mixed_ops(seed, 3000, 800),
                       epoch_ops=512)

    def test_all_hit_regime(self, tiny_config):
        # Pool far smaller than L1: after warmup every op hits.
        self._run_both(tiny_config, _mixed_ops(6, 2000, 16), epoch_ops=4096)

    def test_thrash_regime_with_tiny_epochs(self, tiny_config):
        # Pool far larger than the LLC: every epoch spills and refills.
        self._run_both(tiny_config, _mixed_ops(7, 2000, 20000), epoch_ops=64)

    def test_degenerate_epochs(self, tiny_config):
        self._run_both(tiny_config, [], epoch_ops=8)
        self._run_both(tiny_config, [("w", 0, b"\x05" * 64)], epoch_ops=8)


class TestLlcEvictionKeepsFreshestCopy:
    """An LLC eviction back-invalidates both upper copies of the victim.
    When L1 and L2 both hold it dirty, the L1 copy is the newer write and
    must be the one written back — on the scalar path and in epoch replay.

    The geometry (2-set L1 and L2, a 1-set LLC) lets lines share the
    victim's LLC set without touching its L1/L2 sets, so the LLC evicts it
    while both upper copies are still resident.
    """

    OLD = b"\x0a" * 64
    NEW = b"\x0b" * 64

    @staticmethod
    def _config(tiny_config):
        return replace(tiny_config,
                       l1=CacheConfig("L1", 256, 2, 2),
                       l2=CacheConfig("L2", 512, 4, 20),
                       llc=CacheConfig("LLC", 1024, 16, 32))

    def _ops(self):
        ops = [("w", 0, self.OLD),
               # Two more even lines push line 0 out of L1: its dirty copy
               # merges into L2.
               ("r", 128, None), ("r", 256, None),
               # The L2 hit refills L1, and the newer write dirties it there.
               ("w", 0, self.NEW)]
        # Odd lines fill the LLC's only set; the 14th evicts line 0, the
        # LLC's least recently used line.
        ops += [("r", (2 * k + 1) * 64, None) for k in range(14)]
        return ops + [("r", 0, None)]

    def test_scalar_path_writes_back_the_l1_copy(self, tiny_config):
        hierarchy = CacheHierarchy(self._config(tiny_config))
        memory = _OrderedMemory()
        hierarchy.attach(memory.fetch, memory.writeback)
        ops = self._ops()
        for kind, address, data in ops[:-1]:
            if kind == "w":
                hierarchy.write(address, data)
            else:
                hierarchy.read(address)
        assert not hierarchy.llc.contains(0)
        assert memory.store[0] == self.NEW
        assert hierarchy.read(0) == self.NEW

    def test_epoch_replay_writes_back_the_l1_copy(self, tiny_config):
        hierarchy = CacheHierarchy(self._config(tiny_config))
        memory = _OrderedMemory()
        mem_ops, fills = hierarchy.replay_epoch(self._ops())
        fetched = []
        for kind, address, data in mem_ops:
            if kind == "r":
                fetched.append(memory.fetch(address))
            else:
                memory.writeback(address, data)
        hierarchy.resolve_pending(fills, fetched)
        assert ("w", 0, self.NEW) in memory.calls
        assert fetched[-1] == self.NEW
        assert hierarchy.read(0) == self.NEW
