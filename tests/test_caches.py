"""Tests for the cache substrate (generic SRAM, L1-I, LLC)."""

import pytest

from repro.caches import (
    InstructionCache,
    L1IConfig,
    LLCConfig,
    SetAssociativeCache,
    SharedLLC,
)


class TestSetAssociativeCache:
    def test_capacity(self):
        cache = SetAssociativeCache(sets=4, ways=2)
        assert cache.capacity == 8

    def test_requires_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(sets=3, ways=2)

    def test_hit_and_miss_statistics(self):
        cache = SetAssociativeCache(sets=2, ways=2)
        cache.insert(0)
        assert cache.lookup(0) is None  # present, but no payload stored
        hit, _ = cache.access(0)
        assert hit
        hit, _ = cache.access(4)
        assert not hit
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1)
        cache.insert(2)
        cache.access(1)          # 2 becomes LRU
        evicted = cache.insert(3)
        assert evicted == (2, None)
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_insert_returns_the_victims_key_and_payload(self):
        cache = SetAssociativeCache(sets=1, ways=1)
        assert cache.insert(1, "a") is None
        assert cache.insert(2, "b") == (1, "a")

    def test_reinsert_refreshes_without_eviction(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "old")
        cache.insert(2)
        assert cache.insert(1, "new") is None
        assert cache.peek(1) == "new"

    def test_invalidate_and_occupancy(self):
        cache = SetAssociativeCache(sets=2, ways=2)
        cache.insert(0)
        cache.insert(1)
        assert len(cache) == 2
        assert cache.invalidate(0)
        assert not cache.invalidate(0)
        assert len(cache) == 1

    def test_index_shift_spreads_aligned_keys(self):
        cache = SetAssociativeCache(sets=4, ways=1, index_shift=6)
        for block in range(4):
            cache.insert(block * 64)
        assert len(cache) == 4  # each lands in its own set

    def test_touch_and_clear(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1)
        cache.insert(2)
        assert cache.touch(1)
        cache.insert(3)
        assert cache.contains(1)
        cache.clear()
        assert len(cache) == 0


class _Listener:
    def __init__(self):
        self.fills = []
        self.evictions = []

    def on_block_fill(self, block, demand):
        self.fills.append((block, demand))

    def on_block_evict(self, block):
        self.evictions.append(block)


class TestInstructionCache:
    def test_geometry_matches_table1(self):
        config = L1IConfig()
        assert config.block_count == 512
        assert config.sets == 128

    @pytest.mark.parametrize("config", [L1IConfig, LLCConfig])
    def test_block_size_is_not_a_knob(self, config):
        # The cache keys 64 B blocks whatever the config says, so a
        # block_bytes field could only mis-size the cache.
        with pytest.raises(TypeError):
            config(block_bytes=128)

    def test_access_does_not_fill(self):
        l1i = InstructionCache()
        assert not l1i.access(0x1000)
        assert not l1i.contains(0x1000)

    def test_fill_and_hit(self):
        l1i = InstructionCache()
        l1i.fill(0x1000)
        assert l1i.access(0x1004)  # same block

    def test_fill_listeners_observe_fills_and_evictions(self):
        l1i = InstructionCache(L1IConfig(size_bytes=4 * 64, associativity=1))
        listener = _Listener()
        l1i.add_listener(listener)
        for index in range(5):
            l1i.fill(index * 64 * 4, demand=(index % 2 == 0))  # map to same set
        assert len(listener.fills) == 5
        assert len(listener.evictions) >= 1

    def test_fill_counters_distinguish_demand_and_prefetch(self):
        l1i = InstructionCache()
        l1i.fill(0x0, demand=True)
        l1i.fill(0x40, demand=False)
        assert l1i.demand_fills == 1
        assert l1i.prefetch_fills == 1

    def test_refill_of_resident_block_is_not_counted(self):
        l1i = InstructionCache()
        l1i.fill(0x0)
        l1i.fill(0x0)
        assert l1i.demand_fills == 1

    def test_invalidate_notifies_listeners(self):
        l1i = InstructionCache()
        listener = _Listener()
        l1i.add_listener(listener)
        l1i.fill(0x1000)
        assert l1i.invalidate(0x1000)
        assert listener.evictions == [0x1000]

    def test_capacity_is_bounded(self, tiny_trace):
        l1i = InstructionCache()
        for record in tiny_trace.records:
            for block in record.blocks():
                l1i.fill(block)
        assert len(l1i) <= l1i.block_capacity


class TestGeometryCounts:
    @pytest.mark.parametrize(
        "config_class, field, value, minimum",
        [
            # associativity=0 used to raise ZeroDivisionError; a slice of
            # -1 KB built an LLC of -256 blocks, and a bank latency of -6
            # silently shortened the round trip to 12 cycles.
            (L1IConfig, "size_bytes", 0, 1),
            (L1IConfig, "size_bytes", 32768.0, 1),
            (L1IConfig, "associativity", 0, 1),
            (L1IConfig, "associativity", True, 1),
            (LLCConfig, "slice_kb_per_core", -1, 1),
            (LLCConfig, "cores", 0, 1),
            (LLCConfig, "mesh_dimension", 0, 1),
            (LLCConfig, "bank_hit_latency_cycles", -6, 1),
            (LLCConfig, "mesh_hop_cycles", -1, 0),
            (LLCConfig, "mesh_hop_cycles", 3.0, 0),
        ],
    )
    def test_invalid_counts_rejected(self, config_class, field, value, minimum):
        with pytest.raises(
            ValueError, match=f"^{field} must be an int >= {minimum}, got {value!r}$"
        ):
            config_class(**{field: value})

    def test_smallest_counts_accepted(self):
        assert L1IConfig(size_bytes=64, associativity=1).block_count == 1
        llc = LLCConfig(
            slice_kb_per_core=1, cores=1, mesh_dimension=1,
            bank_hit_latency_cycles=1, mesh_hop_cycles=0,
        )
        assert llc.total_blocks == 16
        assert llc.round_trip_latency_cycles == 1


class TestSharedLLC:
    def test_round_trip_latency_is_positive_and_stable(self):
        llc = SharedLLC()
        assert llc.round_trip_latency_cycles > LLCConfig().bank_hit_latency_cycles
        assert llc.round_trip_latency_cycles == llc.round_trip_latency_cycles

    def test_total_capacity(self):
        config = LLCConfig(slice_kb_per_core=512, cores=16)
        assert config.total_bytes == 8 * 1024 * 1024
        assert config.total_blocks == 131072

    def test_reserve_region_accounting(self):
        llc = SharedLLC()
        region = llc.reserve_region("history", 1000)
        assert region.blocks == 1000
        assert llc.reserved_blocks == 1000

    def test_reserve_beyond_capacity_rejected(self):
        llc = SharedLLC(LLCConfig(slice_kb_per_core=64, cores=1))
        with pytest.raises(ValueError):
            llc.reserve_region("too_big", llc.config.total_blocks + 1)

    def test_metadata_accesses_tracked(self):
        llc = SharedLLC()
        llc.reserve_region("meta", 10)
        llc.read_metadata("meta")
        llc.write_metadata("meta", blocks=2)
        assert llc.region("meta").reads == 1
        assert llc.region("meta").writes == 2
        assert llc.metadata_reads == 1
        assert llc.metadata_writes == 2

    def test_instruction_fetch_counted(self):
        llc = SharedLLC()
        latency = llc.fetch_instruction_block(0x1000)
        assert latency == llc.round_trip_latency_cycles
        assert llc.instruction_reads == 1

