"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.caches.sram import SetAssociativeCache
from repro.core.frontend import FrontendResult
from repro.core.metrics import miss_coverage, mpki
from repro.isa.instruction import (
    BLOCK_SIZE_BYTES,
    INSTRUCTIONS_PER_BLOCK,
    block_address,
    block_offset,
)
from repro.branch.ras import ReturnAddressStack
from repro.prefetch.shift import ShiftConfig, ShiftHistory

aligned_addresses = st.integers(min_value=0, max_value=2**40).map(lambda value: value * 4)


class TestAddressProperties:
    @given(aligned_addresses)
    def test_block_address_is_aligned_and_contains_address(self, address):
        base = block_address(address)
        assert base % BLOCK_SIZE_BYTES == 0
        assert base <= address < base + BLOCK_SIZE_BYTES

    @given(aligned_addresses)
    def test_block_decomposition_roundtrips(self, address):
        assert block_address(address) + block_offset(address) * 4 == address

    @given(aligned_addresses)
    def test_block_offset_in_range(self, address):
        assert 0 <= block_offset(address) < INSTRUCTIONS_PER_BLOCK


class TestCacheProperties:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200),
        sets=st.sampled_from([1, 2, 4, 8]),
        ways=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, keys, sets, ways):
        cache = SetAssociativeCache(sets=sets, ways=ways)
        for key in keys:
            cache.insert(key)
        assert len(cache) <= cache.capacity
        # Every inserted key is either resident or was evicted — the most
        # recently inserted key is always resident.
        assert cache.contains(keys[-1])

    @given(keys=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_fully_associative_keeps_most_recent_distinct_keys(self, keys):
        ways = 4
        cache = SetAssociativeCache(sets=1, ways=ways)
        for key in keys:
            cache.insert(key)
        distinct_recent = []
        for key in reversed(keys):
            if key not in distinct_recent:
                distinct_recent.append(key)
            if len(distinct_recent) == ways:
                break
        for key in distinct_recent:
            assert cache.contains(key)

    @given(keys=st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_stats_balance(self, keys):
        cache = SetAssociativeCache(sets=4, ways=2)
        for key in keys:
            cache.access(key)
            cache.insert(key)
        assert cache.stats.lookups == cache.stats.hits + cache.stats.misses
        assert cache.stats.lookups == len(keys)


class TestRASProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_pop_returns_lifo_suffix_within_capacity(self, addresses):
        ras = ReturnAddressStack(entries=16)
        for address in addresses:
            ras.push(address)
        expected = addresses[-16:][::-1]
        popped = [ras.pop() for _ in range(len(expected))]
        assert popped == expected


class TestShiftHistoryProperties:
    @given(st.lists(st.integers(min_value=0, max_value=63).map(lambda b: b * 64),
                    min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_index_always_points_at_block(self, blocks):
        history = ShiftHistory(ShiftConfig(history_entries=64))
        for block in blocks:
            history.record(block)
        for block in set(blocks):
            position = history.lookup(block)
            if position is not None:
                assert history._buffer[position] == block

    @given(st.lists(st.integers(min_value=0, max_value=31).map(lambda b: b * 64),
                    min_size=2, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_read_stream_reproduces_recorded_successors(self, blocks):
        history = ShiftHistory(ShiftConfig(history_entries=1024))
        for block in blocks:
            history.record(block)
        # The most recent occurrence of blocks[-2] is followed by blocks[-1]
        # unless blocks[-2] also equals blocks[-1] (then it is the last entry).
        position = history.lookup(blocks[-2])
        stream = history.read_stream(position, 1)
        if blocks[-2] != blocks[-1]:
            assert stream == [blocks[-1]]


class TestMetricProperties:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**7))
    def test_mpki_non_negative_and_linear(self, misses, instructions):
        assert mpki(misses, instructions) >= 0
        assert mpki(2 * misses, instructions) == 2 * mpki(misses, instructions)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    def test_miss_coverage_bounded_above_by_one(self, baseline, design):
        assert miss_coverage(baseline, design) <= 1.0

    @given(st.floats(min_value=1, max_value=1e6), st.floats(min_value=1, max_value=1e6))
    def test_speedup_antisymmetry(self, a, b):
        first = FrontendResult("first", "w", instructions=1000, base_cycles=a)
        second = FrontendResult("second", "w", instructions=1000, base_cycles=b)
        product = first.speedup_over(second) * second.speedup_over(first)
        assert product == __import__("pytest").approx(1.0)
