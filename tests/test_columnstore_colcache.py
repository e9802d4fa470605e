"""The decoded-column cache's admission and eviction policy.

The cache ranks every entry by the age of its block's data, ``(max_time,
uid, name)``, and always evicts the lowest rank.  A candidate that could
only fit by evicting newer data is refused before anything moves.  These
tests hold that policy to a small reference model, to the scan it exists
to survive, and to the tracker's ``"cache"`` region; the last class holds
the narrow dictionary-code dtypes the cache charges for.
"""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.colcache import CACHE_REGION, DecodedColumnCache
from repro.columnstore.leafmap import LeafMap
from repro.compression.decoded import DecodedColumn
from repro.query.execute import execute_on_leaf, execute_on_leaf_rows
from repro.query.query import Aggregation, Filter, Query
from repro.util.clock import ManualClock
from repro.util.memtrack import MemoryTracker

_UIDS = itertools.count(1)


class Block:
    """What the cache reads of a row block: ``uid``, ``max_time`` and a
    decode whose size depends only on the column name."""

    def __init__(self, max_time: int, sizes: dict[str, int]):
        self.uid = next(_UIDS)
        self.max_time = max_time
        self.sizes = sizes

    def decoded_column(self, name: str) -> DecodedColumn:
        return DecodedColumn.numeric(np.zeros(self.sizes[name] // 8, dtype=np.int64))


def fill(cache: DecodedColumnCache, blocks: list[Block]) -> None:
    """Look each block's columns up one block at a time."""
    for block in blocks:
        for name in block.sizes:
            cache.get_many([block], name)


def balanced(cache: DecodedColumnCache, tracker: MemoryTracker) -> bool:
    return tracker.in_region(CACHE_REGION) == cache.nbytes == cache.stats().nbytes


class TestScanResistance:
    def test_cyclic_scan_keeps_the_newest_blocks(self):
        """A full scan at 4x the cap, with a newest-block query between
        scans: the query hits after its first miss, and the scan keeps a
        fixed quarter of itself instead of flushing everything."""
        blocks = [Block(t, {"endpoint": 64, "latency": 512}) for t in range(32)]
        working_set = sum(sum(b.sizes.values()) for b in blocks)
        cache = DecodedColumnCache(working_set // 4)
        newest = blocks[-1]
        newest_misses = []
        scan_hits = scan_lookups = 0
        for cycle in range(6):
            before = cache.stats()
            fill(cache, blocks)
            after = cache.stats()
            if cycle:
                scan_hits += after.hits - before.hits
                scan_lookups += (after.hits + after.misses) - (before.hits + before.misses)
            fill(cache, [newest])
            newest_misses.append(cache.stats().misses - after.misses)
        assert newest_misses[1:] == [0] * 5
        assert scan_hits / scan_lookups >= cache.capacity_bytes / working_set - 0.05
        # What stays is the newest data: the oldest block kept is newer
        # than every block dropped.
        kept = [b for b in blocks if cache.get(b, "latency") is not None]
        assert kept == blocks[-len(kept):]

    def test_refused_candidate_changes_nothing(self):
        tracker = MemoryTracker()
        cache = DecodedColumnCache(256, tracker=tracker)
        fill(cache, [Block(t, {"a": 64}) for t in (10, 11, 12, 13)])
        before = cache.stats()
        region = tracker.in_region(CACHE_REGION)
        old = Block(5, {"a": 64})
        (decoded,) = cache.get_many([old], "a")
        assert len(decoded) == 8  # the caller still gets its answer
        after = cache.stats()
        assert after.refused == before.refused + 1
        assert (after.nbytes, after.evictions, after.entries) == (
            before.nbytes,
            before.evictions,
            before.entries,
        )
        assert tracker.in_region(CACHE_REGION) == region
        assert cache.get(old, "a") is None

    def test_candidate_that_would_evict_newer_data_is_refused(self):
        """Older entries are evicted only if they alone make the room."""
        cache = DecodedColumnCache(128)
        small_old, big_new = Block(1, {"a": 16}), Block(3, {"a": 112})
        fill(cache, [small_old, big_new])
        cache.get_many([Block(2, {"a": 64})], "a")
        stats = cache.stats()
        assert (stats.refused, stats.evictions, stats.entries) == (1, 0, 2)
        # Newer than everything: the oldest entries go, oldest first.
        cache.get_many([Block(4, {"a": 64})], "a")
        assert cache.get(small_old, "a") is None and cache.get(big_new, "a") is None
        assert cache.stats().evictions == 2

    def test_empty_cache_admits_anything_that_fits(self):
        cache = DecodedColumnCache(64)
        fill(cache, [Block(0, {"a": 64})])
        assert (len(cache), cache.stats().refused) == (1, 0)


class TestRanks:
    def test_invalidate_then_evict(self):
        tracker = MemoryTracker()
        cache = DecodedColumnCache(4 * 96, tracker=tracker)
        blocks = [Block(t, {"a": 32, "b": 64}) for t in range(4)]
        fill(cache, blocks)
        assert cache.invalidate_blocks([blocks[0].uid, blocks[2].uid]) == 192
        assert len(cache._ranks) == len(cache) == 4
        # Three newer blocks need one block's room: the oldest live one,
        # not a rank the invalidation left behind, is the victim.
        fill(cache, [Block(10 + t, {"a": 32, "b": 64}) for t in range(3)])
        assert cache.stats().evictions == 2
        assert cache.get(blocks[1], "a") is None and cache.get(blocks[1], "b") is None
        assert cache.get(blocks[3], "a") is not None
        assert len(cache._ranks) == len(cache) == 8
        assert balanced(cache, tracker)

    def test_clear_empties_the_ranks(self):
        tracker = MemoryTracker()
        cache = DecodedColumnCache(128, tracker=tracker)
        fill(cache, [Block(t, {"a": 64}) for t in (5, 6)])
        assert cache.clear() == 128
        assert cache._ranks == [] and len(cache) == 0
        assert balanced(cache, tracker)
        # An empty cache refuses nothing, however old the data.
        fill(cache, [Block(0, {"a": 64})])
        assert (len(cache), cache.stats().refused) == (1, 0)


class TestGetMany:
    def test_counts_equal_one_get_per_block(self):
        blocks = [Block(t, {"a": 64, "b": 32}) for t in range(6)]
        caches = [DecodedColumnCache(1 << 20) for _ in range(2)]
        for cache in caches:
            fill(cache, blocks[::2])
        run, twin = caches
        for name in "ab":
            decoded = run.get_many(blocks, name)
            assert [len(d) for d in decoded] == [b.sizes[name] // 8 for b in blocks]
            for block in blocks:
                twin.get(block, name)
        got, expected = run.stats(), twin.stats()
        assert (got.hits, got.misses, got.column_lookups) == (
            expected.hits,
            expected.misses,
            expected.column_lookups,
        )
        # fill: 3 blocks x 2 columns missed; then per column 3 hits, 3 misses
        assert (got.hits, got.misses) == (6, 6 + 6)
        assert run.get_many([], "a") == [] and run.stats().column_lookups["a"] == 9

    def test_hits_come_back_as_cached_in_block_order(self):
        cache = DecodedColumnCache(1 << 20)
        blocks = [Block(t, {"a": 8 * (t + 1)}) for t in range(4)]
        fill(cache, blocks[1:3])
        cached = [cache.get(b, "a") for b in blocks[1:3]]
        decoded = cache.get_many(blocks, "a")
        assert decoded[1:3] == cached and all(a is b for a, b in zip(decoded[1:3], cached))
        assert [len(d) for d in decoded] == [1, 2, 3, 4]

    def test_full_cache_refuses_the_runs_oldest_miss(self):
        """Newest first: the run's newer miss takes the free room and its
        older miss is refused, where one block at a time would have let
        the older one in and then evicted it for the newer."""
        tracker = MemoryTracker()
        cache = DecodedColumnCache(128, tracker=tracker)
        kept = Block(5, {"a": 64})
        fill(cache, [kept])
        old, newer = Block(1, {"a": 64}), Block(3, {"a": 64})
        cache.get_many([old, newer], "a")
        stats = cache.stats()
        assert (stats.refused, stats.evictions, stats.entries) == (1, 0, 2)
        assert cache.get(old, "a") is None
        assert cache.get(kept, "a") is not None and cache.get(newer, "a") is not None
        assert balanced(cache, tracker)
        # One block at a time, the same lookups cost an eviction.
        twin = DecodedColumnCache(128)
        fill(twin, [kept, old, newer])
        assert (twin.stats().refused, twin.stats().evictions) == (0, 1)

    def test_tracker_charges_balance_through_evictions(self):
        tracker = MemoryTracker()
        cache = DecodedColumnCache(5 * 64, tracker=tracker)
        for start in range(0, 24, 3):
            run = [Block(start + k, {"a": 64, "b": 32}) for k in range(3)]
            for name in "ab":
                cache.get_many(run, name)
                assert balanced(cache, tracker)
                assert cache.nbytes <= cache.capacity_bytes
        assert cache.stats().evictions > 0
        cache.clear()
        assert tracker.in_region(CACHE_REGION) == 0


class Model:
    """The policy restated from scratch: keep entries in a dict, sort
    them afresh on every admission, evict older ones until the
    candidate fits or only newer ones are left."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: dict[tuple[int, str], tuple[int, int]] = {}  # key -> (max_time, size)
        self.hits = self.misses = self.evictions = self.refused = 0

    def rank(self, key):
        return (self.entries[key][0], *key)

    def get_many(self, blocks: list[Block], name: str) -> None:
        """Look every block up, then admit the misses newest first."""
        missing = [block for block in blocks if (block.uid, name) not in self.entries]
        self.hits += len(blocks) - len(missing)
        self.misses += len(missing)
        for block in sorted(missing, key=lambda b: (b.max_time, b.uid), reverse=True):
            self.admit(block, name)

    def admit(self, block: Block, name: str) -> None:
        key = (block.uid, name)
        if key in self.entries:
            return
        size = block.sizes[name]
        if size > self.capacity:
            return
        candidate = (block.max_time, *key)
        excess = sum(s for _, s in self.entries.values()) + size - self.capacity
        victims = []
        for old in sorted(self.entries, key=self.rank):
            if excess <= 0 or self.rank(old) > candidate:
                break
            victims.append(old)
            excess -= self.entries[old][1]
        if excess > 0:
            self.refused += 1
            return
        for old in victims:
            del self.entries[old]
        self.evictions += len(victims)
        self.entries[key] = (block.max_time, size)

    def invalidate(self, uids) -> None:
        self.entries = {k: v for k, v in self.entries.items() if k[0] not in uids}


OPS = st.one_of(
    st.tuples(
        st.just("get"),
        st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
        st.sampled_from("ab"),
    ),
    st.tuples(st.just("invalidate"), st.sets(st.integers(0, 5), max_size=3)),
    st.tuples(st.just("clear")),
)


class TestAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(0, 200),
        times=st.lists(st.integers(0, 3), min_size=6, max_size=6),
        sizes=st.lists(st.sampled_from([8, 16, 40, 64]), min_size=12, max_size=12),
        ops=st.lists(OPS, max_size=40),
    )
    def test_same_entries_and_counters(self, capacity, times, sizes, ops):
        blocks = [
            Block(t, {"a": sizes[2 * i], "b": sizes[2 * i + 1]}) for i, t in enumerate(times)
        ]
        tracker = MemoryTracker()
        cache = DecodedColumnCache(capacity, tracker=tracker)
        model = Model(capacity)
        for op in ops:
            if op[0] == "get":
                run = [blocks[i] for i in op[1]]
                cache.get_many(run, op[2])
                model.get_many(run, op[2])
            elif op[0] == "invalidate":
                uids = {blocks[i].uid for i in op[1]}
                cache.invalidate_blocks(uids)
                model.invalidate(uids)
            else:
                cache.clear()
                model.entries.clear()
            present = {
                (b.uid, name) for b in blocks for name in "ab" if (b.uid, name) in cache._entries
            }
            assert present == set(model.entries)
            stats = cache.stats()
            assert (stats.hits, stats.misses, stats.evictions, stats.refused) == (
                model.hits,
                model.misses,
                model.evictions,
                model.refused,
            )
            assert stats.nbytes == sum(size for _, size in model.entries.values())
            assert tracker.in_region(CACHE_REGION) == cache.nbytes
            assert len(cache._ranks) == len(cache)


class TestThreads:
    def test_concurrent_lookups_invalidations_and_clears(self):
        tracker = MemoryTracker()
        cache = DecodedColumnCache(1024, tracker=tracker)
        blocks = [Block(t % 7, {"a": 64, "b": 136}) for t in range(24)]
        errors = []

        def reader(offset):
            try:
                for i in range(400):
                    run = [blocks[(offset + 5 * i + k) % len(blocks)] for k in range(i % 4 + 1)]
                    name = "ab"[i % 2]
                    for block, decoded in zip(run, cache.get_many(run, name)):
                        assert decoded.nbytes == block.sizes[name]
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        def churner():
            try:
                for i in range(200):
                    if i % 10 == 9:
                        cache.clear()
                    else:
                        cache.invalidate_blocks([blocks[(3 * i) % len(blocks)].uid])
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(3)]
        threads.append(threading.Thread(target=churner))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert balanced(cache, tracker)
        assert cache.nbytes <= cache.capacity_bytes
        assert sum(entry.nbytes for entry in cache._entries.values()) == cache.nbytes
        assert len(cache._ranks) == len(cache)
        cache.clear()
        assert tracker.in_region(CACHE_REGION) == 0


def string_map(kind: str, n_entries: int, cache=None) -> LeafMap:
    """One sealed block whose ``s`` column has ``n_entries`` distinct
    strings: dictionary-encoded (each repeated), raw (each once) or as
    vector items."""
    rows = n_entries if kind == "raw" else 4 * n_entries
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=rows, column_cache=cache)
    table = leafmap.get_or_create("t")
    values = [f"v{i % n_entries}" for i in range(rows)]
    table.add_rows(
        {
            "time": 100 + i,
            "s": [value, "v0"] if kind == "vector" else value,
            "x": float(i % 13),
        }
        for i, value in enumerate(values)
    )
    return leafmap


def string_queries(kind: str, n_entries: int) -> list[Query]:
    last = f"v{n_entries - 1}"
    if kind == "vector":
        return [
            Query("t", filters=(Filter("s", "contains", last),)),
            Query("t", filters=(Filter("s", "contains", "v0"),), group_by=("x",)),
        ]
    return [
        Query("t", aggregations=(Aggregation("count"), Aggregation("sum", "x")), group_by=("s",)),
        Query("t", filters=(Filter("s", "eq", last),)),
        Query("t", filters=(Filter("s", "ge", "v2"),), group_by=("s",)),
    ]


class TestNarrowCodes:
    @pytest.mark.parametrize("kind", ["dict", "raw", "vector"])
    @pytest.mark.parametrize(
        "n_entries, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)]
    )
    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_dtype_and_answers(self, kind, n_entries, dtype, cached):
        cache = DecodedColumnCache(1 << 20) if cached else None
        leafmap = string_map(kind, n_entries, cache)
        (block,) = leafmap.get_table("t").blocks
        decoded = block.decoded_column("s")
        assert len(decoded.entries) == n_entries
        assert decoded.codes.dtype == dtype
        assert decoded.codes.flags.owndata
        for query in string_queries(kind, n_entries):
            fast = execute_on_leaf(leafmap, query)
            slow = execute_on_leaf_rows(leafmap, query)
            assert fast.rows_matched == slow.rows_matched
            assert fast.partial.keys() == slow.partial.keys()
            for key in slow.partial:
                assert [s.to_dict() for s in fast.partial[key]] == [
                    s.to_dict() for s in slow.partial[key]
                ]
        if cached:
            assert cache.get(block, "s").codes.dtype == dtype

    def test_cache_charges_one_byte_a_row(self):
        """A 512-row column of 8 endpoints is charged its 512 code bytes
        plus the entries, not 4 KiB of int64 ids."""
        cache = DecodedColumnCache(1 << 20)
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=512, column_cache=cache)
        table = leafmap.get_or_create("t")
        table.add_rows({"time": 100 + i, "s": f"/api/{i % 8}"} for i in range(512))
        (block,) = table.blocks
        (decoded,) = cache.get_many([block], "s")
        assert cache.nbytes == decoded.nbytes == 512 + sum(len(e) + 50 for e in decoded.entries)
