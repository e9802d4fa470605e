"""Vectorized execution: kernels, the decoded-column cache, and the
row-path differential oracle.

The contract under test: for any query, :func:`execute_on_leaf` (the
vectorized default) and :func:`execute_on_leaf_rows` (the original
row-at-a-time loop) produce equal partials, equal scan statistics, and
equal errors — and the cache never changes an answer, only its cost.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.colcache import CACHE_REGION, DecodedColumnCache
from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod
from repro.disk.backup import DiskBackup
from repro.errors import QueryError
from repro.query import execute as execute_module
from repro.query import kernels
from repro.query.aggregate import (
    merge_leaf_results,
    merge_partials,
    partial_from_wire,
    partial_to_wire,
)
from repro.query.execute import (
    execute_on_leaf,
    execute_on_leaf_rows,
    rows_in_time_range,
)
from repro.query.query import Aggregation, Filter, Query
from repro.server.leaf import LeafServer
from repro.util.clock import ManualClock
from repro.util.memtrack import MemoryTracker

ROWS_PER_BLOCK = 25
BIG = 2**53


def make_map(rows=120, rows_per_block=ROWS_PER_BLOCK, cache=None):
    """Mixed-type table: several sealed blocks plus a buffer remainder."""
    leafmap = LeafMap(
        clock=ManualClock(0.0), rows_per_block=rows_per_block, column_cache=cache
    )
    table = leafmap.get_or_create("service_requests")
    table.add_rows(
        {
            "time": 1000 + i,
            "endpoint": f"/api/{i % 5}",
            "latency": float(i % 90) + 0.25,
            "status": 200 if i % 7 else 503,
            "tags": ["prod"] + (["canary"] if i % 3 == 0 else []),
            # Neighbours float64 cannot tell apart.
            "big": BIG + i % 2,
        }
        for i in range(rows)
    )
    return leafmap


def assert_equivalent(leafmap, query):
    """Vectorized and row-path executions agree on everything."""
    fast = execute_on_leaf(leafmap, query)
    slow = execute_on_leaf_rows(leafmap, query)
    assert fast.blocks_pruned == slow.blocks_pruned
    assert fast.rows_scanned == slow.rows_scanned
    assert fast.rows_matched == slow.rows_matched
    merged_fast = merge_leaf_results(query, [fast.partial], 1)
    merged_slow = merge_leaf_results(query, [slow.partial], 1)
    assert [r.group for r in merged_fast.rows] == [
        r.group for r in merged_slow.rows
    ]
    for lhs, rhs in zip(merged_fast.rows, merged_slow.rows):
        for label, value in rhs.values.items():
            got = lhs.values[label]
            if isinstance(value, float):
                # Block-partitioned float sums round differently in the
                # last bits than one sequential accumulation.
                assert got == pytest.approx(value, rel=1e-9, abs=1e-12), label
            else:
                assert got == value, label
    return fast, slow


class TestDifferentialExplicit:
    def test_count_only(self):
        fast, _ = assert_equivalent(make_map(), Query("service_requests"))
        assert fast.partial[()][0].count == 120

    def test_all_aggregations_grouped(self):
        query = Query(
            "service_requests",
            aggregations=(
                Aggregation("count"),
                Aggregation("sum", "latency"),
                Aggregation("avg", "latency"),
                Aggregation("min", "latency"),
                Aggregation("max", "latency"),
                Aggregation("p50", "latency"),
                Aggregation("p90", "latency"),
            ),
            group_by=("endpoint",),
        )
        assert_equivalent(make_map(), query)

    def test_filters_on_every_type(self):
        query = Query(
            "service_requests",
            filters=(
                Filter("status", "eq", 200),
                Filter("endpoint", "ne", "/api/3"),
                Filter("latency", "lt", 60.0),
                Filter("tags", "contains", "canary"),
            ),
        )
        fast, slow = assert_equivalent(make_map(), query)
        assert fast.rows_matched == slow.rows_matched > 0

    def test_in_filter_string_and_numeric(self):
        for filt in (
            Filter("endpoint", "in", ("/api/1", "/api/4", "/nope")),
            Filter("status", "in", (503, 999)),
            Filter("status", "in", ("not-a-status", 200)),
        ):
            assert_equivalent(
                make_map(), Query("service_requests", filters=(filt,))
            )

    def test_time_range_and_buckets(self):
        query = Query(
            "service_requests",
            start_time=1055,
            end_time=1090,
            bucket_seconds=30,
            group_by=("endpoint",),
        )
        fast, _ = assert_equivalent(make_map(), query)
        assert fast.blocks_pruned > 0

    def test_group_by_numeric_and_missing_column(self):
        query = Query(
            "service_requests",
            group_by=("status", "ghost"),
            aggregations=(Aggregation("count"), Aggregation("sum", "ghost")),
        )
        fast, _ = assert_equivalent(make_map(), query)
        assert all(key[1] is None for key in fast.partial)

    def test_filter_on_missing_column_matches_nothing(self):
        for op in ("eq", "ne", "lt", "in"):
            value = (1,) if op == "in" else 1
            query = Query(
                "service_requests", filters=(Filter("ghost", op, value),)
            )
            fast, slow = assert_equivalent(make_map(), query)
            assert fast.rows_matched == 0

    def test_contains_on_scalar_column_raises_identically(self):
        query = Query(
            "service_requests", filters=(Filter("status", "contains", "x"),)
        )
        with pytest.raises(QueryError) as fast_err:
            execute_on_leaf(make_map(), query)
        with pytest.raises(QueryError) as slow_err:
            execute_on_leaf_rows(make_map(), query)
        assert str(fast_err.value) == str(slow_err.value)

    def test_contains_on_string_column_raises_identically(self):
        query = Query(
            "service_requests", filters=(Filter("endpoint", "contains", "x"),)
        )
        with pytest.raises(QueryError) as fast_err:
            execute_on_leaf(make_map(), query)
        with pytest.raises(QueryError) as slow_err:
            execute_on_leaf_rows(make_map(), query)
        assert str(fast_err.value) == str(slow_err.value)

    def test_aggregating_string_column_raises_identically(self):
        query = Query(
            "service_requests", aggregations=(Aggregation("sum", "endpoint"),)
        )
        with pytest.raises(QueryError) as fast_err:
            execute_on_leaf(make_map(), query)
        with pytest.raises(QueryError) as slow_err:
            execute_on_leaf_rows(make_map(), query)
        assert str(fast_err.value) == str(slow_err.value)

    def test_group_by_vector_column_raises_identically(self):
        query = Query("service_requests", group_by=("tags",))
        with pytest.raises(TypeError):
            execute_on_leaf(make_map(), query)
        with pytest.raises(TypeError):
            execute_on_leaf_rows(make_map(), query)

    def test_int_column_against_float_comparand_compares_exactly(self):
        # int64 -> float64 merges 2**53 and 2**53 + 1; Python's int/float
        # comparison (the row path) does not.
        leafmap = make_map(8, rows_per_block=4)
        for filt, matched in (
            (Filter("big", "eq", float(BIG)), 4),
            (Filter("big", "ne", float(BIG)), 4),
            (Filter("big", "in", (float(BIG),)), 4),
            (Filter("big", "in", (0.5, float("nan"), 2.0**70, BIG + 1)), 4),
            (Filter("big", "gt", float(BIG)), 4),
            (Filter("big", "le", float(BIG)), 4),
            (Filter("big", "lt", float(BIG + 2)), 8),
            (Filter("status", "ge", 502.5), 2),
            (Filter("status", "lt", 502.5), 6),
            (Filter("status", "le", 200.5), 6),
            (Filter("status", "gt", 200.5), 2),
            (Filter("status", "eq", 200.5), 0),
            (Filter("status", "ne", 200.5), 8),
            (Filter("big", "lt", 2.0**63), 8),
            (Filter("big", "ge", -(2.0**63)), 8),
            (Filter("big", "gt", 2**70), 0),
            (Filter("big", "lt", float("inf")), 8),
            (Filter("big", "ge", float("-inf")), 8),
            (Filter("big", "ne", float("inf")), 8),
            (Filter("big", "le", float("nan")), 0),
            (Filter("big", "ne", float("nan")), 8),
        ):
            fast, _ = assert_equivalent(
                leafmap, Query("service_requests", filters=(filt,))
            )
            assert fast.rows_matched == matched, filt


FILTER_STRATEGY = st.one_of(
    st.builds(
        Filter,
        st.just("status"),
        st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
        st.sampled_from([200, 503, 300, 200.0, 502.5, float("inf")]),
    ),
    st.builds(
        Filter,
        st.just("big"),
        st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
        st.sampled_from(
            [BIG, BIG + 1, float(BIG), float(BIG + 2), 2.0**63, -1e300]
        ),
    ),
    st.builds(
        Filter,
        st.just("big"),
        st.just("in"),
        st.sets(
            st.sampled_from([BIG + 1, float(BIG), 0.5, 2.0**70, 2**70]), max_size=3
        ).map(tuple),
    ),
    st.builds(
        Filter,
        st.just("endpoint"),
        st.sampled_from(["eq", "ne", "lt", "ge"]),
        st.sampled_from(["/api/0", "/api/3", "/zzz"]),
    ),
    st.builds(
        Filter,
        st.just("endpoint"),
        st.just("in"),
        st.sets(
            st.sampled_from(["/api/0", "/api/1", "/api/2", "/nope"]), max_size=3
        ).map(tuple),
    ),
    st.builds(
        Filter,
        st.just("tags"),
        st.just("contains"),
        st.sampled_from(["prod", "canary", "absent"]),
    ),
    st.builds(
        Filter, st.just("ghost"), st.sampled_from(["eq", "ne"]), st.just(1)
    ),
)


QUERY_STRATEGY = dict(
    filters=st.lists(FILTER_STRATEGY, max_size=3).map(tuple),
    group_by=st.sets(
        st.sampled_from(["endpoint", "status", "ghost"]), max_size=2
    ).map(tuple),
    start=st.one_of(st.none(), st.integers(min_value=990, max_value=1130)),
    width=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    bucket=st.one_of(st.none(), st.sampled_from([7, 30, 60])),
    agg_column=st.sampled_from(["latency", "status", "ghost"]),
)


def build_query(filters, group_by, start, width, bucket, agg_column):
    end = None if (start is None or width is None) else start + width
    return Query(
        "service_requests",
        aggregations=(
            Aggregation("count"),
            Aggregation("sum", agg_column),
            Aggregation("min", agg_column),
            Aggregation("max", agg_column),
            Aggregation("p50", agg_column),
        ),
        group_by=group_by,
        filters=filters,
        start_time=start,
        end_time=end,
        bucket_seconds=bucket,
    )


class TestDifferentialProperty:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(min_value=1, max_value=130), **QUERY_STRATEGY)
    def test_row_and_vectorized_paths_agree(self, rows, **parts):
        """Property: the vectorized executor is indistinguishable from
        the row-at-a-time oracle on any query it can answer."""
        assert_equivalent(make_map(rows), build_query(**parts))


@st.composite
def gappy_rows(draw):
    """Rows each of which may omit any of ``g`` (str), ``n`` (int) and
    ``v`` (float)."""
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=60))):
        row = {"time": 1000 + i}
        if draw(st.booleans()):
            row["g"] = draw(st.sampled_from(["a", "b", ""]))
        if draw(st.booleans()):
            row["n"] = draw(st.integers(min_value=-3, max_value=3))
        if draw(st.booleans()):
            row["v"] = draw(st.sampled_from([0.1, 0.2, 1e16, -3.5, 0.0]))
        rows.append(row)
    return rows


class TestSealingMovesNoAnswer:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=gappy_rows(),
        rows_per_block=st.sampled_from([4, 25, 1000]),
        group_by=st.sets(st.sampled_from(["g", "n", "ghost"]), max_size=2).map(tuple),
        filters=st.lists(
            st.one_of(
                st.builds(Filter, st.just("g"), st.sampled_from(["eq", "ne"]), st.just("")),
                st.builds(Filter, st.just("v"), st.sampled_from(["lt", "ge"]), st.just(0.15)),
            ),
            max_size=1,
        ).map(tuple),
        start=st.one_of(st.none(), st.integers(min_value=995, max_value=1060)),
    )
    def test_partials_are_bit_identical_before_and_after_seal_all(
        self, rows, rows_per_block, group_by, filters, start
    ):
        """A buffered row that omits a column reads as it will seal — the
        type's default — so ``seal_all`` changes no partial, no scan
        count, on either executor (it used to read as absent: group key
        None, filter False, skipped by ``avg``)."""
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=rows_per_block)
        leafmap.get_or_create("t").add_rows(rows)
        query = Query(
            "t",
            aggregations=tuple(
                Aggregation(func, "v") for func in ("sum", "avg", "min", "max", "p50")
            )
            + (Aggregation("count"),),
            group_by=group_by,
            filters=filters,
            start_time=start,
        )
        executors = (execute_on_leaf, execute_on_leaf_rows)
        before = [executor(leafmap, query) for executor in executors]
        leafmap.seal_all()
        after = [executor(leafmap, query) for executor in executors]
        for old, new in zip(before, after):
            assert old.partial == new.partial
            assert (old.rows_scanned, old.rows_matched) == (new.rows_scanned, new.rows_matched)


def one_block_map(block):
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=10**6)
    leafmap.get_or_create("service_requests").replace_blocks([block])
    return leafmap


def assert_partition_invariant(leafmap, query):
    """The table's answer is each block's own answer — the block alone in
    a one-block table, then the write buffer alone — folded with
    ``AggState.merge`` in block order: bit for bit, whatever the runs."""
    table = leafmap.get_table("service_requests")
    parts = [execute_on_leaf(one_block_map(block), query) for block in table.blocks]
    buffer_only = LeafMap(clock=ManualClock(0.0), rows_per_block=10**6)
    buffer_only.get_or_create("service_requests").add_rows(table.iter_buffer_rows())
    parts.append(execute_on_leaf(buffer_only, query))
    whole = execute_on_leaf(leafmap, query)
    assert whole.partial == merge_partials(part.partial for part in parts)
    assert whole.rows_scanned == sum(part.rows_scanned for part in parts)
    assert whole.rows_matched == sum(part.rows_matched for part in parts)
    assert whole.blocks_pruned == sum(part.blocks_pruned for part in parts)
    return whole


def count_runs(monkeypatch):
    """Record the block count of every run the executor forms."""
    runs = []
    inner = execute_module._execute_run

    def recording(execution, query, blocks, cache):
        runs.append(len(blocks))
        inner(execution, query, blocks, cache)

    monkeypatch.setattr(execute_module, "_execute_run", recording)
    return runs


class TestRunAtATime:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=130),
        rows_per_block=st.sampled_from([1, 7, 64, 1000]),
        **QUERY_STRATEGY,
    )
    def test_partition_invariance(self, rows, rows_per_block, **parts):
        assert_partition_invariant(
            make_map(rows, rows_per_block=rows_per_block), build_query(**parts)
        )

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(min_value=1, max_value=130), **QUERY_STRATEGY)
    def test_run_cap_boundary_keeps_partition_invariance(self, rows, **parts):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(execute_module, "MAX_RUN_ROWS", 14)
            runs = count_runs(patch)
            whole = assert_partition_invariant(
                make_map(rows, rows_per_block=7), build_query(**parts)
            )
        # (the one-block reference executions are runs of one, too)
        unpruned = rows // 7 - whole.blocks_pruned
        assert runs.count(2) == unpruned // 2
        assert max(runs, default=0) <= 2

    def test_float_sums_fold_block_by_block_not_run_wide(self):
        # Values whose sum depends on the association order: one run-wide
        # accumulation would round differently from block sums folded in
        # block order, and move answers when a restart seals the buffer.
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=5)
        leafmap.get_or_create("service_requests").add_rows(
            {"time": 1000 + i, "latency": 0.1 * (i % 7) + 1e-9 * i, "endpoint": "ab"[i % 2]}
            for i in range(43)
        )
        query = Query(
            "service_requests",
            aggregations=(Aggregation("sum", "latency"), Aggregation("p90", "latency")),
            group_by=("endpoint",),
        )
        before = assert_partition_invariant(leafmap, query)
        leafmap.seal_all()
        assert execute_on_leaf(leafmap, query).partial == before.partial

    def make_dictionary_map(self):
        """Three blocks of one run whose dictionaries differ and overlap:
        {a, b}, then {b, c}, then nothing but empty values."""
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=4)
        table = leafmap.get_or_create("service_requests")
        for block, names in enumerate(["abab", "bccb", None]):
            table.add_rows(
                {
                    "time": 1000 + 4 * block + i,
                    "endpoint": names[i] if names else "",
                    "tags": [names[i], names[(i + 1) % 4]] if names else [],
                    "latency": float(4 * block + i),
                }
                for i in range(4)
            )
        assert table.blocks[2].decoded_column("tags").entries == ()
        return leafmap

    def test_blocks_with_different_dictionaries_group_in_one_id_space(self, monkeypatch):
        runs = count_runs(monkeypatch)
        query = Query(
            "service_requests",
            aggregations=(Aggregation("count"), Aggregation("sum", "latency")),
            group_by=("endpoint",),
        )
        fast, _ = assert_equivalent(self.make_dictionary_map(), query)
        assert runs == [3]
        assert {key: states[0].count for key, states in fast.partial.items()} == {
            ("a",): 2,
            ("b",): 4,
            ("c",): 2,
            ("",): 4,
        }
        assert fast.partial[("b",)][1].total == 1.0 + 3.0 + 4.0 + 7.0

    def test_blocks_with_different_dictionaries_filter_per_block(self):
        leafmap = self.make_dictionary_map()
        for filt, matched in (
            (Filter("endpoint", "eq", "b"), 4),
            (Filter("endpoint", "in", ("a", "c")), 4),
            (Filter("endpoint", "ge", "b"), 6),
            (Filter("tags", "contains", "b"), 7),
            (Filter("tags", "contains", "c"), 3),
            (Filter("tags", "contains", "z"), 0),
            (Filter("tags", "eq", []), 4),
        ):
            query = Query("service_requests", filters=(filt,), group_by=("endpoint",))
            fast, _ = assert_equivalent(leafmap, query)
            assert fast.rows_matched == matched, filt

    def make_evolving_map(self):
        """Five blocks of 4 rows: ``extra`` is absent in the middle block;
        ``shape`` is an INT64 column in blocks 0-2, a STRING column in 3-4."""
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=4)
        table = leafmap.get_or_create("service_requests")
        for block in range(5):
            for i in range(4):
                row = {
                    "time": 1000 + 4 * block + i,
                    "latency": 1.5 * i + block,
                    "shape": (block * 4 + i) % 3 if block < 3 else "xyz"[i % 3],
                }
                if block != 2:
                    row["extra"] = i % 2
                table.add_rows([row])
        return leafmap

    def test_schema_evolution_splits_runs(self, monkeypatch):
        runs = count_runs(monkeypatch)
        leafmap = self.make_evolving_map()
        absent_in_the_middle = Query(
            "service_requests",
            aggregations=(Aggregation("count"), Aggregation("sum", "extra")),
            group_by=("extra",),
        )
        fast, _ = assert_equivalent(leafmap, absent_in_the_middle)
        assert runs == [2, 1, 2]
        assert fast.partial[(None,)][0].count == 4
        assert_partition_invariant(leafmap, absent_in_the_middle)
        del runs[:]
        retyped = Query(
            "service_requests",
            aggregations=(Aggregation("avg", "latency"),),
            group_by=("shape",),
            filters=(Filter("shape", "ne", 1),),
        )
        fast, _ = assert_equivalent(leafmap, retyped)
        assert runs == [3, 2]
        assert set(fast.partial) == {(0,), (2,), ("x",), ("y",), ("z",)}
        del runs[:]
        # A query that names neither column sees one schema: one run.
        assert_equivalent(leafmap, Query("service_requests"))
        assert runs == [5]

    @pytest.mark.parametrize(
        "query, error",
        [
            # shape: fine while INT64, then str < int.
            (Query("service_requests", filters=(Filter("shape", "lt", 2),)), TypeError),
            # ... but summing it fails first (block 0) when both are asked.
            (
                Query(
                    "service_requests",
                    aggregations=(Aggregation("sum", "shape"),),
                    filters=(Filter("shape", "in", (0, 1, "x")),),
                ),
                QueryError,
            ),
            # No INT64 row passes the filter, so the first thing to fail is
            # the sum over the STRING blocks.
            (
                Query(
                    "service_requests",
                    aggregations=(Aggregation("sum", "shape"),),
                    filters=(Filter("shape", "eq", "y"),),
                ),
                QueryError,
            ),
            # The filter raises on block 3 before block 3's sum can.
            (
                Query(
                    "service_requests",
                    aggregations=(Aggregation("sum", "shape"),),
                    filters=(Filter("time", "ge", 1012), Filter("shape", "gt", 0)),
                ),
                TypeError,
            ),
        ],
    )
    def test_schema_evolution_raises_what_the_row_path_raises_first(self, query, error):
        leafmap = self.make_evolving_map()
        with pytest.raises(error) as fast_err:
            execute_on_leaf(leafmap, query)
        with pytest.raises(error) as slow_err:
            execute_on_leaf_rows(leafmap, query)
        assert str(fast_err.value) == str(slow_err.value)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        block_times=st.lists(
            st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        ),
    )
    def test_straddling_mask_over_the_run_equals_per_block_masks(self, data, block_times):
        """One time_mask over the straddling blocks' joined times, split
        back by block, selects what each block's own mask selects — with
        bounds on block edges, where a block flips between inside,
        straddling and pruned."""
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=10**6)
        table = leafmap.get_or_create("service_requests")
        for times in block_times:  # unsorted within a block: gaps and overlaps
            table.add_rows({"time": 1000 + t, "latency": float(t % 7)} for t in times)
            table.seal_buffer()
        edges = sorted(
            {1000 + t + d for times in block_times for t in (min(times), max(times)) for d in (0, 1)}
        )
        bound = st.one_of(st.none(), st.sampled_from(edges))
        start, end = data.draw(bound), data.draw(bound)
        query = Query(
            "service_requests",
            aggregations=(Aggregation("count"), Aggregation("sum", "latency")),
            start_time=start,
            end_time=end,
        )
        calls = []
        inner = kernels.time_mask

        def recording(times, start_time, end_time):
            calls.append(times.size)
            return inner(times, start_time, end_time)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "time_mask", recording)
            whole = assert_partition_invariant(leafmap, query)
            del calls[:]
            execute_on_leaf(leafmap, query)
        assert_equivalent(leafmap, query)
        straddling = [
            b for b in table.blocks if b.overlaps(start, end) and not b.within(start, end)
        ]
        assert calls == ([sum(b.row_count for b in straddling)] if straddling else [])
        per_block = sum(
            int(np.count_nonzero(inner(b.decoded_column("time").values, start, end)))
            for b in table.blocks
            if b.overlaps(start, end)
        )
        assert whole.rows_scanned == per_block

    def test_run_inside_the_range_without_filters_reads_every_row_in_place(self, monkeypatch):
        runs = count_runs(monkeypatch)
        leafmap = make_map(rows=100)
        leafmap.seal_all()
        query = Query(
            "service_requests",
            aggregations=(Aggregation("count"), Aggregation("avg", "latency")),
            group_by=("endpoint",),
            start_time=1000,
            end_time=1100,
        )
        selections = []
        factorize = kernels.factorize_column

        def recording(columns, sels, n_selected):
            selections.extend(sels)
            return factorize(columns, sels, n_selected)

        monkeypatch.setattr(kernels, "time_mask", None)  # a call would raise
        monkeypatch.setattr(kernels, "factorize_column", recording)
        fast = execute_on_leaf(leafmap, query)
        assert runs == [4]
        # No block is masked or gathered through an index array.
        assert len(selections) == 4 and all(sel is kernels.EVERY_ROW for sel in selections)
        assert fast.rows_scanned == fast.rows_matched == 100
        monkeypatch.undo()
        slow = execute_on_leaf_rows(leafmap, query)
        assert fast.partial == slow.partial
        assert_equivalent(leafmap, query)

    def test_aggregations_on_one_column_share_one_reduction(self, monkeypatch):
        widths = []
        inner = kernels.grouped_reduce

        def recording(gids, counts, block_of, columns):
            widths.append(len(columns))
            return inner(gids, counts, block_of, columns)

        monkeypatch.setattr(kernels, "grouped_reduce", recording)
        query = Query(
            "service_requests",
            aggregations=tuple(
                Aggregation(func, column)
                for func, column in (
                    ("avg", "latency"), ("p90", "latency"), ("sum", "status"), ("max", "latency")
                )
            ),
            group_by=("endpoint",),
        )
        leafmap = make_map()
        leafmap.seal_all()
        assert_equivalent(leafmap, query)
        assert widths == [2]  # latency and status, once each

    def test_cache_lookups_do_not_grow(self):
        cache = DecodedColumnCache(1 << 20)
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=4, column_cache=cache)
        # Blocks 0-5 hold times 1000+10b .. 1003+10b; block 6 straddles a
        # gap (1011, 1012, 1098, 1099), so a window inside the gap
        # overlaps its min/max yet selects none of its rows.
        times = [1000 + 10 * b + i for b in range(6) for i in range(4)]
        times += [1011, 1012, 1098, 1099]
        leafmap.get_or_create("service_requests").add_rows(
            {
                "time": t,
                "endpoint": f"/api/{t % 3}",
                "latency": float(t % 11),
                "status": 200 if t % 10 else 503,
            }
            for t in times
        )
        query = Query(
            "service_requests",
            aggregations=(Aggregation("avg", "latency"), Aggregation("p50", "latency")),
            group_by=("endpoint",),
            filters=(Filter("status", "eq", 200), Filter("latency", "lt", 100.0)),
            start_time=1020,
            end_time=1095,
        )
        for _ in range(2):  # cold, then warm: same lookups either way
            before = cache.stats().column_lookups
            execution = execute_on_leaf(leafmap, query)
            after = cache.stats().column_lookups
            lookups = {name: after[name] - before.get(name, 0) for name in after}
            assert execution.blocks_pruned == 2
            # Restated: time is looked up only on a block that straddles a
            # bound (the gap block 6; blocks 2-5 lie inside the range);
            # everything else: once per block whose time mask is non-empty,
            # although latency is a filter and two aggregations.
            assert lookups == {"time": 1, "status": 4, "latency": 4, "endpoint": 4}
        # A block no row of which survives the first filter is not asked
        # for its other columns.
        query = Query(
            "service_requests",
            aggregations=(Aggregation("sum", "latency"),),
            filters=(Filter("status", "eq", 503),),
            group_by=("endpoint",),
        )
        before = cache.stats().column_lookups
        execution = execute_on_leaf(leafmap, query)
        after = cache.stats().column_lookups
        assert execution.rows_matched == 6  # 1000 .. 1050; none in the gap block
        assert after["status"] - before["status"] == 7
        assert after["latency"] - before["latency"] == 6
        assert after["endpoint"] - before["endpoint"] == 6
        # count ignores its column: naming a real one decodes nothing, and
        # over the full range not even the time column.
        execute_on_leaf(
            leafmap, Query("service_requests", aggregations=(Aggregation("count", "status"),))
        )
        final = cache.stats().column_lookups
        assert {name: final[name] - after[name] for name in final} == {
            "time": 0,
            "status": 0,
            "latency": 0,
            "endpoint": 0,
        }


class TestCoveredBlocks:
    """A block whose min/max lie inside the query's range gets an all-true
    time mask without its time column; answers match the row oracle."""

    @staticmethod
    def decodes(query, times=range(1000, 1012), rows_per_block=4):
        """``(execution, time lookups)`` of ``query`` on a fresh cache;
        blocks of ``times`` hold [1000, 1003], [1004, 1007], [1008, 1011]."""
        cache = DecodedColumnCache(1 << 20)
        leafmap = LeafMap(
            clock=ManualClock(0.0), rows_per_block=rows_per_block, column_cache=cache
        )
        leafmap.get_or_create("service_requests").add_rows(
            {"time": t, "latency": float(t % 5)} for t in times
        )
        query = Query("service_requests", aggregations=(Aggregation("sum", "latency"),), **query)
        fast, _ = assert_equivalent(leafmap, query)
        return fast, cache.stats().column_lookups.get("time", 0)

    @pytest.mark.parametrize(
        "bounds, time_lookups",
        [
            ({"start_time": 1004, "end_time": 1008}, 0),  # min == start, max == end - 1
            ({"start_time": 1004, "end_time": 1007}, 1),  # max == end: straddles
            ({"start_time": 1005, "end_time": 1008}, 1),  # min < start: straddles
            ({"start_time": 1003, "end_time": 1009}, 2),  # both neighbours straddle
            ({"start_time": None, "end_time": 1008}, 0),  # open start
            ({"start_time": 1004, "end_time": None}, 0),  # open end
            ({"start_time": None, "end_time": 1006}, 1),
            ({"start_time": 1002, "end_time": None}, 1),
        ],
    )
    def test_bounds(self, bounds, time_lookups):
        assert self.decodes(bounds)[1] == time_lookups

    def test_buckets_still_decode_time(self):
        fast, lookups = self.decodes({"bucket_seconds": 4})
        assert lookups == 3
        assert len(fast.partial) == 3

    def test_full_range_count_decodes_nothing(self):
        cache = DecodedColumnCache(1 << 20)
        leafmap = make_map(rows=100, cache=cache)
        fast, _ = assert_equivalent(leafmap, Query("service_requests"))
        assert fast.rows_scanned == 100
        assert cache.stats().column_lookups == {}
        assert len(cache) == 0


FACTOR_SIZES = [1, 2, 3, 7, 256, 1 << 16, (1 << 16) + 1, 1 << 30]


@st.composite
def factor_sets(draw):
    """Random factorizations of a few rows: label counts around the
    dense threshold (2**16) and wide enough that three of them overflow
    int64; the codes leave most ids absent."""
    n_rows = draw(st.integers(min_value=0, max_value=40))
    factors = []
    for n_labels in draw(st.lists(st.sampled_from(FACTOR_SIZES), max_size=4)):
        pool = st.integers(min_value=0, max_value=n_labels - 1)
        # a few distinct codes, repeated, so ids recur and others are absent
        distinct = draw(st.lists(pool, min_size=1, max_size=4))
        codes = draw(st.lists(st.sampled_from(distinct), min_size=n_rows, max_size=n_rows))
        factors.append((np.array(codes, dtype=np.int64), range(10, 10 + n_labels)))
    return n_rows, factors


class TestCombineGroups:
    def test_mixed_radix_ids_decode_to_the_key_tuples(self):
        first = (np.array([1, 0, 1, 1, 0]), ["a", "b"])
        second = (np.array([2, 2, 0, 2, 2]), [10, 20, 30])
        gids, keys = kernels.combine_groups([first, second], 5)
        assert keys == [("a", 30), ("b", 10), ("b", 30)]
        assert gids.tolist() == [2, 0, 1, 2, 0]
        assert kernels.combine_groups([], 3)[1] == [()]

    def test_radix_product_beyond_int64_is_made_dense_first(self):
        # Three columns of 2**30 possible labels each: the plain product
        # (2**90) overflows; the ids still come out dense and right.
        wide = range(1 << 30)
        codes = [np.array(c) for c in ([7, 7, 5, 7], [1, 1 << 29, 1, 1], [3, 3, 3, 4])]
        gids, keys = kernels.combine_groups([(c, wide) for c in codes], 4)
        assert keys == [(5, 1, 3), (7, 1, 3), (7, 1, 4), (7, 1 << 29, 3)]
        assert gids.tolist() == [1, 3, 0, 2]

    @settings(max_examples=200, deadline=None)
    @given(factor_sets())
    def test_same_ids_and_keys_as_np_unique(self, factor_set):
        n_rows, factors = factor_set
        gids, keys = kernels.combine_groups(factors, n_rows)
        if not factors:
            assert keys == [()] and gids.tolist() == [0] * n_rows
            return
        stacked = np.stack([codes for codes, _ in factors], axis=1)
        uniq, inverse = np.unique(stacked, axis=0, return_inverse=True)
        assert gids.tolist() == inverse.ravel().tolist()
        assert keys == [
            tuple(labels[code] for (_, labels), code in zip(factors, row)) for row in uniq.tolist()
        ]

    @pytest.mark.parametrize("n_labels", [1 << 16, (1 << 16) + 1])
    def test_every_id_present_or_absent_at_the_threshold(self, n_labels):
        for codes in (np.arange(n_labels), np.array([n_labels - 1, 0, n_labels - 1])):
            gids, keys = kernels.combine_groups([(codes, range(n_labels))], codes.size)
            uniq, inverse = np.unique(codes, return_inverse=True)
            assert np.array_equal(gids, inverse)
            assert keys == [(label,) for label in uniq.tolist()]


def nan_map(leaf_rows=8, rows_per_block=4, first=0):
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=rows_per_block)
    leafmap.get_or_create("service_requests").add_rows(
        {
            "time": 1000 + i,
            "ratio": float("nan") if i % 2 else 1.0,
            "latency": float(i),
        }
        for i in range(first, first + leaf_rows)
    )
    return leafmap


class TestNanGroupKey:
    """SQL ``GROUP BY``: every NaN key is one group — on both executors,
    across blocks, runs, leaves and the wire."""

    QUERY = Query(
        "service_requests",
        aggregations=(Aggregation("count"), Aggregation("sum", "latency")),
        group_by=("ratio",),
    )

    def check(self, partial, nan_count, nan_sum):
        assert len(partial) == 2
        (nan_key,) = [key for key in partial if key != (1.0,)]
        assert nan_key[0] is math.nan
        assert partial[nan_key][0].count == nan_count
        assert partial[nan_key][1].total == nan_sum
        assert partial[(1.0,)][0].count == nan_count

    @pytest.mark.parametrize("rows_per_block", [4, 3, 100])
    def test_one_group_on_both_executors(self, rows_per_block):
        # two blocks; blocks plus a write buffer; the write buffer alone
        leafmap = nan_map(rows_per_block=rows_per_block)
        self.check(execute_on_leaf(leafmap, self.QUERY).partial, 4, 16.0)
        self.check(execute_on_leaf_rows(leafmap, self.QUERY).partial, 4, 16.0)

    def test_one_group_across_runs(self, monkeypatch):
        monkeypatch.setattr(execute_module, "MAX_RUN_ROWS", 4)
        self.check(execute_on_leaf(nan_map(), self.QUERY).partial, 4, 16.0)

    def test_one_group_with_a_second_key_column_and_buckets(self):
        query = Query(
            "service_requests", group_by=("ratio", "ghost"), bucket_seconds=100
        )
        fast, _ = assert_equivalent(nan_map(), query)
        assert len(fast.partial) == 2

    def test_one_group_across_leaves_and_the_wire(self):
        leaves = [nan_map(), nan_map(first=8)]
        partials = [execute_on_leaf(leafmap, self.QUERY).partial for leafmap in leaves]
        self.check(merge_partials(partials), 8, 64.0)
        wired = [
            partial_from_wire(json.loads(json.dumps(partial_to_wire(partial))))
            for partial in partials
        ]
        self.check(merge_partials(wired), 8, 64.0)
        result = merge_leaf_results(self.QUERY, wired, 2)
        assert [row.values["count(*)"] for row in result.rows] == [8, 8]


class TestNanPercentile:
    """A percentile ranks NaN last (numpy's order) on both executors, in
    either leaf order and over the wire — not where a sort left it."""

    QUERY = Query("service_requests", aggregations=(Aggregation("p50", "latency"),))

    @staticmethod
    def leaf(latencies):
        # Two rows a block: sealed blocks plus a one-row write buffer.
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=2)
        leafmap.get_or_create("service_requests").add_rows(
            {"time": 1000 + i, "latency": value} for i, value in enumerate(latencies)
        )
        return leafmap

    @pytest.mark.parametrize("executor", [execute_on_leaf, execute_on_leaf_rows])
    def test_same_p50_from_every_executor_and_leaf_order(self, executor):
        leaves = [self.leaf([0.0, math.nan, 2.0, 3.0, 1.0]), self.leaf([5.0])]
        partials = [executor(leafmap, self.QUERY).partial for leafmap in leaves]
        wired = [
            partial_from_wire(json.loads(json.dumps(partial_to_wire(partial))))
            for partial in partials
        ]
        for order in (partials, partials[::-1], wired, wired[::-1]):
            (row,) = merge_leaf_results(self.QUERY, order, 2).rows
            assert row.values["p50(latency)"] == 2.0


class TestDecodedColumnCache:
    def query(self):
        return Query(
            "service_requests",
            aggregations=(Aggregation("count"), Aggregation("avg", "latency")),
            group_by=("endpoint",),
            filters=(Filter("status", "eq", 200),),
        )

    def test_cache_populates_and_hits(self):
        cache = DecodedColumnCache(1 << 20)
        leafmap = make_map(cache=cache)
        first = execute_on_leaf(leafmap, self.query())
        assert len(cache) > 0
        assert cache.stats().misses > 0
        misses_after_first = cache.stats().misses
        second = execute_on_leaf(leafmap, self.query())
        stats = cache.stats()
        assert stats.misses == misses_after_first  # fully warm
        assert stats.hits > 0
        assert stats.hit_rate > 0
        merged_first = merge_leaf_results(self.query(), [first.partial], 1)
        merged_second = merge_leaf_results(self.query(), [second.partial], 1)
        assert [(r.group, r.values) for r in merged_first.rows] == [
            (r.group, r.values) for r in merged_second.rows
        ]

    def test_cached_answers_equal_uncached(self):
        cached = execute_on_leaf(
            make_map(cache=DecodedColumnCache(1 << 20)), self.query()
        )
        plain = execute_on_leaf(make_map(), self.query())
        assert cached.partial.keys() == plain.partial.keys()
        for key in plain.partial:
            for lhs, rhs in zip(cached.partial[key], plain.partial[key]):
                assert lhs.to_dict() == rhs.to_dict()

    def test_byte_cap_is_held(self):
        # (restated: this was test_byte_cap_evicts_lru, whose
        # `evictions > 0 or len > 0` held for any cache; the eviction
        # policy itself is tested in test_columnstore_colcache.py)
        cache = DecodedColumnCache(0)
        leafmap = make_map(cache=cache)
        execute_on_leaf(leafmap, self.query())
        # Every entry is larger than the zero cap: nothing is retained.
        assert len(cache) == 0
        assert cache.nbytes == 0

        small = DecodedColumnCache(2000)
        leafmap = make_map(cache=small)
        execute_on_leaf(leafmap, self.query())
        stats = small.stats()
        assert 0 < stats.nbytes <= 2000
        assert stats.evictions > 0  # the query's columns are ~2.8 KB

    def test_tracker_charged_and_discharged(self):
        tracker = MemoryTracker()
        cache = DecodedColumnCache(1 << 20, tracker=tracker)
        leafmap = make_map(cache=cache)
        execute_on_leaf(leafmap, self.query())
        assert tracker.in_region(CACHE_REGION) == cache.nbytes > 0
        freed = cache.clear()
        assert freed > 0
        assert tracker.in_region(CACHE_REGION) == 0

    def test_expiry_invalidates_entries(self):
        cache = DecodedColumnCache(1 << 20)
        leafmap = make_map(cache=cache)
        execute_on_leaf(leafmap, self.query())
        before = len(cache)
        table = leafmap.get_table("service_requests")
        dropped = table.expire(1000 + 2 * ROWS_PER_BLOCK)
        assert dropped > 0
        assert len(cache) < before
        assert cache.stats().invalidations > 0
        # Post-expiry queries still agree with the oracle.
        assert_equivalent(leafmap, self.query())

    def test_take_blocks_invalidates_entries(self):
        cache = DecodedColumnCache(1 << 20)
        leafmap = make_map(cache=cache)
        execute_on_leaf(leafmap, self.query())
        assert len(cache) > 0
        leafmap.get_table("service_requests").take_blocks()
        assert len(cache) == 0

    def test_drop_table_invalidates_entries(self):
        cache = DecodedColumnCache(1 << 20)
        leafmap = make_map(cache=cache)
        execute_on_leaf(leafmap, self.query())
        assert len(cache) > 0
        leafmap.drop_table("service_requests")
        assert len(cache) == 0

    def test_enforce_size_limit_invalidates_entries(self):
        cache = DecodedColumnCache(1 << 20)
        leafmap = make_map(cache=cache)
        execute_on_leaf(leafmap, self.query())
        table = leafmap.get_table("service_requests")
        table.expire(max_bytes=0)
        # All sealed blocks gone; only buffer-backed entries could
        # remain, and no entries are made for buffer rows.
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DecodedColumnCache(-1)

    def test_column_heat_counts_lookups_and_survives_clear(self):
        """The heat counters feed the lazy restore's sweep ordering, so
        they deliberately outlive ``clear()`` — what was hot before a
        restart is exactly what the sweep wants to fault in first."""
        cache = DecodedColumnCache(1 << 20)
        assert cache.column_heat() == {}
        leafmap = make_map(cache=cache)
        execute_on_leaf(leafmap, self.query())
        heat = cache.column_heat()
        assert heat  # the query's columns were looked up
        assert "status" in heat  # the filter column, decoded per block
        assert heat == cache.stats().column_lookups
        cache.clear()
        assert len(cache) == 0
        assert cache.column_heat() == heat
        execute_on_leaf(leafmap, self.query())
        hotter = cache.column_heat()
        assert all(hotter[name] >= count for name, count in heat.items())
        # The accessor hands out copies, not the live dict.
        hotter["status"] = -1
        assert cache.column_heat() != hotter


class TestCacheAcrossRestart:
    def test_cache_dropped_at_shutdown_and_cold_after_restore(
        self, shm_namespace, tmp_path, clock
    ):
        """The restart protocol's cache lifecycle: populated while
        serving, emptied before the Figure-6 copy loop (its bytes never
        count against the restart footprint), and rebuilt cold after
        restore — with identical query answers."""
        leaf = LeafServer(
            "leaf0",
            DiskBackup(tmp_path / "backup"),
            namespace=shm_namespace,
            clock=clock,
            rows_per_block=ROWS_PER_BLOCK,
        )
        leaf.start()
        leaf.add_rows(
            "service_requests",
            [
                {
                    "time": 1000 + i,
                    "endpoint": f"/api/{i % 5}",
                    "latency": float(i % 90),
                }
                for i in range(4 * ROWS_PER_BLOCK)
            ],
        )
        query = Query(
            "service_requests",
            aggregations=(Aggregation("count"), Aggregation("avg", "latency")),
            group_by=("endpoint",),
        )
        before = leaf.query(query)
        assert len(leaf.column_cache) > 0
        assert leaf.tracker.in_region(CACHE_REGION) > 0

        leaf.shutdown(use_shm=True)
        assert len(leaf.column_cache) == 0
        assert leaf.tracker.in_region(CACHE_REGION) == 0

        report = leaf.start()
        assert report.method is RecoveryMethod.SHARED_MEMORY
        # Restore rebuilds blocks; the cache must start cold.
        assert len(leaf.column_cache) == 0
        after = leaf.query(query)
        assert len(leaf.column_cache) > 0
        before_rows = merge_leaf_results(query, [before.partial], 1).rows
        after_rows = merge_leaf_results(query, [after.partial], 1).rows
        assert [(r.group, r.values) for r in before_rows] == [
            (r.group, r.values) for r in after_rows
        ]
        leaf.shutdown(use_shm=False)

    def test_crash_clears_cache(self, tmp_path, clock, shm_namespace):
        leaf = LeafServer(
            "leaf1",
            DiskBackup(tmp_path / "backup"),
            namespace=shm_namespace,
            clock=clock,
            rows_per_block=ROWS_PER_BLOCK,
        )
        leaf.start()
        leaf.add_rows(
            "service_requests",
            [{"time": 1000 + i, "latency": float(i)} for i in range(60)],
        )
        leaf.query(Query("service_requests", aggregations=(Aggregation("sum", "latency"),)))
        assert len(leaf.column_cache) > 0
        leaf.crash()
        assert len(leaf.column_cache) == 0
        assert leaf.tracker.in_region(CACHE_REGION) == 0


class TestRowsInTimeRange:
    def test_always_a_generator(self):
        """Both the table-present and table-absent paths hand back the
        same shape — previously the absent path returned a bare
        ``iter(())`` while the present path returned a generator."""
        leafmap = make_map(10)
        present = rows_in_time_range(leafmap, "service_requests", None, None)
        absent = rows_in_time_range(leafmap, "nope", None, None)
        assert type(present).__name__ == "generator"
        assert type(absent).__name__ == "generator"
        assert len(list(present)) == 10
        assert list(absent) == []

    def test_respects_time_bounds(self):
        leafmap = make_map(100)
        rows = list(
            rows_in_time_range(leafmap, "service_requests", 1020, 1030)
        )
        assert len(rows) == 10
        assert all(1020 <= row["time"] < 1030 for row in rows)
