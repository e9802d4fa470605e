"""Tests for time-series bucketing and top-k ordering."""

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.errors import QueryError
from repro.query.aggregate import merge_leaf_results
from repro.query.execute import execute_on_leaf
from repro.query.query import Aggregation, Query
from repro.util.clock import ManualClock


def make_map():
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=64)
    table = leafmap.get_or_create("metrics")
    table.add_rows(
        {"time": 1000 + i, "svc": f"s{i % 3}", "v": float(i)} for i in range(300)
    )
    return leafmap


def run(leafmap, query):
    execution = execute_on_leaf(leafmap, query)
    return merge_leaf_results(query, [execution.partial], 1)


class TestTimeBuckets:
    def test_bucket_boundaries(self):
        query = Query("metrics", bucket_seconds=60)
        result = run(make_map(), query)
        buckets = [row.group[0] for row in result.rows]
        assert buckets == sorted(buckets)
        assert all(bucket % 60 == 0 for bucket in buckets)
        # 300 seconds of data starting at t=1000 spans 6 minute-buckets.
        assert len(buckets) == 6
        assert sum(row.values["count(*)"] for row in result.rows) == 300

    def test_bucket_plus_group_by(self):
        query = Query(
            "metrics",
            aggregations=(Aggregation("count"), Aggregation("avg", "v")),
            group_by=("svc",),
            bucket_seconds=100,
        )
        result = run(make_map(), query)
        # Bucket first, then the group columns.
        assert all(len(row.group) == 2 for row in result.rows)
        assert len({row.group for row in result.rows}) == len(result.rows)
        total = sum(row.values["count(*)"] for row in result.rows)
        assert total == 300

    def test_bucket_respects_time_range(self):
        query = Query("metrics", bucket_seconds=60, start_time=1060, end_time=1120)
        result = run(make_map(), query)
        assert [row.group[0] for row in result.rows] == [1020, 1080]

    def test_series_identical_across_shm_restart(self, shm_namespace, clock):
        """The GUI's time series must not change across an upgrade."""
        from repro.core.engine import RestartEngine

        leafmap = make_map()
        query = Query(
            "metrics", aggregations=(Aggregation("avg", "v"),), bucket_seconds=30
        )
        before = [(r.group, r.values) for r in run(leafmap, query).rows]
        leafmap.seal_all()
        RestartEngine("ts", namespace=shm_namespace, clock=clock).backup_to_shm(leafmap)
        restored = LeafMap(clock=clock, rows_per_block=64)
        RestartEngine("ts", namespace=shm_namespace, clock=clock).restore(restored)
        after = [(r.group, r.values) for r in run(restored, query).rows]
        assert before == after

    def test_invalid_bucket_rejected(self):
        with pytest.raises(QueryError):
            Query("metrics", bucket_seconds=0)


class TestOrderBy:
    def test_top_k_by_count(self):
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=64)
        table = leafmap.get_or_create("t")
        weights = {"a": 50, "b": 10, "c": 30}
        rows = []
        t = 0
        for name, count in weights.items():
            for _ in range(count):
                rows.append({"time": t, "g": name})
                t += 1
        table.add_rows(rows)
        query = Query(
            "t", group_by=("g",), order_by="count(*)", descending=True, limit=2
        )
        result = run(leafmap, query)
        assert [row.group[0] for row in result.rows] == ["a", "c"]

    def test_ascending_order(self):
        leafmap = make_map()
        query = Query(
            "metrics",
            aggregations=(Aggregation("count"), Aggregation("max", "v")),
            group_by=("svc",),
            order_by="max(v)",
            descending=False,
        )
        result = run(leafmap, query)
        values = [row.values["max(v)"] for row in result.rows]
        assert values == sorted(values)

    def test_order_by_unknown_label_rejected(self):
        with pytest.raises(QueryError):
            Query("t", order_by="sum(nope)")

    def test_none_values_sort_last_in_descending(self):
        # (restated: the rows used to share a write buffer, where a row
        # that omits ``v`` read as absent; the buffer now reads as it will
        # seal, ``v`` = 0.0, so the None comes from a block that lacks
        # ``v`` entirely — one row a block)
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=1)
        table = leafmap.get_or_create("t")
        table.add_rows([{"time": 0, "g": "with", "v": 5.0}, {"time": 1, "g": "without"}])
        query = Query(
            "t",
            aggregations=(Aggregation("sum", "v"),),
            group_by=("g",),
            order_by="sum(v)",
            descending=True,
        )
        result = run(leafmap, query)
        assert result.rows[0].group == ("with",)
        assert result.rows[-1].values["sum(v)"] is None

    def test_wire_roundtrip_preserves_new_fields(self):
        query = Query(
            "t",
            aggregations=(Aggregation("count"),),
            bucket_seconds=60,
            order_by="count(*)",
            descending=False,
        )
        assert Query.from_dict(query.to_dict()) == query
