"""Tests for retention policies, the aggregation tree, and rendering."""

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.errors import StateError
from repro.query.aggregate import merge_leaf_results
from repro.query.execute import execute_on_leaf
from repro.query.query import Aggregation, Query
from repro.query.render import render_table, render_timeseries
from repro.server.aggregator import Aggregator
from repro.server.leaf import LeafServer
from repro.server.retention import (
    RetentionEnforcer,
    RetentionPolicy,
)
from repro.util.checksum import rows_digest


def make_leaf(shm_namespace, tmp_path, clock, leaf_id="0"):
    leaf = LeafServer(
        leaf_id,
        backup=DiskBackup(tmp_path / f"leaf-{leaf_id}"),
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=20,
    )
    leaf.start()
    return leaf


class TestRetentionPolicy:
    def test_needs_a_limit(self):
        with pytest.raises(ValueError):
            RetentionPolicy()

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            RetentionPolicy(max_age_seconds=0)
        with pytest.raises(ValueError):
            RetentionPolicy(max_bytes_per_leaf=-1)


class TestEnforcement:
    def test_age_limit_drops_and_records_watermark(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        now = int(clock.now())
        leaf.add_rows("events", [{"time": now - 5000 + i} for i in range(40)])
        leaf.add_rows("events", [{"time": now - 10 + i} for i in range(10)])
        leaf.leafmap.seal_all()
        enforcer = RetentionEnforcer({"events": RetentionPolicy(max_age_seconds=3600)})
        report = enforcer.enforce([leaf])
        assert report.rows_dropped_by_age == 40
        assert leaf.leafmap.row_count == 10
        assert leaf.backup.rows_expired("events") == 40

    def test_size_limit_drops_oldest(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.add_rows("big", [{"time": i, "pad": f"x{i % 5}" * 10} for i in range(100)])
        leaf.leafmap.seal_all()
        table = leaf.leafmap.get_table("big")
        limit = table.sealed_nbytes // 2
        enforcer = RetentionEnforcer({"big": RetentionPolicy(max_bytes_per_leaf=limit)})
        published = leaf.backup.stats.manifests_published
        report = enforcer.enforce([leaf])
        assert report.rows_dropped_by_size > 0
        assert table.sealed_nbytes <= limit
        # A size drop is recorded as the same count, in one manifest.
        assert leaf.backup.rows_expired("big") == report.rows_dropped_by_size
        assert leaf.backup.stats.manifests_published == published + 1

    def test_age_and_size_drops_are_one_count_every_rung_trims(
        self, shm_namespace, tmp_path, clock
    ):
        """Both limits drop the oldest blocks, so the count recorded for
        them both is all a disk recovery needs — on either disk rung."""
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        now = int(clock.now())
        leaf.add_rows("events", [{"time": now - 5000 + i} for i in range(40)])
        leaf.add_rows("events", [{"time": now - 10 + i, "pad": "x" * 40} for i in range(60)])
        leaf.leafmap.seal_all()
        leaf.sync_to_disk()
        table = leaf.leafmap.get_table("events")
        newest_two = sum(block.nbytes for block in table.blocks[-2:])
        policy = RetentionPolicy(max_age_seconds=3600, max_bytes_per_leaf=newest_two)
        report = RetentionEnforcer({"events": policy}).enforce([leaf])
        assert (report.rows_dropped_by_age, report.rows_dropped_by_size) == (40, 20)
        assert leaf.backup.rows_expired("events") == 60
        digest = rows_digest(leaf.leafmap.snapshot_rows())
        leaf.crash()
        for snapshots in (True, False):
            restored = LeafMap(clock=clock, rows_per_block=20)
            report = RestartEngine(
                "0",
                namespace=shm_namespace,
                backup=DiskBackup(tmp_path / "leaf-0", snapshots=snapshots),
                clock=clock,
            ).restore(restored)
            assert report.method is (
                RecoveryMethod.DISK_SNAPSHOT if snapshots else RecoveryMethod.DISK
            )
            assert rows_digest(restored.snapshot_rows()) == digest

    def test_enforce_on_a_serving_leaf_is_refused(self, shm_namespace, tmp_path, clock):
        """The enforcer takes the leaf's own path: a serving restore
        refuses it under the lock, and :meth:`enforce` counts a skip."""
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        now = int(clock.now())
        leaf.add_rows("events", [{"time": now - 5000 + i} for i in range(40)])
        leaf.shutdown(use_shm=True)
        leaf.start(serve_while_restoring=True, sweep=False)
        enforcer = RetentionEnforcer({"events": RetentionPolicy(max_age_seconds=60)})
        with pytest.raises(StateError):
            enforcer.enforce_on_leaf(leaf)
        assert enforcer.enforce([leaf]).leaves_skipped == 1
        leaf.wait_restored()
        assert enforcer.enforce([leaf]).rows_dropped_by_age == 40
        leaf.crash()

    def test_default_policy_applies_to_unlisted_tables(
        self, shm_namespace, tmp_path, clock
    ):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        now = int(clock.now())
        leaf.add_rows("anything", [{"time": now - 9999 + i} for i in range(20)])
        leaf.leafmap.seal_all()
        enforcer = RetentionEnforcer(
            default_policy=RetentionPolicy(max_age_seconds=60)
        )
        assert enforcer.enforce([leaf]).rows_dropped == 20

    def test_tables_without_policy_untouched(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        now = int(clock.now())
        leaf.add_rows("keep", [{"time": now - 9999}])
        leaf.leafmap.seal_all()
        enforcer = RetentionEnforcer({"other": RetentionPolicy(max_age_seconds=1)})
        report = enforcer.enforce([leaf])
        assert report.rows_dropped == 0
        assert leaf.leafmap.row_count == 1

    def test_non_alive_leaves_skipped(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.crash()
        enforcer = RetentionEnforcer(
            default_policy=RetentionPolicy(max_age_seconds=60)
        )
        report = enforcer.enforce([leaf])
        assert report.leaves_skipped == 1

    def test_expiry_survives_disk_recovery(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        now = int(clock.now())
        leaf.add_rows("events", [{"time": now - 5000 + i} for i in range(40)])
        leaf.leafmap.seal_all()
        leaf.sync_to_disk()
        RetentionEnforcer({"events": RetentionPolicy(max_age_seconds=3600)}).enforce(
            [leaf]
        )
        leaf.shutdown(use_shm=False)
        reborn = make_leaf(shm_namespace, tmp_path, clock)
        assert reborn.leafmap.row_count == 0  # the deletions re-applied


class TestAggregatorTree:
    def test_tree_equals_flat_merge(self, shm_namespace, tmp_path, clock):
        """Invariant: associativity — a two-level merge gives exactly
        the flat merge's answer."""
        leaves = [
            make_leaf(shm_namespace, tmp_path, clock, leaf_id=str(i)) for i in range(4)
        ]
        for index, leaf in enumerate(leaves):
            leaf.add_rows(
                "t",
                [{"time": i, "g": f"g{i % 3}", "v": float(i + index)} for i in range(50)],
            )
        query = Query(
            "t",
            aggregations=(Aggregation("count"), Aggregation("p90", "v")),
            group_by=("g",),
        )
        flat = Aggregator(leaves).query(query)
        tree = Aggregator([Aggregator(leaves[:2]), Aggregator(leaves[2:])]).query(query)
        assert tree == flat

    def test_tree_partiality_counts_leaves(self, shm_namespace, tmp_path, clock):
        leaves = [
            make_leaf(shm_namespace, tmp_path, clock, leaf_id=str(i)) for i in range(4)
        ]
        leaves[0].add_rows("t", [{"time": 1}])
        leaves[0].crash()
        tree = Aggregator([Aggregator(leaves[:2]), Aggregator(leaves[2:])])
        result = tree.query(Query("t"))
        assert result.leaves_responded == 3
        assert result.leaves_total == 4

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            Aggregator([])


class TestRendering:
    def _result(self, query, leafmap):
        execution = execute_on_leaf(leafmap, query)
        return merge_leaf_results(query, [execution.partial], 1)

    def test_render_table(self, clock):
        from repro.columnstore.leafmap import LeafMap

        leafmap = LeafMap(clock=clock, rows_per_block=64)
        leafmap.get_or_create("t").add_rows(
            {"time": i, "g": f"g{i % 2}", "v": float(i)} for i in range(20)
        )
        query = Query(
            "t", aggregations=(Aggregation("count"), Aggregation("avg", "v")),
            group_by=("g",),
        )
        art = render_table(self._result(query, leafmap))
        assert "count(*)" in art and "g0" in art and "g1" in art

    def test_render_table_partial_notice(self):
        from repro.query.query import QueryResult, ResultRow

        result = QueryResult(
            rows=[ResultRow((), {"count(*)": 5})], leaves_responded=1, leaves_total=4
        )
        assert "partial result" in render_table(result)

    def test_render_timeseries(self, clock):
        from repro.columnstore.leafmap import LeafMap

        leafmap = LeafMap(clock=clock, rows_per_block=64)
        leafmap.get_or_create("t").add_rows(
            {"time": 1000 + i, "svc": f"s{i % 2}", "v": float(i % 30)}
            for i in range(240)
        )
        query = Query(
            "t", aggregations=(Aggregation("avg", "v"),),
            group_by=("svc",), bucket_seconds=60,
        )
        art = render_timeseries(self._result(query, leafmap), "avg(v)")
        lines = art.splitlines()
        assert len(lines) == 2  # one sparkline per service
        assert all("|" in line for line in lines)

    def test_render_timeseries_requires_buckets(self, clock):
        from repro.columnstore.leafmap import LeafMap

        leafmap = LeafMap(clock=clock, rows_per_block=64)
        leafmap.get_or_create("t").add_rows([{"time": 1, "g": "x"}])
        query = Query("t", group_by=("g",))
        with pytest.raises(ValueError):
            render_timeseries(self._result(query, leafmap), "count(*)")

    def test_render_empty(self):
        from repro.query.query import QueryResult

        assert render_table(QueryResult()) == "(empty result)"
        assert render_timeseries(QueryResult(), "x") == "(empty result)"
