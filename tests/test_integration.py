"""End-to-end integration scenarios tying every subsystem together."""

import random


from repro.cluster.cluster import Cluster
from repro.cluster.rollover import RolloverCoordinator
from repro.query.query import Aggregation, Filter, Query
from repro.workloads import SCENARIOS, populate_cluster


def make_cluster(shm_namespace, tmp_path, clock, seed=23):
    cluster = Cluster(
        3,
        tmp_path / "cluster",
        leaves_per_machine=2,
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=128,
        rng=random.Random(seed),
    )
    cluster.start_all()
    return cluster


class TestFullStory:
    def test_ingest_upgrade_query(self, shm_namespace, tmp_path, clock):
        """The paper's pitch, end to end: load monitoring data, run the
        dashboards, upgrade the whole cluster through shared memory, and
        every dashboard answer is unchanged."""
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        populate_cluster(cluster, rows_per_scenario=500)
        cluster.sync_all()
        before = {
            name: [
                (row.group, row.values)
                for row in cluster.query(scenario.query).rows
            ]
            for name, scenario in SCENARIOS.items()
        }
        result = RolloverCoordinator(
            cluster.machines, new_version="v2", batch_fraction=0.2, use_shm=True
        ).run()
        assert result.leaves_restarted == 6
        after = {
            name: [
                (row.group, row.values)
                for row in cluster.query(scenario.query).rows
            ]
            for name, scenario in SCENARIOS.items()
        }
        assert before == after

    def test_ingest_continues_during_rollover(self, shm_namespace, tmp_path, clock):
        """Tailers keep delivering between batches: total row count after
        the upgrade includes rows routed around restarting leaves."""
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        populate_cluster(cluster, rows_per_scenario=200, scenarios=["requests"])
        cluster.sync_all()
        coordinator = RolloverCoordinator(
            cluster.machines, new_version="v2", batch_fraction=0.2, use_shm=True
        )
        table = SCENARIOS["requests"].table
        extra = 0
        for _ in coordinator.batches():
            # Mid-batch: some leaves are down; ingest must still work.
            rows = [{"time": 2_000_000_000 + extra + i, "endpoint": "/mid"} for i in range(50)]
            extra += cluster.ingest(table, rows, batch_rows=10)
        assert coordinator.result.leaves_restarted == 6
        assert extra > 0
        count = cluster.query(
            Query(table, aggregations=(Aggregation("count"),))
        ).rows[0].values["count(*)"]
        assert count == 200 + extra

    def test_mixed_crash_and_upgrade(self, shm_namespace, tmp_path, clock):
        """A leaf that crashes (losing its shm eligibility) comes back
        from disk with only its synced rows, while the rest of the
        cluster shm-upgrades losslessly."""
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        populate_cluster(cluster, rows_per_scenario=400, scenarios=["requests"])
        cluster.sync_all()
        table = SCENARIOS["requests"].table
        # Unsynced tail lands somewhere.
        cluster.ingest(table, [{"time": 3_000_000_000 + i} for i in range(60)], batch_rows=10)
        crasher = max(cluster.leaves, key=lambda leaf: leaf.leafmap.row_count)
        unsynced = crasher.leafmap.row_count - crasher.backup.synced_rows(table)
        crasher.crash()
        report = crasher.start()
        assert report.method.value == "disk"
        total = cluster.query(
            Query(table, aggregations=(Aggregation("count"),))
        ).rows[0].values["count(*)"]
        assert total == 460 - max(0, unsynced)

    def test_filtered_grouped_query_after_two_generations(
        self, shm_namespace, tmp_path, clock
    ):
        """Two successive shm upgrades; a selective query stays stable."""
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        populate_cluster(cluster, rows_per_scenario=600, scenarios=["requests"])
        cluster.sync_all()
        query = Query(
            SCENARIOS["requests"].table,
            aggregations=(Aggregation("count"), Aggregation("p95", "latency_ms")),
            group_by=("datacenter",),
            filters=(Filter("tags", "contains", "prod"),),
        )
        first = [(r.group, r.values) for r in cluster.query(query).rows]
        for version in ("v2", "v3"):
            RolloverCoordinator(
                cluster.machines, new_version=version, batch_fraction=0.5, use_shm=True
            ).run()
        third = [(r.group, r.values) for r in cluster.query(query).rows]
        assert first == third
        assert all(leaf.version == "v3" for leaf in cluster.leaves)
