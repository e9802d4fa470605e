"""Tests for the cluster, aggregator partiality, rollover, and dashboard."""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.dashboard import Dashboard, render_dashboard
from repro.cluster.rollover import RolloverCoordinator
from repro.query.query import Aggregation, Query
from repro.server.aggregator import Aggregator
from tests.crashpoints import Recorder


def make_cluster(shm_namespace, tmp_path, clock, n_machines=3, leaves=2, seed=11):
    cluster = Cluster(
        n_machines,
        tmp_path / "cluster",
        leaves_per_machine=leaves,
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=64,
        rng=random.Random(seed),
    )
    cluster.start_all()
    return cluster


COUNT = Query("requests", aggregations=(Aggregation("count"),))


def ingest_some(cluster, n=1200):
    rows = [{"time": 1000 + i, "svc": f"s{i % 5}", "lat": float(i % 40)} for i in range(n)]
    return cluster.ingest("requests", rows, batch_rows=100)


class TestCluster:
    def test_ingest_spreads_over_leaves(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        assert ingest_some(cluster) == 1200
        populated = [leaf for leaf in cluster.leaves if leaf.leafmap.row_count]
        assert len(populated) >= 4  # spread, not one hot leaf
        assert cluster.total_rows() == 1200

    def test_query_aggregates_cluster_wide(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        ingest_some(cluster)
        result = cluster.query(COUNT)
        assert result.rows[0].values["count(*)"] == 1200
        assert result.coverage == 1.0

    def test_partial_results_when_leaf_down(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        ingest_some(cluster)
        victim = next(leaf for leaf in cluster.leaves if leaf.leafmap.row_count)
        lost = victim.leafmap.row_count
        victim.crash()
        result = cluster.query(COUNT)
        assert result.rows[0].values["count(*)"] == 1200 - lost
        assert result.leaves_responded == len(cluster.leaves) - 1
        assert 0 < result.coverage < 1

    def test_partiality_is_exactly_live_leaf_restriction(
        self, shm_namespace, tmp_path, clock
    ):
        """Invariant 8: the degraded answer equals the full answer
        restricted to live leaves."""
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        ingest_some(cluster)
        victim = cluster.leaves[0]
        survivors = [leaf for leaf in cluster.leaves if leaf is not victim]
        expected = Aggregator(survivors).query(COUNT).rows[0].values["count(*)"]
        victim.crash()
        got = cluster.query(COUNT).rows[0].values["count(*)"]
        assert got == expected

    def test_leaf_lookup(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        leaf = cluster.leaves[3]
        assert cluster.leaf_by_id(leaf.leaf_id) is leaf
        assert leaf in cluster.machine_of(leaf).leaves
        with pytest.raises(KeyError):
            cluster.leaf_by_id("nope")

    def test_availability_metric(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        assert cluster.availability == 1.0
        cluster.leaves[0].crash()
        assert cluster.availability == pytest.approx(5 / 6)


class TestRollover:
    def test_shm_rollover_preserves_data_and_upgrades_all(
        self, shm_namespace, tmp_path, clock
    ):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        ingest_some(cluster)
        cluster.sync_all()
        result = RolloverCoordinator(
            cluster, new_version="v2", batch_fraction=0.2, use_shm=True
        ).run()
        assert result.leaves_restarted == 6
        assert all(leaf.version == "v2" for leaf in cluster.leaves)
        assert cluster.query(COUNT).rows[0].values["count(*)"] == 1200
        assert all(
            report.method.value == "shared_memory"
            for report in result.restart_reports
            if report.leaf_states and report.leaf_states[0] == "init"
        )

    def test_disk_rollover_also_preserves_synced_data(
        self, shm_namespace, tmp_path, clock
    ):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        ingest_some(cluster)
        cluster.sync_all()
        RolloverCoordinator(
            cluster, new_version="v2", batch_fraction=0.2, use_shm=False
        ).run()
        assert cluster.query(COUNT).rows[0].values["count(*)"] == 1200

    def test_at_most_one_leaf_per_machine_restarts(
        self, shm_namespace, tmp_path, clock
    ):
        cluster = make_cluster(shm_namespace, tmp_path, clock, n_machines=2, leaves=4)
        coordinator = RolloverCoordinator(cluster, new_version="v2", batch_fraction=0.9)
        batch = coordinator.select_batch()
        machines = [cluster.machine_of(leaf).machine_id for leaf in batch]
        assert len(machines) == len(set(machines))  # invariant 7

    def test_batch_size_respects_fraction(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock, n_machines=5, leaves=2)
        coordinator = RolloverCoordinator(cluster, new_version="v2", batch_fraction=0.2)
        assert coordinator.batch_size == 2
        assert len(coordinator.select_batch()) <= 2

    def test_availability_never_below_one_minus_fraction(
        self, shm_namespace, tmp_path, clock
    ):
        cluster = make_cluster(shm_namespace, tmp_path, clock, n_machines=5, leaves=2)
        ingest_some(cluster, 500)
        result = RolloverCoordinator(
            cluster, new_version="v2", batch_fraction=0.2
        ).run()
        floor = 1 - 0.2 - 1e-9
        assert result.min_availability >= floor
        assert result.dashboard.samples[-1].new_version == 10

    def test_bad_fraction_rejected(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        with pytest.raises(ValueError):
            RolloverCoordinator(cluster, "v2", batch_fraction=0.0)


class TestDashboard:
    def test_series_shape(self):
        dashboard = Dashboard()
        dashboard.record(0.0, 10, 0, 0, 1.0)
        dashboard.record(5.0, 8, 2, 0, 0.8)
        dashboard.record(10.0, 0, 0, 10, 1.0)
        assert dashboard.duration == 10.0
        assert dashboard.min_availability == 0.8
        assert 0.8 < dashboard.mean_availability() < 1.0

    def test_mean_availability_is_time_weighted(self):
        dashboard = Dashboard()
        dashboard.record(0.0, 10, 0, 0, 1.0)
        dashboard.record(9.0, 8, 2, 0, 0.5)  # held for 1s only
        dashboard.record(10.0, 0, 0, 10, 1.0)
        assert dashboard.mean_availability() == pytest.approx((9 * 1.0 + 1 * 0.5) / 10)

    def test_render_contains_all_three_phases(self):
        dashboard = Dashboard()
        dashboard.record(0.0, 6, 2, 2, 0.8)
        art = render_dashboard(dashboard, width=30)
        assert "#" in art and "~" in art and "=" in art
        assert "80.0%" in art

    def test_render_empty(self):
        assert render_dashboard(Dashboard()) == "(no samples)"

    def test_render_downsamples_long_series(self):
        dashboard = Dashboard()
        for i in range(100):
            dashboard.record(float(i), 100 - i, 0, i, 1.0)
        art = render_dashboard(dashboard, max_rows=8)
        assert len(art.splitlines()) == 9  # header + 8 rows


class TestRolloverStragglers:
    def test_failed_shm_copy_falls_back_and_rollover_completes(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """One leaf's copy dies mid-shutdown (the watchdog-kill case):
        the coordinator counts a straggler, the leaf recovers from disk,
        every leaf still ends on the new version with all synced data."""
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        ingest_some(cluster, 600)
        cluster.sync_all()
        victim = next(leaf for leaf in cluster.leaves if leaf.leafmap.row_count)

        # The victim's copy is done, its valid bit never goes up.
        Recorder(monkeypatch).fail(
            kind="set_valid",
            target=f"-leaf-{victim.leaf_id}-meta=True",
            exc=RuntimeError("copy overran the deadline"),
        )

        result = RolloverCoordinator(
            cluster, new_version="v2", batch_fraction=0.5, use_shm=True
        ).run()
        assert result.stragglers == 1
        assert all(leaf.version == "v2" for leaf in cluster.leaves)
        assert cluster.query(COUNT).rows[0].values["count(*)"] == 600
        # The victim's shutdown synced (and snapshotted) before the copy
        # blew up, so its solo restart takes the fast disk tier.
        assert victim.last_restart_report.method.value == "disk_snapshot"
