"""Tests for the process-level workers and the deploy tooling.

These run real child processes: the strongest form of the paper's claim,
since heap state genuinely dies with each worker.
"""

import os
import signal

import pytest

from repro.cluster.deploy import ProcessDeployment
from repro.cluster.rollover import RolloverCoordinator
from repro.core.engine import RecoveryMethod
from repro.query.aggregate import merge_leaf_results, partial_from_wire, partial_to_wire
from repro.query.query import Aggregation, Filter, Query
from repro.server.process_client import LeafProcess, LeafProcessConfig, LeafProcessError

pytestmark = pytest.mark.slow

COUNT = Query("events", aggregations=(Aggregation("count"),))


def make_leaf(shm_namespace, tmp_path, leaf_id="0", version="v1"):
    return LeafProcess(
        LeafProcessConfig(
            leaf_id=leaf_id,
            backup_dir=tmp_path / f"leaf-{leaf_id}",
            namespace=shm_namespace,
            version=version,
            rows_per_block=256,
        ),
        request_timeout=60.0,
    )


class TestLeafProcess:
    def test_spawn_ingest_query_shutdown(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        report = leaf.start()
        assert report.method is RecoveryMethod.DISK  # empty first boot
        leaf.add_rows("events", [{"time": i, "v": float(i)} for i in range(600)])
        partial = leaf.query(COUNT).partial
        assert partial[()][0].finalize() == 600
        assert leaf.shutdown(use_shm=False) is True  # shm path covered below
        assert not leaf.running

    def test_shm_restart_across_processes(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.start()
        leaf.add_rows("events", [{"time": i} for i in range(400)])
        leaf.shutdown(use_shm=True)
        reborn = make_leaf(shm_namespace, tmp_path)
        report = reborn.start()
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert report.rows == 400
        assert reborn.query(COUNT).partial[()][0].finalize() == 400
        reborn.shutdown(use_shm=False)

    def test_killed_worker_forces_disk_recovery(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.start()
        leaf.add_rows("events", [{"time": i} for i in range(300)])
        leaf.sync()
        leaf.request({"op": "status"})
        # Make the worker hang instead of shutting down; the deploy
        # loop's watchdog kills it.
        assert leaf.running
        assert leaf._proc is not None and leaf._proc.stdin is not None
        leaf._proc.stdin.write('{"op": "hang"}\n')
        leaf._proc.stdin.flush()
        from repro.core.watchdog import wait_or_kill

        assert wait_or_kill(leaf._proc, timeout=1.0) is False
        leaf.kill()
        reborn = make_leaf(shm_namespace, tmp_path)
        report = reborn.start()
        assert report.method is RecoveryMethod.DISK
        assert report.rows == 300
        reborn.shutdown(use_shm=False)

    def test_unanswered_request_times_out_and_kills_the_worker(
        self, shm_namespace, tmp_path
    ):
        """A worker that stops answering must not wedge its controller:
        the request fails after ``request_timeout``, the worker is gone,
        and the same handle respawns it from disk."""
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.start()
        leaf.add_rows("events", [{"time": i} for i in range(300)])
        leaf.sync()
        synced = leaf.digest()
        leaf.request_timeout = 0.5
        with pytest.raises(LeafProcessError, match=r"'hang' within 0\.5 s"):
            leaf.request({"op": "hang"})
        assert leaf.running is False
        leaf.request_timeout = 60.0
        report = leaf.start()
        assert report.method is RecoveryMethod.DISK  # a kill never sets the valid bit
        assert leaf.digest() == synced
        leaf.shutdown(use_shm=False)

    def test_crash_op_loses_unsynced_rows(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.start()
        leaf.add_rows("events", [{"time": i} for i in range(200)])
        leaf.sync()
        leaf.add_rows("events", [{"time": 1000 + i} for i in range(50)])
        with pytest.raises(LeafProcessError):
            leaf.request({"op": "crash"})
        assert leaf._proc is None, "the dead worker was not reaped"
        reborn = make_leaf(shm_namespace, tmp_path)
        report = reborn.start()
        assert report.method is RecoveryMethod.DISK
        assert report.rows == 200
        reborn.shutdown(use_shm=False)

    def test_error_response_does_not_kill_worker(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.start()
        with pytest.raises(LeafProcessError):
            leaf.request({"op": "no-such-op"})
        assert leaf.running
        assert leaf.status()["status"] == "alive"
        leaf.shutdown(use_shm=False)

    def test_double_spawn_rejected(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.start()
        with pytest.raises(LeafProcessError):
            leaf.start()
        leaf.shutdown(use_shm=False)

    def test_request_on_stopped_leaf_rejected(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        with pytest.raises(LeafProcessError):
            leaf.status()


class TestWireFormats:
    def test_query_roundtrip(self):
        query = Query(
            "t",
            aggregations=(Aggregation("count"), Aggregation("p95", "v")),
            group_by=("a", "b"),
            filters=(Filter("a", "in", ("x", "y")), Filter("tags", "contains", "z")),
            start_time=10,
            end_time=20,
            limit=5,
        )
        assert Query.from_dict(query.to_dict()) == query

    def test_partial_roundtrip(self, clock):
        from repro.columnstore.leafmap import LeafMap
        from repro.query.execute import execute_on_leaf

        leafmap = LeafMap(clock=clock, rows_per_block=64)
        leafmap.get_or_create("t").add_rows(
            {"time": i, "g": f"g{i % 3}", "v": float(i)} for i in range(100)
        )
        query = Query(
            "t",
            aggregations=(Aggregation("count"), Aggregation("p50", "v")),
            group_by=("g",),
        )
        partial = execute_on_leaf(leafmap, query).partial
        rebuilt = partial_from_wire(partial_to_wire(partial))
        before = merge_leaf_results(query, [partial], 1)
        after = merge_leaf_results(query, [rebuilt], 1)
        assert [(r.group, r.values) for r in before.rows] == [
            (r.group, r.values) for r in after.rows
        ]


class TestProcessDeployment:
    def test_rolling_upgrade_over_real_processes(self, shm_namespace, tmp_path):
        """The one rollover, handed the workers as one machine: a 0.34
        batch fraction of three workers restarts one at a time, each a
        new process on the new version, every row back from shm."""
        deployment = ProcessDeployment(
            tmp_path, n_leaves=3, namespace=shm_namespace, rows_per_block=256
        )
        try:
            deployment.start_all()
            rows = [{"time": i, "v": float(i % 10)} for i in range(900)]
            assert deployment.ingest("events", rows, batch_rows=150) == 900
            deployment.sync_all()
            before = deployment.query(COUNT).rows[0].values["count(*)"]
            pids = {leaf.status()["pid"] for leaf in deployment.leaves}
            result = RolloverCoordinator(
                [deployment], "v2", batch_fraction=0.34
            ).run()
            assert result.leaves_restarted == 3
            assert result.by_rung == {"shared_memory": 3}
            assert result.stragglers == 0 and result.falls == {}
            assert max(s.rolling_over for s in result.dashboard.samples) == 1
            assert deployment.query(COUNT).rows[0].values["count(*)"] == before
            statuses = [leaf.status() for leaf in deployment.leaves]
            assert all(status["version"] == "v2" for status in statuses)
            assert pids.isdisjoint(status["pid"] for status in statuses)
        finally:
            deployment.stop_all()

    def test_killed_worker_is_upgraded_from_disk(self, shm_namespace, tmp_path):
        """A worker that died on its own is reaped and started on the new
        version without a shutdown, from disk, and no healthy worker goes
        down beside it."""
        deployment = ProcessDeployment(
            tmp_path, n_leaves=3, namespace=shm_namespace, rows_per_block=256
        )
        try:
            deployment.start_all()
            deployment.ingest("events", [{"time": i} for i in range(768)], 256)
            deployment.sync_all()
            victim = deployment.leaves[1]
            assert victim._proc is not None
            os.kill(victim._proc.pid, signal.SIGKILL)
            victim._proc.wait()
            result = RolloverCoordinator([deployment], "v2").run()
            assert result.restart_reports[0].method is RecoveryMethod.DISK_SNAPSHOT
            assert result.by_rung == {"disk_snapshot": 1, "shared_memory": 2}
            assert result.stragglers == 1
            assert max(s.rolling_over for s in result.dashboard.samples) == 1
            assert all(leaf.status()["version"] == "v2" for leaf in deployment.leaves)
            assert deployment.query(COUNT).rows[0].values["count(*)"] == 768
        finally:
            deployment.stop_all()

    def test_hung_worker_is_killed_at_the_deadline(self, shm_namespace, tmp_path):
        """A worker stuck in ``hang`` overruns the shutdown deadline, is
        killed, and counts as a straggler that came back from disk."""
        deployment = ProcessDeployment(
            tmp_path, n_leaves=2, namespace=shm_namespace, rows_per_block=256
        )
        try:
            deployment.start_all()
            deployment.ingest("events", [{"time": i} for i in range(512)], 256)
            deployment.sync_all()
            hung = deployment.leaves[0]
            assert hung._proc is not None and hung._proc.stdin is not None
            hung._proc.stdin.write('{"op": "hang"}\n')
            hung._proc.stdin.flush()
            result = RolloverCoordinator(
                [deployment], "v2", shutdown_deadline_seconds=1.0
            ).run()
            assert result.restart_reports[0].method is RecoveryMethod.DISK_SNAPSHOT
            assert result.by_rung == {"disk_snapshot": 1, "shared_memory": 1}
            assert result.stragglers == 1
            assert deployment.query(COUNT).rows[0].values["count(*)"] == 512
        finally:
            deployment.stop_all()

    def test_queries_mid_upgrade_are_partial(self, shm_namespace, tmp_path):
        deployment = ProcessDeployment(
            tmp_path, n_leaves=3, namespace=shm_namespace, rows_per_block=256
        )
        try:
            deployment.start_all()
            deployment.ingest("events", [{"time": i} for i in range(300)], 100)
            deployment.sync_all()
            victim = deployment.leaves[0]
            victim.shutdown(use_shm=True)
            result = deployment.query(COUNT)
            assert result.leaves_responded == 2
            assert 0 < result.coverage < 1
            victim.start()
        finally:
            deployment.stop_all()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ProcessDeployment(tmp_path, n_leaves=0)
