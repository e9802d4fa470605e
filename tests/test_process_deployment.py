"""Tests for the process-level workers and the deploy tooling.

These run real child processes: the strongest form of the paper's claim,
since heap state genuinely dies with each worker.
"""

import pytest

from repro.cluster.deploy import ProcessDeployment
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
        report = leaf.spawn()
        assert report["method"] == "disk"  # empty first boot
        leaf.add_rows("events", [{"time": i, "v": float(i)} for i in range(600)])
        partial = leaf.query(COUNT).partial
        assert partial[()][0].finalize() == 600
        assert leaf.shutdown(use_shm=False) is True  # shm path covered below
        assert not leaf.running

    def test_shm_restart_across_processes(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.spawn()
        leaf.add_rows("events", [{"time": i} for i in range(400)])
        leaf.shutdown(use_shm=True)
        reborn = make_leaf(shm_namespace, tmp_path)
        report = reborn.spawn()
        assert report["method"] == "shared_memory"
        assert report["rows"] == 400
        assert reborn.query(COUNT).partial[()][0].finalize() == 400
        reborn.shutdown(use_shm=False)

    def test_killed_worker_forces_disk_recovery(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.spawn()
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
        report = reborn.spawn()
        assert report["method"] == "disk"
        assert report["rows"] == 300
        reborn.shutdown(use_shm=False)

    def test_unanswered_request_times_out_and_kills_the_worker(
        self, shm_namespace, tmp_path
    ):
        """A worker that stops answering must not wedge its controller:
        the request fails after ``request_timeout``, the worker is gone,
        and the same handle respawns it from disk."""
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.spawn()
        leaf.add_rows("events", [{"time": i} for i in range(300)])
        leaf.sync()
        synced = leaf.digest()
        leaf.request_timeout = 0.5
        with pytest.raises(LeafProcessError, match=r"'hang' within 0\.5 s"):
            leaf.request({"op": "hang"})
        assert leaf.running is False
        leaf.request_timeout = 60.0
        report = leaf.spawn()
        assert report["method"] == "disk"  # a kill never sets the valid bit
        assert leaf.digest() == synced
        leaf.shutdown(use_shm=False)

    def test_crash_op_loses_unsynced_rows(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.spawn()
        leaf.add_rows("events", [{"time": i} for i in range(200)])
        leaf.sync()
        leaf.add_rows("events", [{"time": 1000 + i} for i in range(50)])
        with pytest.raises(LeafProcessError):
            leaf.request({"op": "crash"})
        assert leaf._proc is None, "the dead worker was not reaped"
        reborn = make_leaf(shm_namespace, tmp_path)
        report = reborn.spawn()
        assert report["method"] == "disk"
        assert report["rows"] == 200
        reborn.shutdown(use_shm=False)

    def test_error_response_does_not_kill_worker(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.spawn()
        with pytest.raises(LeafProcessError):
            leaf.request({"op": "no-such-op"})
        assert leaf.running
        assert leaf.status()["status"] == "alive"
        leaf.shutdown(use_shm=False)

    def test_double_spawn_rejected(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.spawn()
        with pytest.raises(LeafProcessError):
            leaf.spawn()
        leaf.shutdown(use_shm=False)

    def test_request_on_stopped_leaf_rejected(self, shm_namespace, tmp_path):
        leaf = make_leaf(shm_namespace, tmp_path)
        with pytest.raises(LeafProcessError):
            leaf.status()

    def test_execv_restart_swaps_the_image_in_place(self, shm_namespace, tmp_path):
        """The in-place upgrade: ``os.execv`` keeps the pid and the
        controller's pipes but replaces the process image — proven by
        the incarnation token changing while the pid does not — and the
        data crosses the swap through shared memory."""
        leaf = make_leaf(shm_namespace, tmp_path)
        leaf.spawn()
        leaf.add_rows("events", [{"time": i, "v": float(i)} for i in range(350)])
        before = leaf.status()
        digest = leaf.digest()

        result = leaf.restart(mode="execv", version="v2")
        assert result["handoff"]["used_shm"] is True
        assert result["handoff"]["pid"] == before["pid"]
        assert result["start"]["method"] == "shared_memory"
        assert result["start"]["rows"] == 350

        after = leaf.status()
        assert after["pid"] == before["pid"], "execv must keep the pid"
        assert after["incarnation"] != before["incarnation"], (
            "a new process image must mint a new incarnation"
        )
        assert after["version"] == "v2"
        assert leaf.digest() == digest
        assert leaf.query(COUNT).partial[()][0].finalize() == 350
        leaf.shutdown(use_shm=False)


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
        deployment = ProcessDeployment(
            tmp_path, n_leaves=3, namespace=shm_namespace, rows_per_block=256
        )
        try:
            deployment.start_all()
            rows = [{"time": i, "v": float(i % 10)} for i in range(900)]
            assert deployment.ingest("events", rows, batch_rows=150) == 900
            deployment.sync_all()
            before = deployment.query(COUNT).rows[0].values["count(*)"]
            result = deployment.rolling_upgrade("v2", batch_fraction=0.34)
            assert result.leaves_restarted == 3
            assert result.clean_shutdowns == 3
            assert result.killed == 0
            assert result.recovered_via == {"shared_memory": 3}
            assert deployment.query(COUNT).rows[0].values["count(*)"] == before
            assert all(
                leaf.status()["version"] == "v2" for leaf in deployment.leaves
            )
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
            victim.spawn()
        finally:
            deployment.stop_all()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ProcessDeployment(tmp_path, n_leaves=0)
