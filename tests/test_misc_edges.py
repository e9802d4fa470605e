"""Edge cases across modules that no other file pins down."""

import pytest

from repro.compression.lzs import lz_compress, lz_decompress


class TestLzWindow:
    def test_match_beyond_window_is_not_referenced(self):
        """A repeat farther back than deflate's 32 KiB window must still
        round-trip (stored as literals, not a bad reference)."""
        unique = bytes(range(256)) * 300  # ~76 KiB of filler
        data = b"NEEDLE-PATTERN-12345" + unique + b"NEEDLE-PATTERN-12345"
        assert lz_decompress(lz_compress(data), len(data)) == data

    def test_window_edge_match_roundtrips(self):
        filler = b"\x01\x02\x03\x04\x05\x06\x07" * 4679  # repeats 32,762 bytes back
        data = b"HEADERXYZ" + filler + b"HEADERXYZ"
        assert lz_decompress(lz_compress(data), len(data)) == data


class TestTailerAtLeastOnce:
    def test_cursor_only_advances_after_delivery(self, shm_namespace, tmp_path, clock):
        """If a leaf dies mid-send, the batch is re-read: nothing is
        acknowledged before add_rows returns."""
        import random

        from repro.disk.backup import DiskBackup
        from repro.errors import StateError
        from repro.ingest.scribe import ScribeLog
        from repro.ingest.tailer import Tailer
        from repro.server.leaf import LeafServer

        leaf = LeafServer(
            "x", backup=DiskBackup(tmp_path / "x"), namespace=shm_namespace,
            clock=clock, rows_per_block=64,
        )
        leaf.start()
        scribe = ScribeLog()
        scribe.append("t", [{"time": i} for i in range(10)])
        tailer = Tailer(
            scribe, "t", "t", [leaf], batch_rows=10, rng=random.Random(0), clock=clock
        )
        leaf.crash()
        # choose_leaf settles on nobody -> RoutingError; cursor unmoved.
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            tailer.pump_once()
        assert tailer.backlog == 10
        leaf.start()
        assert tailer.pump_once() == 10
        assert tailer.backlog == 0


class TestSimBreakdown:
    def test_disk_breakdown_fields(self):
        from repro.sim import paper_profile, simulate_leaf_restart

        breakdown = simulate_leaf_restart(paper_profile(), "disk", 1)
        assert breakdown.copy_out_seconds == 0.0
        assert breakdown.read_seconds > 0 and breakdown.translate_seconds > 0
        assert breakdown.total_seconds == pytest.approx(
            breakdown.read_seconds
            + breakdown.translate_seconds
            + breakdown.overhead_seconds
        )

    def test_shm_breakdown_fields(self):
        from repro.sim import paper_profile, simulate_leaf_restart

        breakdown = simulate_leaf_restart(paper_profile(), "shm", 1)
        assert breakdown.read_seconds == 0.0
        assert breakdown.copy_out_seconds > 0 and breakdown.copy_in_seconds > 0


class TestDeployEdges:
    def test_ingest_without_running_leaves_raises(self, shm_namespace, tmp_path):
        from repro.cluster.deploy import ProcessDeployment

        deployment = ProcessDeployment(tmp_path, 1, namespace=shm_namespace)
        with pytest.raises(RuntimeError):
            deployment.ingest("t", [{"time": 1}])

    def test_bad_batch_fraction(self, shm_namespace, tmp_path):
        from repro.cluster.deploy import ProcessDeployment
        from repro.cluster.rollover import RolloverCoordinator

        deployment = ProcessDeployment(tmp_path, 1, namespace=shm_namespace)
        with pytest.raises(ValueError):
            RolloverCoordinator([deployment], "v2", batch_fraction=0)


class TestDashboardEdges:
    def test_single_sample_mean(self):
        from repro.cluster.dashboard import Dashboard

        dashboard = Dashboard()
        dashboard.record(0.0, 5, 0, 0, 0.9)
        assert dashboard.mean_availability() == 0.9
        assert dashboard.duration == 0.0

    def test_empty_dashboard(self):
        from repro.cluster.dashboard import Dashboard

        dashboard = Dashboard()
        assert dashboard.mean_availability() == 1.0
        assert dashboard.min_availability == 1.0


class TestScribeEdges:
    def test_independent_categories(self):
        from repro.ingest.scribe import ScribeLog

        scribe = ScribeLog()
        scribe.append("a", [{"time": 1}])
        scribe.append("b", [{"time": 2}, {"time": 3}])
        assert scribe.end_offset("a") == 1
        assert scribe.end_offset("b") == 2
        assert sorted(scribe.categories) == ["a", "b"]

    def test_cursor_past_trim_skips_forward(self):
        from repro.ingest.scribe import ScribeLog

        scribe = ScribeLog(retention_per_category=2)
        scribe.append("a", [{"time": i} for i in range(5)])
        rows, cursor = scribe.read("a", 1)  # older than retention
        assert [r["time"] for r in rows] == [3, 4]
        assert cursor == 5
