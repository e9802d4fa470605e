"""Soak scenarios: many restart generations, interleaved ingest/expiry.

The paper's deployment cadence is weekly forever; the mechanism must be
idempotent across arbitrarily many generations — data identical, no
shared memory accumulation, watermarks consistent with the disk backup.
"""


from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.server.leaf import LeafServer

from tests.conftest import SHM_DIR


class TestManyGenerations:
    def test_ten_shm_generations_preserve_everything(
        self, shm_namespace, tmp_path, clock
    ):
        backup = DiskBackup(tmp_path / "backup")
        leafmap = LeafMap(clock=clock, rows_per_block=32)
        leafmap.get_or_create("t").add_rows({"time": i} for i in range(100))
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        for generation in range(10):
            engine = RestartEngine(
                "g", namespace=shm_namespace, backup=backup, clock=clock
            )
            engine.backup_to_shm(leafmap)
            leafmap = LeafMap(clock=clock, rows_per_block=32)
            report = RestartEngine(
                "g", namespace=shm_namespace, backup=backup, clock=clock
            ).restore(leafmap)
            assert report.method is RecoveryMethod.SHARED_MEMORY, generation
            assert leafmap.snapshot_rows() == snapshot, generation
        # Nothing accumulated in /dev/shm.
        leaked = [p.name for p in SHM_DIR.iterdir() if p.name.startswith(shm_namespace)]
        assert leaked == []

    def test_generations_with_ingest_and_expiry(self, shm_namespace, tmp_path, clock):
        """Each generation adds fresh rows and expires old ones; the
        surviving window is exactly what every generation's scan says."""
        leaf = LeafServer(
            "s",
            backup=DiskBackup(tmp_path / "backup"),
            namespace=shm_namespace,
            clock=clock,
            rows_per_block=32,
        )
        leaf.start()
        base = int(clock.now())
        for generation in range(6):
            leaf.add_rows(
                "t",
                [{"time": base + generation * 100 + i} for i in range(50)],
            )
            leaf.leafmap.seal_all()
            if generation >= 2:
                cutoff = base + (generation - 2) * 100
                for table in leaf.leafmap:
                    table.expire(cutoff)
                    leaf.backup.record_expiry(table.name, table.total_rows_expired)
            leaf.sync_to_disk()
            leaf.shutdown(use_shm=True)
            leaf = LeafServer(
                "s",
                backup=DiskBackup(tmp_path / "backup"),
                namespace=shm_namespace,
                clock=clock,
                rows_per_block=32,
            )
            report = leaf.start()
            assert report.method is RecoveryMethod.SHARED_MEMORY
        # Generations 0..5 ingested 300 rows; cutoff ended at base+300.
        times = [row["time"] for row in leaf.leafmap.get_table("t").to_rows()]
        assert len(times) == 150
        assert min(times) >= base + 300
        leaf.shutdown(use_shm=False)

    def test_alternating_shm_and_disk_generations(self, shm_namespace, tmp_path, clock):
        leaf = LeafServer(
            "a",
            backup=DiskBackup(tmp_path / "backup"),
            namespace=shm_namespace,
            clock=clock,
            rows_per_block=32,
        )
        leaf.start()
        leaf.add_rows("t", [{"time": i, "v": float(i)} for i in range(80)])
        leaf.leafmap.seal_all()
        expected = leaf.leafmap.snapshot_rows()
        for generation in range(6):
            use_shm = generation % 2 == 0
            leaf.sync_to_disk()
            leaf.shutdown(use_shm=use_shm)
            leaf = LeafServer(
                "a",
                backup=DiskBackup(tmp_path / "backup"),
                namespace=shm_namespace,
                clock=clock,
                rows_per_block=32,
            )
            report = leaf.start()
            expected_method = (
                RecoveryMethod.SHARED_MEMORY
                if use_shm
                # Fully-sealed synced data has a fresh snapshot, so the
                # disk generations take the fast tier.
                else RecoveryMethod.DISK_SNAPSHOT
            )
            assert report.method is expected_method
            assert leaf.leafmap.snapshot_rows() == expected
        leaf.shutdown(use_shm=False)

    def test_disk_sync_watermarks_stay_consistent(self, shm_namespace, tmp_path, clock):
        """After any number of shm generations, an incremental sync only
        writes genuinely new rows (the counters travelled correctly)."""
        backup = DiskBackup(tmp_path / "backup")
        leaf = LeafServer(
            "w", backup=backup, namespace=shm_namespace, clock=clock, rows_per_block=32
        )
        leaf.start()
        leaf.add_rows("t", [{"time": i} for i in range(64)])
        leaf.sync_to_disk()
        for generation in range(4):
            leaf.shutdown(use_shm=True)
            leaf = LeafServer(
                "w", backup=DiskBackup(tmp_path / "backup"),
                namespace=shm_namespace, clock=clock, rows_per_block=32,
            )
            leaf.start()
            assert leaf.sync_to_disk() == 0  # nothing new
            leaf.add_rows("t", [{"time": 1000 + generation}])
            assert leaf.sync_to_disk() == 1
        leaf.shutdown(use_shm=False)
