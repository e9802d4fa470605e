"""The disk side of the recovery ladder (paper, Section 6).

Disk recovery is two rungs: a trusted shm-format snapshot is bulk-unpacked
(DISK_SNAPSHOT_RECOVERY); any validity failure — torn file, stale
generation, layout mismatch, mid-tier fault — routes the *whole* leaf down
to legacy row-format replay with identical recovered data.  The second
half of the file sweeps fault injection across every restore hook and
checks the memory tracker returns to baseline: fallback may cost time,
never accounting drift.
"""

from __future__ import annotations

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.disk.shmformat import write_table_shm_format
from repro.errors import CorruptionError
from repro.shm.layout import SHM_LAYOUT_VERSION
from repro.shm.metadata import LeafMetadata
from repro.util.memtrack import MemoryTracker
from tests.conftest import make_leafmap, restart_spanning_chain
from tests.crashpoints import Recorder


def synced_backup(tmp_path, clock, tables=("events",)):
    """A sealed, fully-synced leaf: every snapshot fresh."""
    backup = DiskBackup(tmp_path / "backup")
    leafmap = make_leafmap(clock, tables=tables)
    leafmap.seal_all()
    backup.sync_leafmap(leafmap)
    assert backup.snapshots_ready()
    return backup, leafmap.snapshot_rows()


class TestSnapshotTier:
    def test_snapshot_tier_is_the_default_disk_rung(
        self, shm_namespace, tmp_path, clock
    ):
        backup, snapshot = synced_backup(tmp_path, clock)
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert not report.fell_back_to_legacy
        assert report.leaf_states == ["init", "disk_snapshot_recovery", "alive"]
        assert report.tables == 1
        assert report.rows == 120
        assert restored.snapshot_rows() == snapshot

    def test_torn_snapshot_file_falls_back_to_legacy(
        self, shm_namespace, tmp_path, clock
    ):
        backup, snapshot = synced_backup(tmp_path, clock)
        path = backup.snapshot_path("events")
        path.write_bytes(path.read_bytes()[:32])  # torn mid-header
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert report.leaf_states == [
            "init", "disk_snapshot_recovery", "disk_recovery", "alive",
        ]
        assert restored.snapshot_rows() == snapshot

    def test_generation_mismatch_falls_back_to_legacy(
        self, shm_namespace, tmp_path, clock
    ):
        """A snapshot file whose embedded generation the manifest does not
        vouch for (e.g. a crash landed the file but not the manifest) is
        routed around, not trusted."""
        backup, snapshot = synced_backup(tmp_path, clock)
        fresh = make_leafmap(clock)
        fresh.seal_all()
        write_table_shm_format(
            backup.snapshot_dir,
            "events",
            fresh.get_table("events").blocks,
            generation=999,
        )
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert restored.snapshot_rows() == snapshot

    def test_buffered_rows_at_sync_keep_snapshot_stale(
        self, shm_namespace, tmp_path, clock
    ):
        """A sync with buffered rows must not refresh the snapshot (it
        holds sealed blocks only), so the restart pre-check sends the leaf
        straight to legacy replay — no tier entered, no fallback flagged."""
        backup = DiskBackup(tmp_path / "backup")
        leafmap = make_leafmap(clock)  # 100 sealed + 20 still buffered
        backup.sync_leafmap(leafmap)
        assert not backup.snapshots_ready()
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert not report.fell_back_to_legacy
        assert report.leaf_states == ["init", "disk_recovery", "alive"]
        assert restored.snapshot_rows() == leafmap.snapshot_rows()

    def test_layout_version_mismatch_skips_snapshot_tier(
        self, shm_namespace, tmp_path, clock
    ):
        """A build whose shm layout diverged must not consume shm-format
        bytes from disk any more than from /dev/shm."""
        backup, snapshot = synced_backup(tmp_path, clock)
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            clock=clock,
            layout_version=SHM_LAYOUT_VERSION + 1,
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert not report.fell_back_to_legacy
        assert report.leaf_states == ["init", "disk_recovery", "alive"]
        assert restored.snapshot_rows() == snapshot

    def test_expiry_after_snapshot_is_reapplied(
        self, shm_namespace, tmp_path, clock
    ):
        """record_expiry does not invalidate the snapshot; the cutoff is
        re-applied after recovery, matching legacy replay at the block
        boundary (block 0 holds times 1000-1049)."""
        backup, _ = synced_backup(tmp_path, clock)
        backup.record_expiry("events", 1050)
        assert backup.snapshots_ready()
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.rows == 70
        legacy = LeafMap(clock=clock, rows_per_block=50)
        RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            clock=clock,
            disk_snapshot_tier=False,
        ).restore(legacy)
        assert restored.snapshot_rows() == legacy.snapshot_rows()

    def test_multi_table_tier_is_all_or_nothing(
        self, shm_namespace, tmp_path, clock
    ):
        """One bad snapshot routes *both* tables to legacy replay — the
        tiers never mix within a leaf."""
        backup, snapshot = synced_backup(
            tmp_path, clock, tables=("events", "metrics")
        )
        path = backup.snapshot_path("metrics")
        path.write_bytes(path.read_bytes()[:60])
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert report.tables == 2
        assert restored.snapshot_rows() == snapshot


class TestFallbackAccounting:
    """Satellite: every fallback leaves the tracker at baseline.

    Heap bytes of whatever a failed tier installed must be freed, shared
    memory must be fully consumed, and the final heap charge must equal
    exactly the bytes of the recovered tables.  (tests/test_crashpoints.py
    raises at every side effect of each rung; these are the windows
    with a story.)
    """

    #: Raises in the shm restore, by the side effect they replace: the
    #: one after the invalidate, the first table's segment leaving, the
    #: metadata leaving.
    SHM_POINTS = {
        "restore:after_invalidate": dict(at=1),
        "restore:table": dict(kind="unlink", target="-t0"),
        "restore:before_finish": dict(kind="unlink", target="-meta"),
    }

    @pytest.mark.parametrize("point", list(SHM_POINTS))
    def test_shm_fault_lands_on_snapshot_tier_at_baseline(
        self, point, shm_namespace, tmp_path, clock, monkeypatch
    ):
        backup = DiskBackup(tmp_path / "backup")
        leafmap = make_leafmap(clock, tables=("events", "metrics"))
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        tracker = MemoryTracker()
        engine = RestartEngine(
            "7",
            namespace=shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
        )
        engine.backup_to_shm(leafmap)  # PREPARE syncs -> snapshots fresh
        assert tracker.in_region("heap") == 0

        recorder = Recorder(monkeypatch)
        recorder.fail(**self.SHM_POINTS[point])
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = engine.restore(restored)
        assert recorder.fired, "the injected fault never fired"
        assert report.fell_back_to_disk
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == snapshot
        # Accounting invariants: shm fully drained, heap charged exactly
        # for what the winning tier installed.
        assert not engine.shm_state_exists()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_snapshot_fault_lands_on_legacy_at_baseline(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """A fault *inside* the snapshot tier (charging its second table)
        must free the first table's heap bytes, and not the second's,
        before legacy replay recharges them."""
        backup, snapshot = synced_backup(
            tmp_path, clock, tables=("events", "metrics")
        )
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        recorder.fail(kind="allocate", target="heap", nth=2)
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "7",
            namespace=shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
        ).restore(restored)
        assert recorder.fired
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert restored.snapshot_rows() == snapshot
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("fault", [None, "restore:snapshot_table"])
    def test_six_link_chain_spanning_a_restart(
        self, fault, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """The snapshot tier over chains two processes wrote: unfaulted
        it unpacks only the blocks still alive (the manifest says which
        are dead before any file is read); faulted after its first table
        it frees that table and lands on legacy replay — tracker
        balanced either way."""
        from repro.columnstore.rowblock import RowBlock

        backup, leafmap = restart_spanning_chain(
            tmp_path / "backup", clock, tables=("events", "metrics")
        )
        snapshot = leafmap.snapshot_rows()
        unpacked = []
        real = RowBlock.unpack.__func__
        monkeypatch.setattr(
            RowBlock,
            "unpack",
            classmethod(lambda cls, buf, copy=True: (unpacked.append(1), real(cls, buf, copy))[1]),
        )
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        if fault is not None:
            # The second table's charge: the first is home.
            recorder.fail(kind="allocate", target="heap", nth=2)
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "7",
            namespace=shm_namespace,
            backup=DiskBackup(backup.directory),
            tracker=tracker,
            clock=clock,
        ).restore(restored)
        if fault is None:
            assert report.method is RecoveryMethod.DISK_SNAPSHOT
            # 13 blocks per table sit in the chain files, 2 of them dead.
            assert len(unpacked) == sum(t.block_count for t in restored) == 22
        else:
            assert recorder.fired
            assert report.method is RecoveryMethod.DISK
            assert report.fell_back_to_legacy
        assert restored.snapshot_rows() == snapshot
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_partial_attempt_counters_survive_fallback(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """A failed memory attempt's partial progress and its failure
        reason must stay on the final report — the disk rungs restart
        the per-method counters, not the attempt's history."""
        backup = DiskBackup(tmp_path / "backup")
        leafmap = make_leafmap(clock, tables=("events", "metrics"))
        leafmap.seal_all()
        engine = RestartEngine(
            "7", namespace=shm_namespace, backup=backup, clock=clock
        )
        engine.backup_to_shm(leafmap)

        # The fourth block's charge: the first table (three blocks) is
        # home, so the attempt got exactly one table in before dying.
        Recorder(monkeypatch).fail(
            kind="allocate", target="heap", nth=4, exc=CorruptionError("wedged segment")
        )
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = engine.restore(restored)
        assert report.fell_back_to_disk
        assert report.failure_reason == "CorruptionError: wedged segment"
        attempt = report.attempt(RecoveryMethod.SHARED_MEMORY)
        assert attempt.tables == 1
        assert attempt.blocks == 3
        assert attempt.rows == 120
        assert attempt.bytes > 0
        # The winning tier's own counters cover the whole leaf and are
        # not polluted by the attempt's partial work.
        assert report.tables == 2
        assert report.rows == 240

    def test_double_fallback_shm_then_torn_snapshot_to_legacy(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """The full ladder in one restart: memory recovery dies mid-copy,
        the snapshot tier finds a torn file, legacy replay wins — and the
        tracker still balances."""
        backup = DiskBackup(tmp_path / "backup")
        leafmap = make_leafmap(clock, tables=("events", "metrics"))
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        tracker = MemoryTracker()
        engine = RestartEngine(
            "7",
            namespace=shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
        )
        engine.backup_to_shm(leafmap)
        path = backup.snapshot_path("events")
        path.write_bytes(path.read_bytes()[:50])

        Recorder(monkeypatch).fail(kind="unlink", target="-t0")
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = engine.restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_disk and report.fell_back_to_legacy
        assert report.leaf_states == [
            "init",
            "memory_recovery",
            "disk_snapshot_recovery",
            "disk_recovery",
            "alive",
        ]
        assert restored.snapshot_rows() == snapshot
        assert not engine.shm_state_exists()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)


class TestTimelineCoversTheRestart:
    """The report's clock starts when the restore does: a slow answer
    from the standby catalog is part of the restart it delays."""

    @pytest.mark.parametrize("answer", ["none", "raise"])
    def test_slow_replica_source_counts_toward_duration(
        self, answer, shm_namespace, tmp_path, clock
    ):
        backup, snapshot = synced_backup(tmp_path, clock)

        def slow_source():
            clock.advance(5.0)
            if answer == "raise":
                raise ConnectionRefusedError("standby is gone")
            return None

        engine = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            clock=clock,
            replica_source=slow_source,
        )
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = engine.restore(restored)
        assert report.duration_seconds == 5.0
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == snapshot
        replica = [e for e in report.events if e.what == "replica"]
        if answer == "none":
            assert [e.kind for e in replica] == ["skip"]
            assert report.failure_reason is None
        else:
            (fall,) = replica
            assert fall.kind == "fall"
            assert fall.reason == "ConnectionRefusedError: standby is gone"
            assert report.failure_reason == fall.reason
        # Neither answer entered the rung, so neither is a fall to disk.
        assert not report.fell_back_to_disk
        assert report.leaf_states == ["init", "disk_snapshot_recovery", "alive"]

    @pytest.mark.parametrize("untrusted", ["valid_bit", "layout_version"])
    def test_untrusted_shm_is_a_skip_with_its_reason(
        self, untrusted, shm_namespace, tmp_path, clock
    ):
        """Shared memory that exists but cannot be trusted leaves a trace:
        one ``skip`` of the rung and why, no fall."""
        backup = DiskBackup(tmp_path / "backup")
        leafmap = make_leafmap(clock)
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        RestartEngine("0", namespace=shm_namespace, backup=backup, clock=clock).backup_to_shm(
            leafmap
        )
        layout = SHM_LAYOUT_VERSION
        if untrusted == "valid_bit":
            meta = LeafMetadata.attach(shm_namespace, "0")
            meta.set_valid(False)
            meta.close()
        else:
            layout += 1
        engine = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock, layout_version=layout
        )
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = engine.restore(restored)
        (skip,) = [event for event in report.events if event.kind == "skip"]
        assert skip.what == "shared_memory"
        assert skip.reason == (
            "valid bit is false"
            if untrusted == "valid_bit"
            else f"layout version {SHM_LAYOUT_VERSION}, not {layout}"
        )
        assert report.failure_reason is None and not report.fell_back_to_disk
        assert restored.snapshot_rows() == snapshot
        assert not engine.shm_state_exists()
