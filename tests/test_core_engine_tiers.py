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

from repro.cluster.replication import ReplicaBlockServer, ReplicaFetchSession, snapshot_leafmap
from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk import recovery
from repro.disk.backup import DiskBackup
from repro.disk.shmformat import write_table_shm_format
from repro.errors import CorruptionError, ReplicaWireError
from repro.shm.layout import SHM_LAYOUT_VERSION
from repro.server.leaf import LeafServer
from repro.shm.metadata import LeafMetadata
from repro.shm.segment import ShmSegment
from repro.util.checksum import rows_digest
from repro.util.memtrack import MemoryTracker
from tests.conftest import check_counters, make_leafmap, restart_spanning_chain
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

    def test_a_backup_without_snapshots_reads_no_chain(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """A backup opened with ``snapshots=False`` offers no chain to
        read, even one the manifest vouches for: the restart skips the
        snapshot rung, says why, and replays the log.  It opens no chain
        file and removes none."""
        backup, snapshot = synced_backup(tmp_path, clock)
        files = backup.chain_files("events")
        opened = []
        monkeypatch.setattr(
            recovery, "read_table_snapshot", lambda *args: opened.append(args)
        )
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=DiskBackup(backup.directory, snapshots=False),
            clock=clock,
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.leaf_states == ["init", "disk_recovery", "alive"]
        assert [(e.what, e.reason) for e in report.events if e.kind == "skip"] == [
            ("disk_snapshot", "backup keeps no snapshots")
        ]
        assert restored.snapshot_rows() == snapshot
        check_counters(restored)
        assert opened == []
        assert files and all(path.exists() for path in files)
        assert DiskBackup(backup.directory).snapshots_ready()

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
        """record_expiry does not invalidate the snapshot; the count is
        trimmed after recovery, matching legacy replay (block 0 holds 50
        rows)."""
        backup, _ = synced_backup(tmp_path, clock)
        backup.record_expiry("events", 50)
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
            backup=DiskBackup(backup.directory, snapshots=False),
            clock=clock,
        ).restore(legacy)
        assert restored.snapshot_rows() == legacy.snapshot_rows()

    def test_expired_count_off_a_block_boundary_falls_to_legacy(
        self, shm_namespace, tmp_path, clock
    ):
        """A count the chain's leading blocks cannot cover exactly is
        corruption: the leaf lands on legacy replay, which trims it."""
        backup, _ = synced_backup(tmp_path, clock)
        backup.record_expiry("events", 30)
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert "block boundary" in report.failure_reason
        assert report.rows == 90

    def test_a_manifest_without_the_count_filters_by_time_on_legacy(
        self, shm_namespace, tmp_path, clock
    ):
        """A manifest from before the expired-row count carries only a
        cutoff: the snapshot rung has nothing to trim by, so it is
        passed over as an older build's, and legacy replay filters the
        rows by time."""
        backup, snapshot = synced_backup(tmp_path, clock)
        entry = backup._entry("events")
        del entry["rows_expired"]
        entry["expire_before"] = 1030
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.failure_reason is None
        (skip,) = [event for event in report.events if event.kind == "skip"]
        assert skip.reason == "table 'events': chain written by an older build"
        assert restored.snapshot_rows() == {
            "events": [row for row in snapshot["events"] if row["time"] >= 1030]
        }

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
        """A fault *inside* the snapshot tier (its one heap charge, made
        once every chain is read and before any table exists) leaves
        nothing charged for legacy replay to double."""
        backup, snapshot = synced_backup(
            tmp_path, clock, tables=("events", "metrics")
        )
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        recorder.fail(kind="allocate", target="heap")
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
        are dead before any file is read); faulted at its one heap
        charge, after every chain is read, it lands on legacy replay —
        tracker balanced either way."""
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
            classmethod(lambda cls, buf: (unpacked.append(1), real(cls, buf))[1]),
        )
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        if fault is not None:
            # The snapshot rung's one charge: both chains are read.
            recorder.fail(kind="allocate", target="heap")
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

    def test_a_passed_over_snapshot_rung_is_a_skip_naming_the_table(
        self, shm_namespace, tmp_path, clock
    ):
        """A sync that left rows buffered leaves the chain behind the
        sync generation: the restart notes why it went straight to
        legacy replay.  A brand-new leaf has nothing to skip."""
        backup, _ = synced_backup(tmp_path, clock, tables=("events", "metrics"))
        leafmap = make_leafmap(clock, tables=("events", "metrics"))
        leafmap.get_table("metrics").add_rows([{"time": 9000, "host": "h0"}])
        backup.sync_leafmap(leafmap)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=DiskBackup(backup.directory), clock=clock
        ).restore(LeafMap(clock=clock, rows_per_block=50))
        assert report.method is RecoveryMethod.DISK
        (skip,) = [event for event in report.events if event.kind == "skip"]
        assert (skip.what, skip.reason) == (
            "disk_snapshot",
            "table 'metrics': snapshot generation 1 does not match sync generation 2",
        )
        report = RestartEngine(
            "1", namespace=shm_namespace, backup=DiskBackup(tmp_path / "new"), clock=clock
        ).restore(LeafMap(clock=clock, rows_per_block=50))
        assert report.method is RecoveryMethod.DISK
        assert [event.kind for event in report.events if event.kind == "skip"] == []

    @pytest.mark.parametrize("untrusted", ["valid_bit", "layout_version"])
    def test_untrusted_shm_is_a_skip_with_its_reason(
        self, untrusted, shm_namespace, tmp_path, clock
    ):
        """Shared memory that exists but cannot be trusted leaves a trace:
        one ``skip`` of the rung and why, no fall.  A layout this build
        does not read is no more trusted in a snapshot file: the disk
        snapshot rung is skipped for the same reason."""
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
        skips = [(event.what, event.reason) for event in report.events if event.kind == "skip"]
        if untrusted == "valid_bit":
            assert skips == [("shared_memory", "valid bit is false")]
        else:
            why = f"layout version {SHM_LAYOUT_VERSION}, not {layout}"
            assert skips == [("shared_memory", why), ("disk_snapshot", why)]
        assert report.failure_reason is None and not report.fell_back_to_disk
        assert restored.snapshot_rows() == snapshot
        assert not engine.shm_state_exists()


class TestLateBlockExpiryOnEveryRung:
    """Blocks with max times 109, 59 (late) and 309 synced as a base,
    409 and 509 as a delta, an expiry run, a crash: every rung restores
    the live table.  At cutoff 70 the late block alone is aged out and
    waits behind the oldest one, so nothing goes; at 110 both lead the
    table and go, and the count ends inside the base; at 310 it ends at
    the base/delta boundary, at 410 inside the delta.  Legacy replay
    used to trim a per-block drop by count and hand back the wrong
    block."""

    @pytest.mark.parametrize(
        "cutoff, dropped", [(70, 0), (110, 20), (310, 30), (410, 40)]
    )
    @pytest.mark.parametrize(
        "rung", ["shm", "replica", "snapshot", "legacy-1", "legacy-2"]
    )
    def test_every_rung_returns_the_live_digest(
        self, rung, cutoff, dropped, shm_namespace, tmp_path, clock
    ):
        leaf = LeafServer(
            "0",
            backup=DiskBackup(tmp_path / "backup"),
            namespace=shm_namespace,
            clock=clock,
            rows_per_block=10,
        )
        leaf.start()
        for starts in ((100, 50, 300), (400, 500)):
            for start in starts:
                leaf.add_rows("events", [{"time": start + i, "host": f"h{i % 3}"} for i in range(10)])
            leaf.sync_to_disk()
        chain = leaf.backup.snapshot_chain("events")
        assert [(link["kind"], link["blocks"]) for link in chain] == [("base", 3), ("delta", 2)]
        assert leaf.expire(int(clock.now()) - cutoff) == dropped
        live = rows_digest(leaf.leafmap.snapshot_rows())
        server = None
        if rung == "shm":
            leaf.shutdown(use_shm=True)
        else:
            if rung == "replica":  # a standby mirroring the live table
                standby = leaf.leafmap
                server = ReplicaBlockServer(lambda: snapshot_leafmap(standby))
            leaf.crash()
        try:
            engine = RestartEngine(
                "0",
                namespace=shm_namespace,
                backup=DiskBackup(tmp_path / "backup", snapshots=not rung.startswith("legacy")),
                clock=clock,
                replay_workers=int(rung[-1]) if rung.startswith("legacy") else 1,
            )
            if server is not None:
                address = server.address
                engine.replica_source = lambda: ReplicaFetchSession(address, streams=1)
            restored = LeafMap(clock=clock, rows_per_block=10)
            report = engine.restore(restored)
        finally:
            if server is not None:
                server.close()
        assert report.method is {
            "shm": RecoveryMethod.SHARED_MEMORY,
            "replica": RecoveryMethod.REPLICA,
            "snapshot": RecoveryMethod.DISK_SNAPSHOT,
        }.get(rung, RecoveryMethod.DISK)
        assert not report.fell_back_to_legacy
        assert rows_digest(restored.snapshot_rows()) == live
        assert restored.get_table("events").total_rows_expired == dropped


class TestFallLandsTheRecoveredCounters:
    """A fall from a top rung lands each table with the counters of the
    rung below it, plus the rows added since: the next sync writes
    exactly the rows the log lacks, and the crash after it loses none.
    A table used to keep the top rung's counters (or none at all, when
    that rung never published it), so the sync wrote too few rows."""

    def leaf(self, namespace, directory, clock):
        return LeafServer(
            "0",
            backup=DiskBackup(directory),
            namespace=namespace,
            clock=clock,
            rows_per_block=64,
        )

    @staticmethod
    def rows(start, n):
        return [{"time": start + i, "host": f"h{i % 5}"} for i in range(n)]

    def test_unreadable_second_segment(self, shm_namespace, tmp_path, clock):
        leaf = self.leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        for name in ("events", "metrics"):
            leaf.add_rows(name, self.rows(0, 512))
        leaf.shutdown(use_shm=True)  # PREPARE syncs each table
        with ShmSegment.attach(f"{shm_namespace}-leaf-0-t1") as segment:
            segment.write_at(0, b"\x00" * 4)  # the metrics segment's magic
        leaf = self.leaf(shm_namespace, tmp_path, clock)
        report = leaf.start()
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.failure_reason.startswith("CorruptionError")
        check_counters(leaf.leafmap)
        leaf.add_rows("metrics", self.rows(1000, 300))
        assert leaf.sync_to_disk() == 300
        leaf.crash()
        leaf = self.leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        assert leaf.leafmap.row_count == 1324
        check_counters(leaf.leafmap)
        leaf.crash()

    def test_replica_drain_dies_mid_pull(self, shm_namespace, tmp_path, clock, monkeypatch):
        """The standby mirrored 512 rows the primary never synced."""
        rows = self.rows(0, 1536)
        leaf = self.leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", rows[:1024])
        leaf.sync_to_disk()
        leaf.add_rows("events", rows[1024:])
        leaf.crash()
        standby = LeafMap(clock=clock, rows_per_block=64)
        standby.get_or_create("events").add_rows(rows)
        server = ReplicaBlockServer(lambda: snapshot_leafmap(standby))

        def dies(session, requests, handler):
            raise ReplicaWireError("injected: the standby is gone mid-pull")

        monkeypatch.setattr(ReplicaFetchSession, "fetch_many", dies)
        try:
            leaf = self.leaf(shm_namespace, tmp_path, clock)
            address = server.address
            leaf.engine.replica_source = lambda: ReplicaFetchSession(address, streams=1)
            report = leaf.start()
        finally:
            server.close()
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_from_replica
        check_counters(leaf.leafmap)
        leaf.add_rows("events", self.rows(5000, 256))
        assert leaf.sync_to_disk() == 256
        leaf.crash()
        leaf = self.leaf(shm_namespace, tmp_path, clock)
        assert leaf.start().method is RecoveryMethod.DISK_SNAPSHOT
        assert leaf.leafmap.row_count == 1280
        check_counters(leaf.leafmap)
        leaf.crash()
