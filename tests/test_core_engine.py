"""Tests for the restart engine: Figures 6 and 7, the valid-bit
protocol, fallback, growth, deadline kills, and the footprint bound."""

import mmap
import os
import random
import tracemalloc

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.core.watchdog import CooperativeDeadline
from repro.errors import RecoveryError, ShutdownTimeout
from repro.shm.layout import SHM_LAYOUT_VERSION
from repro.shm.metadata import LeafMetadata
from repro.util.memtrack import MemoryTracker

from tests.conftest import SHM_DIR, make_leafmap
from tests.crashpoints import Effect, InjectedFault, Recorder, in_child


def engine_for(namespace, backup, clock, **kwargs):
    return RestartEngine("0", namespace=namespace, backup=backup, clock=clock, **kwargs)


def fresh_map(clock):
    return LeafMap(clock=clock, rows_per_block=50)


class TestBackupRestore:
    def test_shm_roundtrip_preserves_everything(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock, tables=("events", "errors"), rows=160)
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        restored = fresh_map(clock)
        report = engine_for(shm_namespace, backup, clock).restore(restored)
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert restored.snapshot_rows() == snapshot

    def test_copy_out_builds_each_table_image_once(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """The image that sizes a table's segment is the one written into
        it: one ``table_segment_image`` per table, not one to size and
        one to copy."""
        from repro.core import engine as engine_module
        from repro.shm import layout

        calls = []
        real = layout.table_segment_image

        def spy(table_name, blocks):
            calls.append(table_name)
            return real(table_name, blocks)

        monkeypatch.setattr(layout, "table_segment_image", spy)
        monkeypatch.setattr(engine_module, "table_segment_image", spy, raising=False)
        leafmap = make_leafmap(clock, tables=("events", "errors"), rows=160)
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        assert sorted(calls) == ["errors", "events"]
        monkeypatch.undo()
        restored = fresh_map(clock)
        report = engine_for(shm_namespace, backup, clock).restore(restored)
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert restored.snapshot_rows() == snapshot

    def test_backup_empties_the_leafmap(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock)
        engine = engine_for(shm_namespace, backup, clock)
        engine.backup_to_shm(leafmap)
        assert len(leafmap) == 0
        engine.discard_shm()

    def test_backup_seals_open_buffers(self, shm_namespace, backup, clock):
        leafmap = fresh_map(clock)
        leafmap.get_or_create("t").add_rows({"time": i} for i in range(7))
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        restored = fresh_map(clock)
        engine_for(shm_namespace, backup, clock).restore(restored)
        assert restored.get_table("t").row_count == 7

    def test_shm_state_consumed_by_restore(self, shm_namespace, backup, clock):
        engine = engine_for(shm_namespace, backup, clock)
        engine.backup_to_shm(make_leafmap(clock))
        assert engine.shm_state_valid()
        engine_for(shm_namespace, backup, clock).restore(fresh_map(clock))
        assert not engine.shm_state_exists()

    def test_report_counters(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock, rows_per_block=50, rows=160)
        leafmap.seal_all()
        n_columns = len(leafmap.get_table("events").blocks[0].schema)
        engine = engine_for(shm_namespace, backup, clock)
        report = engine.backup_to_shm(leafmap)
        assert report.tables == 1
        assert report.row_blocks == 4  # 160 rows / 50 per block, sealed
        assert report.rbc_copies == 4 * n_columns
        assert report.rows == 160
        assert report.bytes_copied > 0
        assert report.leaf_states == ["alive", "copy_to_shm", "exit"]
        engine.discard_shm()

    def test_restore_report_counters(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock, rows=160)
        leafmap.seal_all()
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        report = engine_for(shm_namespace, backup, clock).restore(fresh_map(clock))
        assert report.rows == 160
        assert report.row_blocks == 4
        assert report.leaf_states == ["init", "memory_recovery", "alive"]

    def test_restore_requires_empty_map(self, shm_namespace, backup, clock):
        engine = engine_for(shm_namespace, backup, clock)
        with pytest.raises(RecoveryError):
            engine.restore(make_leafmap(clock))

    def test_ingest_counters_survive_roundtrip(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock, rows=120)
        table = leafmap.get_table("events")
        table.seal_buffer()
        table.expire(1000 + 50)
        expired = table.total_rows_expired
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        restored = fresh_map(clock)
        engine_for(shm_namespace, backup, clock).restore(restored)
        assert restored.get_table("events").total_rows_ingested == 120
        assert restored.get_table("events").total_rows_expired == expired


class TestDiskFallback:
    def test_no_shm_state_goes_to_disk(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        snapshot = leafmap.snapshot_rows()
        report = engine_for(shm_namespace, backup, clock).restore(fresh_map(clock))
        assert report.method is RecoveryMethod.DISK
        restored = fresh_map(clock)
        engine_for(shm_namespace, backup, clock).restore(restored)
        assert restored.snapshot_rows() == snapshot

    def test_invalid_bit_forces_disk_and_cleans_segments(
        self, shm_namespace, backup, clock
    ):
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        engine = engine_for(shm_namespace, backup, clock)
        engine.backup_to_shm(leafmap)
        meta = LeafMetadata.attach(shm_namespace, "0")
        meta.set_valid(False)
        meta.close()
        report = engine_for(shm_namespace, backup, clock).restore(fresh_map(clock))
        # The PREPARE-state sync left a fresh snapshot, so the invalid
        # bit routes to the snapshot tier, not legacy replay.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert not engine.shm_state_exists()

    def test_layout_version_mismatch_forces_disk(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        old = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            clock=clock,
            layout_version=SHM_LAYOUT_VERSION,
        )
        old.backup_to_shm(leafmap)
        new = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            clock=clock,
            layout_version=SHM_LAYOUT_VERSION + 1,
        )
        report = new.restore(fresh_map(clock))
        assert report.method is RecoveryMethod.DISK
        assert not new.shm_state_exists()

    def test_no_backup_and_no_shm_raises(self, shm_namespace, clock):
        engine = RestartEngine("0", namespace=shm_namespace, clock=clock)
        with pytest.raises(RecoveryError):
            engine.restore(fresh_map(clock))

    def test_shm_without_backup_still_works(self, shm_namespace, clock):
        engine = RestartEngine("0", namespace=shm_namespace, clock=clock)
        leafmap = make_leafmap(clock)
        snapshot = None
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        engine.backup_to_shm(leafmap)
        restored = fresh_map(clock)
        report = RestartEngine("0", namespace=shm_namespace, clock=clock).restore(
            restored
        )
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert restored.snapshot_rows() == snapshot


def boot_after_backup_crash(namespace, backup, clock, tracker, snapshot):
    """The next boot after a shutdown that raised: never shared memory,
    the synced rows back, and the shm region given back in full — the
    raising process's tracker is the machine's, and keeps only its heap
    until it dies."""
    restored = fresh_map(clock)
    report = engine_for(namespace, backup, clock, tracker=tracker).restore(restored)
    assert report.method is not RecoveryMethod.SHARED_MEMORY
    assert restored.snapshot_rows() == snapshot
    assert tracker.in_region("shm") == 0
    assert tracker.in_region("heap") == sum(t.nbytes for t in restored)
    return report


class TestFaultInjection:
    #: A raise in the shutdown, by the side effect it replaces, and the
    #: rung the next boot lands on.
    BACKUP_POINTS = {
        # Before anything: only the pre-crash sync, taken with a live
        # buffer (no snapshot), is on disk.
        "backup:start": (dict(at=0), RecoveryMethod.DISK),
        # Mid-copy: the table's PREPARE sync left a fresh snapshot, and
        # its segment already holds bytes.
        "backup:table": (dict(kind="allocate", target="shm"), RecoveryMethod.DISK_SNAPSHOT),
        "backup:before_valid": (
            dict(kind="set_valid", target="=True"),
            RecoveryMethod.DISK_SNAPSHOT,
        ),
    }

    @pytest.mark.parametrize("point", list(BACKUP_POINTS))
    def test_crash_during_backup_routes_next_boot_to_disk(
        self, shm_namespace, backup, clock, monkeypatch, point
    ):
        effect, landing = self.BACKUP_POINTS[point]
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        snapshot = leafmap.snapshot_rows()
        tracker = MemoryTracker()
        engine = engine_for(shm_namespace, backup, clock, tracker=tracker)
        with monkeypatch.context() as patch:
            Recorder(patch, namespace=shm_namespace).fail(**effect)
            with pytest.raises(InjectedFault):
                engine.backup_to_shm(leafmap)
        assert not engine.shm_state_valid()
        engine.forget_heap()  # the process dies with its heap
        report = boot_after_backup_crash(shm_namespace, backup, clock, tracker, snapshot)
        assert report.method is landing

    def test_copy_out_killed_early_loses_no_table(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """PREPARE syncs every table before the first leaves the heap.
        A caller that drives the engine with rows it never synced, and
        is killed at table 0's first shm charge, finds every table's
        rows on disk at the next boot — not only table 0's."""
        leafmap = make_leafmap(clock, tables=("events", "errors", "metrics"), rows=150)
        snapshot = leafmap.snapshot_rows()
        tracker = MemoryTracker()
        engine = engine_for(shm_namespace, backup, clock, tracker=tracker)
        with monkeypatch.context() as patch:
            recorder = Recorder(patch, namespace=shm_namespace)
            recorder.fail(kind="allocate", target="shm")
            with pytest.raises(InjectedFault):
                engine.backup_to_shm(leafmap)
        assert recorder.fired == Effect("allocate", "shm")
        assert not recorder.of("free")  # nothing had left the heap
        engine.forget_heap()  # the process dies with its heap
        report = boot_after_backup_crash(shm_namespace, backup, clock, tracker, snapshot)
        # 150 rows seal evenly, so the one sync wrote every snapshot.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT

    def test_crash_at_restore_entry_leaves_shm_valid(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """A death before the restore's first side effect (e.g. the new
        binary failing to boot) leaves the valid bit set, so the boot
        after that still recovers from shared memory."""
        leafmap = make_leafmap(clock)
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        with monkeypatch.context() as patch:
            recorder = Recorder(patch)
            recorder.before(lambda effect: os._exit(0), at=0)
            assert in_child(lambda: engine_for(shm_namespace, backup, clock).restore(fresh_map(clock))) == 0
        follow_up = engine_for(shm_namespace, backup, clock)
        assert follow_up.shm_state_valid()
        restored = fresh_map(clock)
        assert follow_up.restore(restored).method is RecoveryMethod.SHARED_MEMORY
        assert restored.snapshot_rows() == snapshot

    RESTORE_POINTS = {
        "restore:after_invalidate": dict(at=1),
        "restore:in_window": dict(kind="allocate", target="heap"),
        "restore:table": dict(kind="unlink", target="-t0"),
        "restore:before_finish": dict(kind="unlink", target="-meta"),
    }

    @pytest.mark.parametrize("point", list(RESTORE_POINTS))
    def test_crash_during_restore_falls_back_to_disk(
        self, shm_namespace, backup, clock, monkeypatch, point
    ):
        """Any raise after the valid bit went down lands on disk, in this
        process: the invalidate, the first block's charge, the table's
        segment leaving, the metadata leaving."""
        leafmap = make_leafmap(clock)
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        snapshot = leafmap.snapshot_rows()
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        restored = fresh_map(clock)
        with monkeypatch.context() as patch:
            recorder = Recorder(patch)
            recorder.fail(**self.RESTORE_POINTS[point])
            report = engine_for(shm_namespace, backup, clock).restore(restored)
        assert recorder.fired is not None
        # The sync point left a fresh snapshot, so the fallback lands on
        # the fast disk tier — with the same recovered rows.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_to_disk
        assert restored.snapshot_rows() == snapshot
        assert not RestartEngine("0", namespace=shm_namespace).shm_state_exists()

    def test_interrupted_restore_leaves_valid_false(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """Figure 7: 'If this code path is interrupted, the valid bit
        will be false on the next restart.'  We verify the bit is
        cleared *before* any other side effect of the restore."""
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        engine_for(shm_namespace, backup, clock).backup_to_shm(leafmap)
        observed = {}

        def look(effect):
            meta = LeafMetadata.attach(shm_namespace, "0")
            observed["valid"] = meta.valid
            meta.close()

        with monkeypatch.context() as patch:
            recorder = Recorder(patch)
            recorder.before(look, at=1)
            engine_for(shm_namespace, backup, clock).restore(fresh_map(clock))
        assert recorder.effects[0].kind == "set_valid"
        assert observed["valid"] is False


class TestDeadline:
    @staticmethod
    def counted(deadline, clock, expire_at=None):
        """Count ``deadline``'s checks; at check ``expire_at`` the clock
        jumps past its timeout first."""
        checks = []
        real_check = deadline.check

        def check():
            checks.append(1)
            if len(checks) == expire_at:
                clock.advance(2.0)
            real_check()

        deadline.check = check
        return checks

    def test_deadline_kill_falls_back_to_disk(self, shm_namespace, backup, clock):
        """The deadline is checked once per row block copied, so the
        watchdog's ShutdownTimeout lands mid-table, after the third of
        its four blocks: the segment it was filling is already named in
        the metadata, so the next boot's discard takes it and its
        charge."""
        leafmap = make_leafmap(clock, rows=200)  # one table, four 50-row blocks
        backup.sync_leafmap(leafmap)
        snapshot = leafmap.snapshot_rows()
        deadline = CooperativeDeadline(timeout=1.0, clock=clock)
        checks = self.counted(deadline, clock, expire_at=3)
        tracker = MemoryTracker()
        engine = engine_for(shm_namespace, backup, clock, tracker=tracker)
        with pytest.raises(ShutdownTimeout):
            engine.backup_to_shm(leafmap, deadline=deadline)
        assert len(checks) == 3
        assert not engine.shm_state_valid()
        engine.forget_heap()
        report = boot_after_backup_crash(shm_namespace, backup, clock, tracker, snapshot)
        # 200 rows seal evenly, so the pre-kill sync wrote a snapshot.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT

    def test_generous_deadline_passes(self, shm_namespace, backup, clock):
        leafmap = make_leafmap(clock, tables=("events", "errors"))
        deadline = CooperativeDeadline(timeout=3600.0, clock=clock)
        checks = self.counted(deadline, clock)
        engine = engine_for(shm_namespace, backup, clock)
        report = engine.backup_to_shm(leafmap, deadline=deadline)
        assert len(checks) == report.row_blocks == 6  # once per block, not per RBC
        assert report.rbc_copies == 4 * report.row_blocks
        engine_for(shm_namespace, backup, clock).restore(fresh_map(clock))


class TestFootprint:
    def test_backup_frees_heap_as_it_copies(self, shm_namespace, backup, clock):
        """Invariant 5 (paper §4.4): during shutdown the tracked total
        never exceeds data + one table segment's worth of fresh shm +
        metadata — and heap drains to zero."""
        leafmap = make_leafmap(clock, rows=400)
        leafmap.seal_all()
        tracker = MemoryTracker()
        engine = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            clock=clock,
            tracker=tracker,
        )
        data_bytes = sum(t.sealed_nbytes for t in leafmap)
        engine.backup_to_shm(leafmap)
        assert tracker.in_region("heap") == 0
        assert tracker.in_region("shm") >= data_bytes
        restored = fresh_map(clock)
        tracker2 = MemoryTracker()
        RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock, tracker=tracker2
        ).restore(restored)
        assert tracker2.in_region("shm") == 0
        assert tracker2.in_region("heap") >= data_bytes

    def test_shared_tracker_peak_is_bounded(self, shm_namespace, backup, clock):
        """With one tracker across both phases, the peak stays near one
        dataset, not two (the naive copy-then-free would be ~2x)."""
        from repro.shm.layout import table_segment_size

        leafmap = make_leafmap(clock, rows=400, tables=("a", "b", "c"))
        leafmap.seal_all()
        data_bytes = sum(t.sealed_nbytes for t in leafmap)
        max_table_bytes = max(t.sealed_nbytes for t in leafmap)
        segment_total = sum(
            table_segment_size(t.name, t.blocks) for t in leafmap
        )
        tracker = MemoryTracker()
        engine = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock, tracker=tracker
        )
        engine.backup_to_shm(leafmap)
        restored = fresh_map(clock)
        engine2 = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock, tracker=tracker
        )
        engine2.restore(restored)
        # Exact bound: all table segments + at most one table still in
        # heap while its copy is in flight — far below 2x the dataset.
        assert tracker.peak_total <= segment_total + max_table_bytes
        assert tracker.peak_total < 2 * data_bytes

    def test_copy_out_moves_a_block_per_step(self, shm_namespace, backup, clock, monkeypatch):
        """E8's flat-footprint bound at tier 1.  The copy-out charges a
        row block's landed bytes to shm and frees its heap bytes once
        each, so across the shutdown the tracked total stays within the
        segments' bytes plus the largest block — at the ledger's
        512-row blocks, within the data plus the largest block plus a
        page (which holds the preambles)."""
        from repro.shm.layout import table_segment_size

        leafmap = make_leafmap(
            clock, rows_per_block=512, tables=("a", "b", "c", "d"), rows=2048
        )
        leafmap.seal_all()
        blocks = [block for table in leafmap for block in table.blocks]
        data_bytes = sum(block.nbytes for block in blocks)
        largest = max(block.nbytes for block in blocks)
        segment_total = sum(table_segment_size(t.name, t.blocks) for t in leafmap)
        tracker = MemoryTracker()
        engine = engine_for(shm_namespace, backup, clock, tracker=tracker)
        with monkeypatch.context() as patch:
            recorder = Recorder(patch, namespace=shm_namespace)
            report = engine.backup_to_shm(leafmap)
        assert report.row_blocks == len(blocks) == 16
        assert recorder.of("allocate").count(Effect("allocate", "shm")) == len(blocks)
        assert recorder.of("free") == [Effect("free", "heap")] * len(blocks)
        assert tracker.peak_total <= segment_total + largest
        assert tracker.peak_total <= data_bytes + largest + mmap.PAGESIZE
        assert tracker.in_region("shm") == segment_total
        assert tracker.in_region("heap") == 0
        engine.discard_shm()

    def test_copy_out_frees_real_heap_bytes_as_it_goes(
        self, shm_namespace, clock, monkeypatch
    ):
        """The tracker counts charges; this counts bytes.  §4.4's "delete
        row block from heap" must free the block itself, so nothing on
        the copy path may keep a copied block alive past the next one's
        copy: by the last block's heap free the traced heap is down by
        (nearly) the whole table."""
        rng = random.Random(7)
        levels = []
        real = RestartEngine._track_heap_free

        def spy(self, nbytes):
            real(self, nbytes)
            levels.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(RestartEngine, "_track_heap_free", spy)
        tracemalloc.start()
        try:
            leafmap = LeafMap(clock=clock, rows_per_block=2500)
            leafmap.get_or_create("events").add_rows(
                {"time": i, "host": f"{rng.getrandbits(48):012x}", "v": rng.random()}
                for i in range(20_000)
            )
            leafmap.seal_all()
            sealed = leafmap.get_table("events").sealed_nbytes
            engine = RestartEngine("0", namespace=shm_namespace, clock=clock)
            engine.backup_to_shm(leafmap)
        finally:
            tracemalloc.stop()
        engine.discard_shm()
        assert sealed > 200_000
        assert levels[0] - levels[-1] >= 0.75 * sealed


class TestDiscard:
    def test_discard_removes_everything(self, shm_namespace, backup, clock):
        engine = engine_for(shm_namespace, backup, clock)
        engine.backup_to_shm(make_leafmap(clock))
        assert engine.discard_shm() is True
        assert not engine.shm_state_exists()
        assert engine.discard_shm() is False

    def test_unreadable_metadata_is_still_unlinked(self, dirty_shm_namespace, backup, clock):
        """Metadata too corrupt to list its table segments still goes,
        and so do the segments: they are found by their names."""
        engine = engine_for(dirty_shm_namespace, backup, clock)
        engine.backup_to_shm(make_leafmap(clock))
        meta = LeafMetadata.attach(dirty_shm_namespace, "0")
        meta._segment.write_at(0, b"\x00\x00\x00\x00")  # clobber the magic
        meta.close()
        assert engine.discard_shm() is True
        assert not engine.shm_state_exists()
        assert not [p for p in SHM_DIR.iterdir() if p.name.startswith(dirty_shm_namespace)]
        assert engine.tracker.in_region("shm") == 0

    def test_stale_state_discarded_by_next_backup(self, shm_namespace, backup, clock):
        engine = engine_for(shm_namespace, backup, clock)
        engine.backup_to_shm(make_leafmap(clock))
        # A second backup for the same leaf id must not collide.
        engine2 = engine_for(shm_namespace, backup, clock)
        engine2.backup_to_shm(make_leafmap(clock))
        restored = fresh_map(clock)
        report = engine_for(shm_namespace, backup, clock).restore(restored)
        assert report.method is RecoveryMethod.SHARED_MEMORY
