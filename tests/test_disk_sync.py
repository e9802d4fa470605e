"""The leaf sync point as one transaction.

A sync point transcodes the unsynced rows out of the sealed blocks (no
row dicts), appends one chunk per table, writes the chain files, and
then publishes *once*: one fsync of ``snapshots/``, one manifest.  The
manifest's ``log_bytes`` is the row log's commit mark — nothing past it
is read, and the next append starts at it.  Crash safety is argued here
by killing the process at every step of that sequence.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import Table
from repro.core.engine import RecoveryMethod
from repro.disk.backup import DEFAULT_MAX_CHAIN_LINKS, DiskBackup, _unsynced_chunk
from repro.disk.format import encode_chunk_rows, read_table_chunks, write_chunk
from repro.disk.recovery import recover_leafmap
from repro.server.leaf import LeafServer
from repro.util.clock import ManualClock
from tests.conftest import grow_table as grow
from tests.conftest import make_leafmap, restore_from_chain, sealed_sync, two_table_leaf
from tests.crashpoints import Recorder
from tests.test_crashpoints import Sweep

TABLES = ("events", "metrics")


class TestUnsyncedChunk:
    """``_unsynced_chunk(table, k)`` is the chunk of ``to_rows()[k:]``
    without decoding the blocks below ``k``."""

    def table(self):
        table = Table("events", clock=ManualClock(100.0), rows_per_block=10)
        table.add_rows(
            {"time": i, "host": f"h{i % 3}", "tags": ["a", "b"][: i % 3]}
            for i in range(37)
        )
        assert (table.block_count, table.buffered_row_count) == (3, 7)
        return table

    def test_every_offset(self):
        table = self.table()
        everything = table.to_rows()
        assert len(everything) == 37
        # Mid-block, block-boundary (10, 20, 30), buffer-only (31..37)
        # and past-the-end offsets alike.
        for offset in range(41):
            assert _unsynced_chunk(table, offset) == encode_chunk_rows(
                everything[offset:]
            ), offset

    def test_offsets_count_from_the_oldest_resident_row(self):
        table = self.table()
        table.expire(10)  # drops block 0
        everything = table.to_rows()
        assert len(everything) == 27
        for offset in (0, 3, 10, 20, 26, 27):
            assert _unsynced_chunk(table, offset) == encode_chunk_rows(everything[offset:])

    def test_sealed_only_and_buffer_only_tables(self):
        sealed = Table("events", clock=ManualClock(0.0), rows_per_block=5)
        sealed.add_rows({"time": i} for i in range(10))
        assert _unsynced_chunk(sealed, 5) == encode_chunk_rows({"time": i} for i in range(5, 10))
        assert _unsynced_chunk(sealed, 10) == (0, b"")
        buffered = Table("events", clock=ManualClock(0.0), rows_per_block=50)
        buffered.add_rows({"time": i} for i in range(4))
        assert _unsynced_chunk(buffered, 1) == encode_chunk_rows({"time": i} for i in range(1, 4))

    def test_blocks_below_the_offset_are_not_decoded(self, monkeypatch):
        table = self.table()
        decoded = []
        real = RowBlock.decoded_column
        monkeypatch.setattr(
            RowBlock,
            "decoded_column",
            lambda block, name: (decoded.append(block), real(block, name))[1],
        )
        _unsynced_chunk(table, 25)
        assert set(decoded) == {table.blocks[2]}
        del decoded[:]
        _unsynced_chunk(table, 30)
        assert decoded == []

    def test_sync_writes_the_chunk_write_chunk_would(self, backup, clock):
        """Rows still buffered and a straddled block: the log is, byte
        for byte, the file ``write_chunk`` builds from the same rows
        (blocks' rows with their defaults, buffered rows as they came)."""
        leafmap = make_leafmap(clock)  # 2 blocks + 20 buffered
        table = leafmap.get_table("events")
        first = table.to_rows()
        backup.sync_leafmap(leafmap)
        table.add_rows({"time": 9000 + i, "host": "only-host"} for i in range(45))
        second = table.to_rows()[120:]  # 30 rows seal with the 20, 15 stay buffered
        assert (table.block_count, table.buffered_row_count) == (3, 15)
        backup.sync_leafmap(leafmap)
        expected = io.BytesIO()
        expected.write(backup.table_file("events").read_bytes()[:8])
        write_chunk(expected, first)
        write_chunk(expected, second)
        assert backup.table_file("events").read_bytes() == expected.getvalue()
        assert backup.log_bytes("events") == len(expected.getvalue())


def legacy_rows(directory, clock, rows_per_block=50):
    leafmap = LeafMap(clock=clock, rows_per_block=rows_per_block)
    recover_leafmap(DiskBackup(directory), leafmap)
    return leafmap.snapshot_rows()


def log_chunk_sizes(backup, name="events"):
    with open(backup.table_file(name), "rb") as fh:
        return [len(rows) for rows in read_table_chunks(fh)]


class TestLogCommitMark:
    """The manifest says how much of the row log it vouches for."""

    def test_torn_append_is_cut_off_before_the_next_one(self, backup, clock):
        """A crash mid-append leaves half a chunk at the tail.  Appending
        after it used to bury it mid-file, where every later replay
        raised ``chunk checksum mismatch mid-file``."""
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        chunk = io.BytesIO()
        write_chunk(chunk, ({"time": 7000 + i, "host": "torn"} for i in range(40)))
        with open(backup.table_file("events"), "ab") as fh:
            fh.write(chunk.getvalue()[: len(chunk.getvalue()) // 2])
        assert legacy_rows(backup.directory, clock) == leafmap.snapshot_rows()

        reopened = DiskBackup(backup.directory)
        grow(leafmap, 60, 5000)
        reopened.sync_leafmap(leafmap)
        assert log_chunk_sizes(reopened) == [120, 60]
        assert reopened.log_bytes("events") == reopened.table_file("events").stat().st_size
        assert legacy_rows(backup.directory, clock) == leafmap.snapshot_rows()

    def test_unpublished_chunk_is_neither_replayed_nor_kept(
        self, backup, clock, monkeypatch
    ):
        """A crash after the chunk's fsync, before the manifest: the
        chunk is complete and unvouched.  Replay used to keep the file's
        *trailing* rows — losing vouched ones, returning unvouched
        ones — and the next sync appended the same rows again."""
        leafmap = LeafMap(clock=clock, rows_per_block=16)
        table = leafmap.get_or_create("events")
        table.add_rows({"time": i, "host": "h"} for i in range(20))
        backup.sync_leafmap(leafmap)
        vouched = leafmap.snapshot_rows()
        table.add_rows({"time": i, "host": "h"} for i in range(20, 30))

        def die():
            raise KeyboardInterrupt("killed before the manifest publish")

        monkeypatch.setattr(backup, "_save_manifest", die)
        with pytest.raises(KeyboardInterrupt):
            backup.sync_leafmap(leafmap)
        monkeypatch.undo()
        assert log_chunk_sizes(backup) == [20, 10]
        assert legacy_rows(backup.directory, clock, 16) == vouched

        reopened = DiskBackup(backup.directory)
        assert reopened.synced_rows("events") == 20
        assert reopened.sync_leafmap(leafmap) == 10
        assert log_chunk_sizes(reopened) == [20, 10]
        assert legacy_rows(backup.directory, clock, 16) == leafmap.snapshot_rows()

    def test_manifest_without_the_mark_trusts_the_file_and_gains_it(self, backup, clock):
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        path = backup.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["events"]["log_bytes"]
        path.write_text(json.dumps(manifest))

        old = DiskBackup(backup.directory)
        assert old.log_bytes("events") is None
        assert legacy_rows(backup.directory, clock) == leafmap.snapshot_rows()
        grow(leafmap, 60, 5000)
        old.sync_leafmap(leafmap)
        assert old.log_bytes("events") == old.table_file("events").stat().st_size
        assert log_chunk_sizes(old) == [120, 60]
        assert legacy_rows(backup.directory, clock) == leafmap.snapshot_rows()

    def test_no_rows_synced_vouches_for_no_log_bytes(self, backup, clock, monkeypatch):
        """An expiry record names the table before its first sync; that
        sync dies after the chunk's fsync.  The manifest on disk says no
        rows were synced, so replay returns none of the file's."""
        backup.record_expiry("events", 0)
        leafmap = make_leafmap(clock)

        def die():
            raise KeyboardInterrupt("killed before the manifest publish")

        monkeypatch.setattr(backup, "_save_manifest", die)
        with pytest.raises(KeyboardInterrupt):
            backup.sync_leafmap(leafmap)
        monkeypatch.undo()
        assert log_chunk_sizes(backup) == [120]
        assert legacy_rows(backup.directory, clock) == {"events": []}

        reopened = DiskBackup(backup.directory)
        assert reopened.sync_leafmap(leafmap) == 120
        assert log_chunk_sizes(reopened) == [120]
        assert legacy_rows(backup.directory, clock) == leafmap.snapshot_rows()

    def test_empty_log_file_still_gets_its_header(self, backup, clock):
        """A crash between creating the log and its header reaching disk
        leaves a 0-byte file; the header used to be decided by the
        file's existence, and a bare chunk at offset 0 is unreadable."""
        backup.table_file("events").touch()
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        assert legacy_rows(backup.directory, clock) == leafmap.snapshot_rows()


def io_calls(recorder):
    """The recorded fsyncs and renames, as ``(kind, file name)``."""
    return [(kind, Path(target).name) for kind, target in recorder.of("fsync", "replace")]


def injected(kind, nth):
    """What a failing ``kind`` call raises, at its ``nth`` call."""
    return dict(kind=kind, nth=nth, exc=OSError(f"injected: {kind} {nth} failed"))


#: Durable steps of one two-table leaf sync (:class:`Sync`'s cycle), by
#: their index among its side effects.
STEPS = {
    "log_fsync_t1": 0,
    "chain_rename_t1": 2,
    "log_fsync_t2": 3,
    "chain_rename_t2": 5,
    "snapshots_dir_fsync": 6,
    "manifest_tmp_fsync": 8,
    "manifest_rename": 9,
}


class TestOnePublishPerLeafSync:
    def test_two_table_sync_is_seven_fsyncs_and_one_manifest(
        self, tmp_path, clock, monkeypatch
    ):
        backup, leafmap, _ = two_table_leaf(tmp_path / "b", clock)
        recorder = Recorder(monkeypatch, root=tmp_path)
        published = backup.stats.manifests_published
        backup.sync_leafmap(leafmap)
        assert [recorder.effects[step] for step in STEPS.values()] == [
            ("fsync", "b/events.scuba"),
            ("replace", "b/snapshots/events.d2.shmdisk"),
            ("fsync", "b/metrics.scuba"),
            ("replace", "b/snapshots/metrics.d2.shmdisk"),
            ("fsync", "b/snapshots"),
            ("fsync", "b/manifest.tmp"),
            ("replace", "b/manifest.json"),
        ]
        assert io_calls(recorder) == [
            ("fsync", "events.scuba"),
            ("fsync", "events.d2.tmp"),
            ("replace", "events.d2.shmdisk"),
            ("fsync", "metrics.scuba"),
            ("fsync", "metrics.d2.tmp"),
            ("replace", "metrics.d2.shmdisk"),
            ("fsync", "snapshots"),
            ("fsync", "manifest.tmp"),
            ("replace", "manifest.json"),
            ("fsync", "b"),
        ]
        assert backup.stats.manifests_published == published + 1
        # Nothing changed: nothing written, nothing published.
        recorder.reset()
        backup.sync_leafmap(leafmap)
        assert recorder.effects == []
        assert backup.stats.manifests_published == published + 1

    def test_sync_table_is_the_same_transaction_over_one_table(
        self, tmp_path, clock, monkeypatch
    ):
        backup, leafmap, _ = two_table_leaf(tmp_path / "b", clock)
        recorder = Recorder(monkeypatch, root=tmp_path)
        backup.sync_table(leafmap.get_table("events"))
        assert (len(recorder.of("fsync")), len(recorder.of("replace"))) == (5, 2)
        assert io_calls(recorder)[-2:] == [("replace", "manifest.json"), ("fsync", "b")]

    @pytest.mark.parametrize("incremental", [True, False])
    def test_legacy_only_and_full_rewrite_go_through_the_same_path(
        self, tmp_path, clock, monkeypatch, incremental
    ):
        leafmap = make_leafmap(clock, tables=TABLES)
        legacy = DiskBackup(tmp_path / "legacy", snapshots=False)
        full = DiskBackup(
            tmp_path / "full", max_chain_links=DEFAULT_MAX_CHAIN_LINKS if incremental else 1
        )
        recorder = Recorder(monkeypatch, root=tmp_path)
        legacy.sync_leafmap(leafmap)
        assert (len(recorder.of("fsync")), len(recorder.of("replace"))) == (2 + 2, 1)
        sealed_sync(full, leafmap)
        grow(leafmap, 50, 5000)
        sealed_sync(full, leafmap)
        assert full.stats.manifests_published == 2
        assert full.stats.bases_written == (2 if incremental else 3)
        assert legacy_rows(full.directory, clock) == leafmap.snapshot_rows()

    def test_an_expiry_run_is_one_manifest(self, tmp_path, clock, shm_namespace):
        backup = DiskBackup(tmp_path / "b")
        leaf = LeafServer(
            "0", backup=backup, namespace=shm_namespace, clock=clock, rows_per_block=50
        )
        leaf.start()
        now = int(clock.now())
        for index, name in enumerate(TABLES):
            leaf.add_rows(name, ({"time": now - 1000 + i + index} for i in range(120)))
        leaf.sync_to_disk()
        published = backup.stats.manifests_published
        assert leaf.expire(retention_seconds=940) == 2 * 50
        assert backup.stats.manifests_published == published + 1
        reopened = DiskBackup(backup.directory)
        assert [reopened.rows_expired(name) for name in TABLES] == [50, 50]
        # On its own, outside the block, a record publishes at once.
        backup.record_expiry("events", 100)
        assert backup.stats.manifests_published == published + 2
        leaf.crash()


def restart(directory, clock, namespace):
    """A new process on what the dead one left: ``(leaf, report)``."""
    leaf = LeafServer(
        "0",
        backup=DiskBackup(directory),
        namespace=namespace,
        clock=clock,
        rows_per_block=50,
    )
    return leaf, leaf.start()


class TestWritePhaseFault:
    """A fault while table 2 is being written: table 1 is published,
    table 2 did not move, and a retry lands it exactly once."""

    @pytest.mark.parametrize(
        "fault", [("fsync", 3), ("fsync", 4), ("replace", 2)], ids=["log", "chain", "rename"]
    )
    def test_table_one_published_table_two_untouched(
        self, tmp_path, clock, monkeypatch, shm_namespace, fault
    ):
        backup, leafmap, pre = two_table_leaf(tmp_path / "b", clock)
        post = leafmap.snapshot_rows()
        Recorder(monkeypatch, root=tmp_path).fail(**injected(*fault))
        with pytest.raises(OSError, match="injected"):
            backup.sync_leafmap(leafmap)
        assert (backup.synced_rows("events"), backup.synced_rows("metrics")) == (200, 150)
        assert backup._manifest["metrics"]["sync_gen"] == 1
        assert backup.stats.manifests_published == 2

        mixed = {"events": post["events"], "metrics": pre["metrics"]}
        assert legacy_rows(backup.directory, clock) == mixed
        leaf, report = restart(backup.directory, clock, shm_namespace)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert leaf.leafmap.snapshot_rows() == mixed
        leaf.crash()

        assert backup.sync_leafmap(leafmap) == 50
        assert backup.log_bytes("metrics") == backup.table_file("metrics").stat().st_size
        assert log_chunk_sizes(backup, "metrics") == [150, 50]
        assert legacy_rows(backup.directory, clock) == post
        chained = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), chained)
        assert chained.snapshot_rows() == post

    def test_a_first_sync_that_fails_leaves_the_table_unnamed(
        self, tmp_path, clock, monkeypatch, shm_namespace
    ):
        """Table 2 has never been synced and its chain-file write fails
        after its log chunk is durable.  The manifest published for
        table 1 must not name table 2: a blank entry would trust the
        whole log and cost the leaf its snapshot rung."""
        backup = DiskBackup(tmp_path / "b")
        leafmap = make_leafmap(clock, tables=TABLES, rows=150)
        leafmap.seal_all()
        post = leafmap.snapshot_rows()
        recorder = Recorder(monkeypatch, root=tmp_path)
        recorder.fail(**injected("fsync", 4))
        with pytest.raises(OSError, match="injected"):
            backup.sync_leafmap(leafmap)
        assert io_calls(recorder)[3:5] == [("fsync", "metrics.scuba"), ("fsync", "metrics.tmp")]
        assert backup.table_names == ["events"]
        assert log_chunk_sizes(backup, "metrics") == [150]

        only_events = {"events": post["events"]}
        assert DiskBackup(backup.directory).table_names == ["events"]
        assert legacy_rows(backup.directory, clock) == only_events
        leaf, report = restart(backup.directory, clock, shm_namespace)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert leaf.leafmap.snapshot_rows() == only_events
        leaf.crash()

        assert backup.sync_leafmap(leafmap) == 150
        assert log_chunk_sizes(backup, "metrics") == [150]
        assert legacy_rows(backup.directory, clock) == post
        assert DiskBackup(backup.directory).snapshots_ready()

    def test_failed_publish_is_owed_and_paid_by_the_retry(
        self, tmp_path, clock, monkeypatch
    ):
        """The ``snapshots/`` fsync fails: nothing is published, and the
        same manager's next sync point — with nothing new to write —
        still fsyncs the directory before it vouches for the files."""
        backup, leafmap, pre = two_table_leaf(tmp_path / "b", clock)
        recorder = Recorder(monkeypatch, root=tmp_path)
        recorder.fail(**injected("fsync", 5))
        with pytest.raises(OSError, match="injected"):
            backup.sync_leafmap(leafmap)
        assert legacy_rows(backup.directory, clock) == pre
        recorder.reset()
        backup.sync_leafmap(leafmap)
        assert io_calls(recorder) == [
            ("fsync", "snapshots"),
            ("fsync", "manifest.tmp"),
            ("replace", "manifest.json"),
            ("fsync", "b"),
        ]
        assert DiskBackup(backup.directory).snapshots_ready()
        assert legacy_rows(backup.directory, clock) == leafmap.snapshot_rows()


class TestDeathAtEveryStep:
    """Kill the process right after each durable step of a two-table
    sync: the sync cycle of tests/test_crashpoints.py, which dies after
    every one of its side effects, named here.  A fresh process comes up
    ALIVE with each table as it was before the sync or as it is after —
    on both disk rungs the same — and its retried sync lands the rest
    exactly once."""

    @pytest.mark.parametrize("step", list(STEPS))
    def test_restart_sees_pre_or_post_per_table(
        self, tmp_path, clock, monkeypatch, shm_namespace, step
    ):
        sweep = Sweep("sync", monkeypatch, shm_namespace, tmp_path, clock)
        cycle = sweep.run("die", lambda recorder: recorder.die_after(at=STEPS[step]))
        # Only the manifest rename publishes; before it both tables are
        # as they were, after it both are as the sync left them.
        assert cycle.rows == (cycle.post if step == "manifest_rename" else cycle.pre)
