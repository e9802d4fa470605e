"""Incremental snapshot chains: delta writes, compaction, chain recovery.

The snapshot side of ``DiskBackup`` appends per-block delta files keyed
by the sync/snapshot generation protocol instead of rewriting whole
tables; recovery materializes base + deltas and any torn or stale link
routes the leaf to legacy replay exactly as a torn base always has.
These tests pin the write-path behavior (what gets written when), the
chain reader's validity gate (every phase, swept through the engine so
tracker balances are checked too), and the directory-fsync durability
fix.
"""

from __future__ import annotations

import json

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk import shmformat
from repro.disk.backup import DiskBackup
from repro.disk.recovery import materialize_chain, recover_leafmap
from repro.errors import CorruptionError, SnapshotStaleError
from repro.util.checksum import rows_digest
from repro.util.memtrack import MemoryTracker
from tests.conftest import grow_table as grow
from tests.conftest import make_leafmap, restart_spanning_chain, restore_from_chain, sealed_sync


class TestDeltaChain:
    def test_second_sync_appends_delta_not_base(self, backup, clock):
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        base = backup.snapshot_path("events")
        before = base.read_bytes()
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        chain = backup.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base", "delta"]
        assert base.read_bytes() == before, "base must not be rewritten"
        assert (backup.snapshot_dir / chain[1]["file"]).exists()
        assert backup.stats.bases_written == 1
        assert backup.stats.deltas_written == 1
        assert backup.snapshot_valid("events")

    def test_delta_bytes_far_below_full_rewrite(self, backup, clock):
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        base_bytes = backup.stats.snapshot_bytes_written
        start = 5000
        for _ in range(4):
            start = grow(leafmap, 50, start)
            sealed_sync(backup, leafmap)
        delta_bytes = backup.stats.snapshot_bytes_written - base_bytes
        # 4 one-block deltas versus 4 rewrites of an ever-growing table.
        assert delta_bytes < 4 * base_bytes
        assert backup.stats.write_amplification < 1.0

    def test_pure_expiry_sync_is_manifest_only(self, tmp_path, clock):
        """Expiry below the sync watermark is the manifest's count alone:
        the sync writes no link and no file, and recovery trims the
        chain's head by the count.  Expiry past the watermark — rows
        sealed and expired before any sync — leaves the chain nothing
        the table holds, and the sync writes a base."""
        backup = DiskBackup(tmp_path / "b", compact_churn=1.0)
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        table = leafmap.get_table("events")
        assert table.expire(1050) == 50  # the first block, synced
        chain = backup.snapshot_chain("events")
        files_before = sorted(backup.snapshot_dir.iterdir())
        backup.sync_leafmap(leafmap)
        assert backup.snapshot_chain("events") == chain
        assert (backup.rows_expired("events"), chain[-1]["rows_expired"]) == (50, 0)
        assert backup.stats.skipped_unchanged == 1
        assert sorted(backup.snapshot_dir.iterdir()) == files_before
        recovered = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

        grow(leafmap, 50, 5000)
        leafmap.seal_all()
        table.expire(10_000)
        # Recorded before the sync, the count runs past the chain's tip:
        # recovery keeps nothing, and its watermarks agree with replay's.
        backup.record_expiry("events", table.total_rows_expired)
        for recover in (restore_from_chain, recover_leafmap):
            recovered = LeafMap(clock=clock, rows_per_block=50)
            recover(DiskBackup(backup.directory), recovered)
            restored = recovered.get_table("events")
            assert (restored.row_count, restored.total_rows_ingested) == (0, 170)
        backup.sync_leafmap(leafmap)
        chain = backup.snapshot_chain("events")
        assert [(link["kind"], link["blocks"]) for link in chain] == [("base", 0)]
        assert (chain[0]["rows_expired"], chain[0]["rows_ingested"]) == (170, 170)
        assert backup.stats.bases_written == 2
        assert backup.stats.manifest_only_links == 0
        assert sorted(backup.snapshot_dir.iterdir()) == [backup.snapshot_path("events")]
        recovered = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), recovered)
        assert recovered.row_count == 0
        assert recovered.get_table("events").total_rows_expired == 170

    def test_chain_compacts_at_max_links(self, tmp_path, clock):
        backup = DiskBackup(tmp_path / "b", max_chain_links=3)
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        start = 5000
        for _ in range(6):
            start = grow(leafmap, 50, start)
            sealed_sync(backup, leafmap)
        assert backup.stats.compactions >= 1
        assert len(backup.snapshot_chain("events")) <= 3
        # Compaction folded the chain: obsolete delta files are gone.
        live = {link["file"] for link in backup.snapshot_chain("events")}
        on_disk = {p.name for p in backup.snapshot_dir.iterdir()}
        assert on_disk == live

    def test_churn_triggers_compaction(self, tmp_path, clock):
        backup = DiskBackup(tmp_path / "b", max_chain_links=100, compact_churn=0.4)
        leafmap = make_leafmap(clock)  # 3 blocks at times 1000..1119
        sealed_sync(backup, leafmap)
        start = grow(leafmap, 50, 5000)
        sealed_sync(backup, leafmap)
        # Expire the original three blocks: churn 3/4 > 0.4.
        leafmap.get_table("events").expire(2000)
        backup.record_expiry("events", leafmap.get_table("events").total_rows_expired)
        start = grow(leafmap, 50, start)
        sealed_sync(backup, leafmap)
        assert backup.stats.compactions == 1
        chain = backup.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base"]
        recovered = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

    def test_noop_sync_skips_snapshot_write(self, backup, clock):
        """Satellite fix: an unchanged sync generation writes nothing —
        no base, no delta, no manifest save."""
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        points = backup.stats.snapshot_points
        stamp = [(p.name, p.stat().st_mtime_ns) for p in backup.snapshot_dir.iterdir()]
        chain_len = len(backup.snapshot_chain("events"))
        backup.sync_leafmap(leafmap)
        backup.sync_leafmap(leafmap)
        assert backup.stats.skipped_unchanged == 2
        assert backup.stats.snapshot_points == points
        assert len(backup.snapshot_chain("events")) == chain_len
        after = [(p.name, p.stat().st_mtime_ns) for p in backup.snapshot_dir.iterdir()]
        assert after == stamp

    @pytest.mark.parametrize("how", ["reopened", "reloaded"])
    def test_fresh_manager_extends_chain(self, backup, clock, how):
        """The chain is keyed on content keys the manifest holds, so a
        manager with no memory of writing it — reopened on the
        directory, or ``reload()``-ed after another process advanced it
        — extends the chain it finds: no base, one delta of exactly the
        new blocks."""
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        assert len(backup.snapshot_chain("events")) == 2
        if how == "reopened":
            manager = DiskBackup(backup.directory)
        else:
            manager = backup
            manager.reload()
        bases = manager.stats.bases_written
        deltas = manager.stats.deltas_written
        written = manager.stats.snapshot_bytes_written
        before = len(leafmap.get_table("events").blocks)
        grow(leafmap, 60, 6000)
        leafmap.seal_all()
        fresh = leafmap.get_table("events").blocks[before:]
        manager.sync_leafmap(leafmap)
        assert manager.stats.bases_written == bases
        assert manager.stats.deltas_written == deltas + 1
        chain = manager.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base", "delta", "delta"]
        assert chain[-1]["blocks"] == len(fresh) == 2
        assert chain[-1]["keys"] == [block.content_key() for block in fresh]
        delta = shmformat.read_table_snapshot(manager.snapshot_dir / chain[-1]["file"])
        assert [b.pack() for b in delta.blocks] == [b.pack() for b in fresh]
        assert (
            manager.stats.snapshot_bytes_written - written
            == (manager.snapshot_dir / chain[-1]["file"]).stat().st_size
        )
        recovered = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

    def test_incremental_disabled_always_rewrites(self, tmp_path, clock):
        """A one-link chain is the pre-chain regime: every snapshot point
        writes one whole base (a compaction after the first), no delta
        file ever reaches the disk, and the base recovers the table."""
        backup = DiskBackup(tmp_path / "b", max_chain_links=1)
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        start = 5000
        for _ in range(3):
            start = grow(leafmap, 50, start)
            sealed_sync(backup, leafmap)
        assert backup.stats.bases_written == 4
        assert backup.stats.deltas_written == 0
        assert backup.stats.compactions == 3
        assert [link["kind"] for link in backup.snapshot_chain("events")] == ["base"]
        assert sorted(backup.snapshot_dir.iterdir()) == backup.chain_files("events")
        assert backup.stats.write_amplification >= 1.0
        recovered = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), recovered)
        assert rows_digest(recovered.snapshot_rows()) == rows_digest(leafmap.snapshot_rows())

    def test_chain_survives_manager_restart(self, backup, clock):
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        reopened = DiskBackup(backup.directory)
        assert reopened.snapshot_valid("events")
        assert [link["kind"] for link in reopened.snapshot_chain("events")] == [
            "base",
            "delta",
        ]
        recovered = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(reopened, recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

    def test_missing_delta_file_invalidates_chain(self, backup, clock):
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        delta = backup.snapshot_chain("events")[-1]
        (backup.snapshot_dir / delta["file"]).unlink()
        assert not backup.snapshot_valid("events")
        assert not backup.snapshots_ready()

    def test_drop_table_removes_chain_files(self, backup, clock):
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        files = backup.chain_files("events")
        assert len(files) == 2 and all(p.exists() for p in files)
        backup.drop_table("events")
        assert not any(p.exists() for p in files)

    def test_wipe_removes_delta_files(self, backup, clock):
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        backup.wipe()
        assert not backup.snapshot_dir.exists()


class TestContentKeyedChain:
    """The chain is re-joined by content key, positionally."""

    def test_manifest_without_keys_recovers_and_costs_one_base(
        self, backup, clock
    ):
        """Version skew: a manifest written before links recorded keys
        is an older build's chain — never read, so the leaf replays the
        row log to the same rows — and since nothing says what its
        blocks are, the next snapshot is one fresh base, with keys."""
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        manifest_path = backup.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for link in manifest["events"]["chain"]:
            del link["keys"]
        manifest_path.write_text(json.dumps(manifest))

        old = DiskBackup(backup.directory)
        assert old.snapshot_fault("events") == "chain written by an older build"
        recovered = LeafMap(clock=clock, rows_per_block=50)
        recover_leafmap(old, recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

        grow(recovered, 60, 6000)
        recovered.seal_all()
        old.sync_leafmap(recovered)
        assert (old.stats.bases_written, old.stats.deltas_written) == (1, 0)
        assert old.stats.compactions == 0
        chain = old.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base"]
        assert chain[0]["keys"] == [
            block.content_key() for block in recovered.get_table("events").blocks
        ]
        assert {p.name for p in old.snapshot_dir.iterdir()} == {chain[0]["file"]}
        # From here on the chain extends again.
        grow(recovered, 60, 7000)
        recovered.seal_all()
        old.sync_leafmap(recovered)
        assert (old.stats.bases_written, old.stats.deltas_written) == (1, 1)

    def test_legacy_replay_rewrites_exactly_one_base(
        self, shm_namespace, backup, clock
    ):
        """Replay re-seals every row into new blocks (new creation
        time), which share nothing with the chain on disk: one honest
        base, the dead chain files gone, rows identical on every route."""
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        grow(leafmap, 60, 5000)
        sealed_sync(backup, leafmap)
        grow(leafmap, 7, 6000)  # buffered at the sync: snapshot stale
        backup.sync_leafmap(leafmap)
        expected = leafmap.snapshot_rows()
        assert not backup.snapshot_valid("events")

        clock.advance(30.0)
        manager = DiskBackup(backup.directory)
        replayed = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=manager, clock=clock
        ).restore(replayed)
        assert report.method is RecoveryMethod.DISK
        assert replayed.snapshot_rows() == expected
        manager.sync_leafmap(replayed)
        assert (manager.stats.bases_written, manager.stats.deltas_written) == (1, 0)
        chain = manager.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base"]
        assert {p.name for p in manager.snapshot_dir.iterdir()} == {chain[0]["file"]}
        again = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=DiskBackup(backup.directory), clock=clock
        ).restore(again)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert again.snapshot_rows() == expected

    def test_equal_content_blocks_align_by_position(self, tmp_path, clock):
        """Two blocks holding the same rows sealed at the same instant
        have one key.  Dropping the older twin must leave a chain that
        still materializes to the table, whichever twin it keeps."""
        backup = DiskBackup(tmp_path / "b", compact_churn=1.0)
        leafmap = LeafMap(clock=clock, rows_per_block=10)
        table = leafmap.get_or_create("events")
        twin = [{"time": 100 + i, "host": "a"} for i in range(10)]
        table.add_rows(twin)
        table.add_rows({"time": 200 + i, "host": "b"} for i in range(10))
        table.add_rows(twin)
        keys = [block.content_key() for block in table.blocks]
        assert keys[0] == keys[2] != keys[1]
        backup.sync_leafmap(leafmap)

        table.expire(max_bytes=table.sealed_nbytes - table.blocks[0].nbytes)
        table.add_rows(twin)
        manager = DiskBackup(backup.directory, compact_churn=1.0)
        manager.sync_leafmap(leafmap)
        chain = manager.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base", "delta"]
        # [A, B, A] -> [B, A, A]: the count takes the older twin, the
        # younger one is matched where it stands, and only the new block
        # is written.
        assert chain[1]["keys"] == [keys[0]]
        assert (chain[1]["rows_expired"], chain[1]["rows_ingested"]) == (10, 40)
        recovered = LeafMap(clock=clock, rows_per_block=10)
        restore_from_chain(DiskBackup(backup.directory), recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

    @pytest.mark.parametrize(
        "case, kept",
        [("kept", 3), ("expired_head", 2), ("resealed", None), ("twins", 2)],
    )
    def test_chain_extension_matches_by_position(self, case, kept, tmp_path, clock):
        """The chain holds the table's leading blocks that hold the rows
        from its expired count to the tip's ``rows_ingested``, if their
        keys are the chain's last keys in order: all three blocks; two
        after the first expired; none of a legacy replay's re-sealed
        blocks (a base); and of [A, B, A] less its head, B and the
        younger A where they stand."""
        backup = DiskBackup(tmp_path / "b", compact_churn=1.0)
        leafmap = LeafMap(clock=clock, rows_per_block=10)
        table = leafmap.get_or_create("events")
        first = [{"time": 100 + i, "host": "a"} for i in range(10)]
        table.add_rows(first)
        table.add_rows({"time": 200 + i, "host": "b"} for i in range(10))
        table.add_rows(first if case == "twins" else [{"time": 300 + i, "host": "c"} for i in range(10)])
        backup.sync_leafmap(leafmap)
        if case == "resealed":
            clock.advance(30.0)
            leafmap = LeafMap(clock=clock, rows_per_block=10)
            recover_leafmap(backup, leafmap)
            table = leafmap.get_table("events")
        elif case != "kept":
            table.expire(max_bytes=table.sealed_nbytes - table.blocks[0].nbytes)
        table.add_rows({"time": 400 + i, "host": "d"} for i in range(10))
        blocks = table.blocks
        keys = [block.content_key() for block in blocks]
        entry = backup._entry("events")
        assert backup._chain_extension("events", entry, blocks, keys, table.total_rows_expired) == kept

        backup.sync_leafmap(leafmap)
        chain = backup.snapshot_chain("events")
        assert chain[-1]["keys"] == keys[kept or 0 :]
        assert [link["kind"] for link in chain] == (["base"] if kept is None else ["base", "delta"])
        recovered = LeafMap(clock=clock, rows_per_block=10)
        restore_from_chain(DiskBackup(backup.directory), recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

    def test_second_sync_decodes_only_the_new_block(
        self, backup, clock, monkeypatch
    ):
        """The row-format log needs the rows added since the last sync;
        nothing sealed before it is decoded again, and what is decoded
        neither comes from nor lands in the decoded-column cache."""
        from repro.columnstore.colcache import DecodedColumnCache
        from repro.columnstore.rowblock import RowBlock
        from repro.query.execute import execute_on_leaf
        from repro.query.query import Aggregation, Query

        leafmap = make_leafmap(clock, tables=("events", "metrics"))
        cache = DecodedColumnCache(1 << 20)
        for table in leafmap:
            table.set_cache(cache)
        sealed_sync(backup, leafmap)
        decoded = []
        real = RowBlock.decoded_column
        monkeypatch.setattr(
            RowBlock,
            "decoded_column",
            lambda block, name: (decoded.append((block, name)), real(block, name))[1],
        )
        monkeypatch.setattr(
            RowBlock, "to_rows", lambda block: pytest.fail("a sync built row dicts")
        )
        for name in ("events", "metrics"):
            grow(leafmap, 50, 5000, table=name)
        assert all(table.block_count == 4 for table in leafmap)
        query = Query("events", aggregations=(Aggregation("avg", "latency_ms"),))
        execute_on_leaf(leafmap, query)  # something hot to evict
        hot = cache.stats()
        assert hot.entries > 0
        del decoded[:]
        backup.sync_leafmap(leafmap)
        assert decoded == [
            (table.blocks[-1], name)
            for table in leafmap
            for name in table.blocks[-1].schema.names
        ]
        assert cache.stats() == hot
        # With rows still buffered: the one straddled block, no more.
        del decoded[:]
        grow(leafmap, 70, 6000)
        backup.sync_leafmap(leafmap)
        straddled = leafmap.get_table("events").blocks[-1]
        assert {block for block, _ in decoded} == {straddled}
        assert backup.synced_rows("events") == 120 + 50 + 70
        assert cache.stats() == hot


class TestSizeDropReachesTheChain:
    """A size-limit drop leaves no expiry cutoff behind, so with no
    ingest after it nothing used to tell the chain: the tip stayed
    trusted and ``DISK_SNAPSHOT`` brought the dropped blocks back.  The
    manifest's count tells it now, and the chain is not touched."""

    @pytest.mark.parametrize("snapshots", [True, False], ids=["disk_snapshot", "disk"])
    def test_drop_then_sync_then_crash_restores_the_live_table(
        self, tmp_path, clock, shm_namespace, snapshots
    ):
        backup = DiskBackup(tmp_path / "b", snapshots=snapshots, compact_churn=1.0)
        leafmap = make_leafmap(clock)  # three blocks
        sealed_sync(backup, leafmap)
        table = leafmap.get_table("events")
        dropped = table.expire(max_bytes=table.sealed_nbytes - 1)
        assert dropped == 50 and table.block_count == 2
        before = backup.stats.snapshot_bytes_written
        backup.sync_leafmap(leafmap)  # no ingest since the drop
        assert backup.rows_expired("events") == 50
        if snapshots:
            (link,) = backup.snapshot_chain("events")
            assert (link["kind"], link["rows_expired"]) == ("base", 0)
            assert backup.stats.manifest_only_links == 0
            assert backup.stats.snapshot_bytes_written == before, "zero block bytes"
            assert backup.stats.skipped_unchanged == 1

        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=DiskBackup(backup.directory, snapshots=snapshots),
            clock=clock,
        ).restore(restored)
        expected = RecoveryMethod.DISK_SNAPSHOT if snapshots else RecoveryMethod.DISK
        assert report.method is expected
        assert restored.get_table("events").row_count == table.row_count == 70
        assert rows_digest(restored.snapshot_rows()) == rows_digest(leafmap.snapshot_rows())
        assert restored.get_table("events").total_rows_expired == 50


class TestAppliedCutoffSharesTheSnapshotGeneration:
    """A row synced while still buffered (log only, no snapshot), an
    expiry run that spares it *because* it is buffered, then seal +
    sync: the run and the first snapshot link share one sync
    generation, and the link — written after the run — already holds
    what the run left.  Re-applying a recorded cutoff used to expire the
    row on the snapshot rung only; a count past the tip's is zero."""

    def test_chain_equals_legacy_equals_live(self, backup, clock):
        leafmap = LeafMap(clock=clock, rows_per_block=16)
        table = leafmap.get_or_create("events")
        table.add_rows([{"time": 0, "host": "h0", "value": 0.0}])
        backup.sync_leafmap(leafmap)
        table.expire(1)
        backup.record_expiry("events", table.total_rows_expired)
        sealed_sync(backup, leafmap)
        assert table.row_count == 1 and backup.snapshot_valid("events")
        assert backup._manifest["events"]["sync_gen"] == 1

        live = rows_digest(leafmap.snapshot_rows())
        reopened = DiskBackup(backup.directory)
        chained = LeafMap(clock=clock, rows_per_block=16)
        restore_from_chain(reopened, chained)
        legacy = LeafMap(clock=clock, rows_per_block=16)
        recover_leafmap(reopened, legacy)
        assert rows_digest(chained.snapshot_rows()) == live
        assert rows_digest(legacy.snapshot_rows()) == live

        # A run *after* the link is trimmed by its count.
        assert table.expire(5) == 1
        backup.record_expiry("events", table.total_rows_expired)
        assert backup.rows_expired("events") == 1
        chained = LeafMap(clock=clock, rows_per_block=16)
        restore_from_chain(DiskBackup(backup.directory), chained)
        assert chained.row_count == leafmap.row_count == 0


class TestDirectoryFsync:
    """Satellite fix: ``os.replace`` is atomic but not durable — the
    containing directory must be fsynced or a crash can roll back a
    rename the manifest already vouches for."""

    def test_snapshot_write_fsyncs_directory(self, backup, clock, monkeypatch):
        synced_dirs = []
        real = shmformat.fsync_directory
        monkeypatch.setattr(
            "repro.disk.backup.fsync_directory",
            lambda d: (synced_dirs.append(d), real(d)),
        )
        leafmap = make_leafmap(clock)
        sealed_sync(backup, leafmap)
        assert backup.snapshot_dir in synced_dirs

    def test_manifest_save_fsyncs_directory(self, backup, clock, monkeypatch):
        synced_dirs = []
        real = shmformat.fsync_directory
        monkeypatch.setattr(
            "repro.disk.backup.fsync_directory",
            lambda d: (synced_dirs.append(d), real(d)),
        )
        leafmap = make_leafmap(clock)
        backup.sync_leafmap(leafmap)
        assert backup.directory in synced_dirs

    def test_dir_fsync_fault_never_vouches_generation(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """Fault injection: the directory fsync after the snapshot rename
        fails.  The manifest is saved only after the snapshot landed
        durably, so the failed generation is never vouched for — the
        orphaned file is untrusted, and a retried sync recovers fully."""
        backup = DiskBackup(tmp_path / "backup")
        leafmap = make_leafmap(clock)
        leafmap.seal_all()

        def explode(directory):
            raise OSError("injected: directory fsync failed")

        monkeypatch.setattr("repro.disk.backup.fsync_directory", explode)
        with pytest.raises(OSError, match="injected"):
            backup.sync_leafmap(leafmap)
        monkeypatch.undo()

        # The snapshot file may exist on disk, but nothing vouches for it.
        reopened = DiskBackup(tmp_path / "backup")
        assert not reopened.snapshot_valid("events")
        assert not reopened.snapshots_ready()

        # The application retries the sync point after the fault clears;
        # the chain is rebuilt and recovery sees every row.
        reopened.sync_leafmap(leafmap)
        assert reopened.snapshots_ready()
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=reopened, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == leafmap.snapshot_rows()


    def test_dir_fsync_fault_on_a_delta_after_restart(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """The same ordering for a delta appended by the process that
        re-joined the chain: the rename's directory fsync fails, so the
        manifest on disk still vouches for the chain exactly as the
        previous process left it, and the retried sync lands one delta."""
        backup, leafmap = restart_spanning_chain(tmp_path / "backup", clock)
        before = (backup.directory / "manifest.json").read_bytes()
        vouched = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), vouched)
        grow(leafmap, 60, 9000)
        leafmap.seal_all()

        def explode(directory):
            raise OSError("injected: directory fsync failed")

        monkeypatch.setattr("repro.disk.backup.fsync_directory", explode)
        with pytest.raises(OSError, match="injected"):
            backup.sync_leafmap(leafmap)
        monkeypatch.undo()

        assert (backup.directory / "manifest.json").read_bytes() == before
        reopened = DiskBackup(backup.directory)
        assert reopened.snapshots_ready()
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=reopened, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == vouched.snapshot_rows()

        reopened.sync_leafmap(leafmap)
        assert (reopened.stats.bases_written, reopened.stats.deltas_written) == (0, 1)
        assert len(reopened.snapshot_chain("events")) == 7
        final = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), final)
        assert final.snapshot_rows() == leafmap.snapshot_rows()


class TestVouchOncePerChain:
    def test_clean_snapshot_restart_vouches_each_chain_once(
        self, backup, clock, monkeypatch
    ):
        """The engine asks the manifest to vouch for every chain before
        it enters the snapshot rung; the chain reader takes that as its
        precondition and does not walk the manifest and the directory a
        second time."""
        tables = ("events", "metrics", "logs")
        leafmap = make_leafmap(clock, tables=tables)
        sealed_sync(backup, leafmap)
        vouched = []
        snapshot_fault = DiskBackup.snapshot_fault

        def spy(self, table_name):
            vouched.append(table_name)
            return snapshot_fault(self, table_name)

        monkeypatch.setattr(DiskBackup, "snapshot_fault", spy)
        restored = LeafMap(clock=clock, rows_per_block=50)
        restore_from_chain(DiskBackup(backup.directory), restored)
        assert sorted(vouched) == sorted(tables)
        assert restored.snapshot_rows() == leafmap.snapshot_rows()


def chained_backup(tmp_path, clock):
    """A backup whose 'events' chain is base + delta + delta, the last
    written after expiry took two base blocks."""
    backup = DiskBackup(tmp_path / "backup")
    leafmap = make_leafmap(clock)  # blocks at times 1000..1119
    sealed_sync(backup, leafmap)
    grow(leafmap, 60, 5000)
    sealed_sync(backup, leafmap)
    leafmap.get_table("events").expire(1100)  # drops blocks 0..1
    backup.record_expiry("events", leafmap.get_table("events").total_rows_expired)
    grow(leafmap, 60, 6000)
    sealed_sync(backup, leafmap)
    chain = backup.snapshot_chain("events")
    assert [link["kind"] for link in chain] == ["base", "delta", "delta"]
    assert chain[-1]["rows_expired"] == 100, "sweep needs a trimmed head"
    assert backup.snapshots_ready()
    return backup, leafmap.snapshot_rows()


def restarted_chain(tmp_path, clock):
    """The same shape six links long and written by two processes: the
    second one re-joined the first one's chain after a crash."""
    backup, leafmap = restart_spanning_chain(tmp_path / "backup", clock)
    return backup, leafmap.snapshot_rows()


def _patch_manifest(backup, mutate):
    path = backup.directory / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest["events"])
    path.write_text(json.dumps(manifest))
    return DiskBackup(backup.directory)


class TestChainReadFaultSweep:
    """Every chain-read phase, failed on purpose: the leaf must land on
    legacy replay with identical rows and a balanced tracker."""

    def corruption(self, backup, case):
        chain = backup.snapshot_chain("events")
        if case == "missing_base":
            (backup.snapshot_dir / chain[0]["file"]).unlink()
            return backup
        if case == "missing_delta":
            (backup.snapshot_dir / chain[1]["file"]).unlink()
            return backup
        if case == "torn_delta":
            path = backup.snapshot_dir / chain[1]["file"]
            path.write_bytes(path.read_bytes()[:40])
            return backup
        if case == "torn_tip_delta":
            # Across a restart this is a delta the *second* process
            # appended to the chain it found.
            path = backup.snapshot_dir / chain[-1]["file"]
            path.write_bytes(path.read_bytes()[:-7])
            return backup
        if case == "stale_tip_delta":
            # The tip file is the previous generation's bytes: a rename
            # that never became durable under a manifest that did.
            path = backup.snapshot_dir / chain[-1]["file"]
            path.write_bytes((backup.snapshot_dir / chain[-2]["file"]).read_bytes())
            return backup
        if case == "tip_gen_mismatch":
            return _patch_manifest(
                backup, lambda e: e["chain"][-1].update(gen=e["chain"][-1]["gen"] + 1)
            )
        if case == "nonmonotone_gens":
            return _patch_manifest(
                backup, lambda e: e["chain"][1].update(gen=e["chain"][0]["gen"])
            )
        if case == "kind_out_of_position":
            return _patch_manifest(backup, lambda e: e["chain"][1].update(kind="base"))
        if case == "unknown_dropped_seq":
            # An older build's drop list: the chain is never read.
            return _patch_manifest(
                backup, lambda e: e["chain"][1].update(dropped=[999])
            )
        if case == "span_mismatch":
            # The link's row span disagrees with the rows its file holds.
            return _patch_manifest(
                backup,
                lambda e: e["chain"][1].update(rows_ingested=e["chain"][1]["rows_ingested"] + 1),
            )
        if case == "mid_block_count":
            # The manifest's count ends inside a block: it describes some
            # other table, and legacy replay trims exactly that count.
            return _patch_manifest(backup, lambda e: e.update(rows_expired=e["rows_expired"] + 1))
        if case == "block_count_mismatch":
            return _patch_manifest(
                backup,
                lambda e: e["chain"][1].update(blocks=e["chain"][1]["blocks"] + 1),
            )
        if case == "flag_kind_mismatch":
            # Clear the delta flag in the file envelope: the link says
            # delta, the file now claims to be a base.
            path = backup.snapshot_dir / chain[1]["file"]
            raw = bytearray(path.read_bytes())
            raw[6:8] = (0).to_bytes(2, "little")  # flags u16 at offset 6
            path.write_bytes(bytes(raw))
            return backup
        raise AssertionError(case)

    # The manifest itself refuses to vouch for these (snapshot_valid is
    # false), so the engine never enters the snapshot tier.
    UNTRUSTED = ("missing_base", "missing_delta", "tip_gen_mismatch", "unknown_dropped_seq")
    # These pass the validity pre-check and fail mid-read: the tier is
    # entered and the whole leaf falls back.
    FAULTED = (
        "torn_delta",
        "torn_tip_delta",
        "stale_tip_delta",
        "nonmonotone_gens",
        "kind_out_of_position",
        "span_mismatch",
        "mid_block_count",
        "block_count_mismatch",
        "flag_kind_mismatch",
    )
    #: Rows the manifest's count takes past the live table's.
    TRIMMED = {"mid_block_count": 1}
    CASES = UNTRUSTED + FAULTED

    @pytest.mark.parametrize("case", CASES)
    def test_chain_fault_falls_back_to_legacy(
        self, case, shm_namespace, tmp_path, clock
    ):
        self.falls_back_to_legacy(chained_backup, case, shm_namespace, tmp_path, clock)

    @pytest.mark.parametrize("case", CASES)
    def test_restarted_chain_fault_falls_back_to_legacy(
        self, case, shm_namespace, tmp_path, clock
    ):
        """The same sweep over a six-link chain two processes wrote."""
        self.falls_back_to_legacy(restarted_chain, case, shm_namespace, tmp_path, clock)

    def expected(self, snapshot, case):
        return {"events": snapshot["events"][self.TRIMMED.get(case, 0) :]}

    def falls_back_to_legacy(self, build, case, shm_namespace, tmp_path, clock):
        backup, snapshot = build(tmp_path, clock)
        backup = self.corruption(backup, case)
        if case in self.FAULTED:  # vouched for, so the chain is read
            with pytest.raises((SnapshotStaleError, CorruptionError)):
                materialize_chain(backup, "events")
        tracker = MemoryTracker()
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, tracker=tracker, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        if case in self.FAULTED:
            assert report.fell_back_to_legacy
            assert report.leaf_states == [
                "init",
                "disk_snapshot_recovery",
                "disk_recovery",
                "alive",
            ]
        else:
            assert not backup.snapshot_valid("events")
            assert report.leaf_states == ["init", "disk_recovery", "alive"]
        assert restored.snapshot_rows() == self.expected(snapshot, case)
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("case", CASES)
    def test_chain_fault_parallel_replay_matches(
        self, case, shm_namespace, tmp_path, clock
    ):
        """The same sweep with the legacy rung running parallel replay:
        identical rows, balanced tracker, on both fan-out backends."""
        self.parallel_replay_matches(chained_backup, case, shm_namespace, tmp_path, clock)

    @pytest.mark.parametrize("case", CASES)
    def test_restarted_chain_fault_parallel_replay_matches(
        self, case, shm_namespace, tmp_path, clock
    ):
        self.parallel_replay_matches(restarted_chain, case, shm_namespace, tmp_path, clock)

    def parallel_replay_matches(self, build, case, shm_namespace, tmp_path, clock):
        backup, snapshot = build(tmp_path, clock)
        backup = self.corruption(backup, case)
        tracker = MemoryTracker()
        restored = LeafMap(clock=clock, rows_per_block=50)
        report = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
            replay_workers=3,
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy == (case in self.FAULTED)
        assert restored.snapshot_rows() == self.expected(snapshot, case)
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)
