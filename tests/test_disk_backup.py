"""Tests for the disk backup manager and legacy recovery."""

from functools import partial

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.disk import recovery
from repro.disk.backup import DiskBackup
from repro.disk.format import (
    _CHUNK_HEADER,
    CHUNK_MAGIC,
    read_table_chunks,
    write_chunk,
    write_file_header,
)
from repro.disk.recovery import recover_leafmap, recover_table_runs, surviving_chunks
from repro.disk.replay import replay_leafmap
from repro.errors import CorruptionError, RecoveryError
from repro.util.checksum import crc32_of
from repro.util.clock import ManualClock
from tests.conftest import restart_spanning_chain


def surviving_rows(backup, name):
    """The rows legacy replay seals: ``recover_table_runs``, materialized."""
    return [row for run in recover_table_runs(backup, name) for row in run.rows()]


def make_map(rows=30):
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
    table = leafmap.get_or_create("events")
    table.add_rows({"time": 100 + i, "host": f"h{i % 3}"} for i in range(rows))
    return leafmap


class TestSync:
    def test_first_sync_writes_everything(self, backup):
        leafmap = make_map()
        assert backup.sync_leafmap(leafmap) == 30
        assert backup.synced_rows("events") == 30

    def test_sync_is_incremental(self, backup):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        assert backup.sync_leafmap(leafmap) == 0
        leafmap.get_table("events").add_rows([{"time": 200}])
        assert backup.sync_leafmap(leafmap) == 1

    def test_sync_after_expiry_without_new_rows(self, backup):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        table = leafmap.get_table("events")
        table.expire(110)
        backup.record_expiry("events", table.total_rows_expired)
        assert backup.sync_leafmap(leafmap) == 0

    def test_expiry_watermark_never_regresses(self, backup):
        backup.record_expiry("events", 100)
        backup.record_expiry("events", 50)
        assert backup.rows_expired("events") == 100


class TestRecovery:
    def test_roundtrip_equality(self, backup):
        leafmap = make_map()
        leafmap.get_or_create("empty_buffered").add_rows([{"time": 5, "x": 1.0}])
        backup.sync_leafmap(leafmap)
        recovered = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        total = recover_leafmap(backup, recovered)
        assert total == 31
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

    def test_recovery_applies_expiry_watermark(self, backup):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        table = leafmap.get_table("events")
        table.expire(110)
        backup.record_expiry("events", table.total_rows_expired)
        recovered = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        recover_leafmap(backup, recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()
        assert min(r["time"] for r in recovered.get_table("events").to_rows()) >= 110

    @pytest.mark.parametrize("workers", [0, 2])
    def test_expiry_past_the_synced_rows_spares_later_rows(self, backup, workers):
        """A block sealed and expired before any sync counts as expired
        in the manifest; the replayed table keeps counting it, so the
        rows a later sync lands are not trimmed in its place."""
        recover = (
            recover_leafmap if not workers else partial(replay_leafmap, workers=workers)
        )
        leafmap = make_map(rows=10)
        backup.sync_leafmap(leafmap)
        table = leafmap.get_table("events")
        table.add_rows({"time": 200 + i} for i in range(10))  # sealed, never synced
        assert table.expire(1000) == 20
        backup.record_expiry("events", table.total_rows_expired)
        recovered = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        assert recover(DiskBackup(backup.directory), recovered) == 0
        recovered.get_table("events").add_rows({"time": 300 + i} for i in range(10))
        backup.sync_leafmap(recovered)
        again = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        assert recover(DiskBackup(backup.directory), again) == 10
        assert again.snapshot_rows() == recovered.snapshot_rows()

    def test_recovery_requires_empty_map(self, backup):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        with pytest.raises(RecoveryError):
            recover_leafmap(backup, leafmap)

    def test_incremental_sync_after_recovery(self, backup):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        recovered = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        recover_leafmap(backup, recovered)
        recovered.get_table("events").add_rows([{"time": 999}])
        assert backup.sync_leafmap(recovered) == 1
        # And a second recovery sees the appended row too.
        second = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        recover_leafmap(backup, second)
        assert second.get_table("events").row_count == 31

    def test_missing_table_file_yields_nothing(self, backup):
        assert surviving_rows(backup, "ghost") == []

    def test_recovery_of_empty_backup(self, backup):
        recovered = LeafMap(clock=ManualClock(0.0))
        assert recover_leafmap(backup, recovered) == 0
        assert len(recovered) == 0


def chunked_log(backup, chunks=20, rows_per_chunk=10):
    """A log of ``chunks`` sync chunks; seal boundaries (7) fall mid-chunk."""
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=7)
    table = leafmap.get_or_create("events")
    for c in range(chunks):
        table.add_rows(
            {"time": 100 + c * rows_per_chunk + i, "host": f"h{i % 3}", "tags": ["a"] * (i % 2)}
            for i in range(rows_per_chunk)
        )
        backup.sync_leafmap(leafmap)
    return leafmap


def decode_everything_then_trim(backup, name):
    """What recovery did before it skipped dead chunks: every chunk
    decoded, the trailing ``synced - expired`` rows kept."""
    keep = max(0, backup.synced_rows(name) - backup.rows_expired(name))
    with open(backup.table_file(name), "rb") as fh:
        rows = [row for chunk in read_table_chunks(fh) for row in chunk]
    del rows[: max(0, len(rows) - keep)]
    return rows


def count_decodes(monkeypatch):
    calls = []
    real = recovery.decode_chunk_columns
    monkeypatch.setattr(
        recovery,
        "decode_chunk_columns",
        lambda payload, n, skip=0: (calls.append(n), real(payload, n, skip))[1],
    )
    return calls


class TestSurvivingTail:
    """Replay reads every chunk header and CRC, and decodes only the
    chunks that still hold live rows."""

    def test_dead_chunks_are_not_decoded(self, backup, monkeypatch):
        chunked_log(backup)
        backup.record_expiry("events", 180)  # two chunks survive
        calls = count_decodes(monkeypatch)
        rows = surviving_rows(backup, "events")
        assert len(calls) <= 3 and calls == [10, 10]
        assert [row["time"] for row in rows] == list(range(280, 300))

    @pytest.mark.parametrize("expired", [0, 1, 50, 175, 185, 190, 199, 200, 230])
    def test_tail_equals_decoding_everything(self, backup, monkeypatch, expired):
        """``keep`` mid-chunk, on a chunk boundary, everything, one row,
        nothing (and an over-count, clamped to nothing)."""
        chunked_log(backup)
        backup.record_expiry("events", expired)
        keep = max(0, 200 - expired)
        chunks, skip = surviving_chunks(backup, "events")
        assert sum(n for n, _ in chunks) - skip == keep
        assert len(chunks) == -(-keep // 10) and 0 <= skip < 10
        calls = count_decodes(monkeypatch)
        assert surviving_rows(backup, "events") == decode_everything_then_trim(
            backup, "events"
        )
        assert len(calls) == len(chunks)

    @pytest.mark.parametrize("expired, survivors", [(0, 190), (165, 35), (195, 5)])
    def test_torn_final_chunk_then_trim(self, backup, expired, survivors):
        """The kept tail is the last ``keep`` rows of the *intact* chunk
        stream — all of it when the file now holds fewer than ``keep``."""
        chunked_log(backup)
        path = backup.table_file("events")
        path.write_bytes(path.read_bytes()[:-3])
        backup.record_expiry("events", expired)
        rows = surviving_rows(backup, "events")
        assert rows == decode_everything_then_trim(backup, "events")
        assert [row["time"] for row in rows] == list(range(290 - survivors, 290))

    def test_crc_damage_in_a_dead_chunk_still_raises(self, backup):
        chunked_log(backup)
        backup.record_expiry("events", 180)
        path = backup.table_file("events")
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF  # inside the first chunk's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="checksum"):
            surviving_rows(backup, "events")
        with pytest.raises(CorruptionError, match="checksum"):
            recover_leafmap(backup, LeafMap(clock=ManualClock(0.0), rows_per_block=7))

    def test_a_dead_chunk_is_not_asked_to_decode(self, backup):
        """CRC yes, decodability no: a chunk whose checksum holds but whose
        rows would not decode costs nothing once every row in it is dead
        (and fails recovery while one of them is live)."""
        garbage = b"\xff" * 64
        path = backup.table_file("events")
        with open(path, "wb") as fh:
            write_file_header(fh)
            fh.write(_CHUNK_HEADER.pack(CHUNK_MAGIC, 5, len(garbage), crc32_of(garbage)))
            fh.write(garbage)
            write_chunk(fh, [{"time": 100 + i} for i in range(10)])
        entry = backup._entry("events")
        entry.update(synced_rows=15, rows_expired=5)
        assert [row["time"] for row in surviving_rows(backup, "events")] == list(
            range(100, 110)
        )
        entry.update(rows_expired=4)
        with pytest.raises(CorruptionError):
            surviving_rows(backup, "events")

    def test_restart_spanning_log_recovers_the_same_rows(self, tmp_path, clock):
        """The count trim, on a log two processes wrote."""
        backup, leafmap = restart_spanning_chain(tmp_path / "b", clock, tables=("events", "metrics"))
        for name in ("events", "metrics"):
            assert backup.rows_expired(name) == 100
            rows = surviving_rows(backup, name)
            assert rows == decode_everything_then_trim(backup, name)
            assert len(rows) == leafmap.get_table(name).row_count


class TestMaintenance:
    def test_drop_table(self, backup):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        assert backup.table_file("events").exists()
        backup.drop_table("events")
        assert not backup.table_file("events").exists()
        assert "events" not in backup.table_names

    def test_wipe(self, backup):
        backup.sync_leafmap(make_map())
        backup.wipe()
        assert backup.table_names == []

    def test_weird_table_names_are_filesystem_safe(self, backup):
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        leafmap.get_or_create("weird/../name with spaces").add_rows([{"time": 1}])
        backup.sync_leafmap(leafmap)
        recovered = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        recover_leafmap(backup, recovered)
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()
        # The file must live inside the backup directory.
        assert backup.table_file("weird/../name with spaces").parent == backup.directory

    def test_manifest_survives_manager_restart(self, backup, tmp_path):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        reopened = DiskBackup(backup.directory)
        assert reopened.synced_rows("events") == 30


class TestSnapshots:
    """The shm-format snapshot side of sync points (paper §6)."""

    def test_sealed_sync_writes_fresh_snapshot(self, backup):
        leafmap = make_map()
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        assert backup.snapshot_path("events").exists()
        entry = backup._manifest["events"]
        assert entry["snapshot_gen"] == entry["sync_gen"]
        assert backup.snapshot_valid("events")
        assert backup.snapshots_ready()

    def test_buffered_sync_leaves_snapshot_stale(self, backup):
        """A snapshot holds sealed blocks only; trusting one written with
        buffered rows outstanding would drop those rows."""
        leafmap = make_map()  # 30 rows seal evenly into 3 blocks...
        leafmap.get_table("events").add_rows([{"time": 999}])  # ...plus 1 buffered
        backup.sync_leafmap(leafmap)
        assert not backup.snapshot_valid("events")
        assert not backup.snapshots_ready()

    def test_later_sync_invalidates_then_refreshes(self, backup):
        leafmap = make_map()
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        gen_before = backup._manifest["events"]["snapshot_gen"]
        leafmap.get_table("events").add_rows([{"time": 500}])
        backup.sync_leafmap(leafmap)  # buffered -> sync_gen moved past snapshot
        entry = backup._manifest["events"]
        assert entry["sync_gen"] > entry["snapshot_gen"]
        assert not backup.snapshot_valid("events")
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        assert backup.snapshot_valid("events")
        assert backup._manifest["events"]["snapshot_gen"] > gen_before

    def test_sync_gen_bumps_on_every_synced_change(self, backup):
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        gen = backup._manifest["events"]["sync_gen"]
        backup.sync_leafmap(leafmap)  # no change -> no bump
        assert backup._manifest["events"]["sync_gen"] == gen
        leafmap.get_table("events").add_rows([{"time": 800}])
        backup.sync_leafmap(leafmap)
        assert backup._manifest["events"]["sync_gen"] == gen + 1

    def test_empty_table_gets_a_trusted_snapshot(self, backup):
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        leafmap.get_or_create("bare")
        backup.sync_leafmap(leafmap)
        assert backup.snapshot_valid("bare")
        assert backup.snapshots_ready()

    def test_snapshots_can_be_disabled(self, tmp_path):
        backup = DiskBackup(tmp_path / "nosnap", snapshots=False)
        leafmap = make_map()
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        assert not backup.snapshot_path("events").exists()
        assert not backup.snapshots_ready()

    def test_record_expiry_keeps_snapshot_trusted(self, backup):
        """Expiry is a manifest count trimmed after recovery; it must not
        force a snapshot rewrite."""
        leafmap = make_map()
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        backup.record_expiry("events", 10)
        assert backup.snapshot_valid("events")

    def test_drop_and_wipe_remove_snapshot_files(self, backup):
        leafmap = make_map()
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        snapshot = backup.snapshot_path("events")
        assert snapshot.exists()
        backup.drop_table("events")
        assert not snapshot.exists()
        leafmap2 = make_map()
        leafmap2.seal_all()
        backup.sync_leafmap(leafmap2)
        backup.wipe()
        assert not backup.snapshot_dir.exists()

    def test_old_manifest_without_generation_keys(self, backup):
        """A manifest from a pre-snapshot build must read as 'no trusted
        snapshot', never crash."""
        leafmap = make_map()
        backup.sync_leafmap(leafmap)
        import json

        manifest_path = backup.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest.values():
            entry.pop("sync_gen", None)
            entry.pop("snapshot_gen", None)
        manifest_path.write_text(json.dumps(manifest))
        reopened = DiskBackup(backup.directory)
        assert reopened._manifest["events"]["sync_gen"] == 0
        assert not reopened.snapshot_valid("events")
        assert not reopened.snapshots_ready()
        # And the next sealed sync upgrades it to a trusted snapshot.
        leafmap.seal_all()
        reopened.sync_leafmap(leafmap)
        assert reopened.snapshots_ready()

    def test_snapshot_state_survives_manager_restart(self, backup):
        leafmap = make_map()
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        reopened = DiskBackup(backup.directory)
        assert reopened.snapshots_ready()
        assert reopened._manifest["events"]["snapshot_gen"] == (
            backup._manifest["events"]["snapshot_gen"]
        )
