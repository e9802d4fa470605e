"""E9 — crashes never use shared memory (Figure 5 / §4).

Paper: "We do not use shared memory to recover from a crash; the crash
may have been caused by memory corruption."  And Figure 7: "If this code
path is interrupted, the valid bit will be false on the next restart and
disk recovery will be executed."

These benches measure the *cost of the safety property*: recovery time
when the fast path must be refused, across the crash scenarios.
"""

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.shm.metadata import LeafMetadata
from repro.shm.segment import ShmSegment
from repro.workloads import error_logs

N_ROWS = 12_000
ROWS_PER_BLOCK = 2048
TABLE = "error_logs"


def build_leafmap(clock):
    leafmap = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK)
    leafmap.get_or_create(TABLE).add_rows(error_logs(N_ROWS))
    leafmap.seal_all()
    return leafmap


@pytest.fixture
def backup(tmp_path, clock):
    backup = DiskBackup(tmp_path / "backup")
    backup.sync_leafmap(build_leafmap(clock))
    return backup


def crash_once(monkeypatch, owner, name, when=lambda *args: True):
    """``owner.name`` raises the first time it is called with arguments
    ``when`` accepts, and runs as before otherwise."""
    real = getattr(owner, name)
    crashed = []

    def crash(self, *args):
        if not crashed and when(*args):
            crashed.append(name)
            raise RuntimeError(f"injected crash at {owner.__name__}.{name}")
        return real(self, *args)

    monkeypatch.setattr(owner, name, crash)


def test_crash_before_valid_bit(
    benchmark, shm_namespace, backup, clock, record_result, monkeypatch
):
    """Old process dies mid-copy: next boot must go to disk."""

    def setup():
        leafmap = build_leafmap(clock)
        engine = RestartEngine("c", namespace=shm_namespace, backup=backup, clock=clock)
        with monkeypatch.context() as patch:
            # Every table is copied; the valid bit never goes up.
            crash_once(patch, LeafMetadata, "set_valid", lambda valid: valid)
            with pytest.raises(RuntimeError):
                engine.backup_to_shm(leafmap)
        return (), {}

    def run():
        restored = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK)
        report = RestartEngine(
            "c", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        # Shared memory is refused; disk recovery takes the snapshot tier
        # because the sealed sync left a fresh snapshot.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.row_count == N_ROWS
        return report

    benchmark.pedantic(run, setup=setup, rounds=5)
    record_result("E9", "boot after mid-backup crash", "disk recovery",
                  f"disk recovery, {benchmark.stats['mean']:.3f} s (scaled)")


def test_crash_during_restore_falls_back(
    benchmark, shm_namespace, backup, clock, record_result, monkeypatch
):
    """Interrupted restore: valid bit already false => same-process
    fallback to disk (Figure 5(b) exception edge)."""

    def setup():
        leafmap = build_leafmap(clock)
        RestartEngine("r", namespace=shm_namespace, backup=backup, clock=clock).backup_to_shm(
            leafmap
        )
        return (), {}

    def run():
        restored = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK)
        engine = RestartEngine("r", namespace=shm_namespace, backup=backup, clock=clock)
        with monkeypatch.context() as patch:
            # The table is home; its segment's unlink is the first to raise.
            crash_once(patch, ShmSegment, "unlink")
            report = engine.restore(restored)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_to_disk
        assert restored.row_count == N_ROWS

    benchmark.pedantic(run, setup=setup, rounds=5)
    record_result("E9", "interrupted restore", "disk recovery", "disk recovery")


def test_unclean_process_death_loses_only_unsynced_tail(
    benchmark, shm_namespace, tmp_path, clock, record_result
):
    """A hard crash loses the rows after the last sync point — "a few
    thousand rows out of millions" is acceptable (§4.1)."""
    backup = DiskBackup(tmp_path / "crash-backup")

    def setup():
        leafmap = build_leafmap(clock)
        backup.wipe()
        backup.sync_leafmap(leafmap)
        leafmap.get_table(TABLE).add_rows(
            {"time": 2_000_000_000 + i} for i in range(500)
        )
        # The process dies here: no shutdown, no shm, no final sync.
        return (), {}

    def run():
        restored = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK)
        report = RestartEngine(
            "u", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        # The unsynced tail never reached the manifest, so the snapshot
        # is still the trusted generation — fast tier, synced rows only.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.row_count == N_ROWS  # the 500-row tail is gone

    benchmark.pedantic(run, setup=setup, rounds=5)
    record_result("E9", "rows lost on hard crash", "unsynced tail only",
                  "500 unsynced of 12,500 (synced rows intact)")
