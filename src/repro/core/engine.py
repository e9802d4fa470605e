"""The restart engine: Figures 6 and 7 as executable code.

``backup_to_shm`` is the shutdown procedure of Figure 6::

    create shared memory segment for leaf metadata
    set valid bit to false
    for each table
        estimate size of table
        create table shared memory segment
        add table segment to the leaf metadata
        for each row block
            grow the table segment in size if needed
            for each row block column
                copy data from heap to the table segment
                delete row block column from heap
            delete row block from heap
        delete table from heap
    set valid bit to true

``restore`` is the restart procedure of Figure 7::

    if valid bit is false
        delete shared memory segments
        recover from disk
        return
    set valid bit to false
    for each table shared memory segment
        for each row block
            for each row block column
                allocate memory in heap
                copy data from table segment to heap
        truncate the table shared memory segment if needed
        delete the table shared memory segment
    delete the metadata shared memory segment

If the restore path is interrupted, the valid bit is already false, so
the *next* restart goes to disk — the crash-safety property of the
protocol.  Every heap free and shared memory allocation is reported to a
:class:`~repro.util.memtrack.MemoryTracker` so the Section 4.4 footprint
claim is checkable (experiment E8).

The restore loop itself lives once, in
:class:`~repro.core.lazyrestore.RestoreDriver`: ``restore`` puts the
driver on the best usable source (this leaf's segments, else a standby
over the wire) and drains it.  This module keeps the entry points, the
shm validity check and discard, and the ladder below the driver.

"Recover from disk" is itself a two-rung ladder (paper, Section 6): if
every backed-up table has a trusted shm-format snapshot — generation
matching the manifest watermark, CRC intact, layout version readable —
the engine bulk-unpacks the snapshots (DISK_SNAPSHOT_RECOVERY) instead
of replaying the legacy row format.  Any validity failure routes the
whole leaf down to legacy replay; a stale or torn snapshot can cost
time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from typing import Callable, NamedTuple

from repro.columnstore.leafmap import LeafMap
from repro.core.states import (
    LeafBackupMachine,
    LeafBackupState,
    LeafRestoreMachine,
    LeafRestoreState,
    TableBackupMachine,
    TableBackupState,
    TableRestoreMachine,
    TableRestoreState,
)
from repro.core.watchdog import CooperativeDeadline
from repro.disk.backup import DiskBackup
from repro.disk.recovery import iter_snapshot_tables, recover_leafmap
from repro.disk.replay import replay_leafmap
from repro.errors import (
    CorruptionError,
    LayoutVersionError,
    RecoveryError,
    ShmError,
)
from repro.shm.layout import SHM_LAYOUT_VERSION, TableSegmentWriter, table_segment_size
from repro.shm.metadata import LeafMetadata, TableSegmentRecord
from repro.shm.segment import ShmSegment, segment_exists
from repro.util.budget import FootprintBudget
from repro.util.clock import Clock, SystemClock
from repro.util.memtrack import MemoryTracker

class RecoveryMethod(Enum):
    """How a restore obtained its data."""

    SHARED_MEMORY = "shared_memory"
    REPLICA = "replica"
    DISK_SNAPSHOT = "disk_snapshot"
    DISK = "disk"


class RestartEvent(NamedTuple):
    """One step of a restart, at the engine clock's reading ``at``.

    ``kind`` is one of: ``enter`` the leaf state ``what``; ``skip`` the
    rung ``what`` at its entry check, for ``reason``; ``fall`` from the
    rung ``what`` mid-attempt, the error as ``reason`` and the counts
    what the attempt managed; ``table`` ``what`` is home, with its
    counts; ``first_query`` served (on table ``what``), with the
    ``bytes`` restored by then.
    """

    at: float
    kind: str
    what: str
    reason: str | None = None
    tables: int = 0
    blocks: int = 0
    rows: int = 0
    bytes: int = 0


#: The rung each working state of Figure 5's leaf machines is on.
_RUNG_OF = {
    "copy_to_shm": RecoveryMethod.SHARED_MEMORY,
    "memory_recovery": RecoveryMethod.SHARED_MEMORY,
    "memory_serving": RecoveryMethod.SHARED_MEMORY,
    "replica_recovery": RecoveryMethod.REPLICA,
    "disk_snapshot_recovery": RecoveryMethod.DISK_SNAPSHOT,
    "disk_recovery": RecoveryMethod.DISK,
}


@dataclass
class RestartReport:
    """What one shutdown or restore did: its walk through Figure 5 as
    ``events``, and the live counters of the rung it is on (a fall keeps
    what its attempt managed, then restarts them from zero)."""

    events: list[RestartEvent] = field(default_factory=list)
    tables: int = 0
    row_blocks: int = 0
    rbc_copies: int = 0
    bytes_copied: int = 0
    rows: int = 0
    segment_grows: int = 0
    peak_tracked_bytes: int = 0
    #: Serve-while-restoring: set on reports produced by a lazy restore.
    lazy: bool = False
    bytes_total: int = 0
    blocks_total: int = 0
    queries_served_during_restore: int = 0
    #: Stamps the events; not data.
    clock: Clock = field(default_factory=SystemClock, init=False, repr=False, compare=False)

    @classmethod
    def begin(cls, clock: Clock, initial: Enum, lazy: bool = False) -> "RestartReport":
        """A timeline opening in a leaf machine's ``initial`` state."""
        report = cls(lazy=lazy)
        report.clock = clock
        report.note("enter", initial)
        return report

    def note(self, kind: str, what, reason=None, tables=0, blocks=0, rows=0, bytes=0) -> None:
        """Append one event, stamped now; ``what`` may be an enum member."""
        what = getattr(what, "value", what)
        self.events.append(
            RestartEvent(self.clock.now(), kind, what, reason, tables, blocks, rows, bytes)
        )

    def enter(self, state: Enum) -> None:
        """Move to ``state``, or raise StateError if Figure 5 has no such edge."""
        machine = LeafBackupMachine if isinstance(state, LeafBackupState) else LeafRestoreMachine
        machine.check(type(state)(self.leaf_states[-1]), state)
        self.note("enter", state)

    def fall_back(self, exc: BaseException, rung: RecoveryMethod | None = None) -> None:
        """The rung the walk is on died mid-attempt (or ``rung``, whose
        handshake fell before it was entered): note what it managed, then
        restart the live counters for the rung below."""
        rung = rung or _RUNG_OF[self.leaf_states[-1]]
        reason = f"{type(exc).__name__}: {exc}"
        self.note("fall", rung, reason, self.tables, self.row_blocks, self.rows, self.bytes_copied)
        self.tables = self.row_blocks = self.rbc_copies = 0
        self.bytes_copied = self.rows = 0

    def table_home(self, name: str, blocks: int, rows: int, nbytes: int) -> None:
        """One more table restored: ``blocks`` row blocks holding ``rows``
        rows in ``nbytes`` heap bytes."""
        self.tables += 1
        self.note("table", name, blocks=blocks, rows=rows, bytes=nbytes)

    def attempt(self, rung: RecoveryMethod) -> RestartEvent | None:
        """``rung``'s ``fall`` event, or ``None`` if it did not fall."""
        return next((e for e in self.events if e.kind == "fall" and e.what == rung.value), None)

    @property
    def leaf_states(self) -> list[str]:
        return [event.what for event in self.events if event.kind == "enter"]

    @property
    def method(self) -> RecoveryMethod | None:
        """The rung the walk went ALIVE (or EXIT) from; ``None`` before."""
        states = self.leaf_states
        if len(states) > 1 and states[-1] in ("alive", "exit"):
            return _RUNG_OF[states[-2]]
        return None

    @property
    def duration_seconds(self) -> float:
        return self.events[-1].at - self.events[0].at if self.events else 0.0

    @property
    def failure_reason(self) -> str | None:
        """Why the leaf is not on its best rung: the first fall's reason."""
        return next((e.reason for e in self.events if e.kind == "fall"), None)

    @property
    def fell_back_to_disk(self) -> bool:
        """Shared memory, or a replica rung the leaf had entered, fell (a
        replica handshake that fell never entered its rung)."""
        return self.attempt(RecoveryMethod.SHARED_MEMORY) is not None or (
            self.fell_back_from_replica and "replica_recovery" in self.leaf_states
        )

    @property
    def fell_back_to_legacy(self) -> bool:
        return self.attempt(RecoveryMethod.DISK_SNAPSHOT) is not None

    @property
    def fell_back_from_replica(self) -> bool:
        return self.attempt(RecoveryMethod.REPLICA) is not None

    @property
    def bytes_restored_at_first_query(self) -> int | None:
        return next((e.bytes for e in self.events if e.kind == "first_query"), None)


class RestartEngine:
    """Shutdown-to-shared-memory and restore-from-shared-memory for one
    leaf server's data.

    Parameters
    ----------
    leaf_id:
        Identifies this leaf's fixed metadata location.
    namespace:
        Prefix for every segment name; lets independent clusters (and
        concurrent test runs) share /dev/shm without collisions.
    backup:
        The :class:`DiskBackup` used by disk recovery and by the
        PREPARE-state flush.  Optional: without it, a failed memory
        recovery raises instead of falling back.
    layout_version:
        The shared memory layout this build writes and reads.  A stored
        version that differs forces disk recovery (paper, Section 4.2).
    size_estimator:
        ``f(table_name, blocks) -> bytes`` used at segment-creation time.
        The default is exact; tests inject a lowballing estimator to
        exercise the "grow the table segment if needed" path.
    budget:
        Optional machine-wide :class:`~repro.util.budget.FootprintBudget`.
        When set, the engine reserves each copy window (a table segment
        during backup, a table's heap rematerialization during restore)
        against it before starting the copy, so concurrent engines on
        one machine queue instead of stacking their in-flight bytes.
    disk_snapshot_tier:
        Whether disk recovery may take the shm-format snapshot fast path
        when every table's snapshot is trusted.  Disable to force legacy
        row-format replay (benchmark baselines, paranoia mode).
    replay_workers:
        How the legacy rung runs when it is reached: more than one
        worker fans the row-sealing work across a process pool
        (:func:`~repro.disk.replay.replay_leafmap`) with digests
        identical to the single-stream replay.
    replica_source:
        ``f() -> ReplicaSession | None``
        (:class:`~repro.core.replicarestore.ReplicaSession`), the
        REPLICA_RECOVERY rung's discovery hook (the cluster wires a
        ``ReplicaCatalog.session_source`` here).  Called lazily at
        ladder time whenever shared memory is unusable; returning
        ``None`` (no replica alive) skips straight to the disk rungs.
    """

    def __init__(
        self,
        leaf_id: str,
        namespace: str = "scuba",
        backup: DiskBackup | None = None,
        layout_version: int = SHM_LAYOUT_VERSION,
        tracker: MemoryTracker | None = None,
        clock: Clock | None = None,
        size_estimator: Callable[[str, list], int] | None = None,
        budget: FootprintBudget | None = None,
        disk_snapshot_tier: bool = True,
        replay_workers: int = 1,
        replica_source: Callable[[], object] | None = None,
    ) -> None:
        if replay_workers < 1:
            raise ValueError("replay_workers must be positive")
        self.leaf_id = str(leaf_id)
        self.namespace = namespace
        self.backup = backup
        self.layout_version = layout_version
        self.disk_snapshot_tier = disk_snapshot_tier
        self.replay_workers = replay_workers
        self.replica_source = replica_source
        self.tracker = tracker or MemoryTracker()
        self.clock = clock or SystemClock()
        self.budget = budget
        self._size_estimator = size_estimator
        #: Heap bytes this engine has reported to the (possibly shared)
        #: tracker.  ``tracker.in_region("heap")`` is machine-wide when
        #: leaves share a tracker; the backup deficit seeding below must
        #: compare against *this leaf's* contribution only.
        self._engine_heap = 0

    def _track_heap_alloc(self, nbytes: int) -> None:
        self.tracker.allocate("heap", nbytes, at=self.clock.now())
        self._engine_heap += nbytes

    def _track_heap_free(self, nbytes: int) -> None:
        self.tracker.free("heap", nbytes, at=self.clock.now())
        self._engine_heap = max(0, self._engine_heap - nbytes)

    def _reconcile_heap(self, resident: int) -> None:
        """Make this engine's heap charge exactly ``resident`` bytes.

        Ingest and expiry between restarts are not reported to the
        tracker, so the charge drifts both ways: rows sealed since the
        last restore are a deficit, blocks expired since then a surplus
        that the copy loop would otherwise leave on the region for good.
        The comparison is against this engine's own contribution, not
        the whole region: with a machine-wide shared tracker the region
        also holds the other leaves' bytes.
        """
        drift = resident - self._engine_heap
        if drift > 0:
            # Released by whoever frees the resident blocks later (the
            # shutdown copy loop, forget_heap), not by the branch below.
            self._track_heap_alloc(drift)
        elif drift < 0:
            self._track_heap_free(-drift)

    def forget_heap(self) -> None:
        """Drop this engine's heap charge from the (possibly shared)
        tracker without copying anything — the accounting counterpart of
        a worker process taking the heap down with it on exit."""
        if self._engine_heap:
            self._track_heap_free(self._engine_heap)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def shm_state_exists(self) -> bool:
        """Whether this leaf's metadata segment currently exists."""
        return LeafMetadata.exists(self.namespace, self.leaf_id)

    def shm_state_valid(self) -> bool:
        """Whether shared memory recovery would be attempted."""
        meta = self._attach_valid_shm(discard_invalid=False)
        if meta is None:
            return False
        meta.close()
        return True

    def _attach_valid_shm(
        self, discard_invalid: bool = True, report: RestartReport | None = None
    ) -> LeafMetadata | None:
        """Attach this leaf's metadata iff memory recovery may trust it.

        Trusted means the valid bit is set and the stored layout version
        is this build's; metadata too corrupt to say counts as invalid.
        An untrusted state is a skip on ``report``, with why, and is
        closed — or, with ``discard_invalid``, deleted through the
        tracker: Figure 7's "if valid bit is false: delete shared memory
        segments, recover from disk" — and ``None`` comes back.  The
        mapping never outlives an unexpected failure here: shared memory
        is not reclaimed by process exit.
        """
        if not self.shm_state_exists():
            return None
        meta = LeafMetadata.attach(self.namespace, self.leaf_id)
        try:
            try:
                if not meta.valid:
                    why = "valid bit is false"
                elif meta.layout_version != self.layout_version:
                    why = f"layout version {meta.layout_version}, not {self.layout_version}"
                else:
                    return meta
            except (CorruptionError, LayoutVersionError) as exc:
                why = f"unreadable metadata: {type(exc).__name__}: {exc}"
            if report is not None:
                report.note("skip", RecoveryMethod.SHARED_MEMORY, why)
            if discard_invalid:
                self._discard_shm_tracked(meta)
        except Exception:
            meta.close()
            raise
        meta.close()
        return None

    def _discard_untrusted_shm(self) -> None:
        """Figure 7's "if valid bit is false: delete shared memory
        segments" — what a restore does before recovering from anywhere
        else; a state that is still trusted stays for a later boot."""
        meta = self._attach_valid_shm()
        if meta is not None:
            meta.close()

    def discard_shm(self) -> bool:
        """Unlink any shared memory state this leaf left behind."""
        if not self.shm_state_exists():
            return False
        meta = LeafMetadata.attach(self.namespace, self.leaf_id)
        try:
            meta.unlink_all()
        except (CorruptionError, LayoutVersionError):
            # Unreadable metadata: drop the metadata segment itself; any
            # orphan table segments keep their namespaced names and are
            # cleaned by the next backup that reuses them.
            meta.unlink()
        return True

    def _segment_base_name(self, table_index: int) -> str:
        return f"{self.namespace}-leaf-{self.leaf_id}-t{table_index}"

    # ------------------------------------------------------------------
    # Shutdown (Figure 6)
    # ------------------------------------------------------------------

    def backup_to_shm(
        self,
        leafmap: LeafMap,
        deadline: CooperativeDeadline | None = None,
    ) -> RestartReport:
        """Copy every table to shared memory and set the valid bit.

        On success the leaf map is left empty (its heap data has been
        "deleted" table by table) and the report's method is
        ``SHARED_MEMORY``.  On any failure — including a
        :class:`~repro.errors.ShutdownTimeout` from the deadline — the
        valid bit stays false and the exception propagates; whatever
        segments were created are discarded by the next restore.
        """
        report = RestartReport.begin(self.clock, LeafBackupState.ALIVE)
        report.enter(LeafBackupState.COPY_TO_SHM)
        # Drop cached decoded columns first: they are derived data the
        # shutdown never copies, and holding them through the copy loop
        # would inflate the footprint the Section 4.4 invariant bounds.
        leafmap.drop_column_cache()
        # Seal every write buffer up front (shutdown already rejects new
        # data) and make sure the tracker accounts for exactly the heap
        # bytes the copy loop is about to free — callers that did not
        # pre-seed the tracker still get consistent footprint numbers.
        leafmap.seal_all()
        self._reconcile_heap(sum(table.sealed_nbytes for table in leafmap))
        if self.shm_state_exists():
            self.discard_shm()  # stale state from an unlinked predecessor
        meta = LeafMetadata.create(self.namespace, self.leaf_id, self.layout_version)
        records: list[TableSegmentRecord] = []
        try:
            # Table order must be deterministic so segment names are
            # reproducible across the shutdown/restore pair.
            for index, table_name in enumerate(list(leafmap.table_names)):
                table = leafmap.get_table(table_name)
                machine = TableBackupMachine()
                machine.transition(TableBackupState.PREPARE)
                # PREPARE: reject new work, finish in-flight work, flush
                # to disk.  In this single-threaded engine that reduces
                # to sealing the write buffer and syncing the backup.
                table.seal_buffer()
                if self.backup is not None:
                    self.backup.sync_table(table)
                machine.transition(TableBackupState.COPY_TO_SHM)
                records.append(self._copy_table_out(table, index, meta, records, deadline, report))
                report.tables += 1
                leafmap.drop_table(table_name)
                machine.transition(TableBackupState.DONE)
            meta.set_valid(True)
        finally:
            meta.close()
        report.peak_tracked_bytes = self.tracker.peak_total
        report.enter(LeafBackupState.EXIT)
        return report

    def _copy_table_out(
        self,
        table,
        table_index: int,
        meta: LeafMetadata,
        records: list[TableSegmentRecord],
        deadline: CooperativeDeadline | None,
        report: RestartReport,
    ) -> TableSegmentRecord:
        """Copy one table into its segment, counting the copies (and any
        segment regrow) on ``report``.

        "add table segment to the leaf metadata" comes before the
        segment exists: ``meta`` names it after ``records`` first, so a
        shutdown killed anywhere in the copy leaves nothing the next
        boot's discard cannot see.
        """
        blocks = table.take_blocks()
        rows = sum(block.row_count for block in blocks)
        used = table_segment_size(table.name, blocks)
        record = TableSegmentRecord(
            table_name=table.name,
            segment_name=self._segment_base_name(table_index),
            used_bytes=used,
            rows_ingested=table.total_rows_ingested,
            rows_expired=table.total_rows_expired,
        )
        estimate = self._size_estimator(table.name, blocks) if self._size_estimator else used
        size = max(64, estimate)
        grows = 0
        held = 0
        segment = None
        charged = 0  # shm bytes this copy has put on the tracker
        try:
            while True:
                # Metadata too corrupt to walk leaves its segments behind
                # when it is discarded; the name is ours, so reclaim it.
                if segment_exists(record.segment_name):
                    ShmSegment.attach(record.segment_name).unlink()
                meta.set_records([*records, record])
                # This table's copy window — the span where segment and
                # heap coexist — is in flight against the machine-wide
                # budget until the copy loop has drained the heap side.
                if self.budget is not None:
                    self.budget.acquire(size)
                    held = size
                segment = ShmSegment.create(record.segment_name, size)
                writer = TableSegmentWriter(segment, table.name, blocks)
                try:
                    events = writer.copy_events()
                    # copy_events validates capacity before the first write,
                    # so a too-small estimate fails here with nothing copied.
                    first_event = next(events, None)
                    break
                except ShmError:
                    # "grow the table segment in size if needed": POSIX
                    # segments cannot grow in place, so retire the small
                    # one and go round with the exact size.  Its
                    # reservation goes first, so an oversized regrow can
                    # use the whole-budget admission instead of
                    # deadlocking on itself.
                    segment.unlink()
                    segment = None
                    if held:
                        self.budget.release(held)
                        held = 0
                    grows += 1
                    report.segment_grows += 1
                    name = f"{self._segment_base_name(table_index)}-g{grows}"
                    record = replace(record, segment_name=name)
                    size = used
            if first_event is None:
                # A table without blocks is its preamble alone.
                self.tracker.allocate("shm", used, at=self.clock.now())
                charged = used
            else:
                for event in chain((first_event,), events):
                    # §4.4's "allocate, copy, free": the segment is charged
                    # as its bytes land (tmpfs backs a page only once it
                    # is written), each RBC before its heap buffer goes.
                    self.tracker.allocate("shm", event.landed, at=self.clock.now())
                    charged += event.landed
                    self._apply_copy_event(blocks, event, deadline, report)
            segment.close()
            # Home in shared memory: ``bytes`` are what its segment holds.
            report.note("table", table.name, blocks=len(blocks), rows=rows, bytes=used)
            return record
        except BaseException:
            # A copy that raises gives back its segment and what it has
            # charged: the record already claims all ``used`` bytes, and
            # on a shared tracker the next boot's discard would free them
            # from the sibling leaves.  A killed copy leaves the record.
            if segment is not None:
                segment.unlink()
            if charged:
                self.tracker.free("shm", charged, at=self.clock.now())
            raise
        finally:
            if held:
                self.budget.release(held)

    def _apply_copy_event(self, blocks, event, deadline, report) -> None:
        if deadline is not None:
            deadline.check()
        block = blocks[event.block_index]
        freed = block.release_column(event.column_name)
        self._track_heap_free(freed)
        report.rbc_copies += 1
        report.bytes_copied += event.nbytes
        if event.last_in_block:
            # "delete row block from heap"
            report.rows += block.row_count
            report.row_blocks += 1
            blocks[event.block_index] = None

    # ------------------------------------------------------------------
    # Restore (Figure 7)
    # ------------------------------------------------------------------

    def restore(
        self,
        leafmap: LeafMap,
        memory_recovery_enabled: bool = True,
        on_disk_fallback: Callable[[], None] | None = None,
    ) -> RestartReport:
        """Restore this leaf's data into an empty ``leafmap``.

        Attempts shared memory recovery when it is enabled and the valid
        bit is set; otherwise — or on any exception mid-copy — falls back
        down the ladder, per Figure 5(b): the restore driver, drained.

        ``on_disk_fallback`` is invoked at the fallback boundary, before
        any disk rung runs.  The leaf server hooks its status flip here:
        Figure 5 has the leaf *accepting* adds and queries during the
        slow disk rungs, so staying in the rejecting memory-recovery
        status for an entire legacy replay would turn a seconds-long
        outage into a minutes-long one.
        """
        handle = self._begin_restore(
            leafmap, memory_recovery_enabled, on_disk_fallback, serving=False
        )
        handle.drain()
        return handle.report

    def begin_lazy_restore(
        self,
        leafmap: LeafMap,
        memory_recovery_enabled: bool = True,
        on_disk_fallback: Callable[[], None] | None = None,
    ):
        """Start a serve-while-restoring restore; returns a
        :class:`~repro.core.lazyrestore.RestoreDriver` handle.

        The handle publishes the block directory before returning, so
        the caller can begin serving immediately; blocks fault in as
        queries touch them and via the handle's ``sweep_one``.  When
        shared memory is unusable but a replica session opens, the
        directory comes from the replica's wire catalog instead and
        blocks fault in over the network
        (:class:`~repro.core.replicarestore.ReplicaRestore`).  With
        neither source the disk rungs run blocking inside this call and
        the handle comes back already done.
        """
        return self._begin_restore(
            leafmap, memory_recovery_enabled, on_disk_fallback, serving=True
        )

    def _begin_restore(
        self, leafmap, memory_recovery_enabled, on_disk_fallback, serving
    ):
        """Put a restore driver on the best usable source.

        ``serving`` says which entry point was called and changes only
        what the report must say (``lazy``, the MEMORY_SERVING state);
        the driver, its source and every side effect are the same.
        """
        from repro.core.lazyrestore import LazyRestore
        from repro.core.replicarestore import ReplicaRestore

        if len(leafmap):
            raise RecoveryError("restore requires an empty leaf map")
        # A leaf restarting after a crash may hand over a fresh leaf map
        # that shares the previous incarnation's cache object; whatever
        # it still holds describes dead blocks.  Restores start cold
        # (the cache's heat counters survive the clear).
        leafmap.drop_column_cache()
        report = RestartReport.begin(self.clock, LeafRestoreState.INIT, lazy=serving)
        meta = None
        if memory_recovery_enabled:
            meta = self._attach_valid_shm(discard_invalid=False, report=report)
        if meta is not None:
            return LazyRestore(self, leafmap, report, on_disk_fallback, meta)._serve()
        # Also covers the race where the valid bit dropped between the
        # caller's shm_state_valid() check and this attach: the leaf
        # predicted a memory recovery but gets the rungs below.
        session = self._open_replica_session(report)
        handle = ReplicaRestore(self, leafmap, report, on_disk_fallback, session)
        if session is not None:
            return handle._serve()
        # No replica, or its handshake just fell: the disk rungs run
        # blocking.
        self._discard_untrusted_shm()
        handle._recover_blocking_disk()
        return handle

    def _discard_shm_tracked(self, meta: LeafMetadata) -> None:
        """Unlink a leaf's shm state *through the tracker*.

        The bare ``meta.unlink_all()`` frees the segments from the OS but
        leaves the "shm" region (possibly shared machine-wide) charged
        forever.  Here each table segment that still exists is freed from
        the region — by its used bytes, what the copy-out charged — before
        unlinking; the min() guard covers engines whose tracker never
        charged these segments (fresh process, region empty).
        """
        try:
            records = meta.records
        except (CorruptionError, LayoutVersionError):
            meta.unlink()
            return
        now = self.clock.now()
        for record in records:
            if not segment_exists(record.segment_name):
                continue
            ShmSegment.attach(record.segment_name).unlink()
            tracked = min(record.used_bytes, self.tracker.in_region("shm"))
            if tracked:
                self.tracker.free("shm", tracked, at=now)
        meta.unlink()

    def _drop_restored_tables(self, leafmap: LeafMap) -> None:
        """Drop partially-restored tables, returning their heap bytes."""
        for table_name in list(leafmap.table_names):
            table = leafmap.get_table(table_name)
            nbytes = table.sealed_nbytes
            if nbytes:
                self._track_heap_free(nbytes)
            leafmap.drop_table(table_name)

    def _recover_from_disk(self, leafmap: LeafMap, report: RestartReport) -> None:
        """The lower recovery ladder: replica, snapshot tier, then legacy.

        Walks ``report`` through these rungs to ALIVE, so its timeline
        records exactly which tiers ran.  The replica rung is tried only
        by a leaf coming down from shared memory: every other way here
        has had its one replica attempt (a wire fault never retries the
        wire).
        """
        if _RUNG_OF.get(report.leaf_states[-1]) is RecoveryMethod.SHARED_MEMORY:
            session = self._open_replica_session(report)
            if session is not None:
                from repro.core.replicarestore import ReplicaRestore

                # The same wire driver that serves, drained where it
                # stands on this ladder's report; a fault inside it
                # walks the disk rungs below by itself.
                ReplicaRestore(self, leafmap, report, None, session)._serve().drain()
                return
        if self.backup is None:
            raise RecoveryError(
                f"leaf {self.leaf_id}: no valid shared memory state and no "
                "disk backup configured"
            )
        if self._snapshot_tier_usable():
            report.enter(LeafRestoreState.DISK_SNAPSHOT_RECOVERY)
            try:
                self._restore_from_snapshots(leafmap, report)
            except Exception as exc:
                # Stale generation, torn file, layout mismatch, or any
                # decode failure: the whole leaf routes down to legacy
                # replay.  Whatever the snapshot tier installed leaves
                # through the tracker first, so a half-trusted snapshot
                # can never co-mingle with replayed state.
                self._drop_restored_tables(leafmap)
                report.fall_back(exc)
            else:
                report.enter(LeafRestoreState.ALIVE)
                return
        report.enter(LeafRestoreState.DISK_RECOVERY)
        if self.replay_workers > 1:
            report.rows = replay_leafmap(
                self.backup,
                leafmap,
                workers=self.replay_workers,
                budget=self.budget,
                clock=self.clock,
            )
        else:
            report.rows = recover_leafmap(self.backup, leafmap)
        report.row_blocks = sum(table.block_count for table in leafmap)
        for table in leafmap:
            nbytes = table.nbytes
            self._track_heap_alloc(nbytes)
            report.table_home(table.name, table.block_count, table.row_count, nbytes)
        report.enter(LeafRestoreState.ALIVE)

    def _open_replica_session(self, report: RestartReport):
        """Enter the replica rung: HELLO/CATALOG with this leaf's
        standby, ``report`` in REPLICA_RECOVERY.

        ``None`` when no replica is configured, none answers (a skip), or
        the handshake fails *in any way* (a fall: dead peer, skewed or
        malformed catalog, anything odd means "no replica"); the caller
        picks the rung below either way.
        """
        if self.replica_source is None:
            return None
        try:
            session = self.replica_source()
        except Exception as exc:
            report.fall_back(exc, RecoveryMethod.REPLICA)
            return None
        if session is None:
            report.note("skip", RecoveryMethod.REPLICA, "no standby session")
            return None
        report.enter(LeafRestoreState.REPLICA_RECOVERY)
        return session

    def _snapshot_tier_usable(self) -> bool:
        """Pre-check before entering the snapshot tier at all.

        The manifest must vouch for every table's snapshot, and this
        build's declared layout version must be the one snapshot bodies
        are written in — a build whose shm layout diverged must not
        consume shm-format bytes from disk any more than from /dev/shm.
        """
        return (
            self.disk_snapshot_tier
            and self.layout_version == SHM_LAYOUT_VERSION
            and self.backup is not None
            and self.backup.snapshots_ready()
        )

    def _restore_from_snapshots(
        self, leafmap: LeafMap, report: RestartReport
    ) -> None:
        """DISK_SNAPSHOT_RECOVERY: bulk-unpack every table's snapshot."""
        assert self.backup is not None
        for table_name, snap in iter_snapshot_tables(self.backup):
            machine = TableRestoreMachine()
            machine.transition(TableRestoreState.DISK_SNAPSHOT_RECOVERY)
            table = leafmap.create_table(table_name)
            table.replace_blocks(snap.blocks)
            table.total_rows_ingested = snap.rows_ingested
            table.total_rows_expired = snap.rows_expired
            # "Any needed deletions are made after recovery" — expiry
            # recorded after the snapshot was taken is re-applied here,
            # before the blocks are charged to the heap.  A cutoff the
            # snapshot already reflects stays un-applied, else rows that
            # were buffered at record time would over-expire.
            cutoff = self.backup.pending_expire_cutoff(table_name)
            if cutoff:
                table.expire_before(cutoff)
            nbytes = table.sealed_nbytes
            try:
                self._track_heap_alloc(nbytes)
            except BaseException:
                leafmap.drop_table(table_name)  # uncharged: the fall must not free it
                raise
            report.row_blocks += table.block_count
            report.rbc_copies += sum(len(block.schema) for block in table.blocks)
            report.bytes_copied += nbytes
            report.rows += table.row_count
            report.table_home(table_name, table.block_count, table.row_count, nbytes)
            machine.transition(TableRestoreState.ALIVE)
