"""The restart engine: Figures 6 and 7 as executable code.

``backup_to_shm`` is the shutdown procedure of Figure 6::

    create shared memory segment for leaf metadata
    set valid bit to false
    for each table
        estimate size of table
        create table shared memory segment
        add table segment to the leaf metadata
        for each row block
            grow the table segment in size if needed    (*)
            for each row block column
                copy data from heap to the table segment
                delete row block column from heap       (**)
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

(*) Never here: a sealed table's segment size is known exactly before
the copy (its ``table_segment_image``, built once and then written),
so the estimate is the size and the segment is created once, at its
final length.

(**) Per row block here: each RBC is still one ``memcpy`` from its heap
buffer, but the block's heap bytes go — and the tracker is charged and
freed — once per block, after its last RBC has landed.  The footprint
then peaks at the data plus one block plus the preambles written so
far, the one-block transient experiment E8 bounds.

If the restore path is interrupted, the valid bit is already false, so
the *next* restart goes to disk — the crash-safety property of the
protocol.  Every heap free and shared memory allocation is reported to a
:class:`~repro.util.memtrack.MemoryTracker` so the Section 4.4 footprint
claim is checkable (experiment E8).

The restore loop itself lives once, in
:class:`~repro.core.lazyrestore.RestoreDriver`: ``restore`` puts the
driver on the best usable source (this leaf's segments, else a standby
over the wire) and drains it.  This module keeps the entry points, the
shm validity check and discard, and the ladder below the driver, which
recovers into a fresh leaf map for the driver to land.

"Recover from disk" is itself a two-rung ladder (paper, Section 6): if
the backup keeps snapshots and every backed-up table has a trusted
shm-format snapshot — generation matching the manifest watermark, CRC
intact, layout version readable — the engine bulk-unpacks the
snapshots (DISK_SNAPSHOT_RECOVERY) instead of replaying the legacy row
format.  Any validity failure routes the whole leaf down to legacy
replay; a stale or torn snapshot can cost time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count, takewhile
from typing import Callable, NamedTuple

from repro.columnstore.leafmap import LeafMap
from repro.core.lazyrestore import LazyRestore, RestoreDriver
from repro.core.replicarestore import ReplicaRestore
from repro.core.states import (
    LeafBackupMachine,
    LeafBackupState,
    LeafRestoreMachine,
    LeafRestoreState,
)
from repro.core.watchdog import CooperativeDeadline
from repro.disk.backup import DiskBackup
from repro.disk.recovery import materialize_chain, recover_leafmap
from repro.disk.replay import replay_leafmap
from repro.errors import (
    CorruptionError,
    LayoutVersionError,
    RecoveryError,
)
from repro.shm.layout import SHM_LAYOUT_VERSION, TableSegmentWriter, table_segment_image
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
    peak_tracked_bytes: int = 0
    #: Serve-while-restoring: set on reports produced by a lazy restore.
    lazy: bool = False
    bytes_total: int = 0
    blocks_total: int = 0
    #: Packed bytes of ``bytes_total`` faulted in so far; a fall keeps it.
    bytes_restored: int = 0
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
    def fraction_restored(self) -> float:
        """How much of the published block directory is home (1.0 when
        nothing was published)."""
        if self.bytes_total <= 0:
            return 1.0
        return self.bytes_restored / self.bytes_total

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
        recovery raises instead of falling back.  A backup opened with
        ``snapshots=False`` offers no snapshot chain to read either, so
        disk recovery skips the snapshot tier and replays the legacy
        row format.
    layout_version:
        The shared memory layout this build writes and reads.  A stored
        version that differs forces disk recovery (paper, Section 4.2).
    budget:
        Optional machine-wide :class:`~repro.util.budget.FootprintBudget`.
        When set, the engine reserves each copy window (a table segment
        during backup, a table's heap rematerialization during restore)
        against it before starting the copy, so concurrent engines on
        one machine queue instead of stacking their in-flight bytes.
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
        budget: FootprintBudget | None = None,
        replay_workers: int = 1,
        replica_source: Callable[[], object] | None = None,
    ) -> None:
        if replay_workers < 1:
            raise ValueError("replay_workers must be positive")
        self.leaf_id = str(leaf_id)
        self.namespace = namespace
        self.backup = backup
        self.layout_version = layout_version
        self.replay_workers = replay_workers
        self.replica_source = replica_source
        self.tracker = tracker or MemoryTracker()
        self.clock = clock or SystemClock()
        self.budget = budget
        #: Heap bytes this engine has reported to the (possibly shared)
        #: tracker.  ``tracker.in_region("heap")`` is machine-wide when
        #: leaves share a tracker; the backup deficit seeding below must
        #: compare against *this leaf's* contribution only.
        self._engine_heap = 0

    def _track_heap_alloc(self, nbytes: int) -> None:
        self.tracker.allocate("heap", nbytes)
        self._engine_heap += nbytes

    def _track_heap_free(self, nbytes: int) -> None:
        self.tracker.free("heap", nbytes)
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

    def _charge_shm(self, segment: str, nbytes: int) -> None:
        self.tracker.charge("shm", segment, nbytes)

    def _release_shm(self, segment: str, nbytes: int | None = None) -> None:
        """Give back ``nbytes`` of what ``segment`` holds in "shm" (all of
        it by default).  The "shm" region is charged per segment — by
        the copy-out as bytes land, by a restore's publish for what the
        record lacks — so a segment leaves with exactly its own charge,
        and a shared tracker's other leaves keep theirs."""
        self.tracker.discharge("shm", segment, nbytes)

    def _unlink_shm(self, segment: str) -> None:
        """Delete ``segment`` if it exists, and free its charge."""
        if segment_exists(segment):
            ShmSegment.attach(segment).unlink()
        self._release_shm(segment)

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
        else."""
        meta = self._attach_valid_shm()
        if meta is not None:
            meta.close()

    def discard_shm(self) -> bool:
        """Unlink any shared memory state this leaf left behind."""
        if not self.shm_state_exists():
            return False
        self._discard_shm_tracked(LeafMetadata.attach(self.namespace, self.leaf_id))
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
        # Figure 5(c)'s PREPARE: reject new work, finish in-flight work,
        # flush to disk.  In this single-threaded engine that is the seal
        # above and one sync of every table, before any table leaves the
        # heap: a shutdown killed mid-copy falls back to a disk that
        # already holds every row.
        if self.backup is not None:
            self.backup.sync_leafmap(leafmap)
        if self.shm_state_exists():
            self.discard_shm()  # stale state from an unlinked predecessor
        meta = LeafMetadata.create(self.namespace, self.leaf_id, self.layout_version)
        records: list[TableSegmentRecord] = []
        try:
            # Table order must be deterministic so segment names are
            # reproducible across the shutdown/restore pair.
            for index, table_name in enumerate(list(leafmap.table_names)):
                table = leafmap.get_table(table_name)
                records.append(self._copy_table_out(table, index, meta, records, deadline, report))
                report.tables += 1
                leafmap.drop_table(table_name)
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
        """Copy one table into its segment, counting the copies on
        ``report``.

        "add table segment to the leaf metadata" comes before the
        segment exists: ``meta`` names it after ``records`` first, so a
        shutdown killed anywhere in the copy leaves nothing the next
        boot's discard cannot see.
        """
        blocks = table.take_blocks()
        rows = sum(block.row_count for block in blocks)
        rbcs = sum(len(block.schema) for block in blocks)
        copied = sum(block.nbytes for block in blocks)
        image = table_segment_image(table.name, blocks)
        used = image.size
        name = self._segment_base_name(table_index)
        record = TableSegmentRecord(
            table_name=table.name,
            segment_name=name,
            used_bytes=used,
            rows_ingested=table.total_rows_ingested,
            rows_expired=table.total_rows_expired,
        )
        size = max(64, used)
        held = 0
        segment = None
        try:
            # A segment past a gap in the numbering survives a discard
            # of unwalkable metadata; the name is ours, so reclaim it.
            self._unlink_shm(name)
            meta.set_records([*records, record])
            # This table's copy window — the span where segment and heap
            # coexist — is in flight against the machine-wide budget
            # until the copy loop has drained the heap side.
            if self.budget is not None:
                self.budget.acquire(size)
                held = size
            segment = ShmSegment.create(name, size)
            writer = TableSegmentWriter(segment, table.name, blocks, image)
            for index, nbytes, landed in writer.copy_events():
                # §4.4's "allocate, copy, free", a row block per step:
                # the segment is charged as its bytes land (tmpfs backs
                # a page only once it is written), then the block leaves
                # the heap — "delete row block from heap".
                self._charge_shm(name, landed)
                blocks[index] = None
                self._track_heap_free(nbytes)
                if deadline is not None:
                    deadline.check()
            if not blocks:
                self._charge_shm(name, used)  # its preamble alone
            segment.close()
            # Home in shared memory: ``bytes`` are what its segment holds.
            report.rbc_copies += rbcs
            report.bytes_copied += copied
            report.rows += rows
            report.row_blocks += len(blocks)
            report.note("table", table.name, blocks=len(blocks), rows=rows, bytes=used)
            return record
        except BaseException:
            # A copy that raises gives back its segment and what it has
            # charged, so the record that already claims all ``used``
            # bytes is never freed against a sibling leaf's charge.  A
            # killed copy leaves the record.
            if segment is not None:
                segment.unlink()
            self._release_shm(name)
            raise
        finally:
            if held:
                self.budget.release(held)

    # ------------------------------------------------------------------
    # Restore (Figure 7)
    # ------------------------------------------------------------------

    def restore(
        self,
        leafmap: LeafMap,
        on_disk_fallback: Callable[[], None] | None = None,
    ) -> RestartReport:
        """Restore this leaf's data into an empty ``leafmap``.

        Attempts shared memory recovery when the valid bit is set;
        otherwise — or on any exception mid-copy — falls back down the
        ladder, per Figure 5(b): the restore driver, drained.

        ``on_disk_fallback`` is invoked at the fallback boundary, before
        any disk rung runs.  The leaf server hooks its status flip here:
        Figure 5 has the leaf *accepting* adds and queries during the
        slow disk rungs, so staying in the rejecting memory-recovery
        status for an entire legacy replay would turn a seconds-long
        outage into a minutes-long one.
        """
        handle = self._begin_restore(leafmap, on_disk_fallback, serving=False)
        handle.drain()
        return handle.report

    def begin_lazy_restore(
        self,
        leafmap: LeafMap,
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
        return self._begin_restore(leafmap, on_disk_fallback, serving=True)

    def _begin_restore(self, leafmap, on_disk_fallback, serving):
        """Put a restore driver on the best usable source.

        ``serving`` says which entry point was called and changes only
        what the report must say (``lazy``, the MEMORY_SERVING state);
        the driver, its source and every side effect are the same.
        """
        if len(leafmap):
            raise RecoveryError("restore requires an empty leaf map")
        # A leaf restarting after a crash may hand over a fresh leaf map
        # that shares the previous incarnation's cache object; whatever
        # it still holds describes dead blocks.  Restores start cold
        # (the cache's heat counters survive the clear).
        leafmap.drop_column_cache()
        report = RestartReport.begin(self.clock, LeafRestoreState.INIT, lazy=serving)
        meta = self._attach_valid_shm(discard_invalid=False, report=report)
        if meta is not None:
            return LazyRestore(self, leafmap, report, on_disk_fallback, meta)._serve()
        # Also covers the race where the valid bit dropped between the
        # caller's shm_state_valid() check and this attach: the leaf
        # predicted a memory recovery but gets the rungs below.
        session = self._open_replica_session(report)
        if session is not None:
            return ReplicaRestore(self, leafmap, report, on_disk_fallback, session)._serve()
        # No replica, or its handshake just fell: the disk rungs run
        # blocking, and land through the driver with no source.
        self._discard_untrusted_shm()
        handle = RestoreDriver(self, leafmap, report, on_disk_fallback)
        handle._land_from_below()
        return handle

    def _discard_shm_tracked(self, meta: LeafMetadata) -> None:
        """Unlink a leaf's shm state *through the tracker*.

        Each table segment leaves with exactly what the tracker holds for
        it — nothing, in a fresh process — so the "shm" region (possibly
        shared machine-wide) is never left charged for a segment that is
        gone, and the other leaves on a shared tracker keep theirs.
        """
        try:
            names = [record.segment_name for record in meta.records]
        except (CorruptionError, LayoutVersionError):
            # Metadata it cannot walk (torn, or another build's) still
            # leaves this leaf's segments findable: they are named by
            # table index, from 0 up in copy order.
            names = list(takewhile(segment_exists, map(self._segment_base_name, count())))
        for name in names:
            self._unlink_shm(name)
        meta.unlink()

    def _recover_from_disk(self, leafmap: LeafMap, report: RestartReport) -> None:
        """The lower recovery ladder: replica, snapshot tier, then legacy,
        into the fresh map ``leafmap`` (the driver lands it).

        Walks ``report`` through these rungs to ALIVE, so its timeline
        records exactly which tiers ran.  The replica rung is tried only
        by a leaf coming down from shared memory: every other way here
        has had its one replica attempt (a wire fault never retries the
        wire).
        """
        if _RUNG_OF.get(report.leaf_states[-1]) is RecoveryMethod.SHARED_MEMORY:
            session = self._open_replica_session(report)
            if session is not None:
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
        why = self._snapshot_tier_skip()
        if why is None:
            report.enter(LeafRestoreState.DISK_SNAPSHOT_RECOVERY)
            try:
                # Every chain is read (materialize_chain checks each link)
                # and charged before any table exists: a fall here has
                # nothing to unwind.
                snaps = [materialize_chain(self.backup, name) for name in self.backup.table_names]
                self._track_heap_alloc(sum(b.nbytes for snap in snaps for b in snap.blocks))
            except Exception as exc:
                # Stale generation, torn file, layout mismatch, or any
                # decode failure: the whole leaf routes down to legacy
                # replay, so one leaf never mixes tiers.
                report.fall_back(exc)
            else:
                for snap in snaps:
                    table = leafmap.create_table(snap.table_name)
                    table.replace_blocks(snap.blocks)
                    table.total_rows_ingested = snap.rows_ingested
                    table.total_rows_expired = snap.rows_expired
                self._tables_home(leafmap, report)
                return
        elif self.backup.table_names:  # a brand-new leaf passes over nothing
            report.note("skip", RecoveryMethod.DISK_SNAPSHOT, why)
        report.enter(LeafRestoreState.DISK_RECOVERY)
        if self.replay_workers > 1:
            replay_leafmap(
                self.backup,
                leafmap,
                workers=self.replay_workers,
                budget=self.budget,
                clock=self.clock,
            )
        else:
            recover_leafmap(self.backup, leafmap)
        self._track_heap_alloc(sum(table.sealed_nbytes for table in leafmap))
        self._tables_home(leafmap, report)

    @staticmethod
    def _tables_home(leafmap: LeafMap, report: RestartReport) -> None:
        """A disk rung's tables are in ``leafmap`` and charged: count
        them on ``report``, note each one home, and go ALIVE."""
        for table in leafmap:
            blocks, rows, nbytes = table.blocks, table.row_count, table.sealed_nbytes
            report.row_blocks += len(blocks)
            report.rbc_copies += sum(len(block.schema) for block in blocks)
            report.bytes_copied += nbytes
            report.rows += rows
            report.table_home(table.name, len(blocks), rows, nbytes)
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

    def _snapshot_tier_skip(self) -> str | None:
        """Why the snapshot tier is not entered at all, or ``None`` to
        enter it.

        The backup must keep snapshots, this build's declared layout version
        must be the one snapshot bodies are written in — a build whose
        shm layout diverged must not consume shm-format bytes from disk
        any more than from /dev/shm — and the manifest must vouch for
        every table's chain (:meth:`DiskBackup.snapshot_fault`), of
        which there must be at least one.  The first reason found is
        the one returned.
        """
        assert self.backup is not None
        if not self.backup.snapshots_enabled:
            return "backup keeps no snapshots"
        if self.layout_version != SHM_LAYOUT_VERSION:
            return f"layout version {SHM_LAYOUT_VERSION}, not {self.layout_version}"
        if not self.backup.table_names:
            return "no table backed up"
        for name in self.backup.table_names:
            fault = self.backup.snapshot_fault(name)
            if fault is not None:
                return f"table '{name}': {fault}"
        return None
