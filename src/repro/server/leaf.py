"""The leaf server.

A leaf stores a fraction of most tables, accepts new rows as they arrive,
deletes expired data, answers queries, and — the subject of the paper —
shuts down into shared memory and restarts from it.

Service status drives what a leaf will do (paper, Figure 5 and Section
4.3):

- ``ALIVE``: accepts adds, deletes, queries.
- ``RECOVERING_DISK``: accepts adds and queries ("the server also accepts
  new data as soon as it starts recovery"; queries see gradually
  increasing partial data).  Tailers avoid routing here when possible.
- ``RECOVERING_MEMORY``: accepts nothing — memory recovery takes seconds
  ("during memory recovery [...] no add data requests or queries are
  accepted").
- ``RECOVERING_MEMORY_SERVING``: the serve-while-restoring extension of
  memory recovery.  The block directory is published, queries fault in
  the blocks they touch, a background sweep fills the rest hottest
  columns first — so the leaf accepts adds *and* queries while most of
  its bytes still sit in shared memory.
- ``RECOVERING_REPLICA_SERVING``: the same serving window, but pending
  blocks fault in *over the wire* from a sibling replica leaf instead of
  from shared memory (the replica recovery rung).
- ``SHUTTING_DOWN``: rejects new work, finishes what is in flight.
- ``DOWN``: the process is gone.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable, Iterable, Mapping

from repro.columnstore.colcache import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    DecodedColumnCache,
)
from repro.columnstore.leafmap import LeafMap, snapshot_leafmap
from repro.columnstore.table import Table
from repro.core.engine import RestartEngine, RestartReport
from repro.core.watchdog import CooperativeDeadline
from repro.disk.backup import DiskBackup
from repro.errors import StateError
from repro.query.execute import LeafExecution, execute_on_leaf
from repro.query.query import Query
from repro.types import ColumnValue
from repro.util.clock import Clock, SystemClock
from repro.util.memtrack import MemoryTracker

#: Scaled-down default leaf capacity.  A production Scuba leaf holds
#: 10–15 GB (144 GB machine / 8 leaves, minus headroom); tests and
#: examples run the same code against megabytes.
DEFAULT_CAPACITY_BYTES = 64 << 20


class LeafStatus(Enum):
    INIT = "init"
    RECOVERING_DISK = "recovering_disk"
    RECOVERING_MEMORY = "recovering_memory"
    RECOVERING_MEMORY_SERVING = "recovering_memory_serving"
    RECOVERING_REPLICA_SERVING = "recovering_replica_serving"
    ALIVE = "alive"
    SHUTTING_DOWN = "shutting_down"
    DOWN = "down"


class LeafServer:
    """One leaf server's full lifecycle."""

    def __init__(
        self,
        leaf_id: str,
        backup: DiskBackup,
        namespace: str = "scuba",
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        clock: Clock | None = None,
        rows_per_block: int | None = None,
        version: str = "v1",
        machine_id: str | None = None,
        tracker: MemoryTracker | None = None,
        query_cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self.leaf_id = str(leaf_id)
        self.machine_id = machine_id if machine_id is not None else self.leaf_id
        self.capacity_bytes = capacity_bytes
        self.clock = clock or SystemClock()
        self.version = version
        self._rows_per_block = rows_per_block
        # A machine restarting its leaves in parallel passes one shared
        # tracker so the footprint peak is measured machine-wide.
        self.tracker = tracker or MemoryTracker()
        self.backup = backup
        self.engine = RestartEngine(
            leaf_id=self.leaf_id,
            namespace=namespace,
            backup=backup,
            tracker=self.tracker,
            clock=self.clock,
        )
        #: The leaf-wide decoded-column cache: sealed-block queries read
        #: through it, its bytes are charged to the tracker's "cache"
        #: region, and every lifecycle transition that invalidates heap
        #: data (shutdown, crash, restore) empties it.
        self.column_cache = DecodedColumnCache(
            query_cache_bytes, tracker=self.tracker
        )
        self.leafmap = LeafMap(
            clock=self.clock,
            rows_per_block=rows_per_block,
            column_cache=self.column_cache,
        )
        self.status = LeafStatus.INIT
        #: The latest shutdown's or start's report; a serving start's is
        #: live, the record of how far its restore has come.
        self.last_restart_report: RestartReport | None = None
        #: The serving restore this leaf has not settled yet, and its
        #: background sweep thread.  A restore that failed stays here
        #: until the next start or crash, for :meth:`wait_restored` to
        #: re-raise its ``error``.
        self._restorer = None
        self._sweep_thread: threading.Thread | None = None
        #: One coarse lock serializes the data plane against lifecycle
        #: transitions.  The paper's PREPARE state "waits for ADD/QUERY
        #: requests in progress to complete" before the copy starts —
        #: holding this lock across shutdown() is exactly that wait.
        self._lock = threading.RLock()

    def _new_leafmap(self) -> LeafMap:
        return LeafMap(
            clock=self.clock,
            rows_per_block=self._rows_per_block,
            column_cache=self.column_cache,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(
        self,
        serve_while_restoring: bool = False,
        sweep: bool = True,
    ) -> RestartReport:
        """Boot the leaf: restore from shared memory or disk.

        The rung is what the leaf finds, as in Figure 7: a valid shared
        memory image, else a standby's wire session, else the disk
        backup; no argument picks it.  A brand-new leaf (no shared
        memory, no backup files) comes up empty via the disk path.

        With ``serve_while_restoring=True`` and valid shared memory, the
        leaf publishes the block directory, moves to
        ``RECOVERING_MEMORY_SERVING``, and returns *before* the bytes are
        restored: queries fault in what they touch and a background sweep
        fills the remainder hottest-first.  The returned report, the
        ``last_restart_report`` from here on, is live: its
        ``fraction_restored`` is how far the restore has come until
        :meth:`wait_restored` finishes it.  ``sweep=False`` suppresses
        the background fill thread —
        only queries fault blocks in until ``wait_restored`` drains the
        rest inline; benchmarks and phase-controlled tests use it to
        take deterministic progress readings.

        On either path the status is flipped to ``RECOVERING_DISK`` only
        at the moment the engine actually falls back to disk — never
        earlier — so a leaf that attempted memory recovery advertises
        ``RECOVERING_MEMORY`` (rejecting work, per Figure 5) right up to
        the fallback boundary.  A start whose whole ladder fails leaves
        the leaf ``DOWN`` and raises.
        """
        with self._lock:
            if self.status not in (LeafStatus.INIT, LeafStatus.DOWN):
                raise StateError(f"cannot start a leaf in status {self.status.value}")
            self.leafmap = self._new_leafmap()
            self._restorer = None
            self.status = (
                LeafStatus.RECOVERING_MEMORY
                if self.engine.shm_state_valid()
                else LeafStatus.RECOVERING_DISK
            )

            def on_disk_fallback() -> None:
                # The Figure 5 boundary: memory recovery is abandoned and
                # disk recovery begins.  Flipping here (not before, not
                # after) is what lets tailers route adds to a leaf the
                # instant it starts accepting them.
                self.status = LeafStatus.RECOVERING_DISK

            restorer = None
            try:
                if serve_while_restoring:
                    restorer = self.engine.begin_lazy_restore(
                        self.leafmap, on_disk_fallback=on_disk_fallback
                    )
                    report = restorer.report
                else:
                    report = self.engine.restore(
                        self.leafmap, on_disk_fallback=on_disk_fallback
                    )
            except Exception:
                # The whole ladder failed: nothing the leaf could serve.
                self._settle_locked(alive=False)
                raise
            self.last_restart_report = report
            if restorer is None or restorer.done:
                # Blocking, or an empty leaf, a disk-only boot, or a
                # publish failure that already ran the ladder.
                self._settle_locked(alive=True)
                return report
            self._restorer = restorer
            # The engine hands back whichever restorer its ladder chose;
            # the serving status advertises where pending blocks come
            # from (shared memory or a sibling replica's wire session).
            self.status = (
                LeafStatus.RECOVERING_REPLICA_SERVING
                if restorer.source == "replica"
                else LeafStatus.RECOVERING_MEMORY_SERVING
            )
            if sweep:
                self._sweep_thread = threading.Thread(
                    target=self._sweep_loop,
                    args=(restorer,),
                    name=f"leaf-{self.leaf_id}-restore-sweep",
                    daemon=True,
                )
                self._sweep_thread.start()
            return report

    def _settle_locked(self, alive: bool) -> None:
        """A restore is over: the leaf goes ALIVE, or DOWN with nothing
        of the attempt left on the heap or the tracker, as after a
        crash.  Every way a start, a sweep or a drain ends comes here."""
        if alive:
            self._restorer = None
            self.status = LeafStatus.ALIVE
            return
        self.column_cache.clear()
        self.leafmap = self._new_leafmap()
        # A dead process takes its heap with it: the engine's charge
        # must not stay on the (machine-shared) tracker.
        self.engine.forget_heap()
        self.status = LeafStatus.DOWN

    def _sweep_loop(self, restorer) -> None:
        """Background fill: one block per lock acquisition, hottest table
        first, so queries interleave freely with the sweep."""
        while True:
            with self._lock:
                if self._restorer is not restorer or self.status is LeafStatus.DOWN:
                    return  # crash() abandoned it, or a drain or a query settled it
                try:
                    swept = restorer.sweep_one()
                except Exception:
                    swept = False  # the ladder failed; the error is the driver's
                if not swept:
                    self._settle_locked(alive=restorer.error is None)
                    return

    def wait_restored(self, timeout: float | None = None) -> RestartReport | None:
        """Block until a serve-while-restoring boot has every block in.

        Returns the final restart report (or the last one, when no lazy
        restore is pending).  Re-raises the restore error if the whole
        recovery ladder failed in the background.
        """
        with self._lock:
            thread = self._sweep_thread
        if thread is not None:
            # Join outside the lock: the sweep thread takes it per block.
            thread.join(timeout)
            if thread.is_alive():
                raise TimeoutError(
                    f"leaf {self.leaf_id} still restoring after {timeout}s"
                )
            with self._lock:
                self._sweep_thread = None
        with self._lock:
            restorer = self._restorer
            if restorer is not None and self.status is not LeafStatus.DOWN:
                # No sweep thread (``sweep=False``, or a query finished
                # the restore between thread iterations): drain inline.
                try:
                    restorer.drain()
                finally:
                    self._settle_locked(alive=restorer.error is None)
            if restorer is not None and restorer.error is not None:
                raise restorer.error
            return self.last_restart_report

    def shutdown(
        self,
        use_shm: bool = True,
        deadline_seconds: float | None = None,
    ) -> RestartReport | None:
        """Clean shutdown: stop new work, flush, and (optionally) copy
        everything to shared memory.

        With ``use_shm=False`` the leaf only flushes its backup — the
        pre-paper behaviour whose restart pays the full disk recovery.
        A copy still running ``deadline_seconds`` (on the leaf's clock)
        after the call is aborted, as §4.3's kill would.  Returns the
        backup report (None for the disk-only path).
        """
        deadline = (
            CooperativeDeadline(deadline_seconds, clock=self.clock)
            if deadline_seconds is not None
            else None
        )
        # A shutdown issued mid-serve-while-restoring first drains the
        # restore (outside the lock — the sweep thread needs it).
        with self._lock:
            draining = (
                self._sweep_thread is not None or self._restorer is not None
            )
        if draining:
            self.wait_restored()
        with self._lock:
            return self._shutdown_locked(use_shm, deadline)

    def _shutdown_locked(
        self,
        use_shm: bool,
        deadline: CooperativeDeadline | None,
    ) -> RestartReport | None:
        if self.status is not LeafStatus.ALIVE:
            raise StateError(f"cannot shut down a leaf in status {self.status.value}")
        self.status = LeafStatus.SHUTTING_DOWN
        self.leafmap.seal_all()
        self.backup.sync_leafmap(self.leafmap)
        report = None
        if use_shm:
            try:
                report = self.engine.backup_to_shm(self.leafmap, deadline=deadline)
                self.last_restart_report = report
            except Exception:
                # A failed/overrun copy behaves like a kill: the process
                # dies, the valid bit is false, the next start uses disk.
                self.status = LeafStatus.DOWN
                raise
        else:
            # Disk-only shutdown discards the heap wholesale; neither
            # cached decodes of the discarded blocks nor the engine's
            # heap charge may stay on the (machine-shared) tracker.
            self.column_cache.clear()
            self.leafmap = self._new_leafmap()
            self.engine.forget_heap()
        self.status = LeafStatus.DOWN
        return report

    def crash(self) -> None:
        """Unclean death: heap contents are simply gone.

        Whatever was not yet synced to disk is lost, and any shared
        memory state is *not* created — the next start recovers from
        disk (the paper never trusts shared memory after a crash).
        """
        with self._lock:
            restorer, self._restorer = self._restorer, None
            if restorer is not None:
                # The valid bit is already down; abandoning just drops
                # our handles so the dead process leaks nothing locally.
                restorer.abandon()
            self._settle_locked(alive=False)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return self.status is LeafStatus.ALIVE

    @property
    def accepts_adds(self) -> bool:
        return self.status in (
            LeafStatus.ALIVE,
            LeafStatus.RECOVERING_DISK,
            LeafStatus.RECOVERING_MEMORY_SERVING,
            LeafStatus.RECOVERING_REPLICA_SERVING,
        )

    #: The same statuses take queries (Figure 5).
    accepts_queries = accepts_adds

    @property
    def used_bytes(self) -> int:
        return self.leafmap.nbytes

    @property
    def free_memory(self) -> int:
        """What the leaf reports when a tailer asks (paper, Section 2)."""
        return max(0, self.capacity_bytes - self.used_bytes)

    def add_rows(
        self, table: str, rows: Iterable[Mapping[str, ColumnValue]]
    ) -> int:
        """Ingest a batch into one table."""
        with self._lock:
            if not self.accepts_adds:
                raise StateError(
                    f"leaf {self.leaf_id} rejects adds in status {self.status.value}"
                )
            return self.leafmap.get_or_create(table).add_rows(rows)

    def query(self, query: Query) -> LeafExecution:
        """Answer one query from local data.  A query whose fault-in
        fell and whose ladder below failed too raises the restore's error
        and leaves the leaf DOWN, as a failed start does."""
        with self._lock:
            if not self.accepts_queries:
                raise StateError(
                    f"leaf {self.leaf_id} rejects queries in status "
                    f"{self.status.value}"
                )
            try:
                return execute_on_leaf(self.leafmap, query)
            except Exception:
                restorer = self._restorer
                if restorer is not None and restorer.error is not None:
                    # Its fault-in fell and the ladder below failed too.
                    self._settle_locked(alive=False)
                raise

    def sealed_snapshot(self) -> dict[str, tuple[list, int, int]]:
        """A point-in-time view of every table's blocks, all sealed.

        What this leaf serves a restarting sibling over the wire:
        ``{name: (blocks, rows_ingested, rows_expired)}``.  Taken under
        the data-plane lock so a concurrent add or expiry cannot tear
        the view.  Buffered rows are sealed first — they are
        acknowledged deliveries, and leaving them out would hand the
        restarting sibling less data than its own disk backup holds.
        """
        with self._lock:
            self.leafmap.seal_all()
            return snapshot_leafmap(self.leafmap)

    @property
    def cache_stats(self) -> CacheStats:
        """Decoded-column cache counters (hit rate, bytes, evictions)."""
        with self._lock:
            return self.column_cache.stats()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def sync_to_disk(self) -> int:
        """A periodic sync point; returns rows written.

        Skipped (returns 0) while a lazy restore is in flight: the
        table's monotone ingest watermarks already cover the pending
        blocks — they were synced before the shutdown that produced the
        shared memory image — and syncing a partially-resident block
        list would double-write rows into the backup.
        """
        with self._lock:
            if self._restorer is not None:
                return 0
            return self.backup.sync_leafmap(self.leafmap)

    def expire(self, retention_seconds: int) -> int:
        """Age-based expiry across all tables; returns rows dropped."""
        return self.expire_tables(
            lambda table, now: table.expire(now - retention_seconds)
        )

    def expire_tables(self, expire: Callable[[Table, int], object]) -> int:
        """Run ``expire(table, now)`` on every table and record each
        table's expired-row count, all in one manifest; returns rows
        dropped.

        ALIVE only: Scuba "stops deleting expired table data once
        shutdown starts" and makes "any needed deletions [...] after
        recovery" (Figure 5 caption), so a serving restore refuses it as
        DOWN does.  The status check shares the critical section with
        the expiry: checked outside, a concurrent stop() could land
        between check and loop.
        """
        with self._lock:
            if self.status is not LeafStatus.ALIVE:
                raise StateError(
                    f"leaf {self.leaf_id} cannot expire data in status "
                    f"{self.status.value}"
                )
            now = int(self.clock.now())
            dropped = 0
            with self.backup.publish_once():
                for table in self.leafmap:
                    before = table.total_rows_expired
                    expire(table, now)
                    dropped += table.total_rows_expired - before
                    self.backup.record_expiry(table.name, table.total_rows_expired)
            return dropped

    def __repr__(self) -> str:
        return (
            f"LeafServer(id={self.leaf_id!r}, status={self.status.value}, "
            f"version={self.version}, rows={self.leafmap.row_count})"
        )
