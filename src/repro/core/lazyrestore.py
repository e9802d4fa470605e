"""The restore driver: one restore body per rung, blocking or serving.

Figure 7's restore is one loop — for each table segment, for each row
block, copy to the heap, delete the segment — and "single-pass,
incremental restore on demand" (*Instant restore after a media failure*,
PAPERS.md) is the same pass with somebody asking.  :class:`RestoreDriver`
is that pass, once:

1. **Publish a block directory.**  Attach the segments, validate the
   envelopes, and read only each block's packed header (offset, size,
   row count, min/max time, column names) — no payload is copied.  A
   serving leaf starts answering as soon as the directory is up.
2. **Fault in on demand.**  ``execute_on_leaf`` asks the restorer for
   the blocks a query's table and time range touch; each fault-in is a
   decode + verify + adopt into the live :class:`LeafMap`, charged to
   the :class:`MemoryTracker` and bounded by the machine-wide
   :class:`FootprintBudget`.
3. **Sweep the remainder by heat.**  A background thread (owned by the
   leaf server) calls :meth:`RestoreDriver.sweep_one` until nothing is
   pending, hottest tables first — heat is the decoded-column cache's
   per-column lookup counters, which deliberately survive the restart's
   cache clear.
4. **Or drain.**  :meth:`RestoreDriver.drain` faults in everything still
   pending, one table at a time, each table's share of the source
   released the moment it is home.  ``RestartEngine.restore`` is begin
   + ``drain()`` and nothing else.

A rung supplies only where a pending block's bytes are:
:class:`LazyRestore` (this module) reads them out of the leaf's own shm
segments, :class:`~repro.core.replicarestore.ReplicaRestore` fetches
them from a standby over the wire.  A plain :class:`RestoreDriver`, with
no source, is what a leaf with neither gets: it only lands the disk
rungs.

Crash safety is Figure 7's, unchanged: the valid bit goes down *before*
the directory is published (and the wire rung only runs when shm was
already untrusted), so nothing the next boot could trust exists while a
restore is under way: a process that dies with blocks still pending —
or a second failure inside the fallback — leaves invalid shm behind and
the next boot walks the disk ladder.  Any fault mid-restore routes the
whole leaf down the same ladder with tracker balances intact — adopted
blocks leave the heap region, surviving segments leave the shm region —
while rows added *during* a serving window are carried across the
fallback.  The rungs below recover into a fresh leaf map, and one
landing step moves each table into the live one with the counters of
what was recovered (:meth:`RestoreDriver._land_from_below`).

Nothing else changes a table's restored blocks while they come in:
expiry runs only on an ALIVE leaf (Figure 5 caption: "any needed
deletions are made after recovery"), so the directory a restore
publishes is exactly what it installs, and the count the source carried
is the table's ``total_rows_expired`` until the leaf is up.
"""

from __future__ import annotations

import traceback
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.core.states import LeafRestoreState
from repro.shm.layout import BlockExtent, read_block_headers
from repro.shm.metadata import LeafMetadata
from repro.shm.segment import ShmSegment

if TYPE_CHECKING:
    # Annotations only: the engine imports this module at its top.
    from repro.core.engine import RestartEngine, RestartReport


class _TableState:
    """Per-table bookkeeping: the directory slice plus adoption slots."""

    def __init__(self, name: str, descriptors) -> None:
        self.name = name
        #: Directory index -> descriptor (the segment's ``BlockExtent``, or the
        #: wire catalog's ``WireBlock``) of every block not yet faulted in.
        self.pending = {desc.index: desc for desc in descriptors}
        self.slots: list[RowBlock | None] = [None] * len(self.pending)
        self.columns = {column for desc in descriptors for column in desc.columns}
        self.nbytes = 0  # heap bytes of the restored blocks

    @property
    def complete(self) -> bool:
        return not self.pending

    def restored_blocks(self) -> list[RowBlock]:
        return [block for block in self.slots if block is not None]


class RestoreDriver:
    """One leaf's in-progress restore off a block source.

    Create through :meth:`RestartEngine.begin_lazy_restore` (serve while
    the blocks come in) or :meth:`RestartEngine.restore` (the same
    driver, drained before it returns).  Its report is the only record
    of how far it has come.

    The driver keeps no lock: its owner's guards it.  Every call a leaf
    server makes — the start, a query's fault-in, the sweep, the inline
    drain, ``crash``'s abandon — holds ``LeafServer._lock``, and
    :meth:`RestartEngine.restore` drives its handle on one thread.  A
    wire drain's fetch threads call only :meth:`_fault_block`, which
    reads ``_budget`` and ``_window`` and writes neither.

    A source subclass sets the labels below and implements
    :meth:`_publish_directory`, :meth:`_read_block` and
    :meth:`_close_source` (plus :meth:`_read_blocks`,
    :meth:`_release_blocks`, :meth:`_release_table`,
    :meth:`_finish_source` and :meth:`_discard_source` where batching a
    drain's reads, letting go of what adopted blocks or one table held,
    or consuming or discarding the source is more than the default).
    """

    #: Where pending blocks fault in from; the leaf server picks its
    #: serving status off this.
    source: str
    #: Bytes a source holds against the budget for a whole table's copy
    #: window; a block decoded inside one reserves nothing of its own.
    _window = 0

    def __init__(
        self,
        engine: RestartEngine,
        leafmap: LeafMap,
        report: RestartReport,
        on_disk_fallback: Callable[[], None] | None,
    ) -> None:
        self._engine = engine
        self._leafmap = leafmap
        #: Live while restoring, and the ladder's: a fall keeps it (and its
        #: totals), and a wire driver entered below a fallen shm one walks
        #: on along the same timeline.
        self.report = report
        self._on_disk_fallback = on_disk_fallback
        self._tables: dict[str, _TableState] = {}  # in publish order
        self._budget = engine.budget
        self.done = False
        self.error: BaseException | None = None

    # ------------------------------------------------------------------
    # What a source supplies
    # ------------------------------------------------------------------

    def _publish_directory(self) -> None:
        """Enter the rung and :meth:`_add_table` every table, moving no
        payload."""
        raise NotImplementedError

    def _read_block(self, desc):
        """The packed bytes of one pending block (bytes or memoryview)."""
        raise NotImplementedError

    def _read_blocks(self, descs: list) -> Iterator[tuple]:
        """``(descriptor, decoded block)`` for everything a drain still
        wants, tables hottest first."""
        raise NotImplementedError

    def _release_blocks(self, state: _TableState) -> None:
        """A block is home, its table not yet: let go of whatever of the
        source's copy no pending block still needs."""

    def _release_table(self, state: _TableState) -> None:
        """A table is home: let go of the source's copy of it."""

    def _close_source(self) -> None:
        """Drop the handles on the source, consuming nothing."""
        raise NotImplementedError

    def _finish_source(self) -> None:
        """Every block is home: consume (or re-arm) the source."""
        self._close_source()

    def _discard_source(self) -> None:
        """A fault burned the source: nothing of it may be trusted again."""
        self._close_source()

    # ------------------------------------------------------------------
    # Begin: publish the directory, start serving
    # ------------------------------------------------------------------

    def _serve(self) -> "RestoreDriver":
        """Publish the directory and hand the leaf map its restorer.

        Anything odd before the directory is up — the source's own
        fault, or a surprise on the way to it — discards the source and
        walks the ladder below *inside* this call; the handle then comes
        back already done.
        """
        try:
            self._publish_directory()
        except Exception as exc:
            self._fallback(exc)
            return self
        self._leafmap.restorer = self
        self._maybe_finish()  # an empty leaf is restored by definition
        return self

    def _add_table(self, name: str, descriptors, rows_ingested: int, rows_expired: int) -> None:
        """Index one table's blocks and create it (empty) in the leaf map."""
        state = self._tables[name] = _TableState(name, descriptors)
        self.report.bytes_total += sum(desc.size for desc in descriptors)
        self.report.blocks_total += len(state.slots)
        table = self._leafmap.create_table(name)
        table.total_rows_ingested = rows_ingested
        table.total_rows_expired = rows_expired
        if state.complete:  # an empty table is restored by definition
            self._table_done(state)

    def _table_done(self, state: _TableState) -> None:
        """Nothing of this table is pending any more."""
        self._release_table(state)
        home = state.restored_blocks()
        rows = sum(block.row_count for block in home)
        self.report.table_home(state.name, len(home), rows, state.nbytes)

    # ------------------------------------------------------------------
    # Fault-in
    # ------------------------------------------------------------------

    def fault_in_query(
        self, table: str, start: int | None, end: int | None
    ) -> int:
        """Fault in the pending blocks a query's scan would touch.

        Called by ``execute_on_leaf`` (and the row oracle) before the
        block walk.  Blocks outside the query's time range stay pending
        — that is the whole point — so a dashboard query over the last
        few minutes answers after faulting a handful of recent blocks.
        Returns the number of blocks faulted in.
        """
        if self.done:
            return 0
        report = self.report
        report.queries_served_during_restore += 1
        faulted = 0
        state = self._tables.get(table)
        if state is not None:
            touched = [
                desc
                for _, desc in sorted(state.pending.items())
                if desc.overlaps(start, end)
            ]
            faulted = self._fault_in(self._each(touched))
            if self.done:
                # A fault routed this leaf down the ladder and the
                # ladder succeeded: the data is now fully resident,
                # so the query proceeds against it.
                return faulted
        if report.bytes_restored_at_first_query is None:
            report.note("first_query", table, bytes=report.bytes_restored)
        self._maybe_finish()
        return faulted

    def sweep_one(self) -> bool:
        """Fault in one pending block, hottest table first.

        Returns False once nothing is pending (the restore is finished,
        or it fell back to disk).  Heat is read live from the decoded-
        column cache on every call, so the sweep re-prioritizes as query
        traffic shifts; ties (and a cold cache) fall back to publish
        order, which is the segment order of Figure 7.
        """
        if self.done:
            return False
        tables = self._pending_by_heat()
        if not tables:
            self._maybe_finish()
            return False
        pending = tables[0].pending
        # Oldest block first within a table.
        self._fault_in(self._each([pending[min(pending)]]))
        if self.done:
            return False  # fell back to disk; nothing left to sweep
        self._maybe_finish()
        return True

    def drain(self) -> None:
        """Fault in everything still pending, one table at a time.

        A blocking finish — and all a blocking restore is: Figure 7's
        loop, for each table, for each row block, copy to the heap and
        let the source's copy go, is this pass with nobody asking.
        """
        if self.done:
            return
        pending = [
            desc
            for state in self._pending_by_heat()
            for _, desc in sorted(state.pending.items())
        ]
        self._fault_in(self._read_blocks(pending))
        self._maybe_finish()

    def _pending_by_heat(self) -> list[_TableState]:
        """Tables with blocks still pending, hottest first."""
        cache = self._leafmap.column_cache
        heat = cache.column_heat() if cache is not None else {}
        pending = [state for state in self._tables.values() if not state.complete]
        # sorted() is stable: equal heat keeps publish order.
        return sorted(
            pending,
            key=lambda state: -sum(heat.get(column, 0) for column in state.columns),
        )

    def _each(self, descs) -> Iterator[tuple]:
        """``(descriptor, decoded block)``, one read at a time."""
        for desc in descs:
            yield desc, self._fault_block(self._read_block(desc))

    def _fault_block(self, payload, header=None) -> RowBlock:
        """Decode and verify one block's packed bytes into the heap
        (only their body, given the ``header`` a directory read of them).

        The block's copy window — source bytes and fresh heap copy
        coexisting — is reserved against the machine-wide budget for the
        duration of the decode unless the source already holds the whole
        table's window; it is taken only once the bytes are here, never
        across a wire round trip.  This is the one place restored bytes
        become a :class:`RowBlock`: a query's fault-in, the sweep, a
        drain and the wire source's fetch threads all come through it.
        """
        held = 0
        if self._budget is not None and not self._window:
            held = len(payload)
            self._budget.acquire(held)
        try:
            block = RowBlock.unpack(payload, header)
            block.verify()
        finally:
            del payload  # a live slice would pin the source's mapping
            if held:
                self._budget.release(held)
        return block

    def _fault_in(self, arrivals: Iterator[tuple]) -> int:
        """Adopt decoded blocks as they arrive.

        Each is charged to the heap and counted on the report; a table
        whose last block this was is done — its source released — before
        the next block is read, and every table touched gets its restored
        blocks reinstalled once at the end.  Any failure on the way (read,
        decode, adopt, release) routes the leaf down the ladder via
        :meth:`_fallback`; the caller sees ``done``.  Returns the number
        of blocks adopted.
        """
        engine = self._engine
        report = self.report
        adopted = 0
        touched: dict[str, _TableState] = {}
        state = None
        try:
            for desc, block in arrivals:
                if state is None or state.name != desc.table:  # neighbours mostly share a table
                    state = touched[desc.table] = self._tables[desc.table]
                nbytes = block.nbytes
                engine._track_heap_alloc(nbytes)
                del state.pending[desc.index]
                state.slots[desc.index] = block
                state.nbytes += nbytes
                report.bytes_restored += desc.size
                report.row_blocks += 1
                report.rbc_copies += len(desc.columns)
                report.bytes_copied += nbytes
                report.rows += block.row_count
                adopted += 1
                if state.complete:
                    self._table_done(state)
                else:
                    self._release_blocks(state)
            for state in touched.values():
                # Directory order first, then blocks sealed from rows
                # added during the serving window, so aggregate floats
                # merge in the same order however the blocks arrived.
                # Nothing else leaves a table in the window: expiry waits
                # for ALIVE.
                self._leafmap.get_table(state.name).install_restored_blocks(
                    state.restored_blocks()
                )
        except Exception as exc:
            self._fallback(exc)
        return adopted

    def _maybe_finish(self) -> None:
        """Every block is in: settle the source, go ALIVE."""
        if self.done or any(state.pending for state in self._tables.values()):
            return
        try:
            self._finish_source()
        except Exception as exc:
            self._fallback(exc)
            return
        self.report.enter(LeafRestoreState.ALIVE)
        self._go_alive()

    # ------------------------------------------------------------------
    # The ladder below: one landing, fallback, abandonment
    # ------------------------------------------------------------------

    def _land_from_below(self) -> None:
        """Flip the leaf to its disk status, recover from the rungs below
        into a fresh leaf map, and move each table into the live one: the
        one landing, for a leaf with no usable source and for
        :meth:`_fallback` alike.  The rungs' failure propagates and
        leaves the live map as it was.

        A table the live map lacks is adopted whole.  A published table
        holds only its serving-window rows by now; the recovered blocks
        go under them (they are strictly older), and its counters become
        the recovery's with the window's rows ingested on top.  One the
        rungs below lack keeps its window rows, or goes if it has none.
        """
        leafmap = self._leafmap
        if self._on_disk_fallback is not None:
            self._on_disk_fallback()
        recovered = leafmap.empty_like()
        self._engine._recover_from_disk(recovered, self.report)
        for table in list(leafmap):
            window = table.row_count
            if table.name in recovered:
                below = recovered.get_table(table.name)
                table.install_restored_blocks(below.blocks)
                table.total_rows_ingested = below.total_rows_ingested + window
                table.total_rows_expired = below.total_rows_expired
            elif window:
                table.total_rows_ingested, table.total_rows_expired = window, 0
            else:
                leafmap.drop_table(table.name)
        for table in recovered:
            if table.name not in leafmap:
                leafmap.adopt_table(table)
        self._go_alive()

    def _go_alive(self) -> None:
        """The winning rung walked the report to ALIVE: close the books."""
        self.report.peak_tracked_bytes = self._engine.tracker.peak_total
        self._leafmap.restorer = None
        self.done = True

    def _fallback(self, exc: BaseException) -> None:
        """Route the leaf down the ladder after a mid-restore fault.

        All-or-nothing: every adopted block leaves the heap through the
        tracker, the source is discarded, the attempt's counters go on
        the rung's ``fall`` event, and rows added during the serving
        window are carried across by :meth:`_land_from_below`.  If that
        fails too, the restore is over: ``error`` is set and re-raised.
        """
        if self.done:
            return
        engine = self._engine
        leafmap = self._leafmap
        try:
            # The failed decode's dead frames may hold slices of the
            # source's mapping, which would pin it past the close below.
            traceback.clear_frames(exc.__traceback__)
            self.report.fall_back(exc)
            # Pull adopted blocks back out of the live tables, keeping
            # the data that arrived during the serving window: blocks
            # sealed from new adds and the open write buffers stay.
            for state in self._tables.values():
                if state.name not in leafmap:
                    continue
                table = leafmap.get_table(state.name)
                adopted = [block for block in state.slots if block is not None]
                adopted_uids = {block.uid for block in adopted}
                table.replace_blocks(
                    [b for b in table.blocks if b.uid not in adopted_uids]
                )
                if adopted:
                    engine._track_heap_free(sum(b.nbytes for b in adopted))
                state.slots = [None] * len(state.slots)
            self._discard_source()
            leafmap.restorer = None
            self._land_from_below()
        except Exception as failure:
            self.error, self.done = failure, True
            raise

    def abandon(self) -> None:
        """Drop the source without consuming anything (crash path).

        What stays is exactly what an interrupted blocking restore
        leaves: invalid shm the next boot discards before walking the
        ladder (a wire session pinned only the standby's snapshot).
        """
        if self.done:
            return
        self._close_source()
        self._leafmap.restorer = None
        self.done = True


class LazyRestore(RestoreDriver):
    """The shared-memory source: this leaf's own segments."""

    source = "shm"

    # benchmarks/ledger/layers.py wraps these two through vars(LazyRestore)
    # so that a wire restore's spans read zero here: keep them in this
    # class's own namespace.
    fault_in_query = RestoreDriver.fault_in_query
    sweep_one = RestoreDriver.sweep_one

    def __init__(self, engine, leafmap, report, on_disk_fallback, meta: LeafMetadata) -> None:
        super().__init__(engine, leafmap, report, on_disk_fallback)
        self._meta: LeafMetadata | None = meta  # attached, valid, ours to close
        self._segments: dict[str, ShmSegment] = {}
        self._views: dict[str, memoryview] = {}  # each segment's used bytes
        self._low: dict[str, int] = {}  # per table, nothing below is pending

    def _publish_directory(self) -> None:
        """Attach every table segment and index its blocks by header.

        The expensive part of Figure 7 — decode and copy — is deferred;
        this only maps the segments and reads packed headers, so a
        serving leaf can start in directory-scan time.  Crash safety is
        Figure 7's: the valid bit goes down *first*.
        """
        self.report.enter(LeafRestoreState.MEMORY_RECOVERY)
        engine = self._engine
        assert self._meta is not None
        self._meta.set_valid(False)  # interrupted restores must go to disk
        for record in self._meta.records:
            segment = ShmSegment.attach(record.segment_name)
            self._segments[record.table_name] = segment
            view = segment.read_at(0, record.used_bytes)
            self._views[record.table_name] = view
            # The fault-ins are about to consume the segment's used bytes:
            # charge whatever of them the tracker does not hold (all of
            # them, in a fresh process; none after this machine's own
            # copy-out), so the footprint sums hold.
            lacking = record.used_bytes - engine.tracker.charged(record.segment_name)
            if lacking > 0:
                engine._charge_shm(record.segment_name, lacking)
            self._low[record.table_name] = 0
            _, extents = read_block_headers(view)
            self._add_table(record.table_name, extents, record.rows_ingested, record.rows_expired)
        if self.report.lazy:
            self.report.enter(LeafRestoreState.MEMORY_SERVING)

    def _read_block(self, desc: BlockExtent) -> memoryview:
        return self._views[desc.table][desc.offset : desc.offset + desc.size]

    def _each(self, descs) -> Iterator[tuple]:
        """The extent is the block's header: the directory checked those
        bytes, in a mapping this leaf owns with the valid bit already
        down, so the decode reads only the body."""
        for desc in descs:
            yield desc, self._fault_block(self._read_block(desc), desc)

    def _read_blocks(self, descs: list) -> Iterator[tuple]:
        """Each table's blocks inside that table's copy window.

        The table exists twice — segment plus fresh heap copies — from
        its first block until :meth:`_release_table` unlinks the
        segment; a drain reserves that double presence (the segment's
        used bytes) against the machine-wide budget up front, as
        Figure 7's per-table loop does, instead of block by block.
        """
        for name, blocks in groupby(descs, key=attrgetter("table")):
            if self._budget is not None:
                window = len(self._views[name])
                self._budget.acquire(window)
                self._window = window
            yield from self._each(blocks)

    def _release_blocks(self, state: _TableState) -> None:
        """Give back the whole pages below the lowest block still pending,
        and exactly those bytes to the tracker.  Blocks sit in directory
        order, so stepping past what left ``pending`` finds it (no scan);
        a drain moves it one block at a time."""
        name, pending = state.name, state.pending
        low = self._low[name]
        while low not in pending:
            low += 1
        self._low[name] = low
        segment = self._segments[name]
        released = segment.release_pages(pending[low].offset)
        if released:
            self._engine._release_shm(segment.name, released)

    def _release_table(self, state: _TableState) -> None:
        """ "delete the table shared memory segment" the moment its table
        is home, serving or blocking: with :meth:`_release_blocks`, the
        footprint peaks at the resident data plus one block (and a page)."""
        self._unlink_segment(state.name)
        self._close_window()

    def _unlink_segment(self, name: str) -> None:
        """Unmap and delete one segment, then free what it still charges.
        A step is struck off only once it has happened, so the discard
        can finish a segment a fault left half gone."""
        view = self._views.pop(name, None)
        if view is not None:
            view.release()  # an exported view pins the mmap
        segment = self._segments[name]
        segment.unlink()
        del self._segments[name]
        self._engine._release_shm(segment.name)

    def _close_window(self) -> None:
        if self._window:
            self._budget.release(self._window)
            self._window = 0

    def _close_source(self) -> None:
        """Unmap everything; the (invalid) segments themselves stay."""
        for view in self._views.values():
            view.release()
        for segment in self._segments.values():
            segment.close()
        if self._meta is not None:
            self._meta.close()
            self._meta = None
        self._close_window()

    def _finish_source(self) -> None:
        """Every segment is gone with its table: consume the metadata."""
        assert self._meta is not None
        self._meta.unlink()
        self._meta = None

    def _discard_source(self) -> None:
        """Delete the shm state through the tracker: it is untrusted.  What
        this restore mapped goes first, the rest by the metadata's walk."""
        meta, self._meta = self._meta, None
        for name in list(self._segments):
            self._unlink_segment(name)
        self._close_source()
        self._engine._discard_shm_tracked(meta)


__all__ = ["LazyRestore", "RestoreDriver"]
